//! `serve-tuned`: ResNet-50 inference served by the empirically tuned
//! engine, from a cold layer store whose disk tier is a fresh directory.
//! The cold phase plans every batch size, builds the latency table and runs
//! the batching sweep at fixed offered rates; the warm phase replays the
//! table build, which must hit the store for every lookup and reproduce
//! the cold table bit for bit.

use crate::metrics::Metrics;
use crate::{timed, warm_up_simulator, Ctx, Outcome};
use lsv_arch::presets::sx_aurora;
use lsv_conv::store::{self, StoreConfig};
use lsv_conv::{ExecutionMode, ModelRunner, Pass, TunePolicy};
use lsv_models::ResNetModel;
use lsv_serve::{
    best_by_load, reference_capacity_rps, resnet_specs, run_sweep, run_timeseries, serving_json,
    ArrivalShape, BatchPolicy, LatencyTable, ServeEngine, SweepConfig, SweepMeta,
};
use std::time::Instant;

/// Largest batch the server forms.
const MAX_BATCH: usize = 8;
/// Requests simulated per offered rate.
const REQUESTS: usize = 4000;
/// The latency limit on p99, in simulated milliseconds. Pinned here, not
/// derived from the latency table, so a plan with slower kernels shows as
/// a worse p99 or capacity.
const SLO_MS: f64 = 100.0;
/// Offered rates (requests per second), ascending; `serve_capacity_rps` is
/// the highest that meets the SLO without a growing backlog.
const RATES: [f64; 21] = [
    50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0, 170.0, 180.0,
    190.0, 200.0, 210.0, 220.0, 230.0, 240.0, 250.0,
];
/// The offered rate `serve_p99_ms` is read at.
const P99_RATE: f64 = 150.0;
/// A rate whose completions fall below this share of the offered rate has
/// a growing backlog.
const KEEP_UP: f64 = 0.95;

const MODEL: ResNetModel = ResNetModel::R50;
const PASS: Pass = Pass::Inference;
const MODE: ExecutionMode = ExecutionMode::TimingOnly;

pub fn run(ctx: &Ctx) -> Outcome {
    // The store must be cold and private whatever `LSV_STORE*` says.
    store::configure(StoreConfig {
        disabled: false,
        dir: Some(ctx.scratch.join("layer-store")),
        paranoid_pct: 0,
    })
    .expect("store configured before first use");
    let arch = sx_aurora();
    let tracer = &ctx.tracer;
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        attempted += 1;
        if !ok {
            failed += 1;
            failures.push(what);
        }
    };

    let (specs, setup_s) = ctx.setup(|| {
        warm_up_simulator();
        (1..=MAX_BATCH)
            .map(|b| resnet_specs(MODEL, b))
            .collect::<Vec<_>>()
    });
    let st = store::store();
    let before = st.stats();
    check(
        before.hits() + before.misses + before.inserts == 0,
        format!("store not cold at start: {before:?}"),
    );

    // Cold phase: everything a first `lsvconv serve --engine tuned` does.
    let ((plans, table, rows, cfg, plan_ms, table_ms, sweep_ms), cold_took) = timed(|| {
        tracer.span(
            "bench",
            || "cold".to_string(),
            None,
            |root| {
                let t0 = Instant::now();
                let plans: Vec<_> = specs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        tracer.span(
                            "conv.runner",
                            || format!("ModelRunner::plan batch {}", i + 1),
                            root,
                            |_| {
                                ModelRunner::new(&arch, s.clone(), PASS)
                                    .with_tune(TunePolicy::Empirical)
                                    .with_mode(MODE)
                                    .plan()
                            },
                        )
                    })
                    .collect();
                let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
                let t0 = Instant::now();
                let table = tracer.span(
                    "serve",
                    || "LatencyTable::build".to_string(),
                    root,
                    |_| {
                        LatencyTable::build(
                            &arch,
                            MODEL,
                            PASS,
                            &[ServeEngine::Tuned],
                            MAX_BATCH,
                            MODE,
                        )
                    },
                );
                let table_ms = t0.elapsed().as_secs_f64() * 1e3;
                let capacity = reference_capacity_rps(&table);
                let cfg = SweepConfig {
                    shapes: vec![ArrivalShape::Poisson],
                    policies: vec![BatchPolicy::Adaptive {
                        max_batch: MAX_BATCH,
                    }],
                    utilizations: RATES.iter().map(|r| r / capacity).collect(),
                    requests: REQUESTS,
                    seed: ctx.seed,
                    slo_ms: SLO_MS,
                };
                let t0 = Instant::now();
                let rows = tracer.span(
                    "serve",
                    || "run_sweep".to_string(),
                    root,
                    |_| run_sweep(&cfg, &table),
                );
                let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
                (plans, table, rows, cfg, plan_ms, table_ms, sweep_ms)
            },
        )
    });
    let cold = st.stats().delta(&before);
    let disk_bytes = st.disk_bytes();

    // Artifact: the BENCH_serving.json document, schema-validated.
    let t0 = Instant::now();
    let doc = tracer.span(
        "obs",
        || "serving_json".to_string(),
        None,
        |_| {
            let (ts, _) = run_timeseries(&cfg, &table, 0);
            let meta = SweepMeta {
                arch: arch.name.clone(),
                model: MODEL.name().to_string(),
                pass: PASS.name().to_string(),
                mode: "timing-only".to_string(),
                max_batch: MAX_BATCH,
            };
            serving_json(&meta, &cfg, &table, &rows, &best_by_load(&rows), &ts)
        },
    );
    let json_ms = t0.elapsed().as_secs_f64() * 1e3;
    let valid = tracer.span(
        "obs",
        || "validate_serving_json".to_string(),
        None,
        |_| lsv_obs::validate_serving_json(&doc),
    );
    check(valid.is_ok(), format!("serving_json invalid: {valid:?}"));

    // Warm phase: the same table build, served entirely from the store.
    let before_warm = st.stats();
    let t0 = Instant::now();
    let warm = tracer.span(
        "conv.store",
        || "warm LatencyTable::build".to_string(),
        None,
        |_| LatencyTable::build(&arch, MODEL, PASS, &[ServeEngine::Tuned], MAX_BATCH, MODE),
    );
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_stats = st.stats().delta(&before_warm);

    check(
        cold.disk_hits == 0 && cold.misses > 0 && cold.inserts == cold.misses,
        format!("cold phase did not start from an empty store: {cold:?}"),
    );
    check(
        warm_stats.misses == 0 && warm_stats.hits() > 0,
        format!("warm replay missed the store: {warm_stats:?}"),
    );
    for (b, (c, w)) in table.ms[0].iter().zip(&warm.ms[0]).enumerate() {
        check(
            c.to_bits() == w.to_bits(),
            format!("batch {}: warm {w} ms != cold {c} ms", b + 1),
        );
    }
    for (b, plan) in plans.iter().enumerate() {
        let t = plan.total_time_ms();
        check(
            t.to_bits() == table.ms[0][b].to_bits(),
            format!(
                "batch {}: plan {t} ms != table {} ms",
                b + 1,
                table.ms[0][b]
            ),
        );
    }
    check(
        rows.iter().all(|r| r.stats.completed == REQUESTS),
        "a sweep point lost requests".to_string(),
    );

    let at = |rate: f64| {
        rows.iter()
            .find(|r| (r.offered_rps - rate).abs() < 1e-6 * rate)
            .expect("one sweep row per rate")
    };
    let capacity = RATES
        .iter()
        .copied()
        .filter(|&r| {
            let s = &at(r).stats;
            s.p99_ms <= SLO_MS && s.throughput_rps >= KEEP_UP * r
        })
        .fold(0.0, f64::max);
    let simulated: u64 = plans.iter().map(|p| p.simulated).sum();
    let hits: u64 = plans.iter().map(|p| p.store_hits).sum();
    m.set("serve_cold_s", cold_took.wall);
    m.set("serve_p99_ms", at(P99_RATE).stats.p99_ms);
    m.set("serve_capacity_rps", capacity);
    m.set("runner.plan_ms", plan_ms / plans.len() as f64);
    m.set("runner.plans", plans.len() as f64);
    m.set("runner.simulated", simulated as f64);
    m.set("runner.store_hits", hits as f64);
    m.set("store.hits", cold.hits() as f64);
    m.set("store.misses", cold.misses as f64);
    m.set(
        "store.hit_rate",
        cold.hits() as f64 / (cold.hits() + cold.misses).max(1) as f64,
    );
    m.set("store.disk_bytes", disk_bytes as f64);
    m.set("store.warm_replay_ms", warm_ms);
    m.set("serve.table_ms", table_ms);
    m.set("serve.sweep_ms", sweep_ms);
    m.set(
        "serve.sim_requests_per_s",
        (rows.len() * REQUESTS) as f64 / (sweep_ms / 1e3),
    );
    m.set("obs.serving_json_ms", json_ms);
    eprintln!(
        "serve: table {:?} ms, capacity {capacity} rps, p99 at {P99_RATE} rps {} ms",
        table.ms[0],
        at(P99_RATE).stats.p99_ms
    );
    for r in &rows {
        eprintln!(
            "  {:>6.1} rps: p99 {:.3} ms, throughput {:.1} rps, mean batch {:.2}",
            r.offered_rps, r.stats.p99_ms, r.stats.throughput_rps, r.stats.mean_batch
        );
    }
    Outcome {
        attempted,
        failed,
        setup_s,
        jobs: vec![cold_took],
        metrics: m,
        failures,
    }
}
