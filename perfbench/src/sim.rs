//! `sim-figure4`: the Figure 4 sweep (19 Table 3 layers x 3 directions x
//! {DC, BDC, MBDC, vednn} at minibatch 256, TimingOnly) on the simulator,
//! with the layer store disabled. Every row must equal the committed
//! `results/figure4.csv`.

use crate::metrics::{layer_tag, Metrics};
use crate::{median, shuffle, warm_up_simulator, Ctx, Outcome};
use lsv_arch::presets::sx_aurora;
use lsv_bench::{bench_engine, geomean, par::par_map, Engine, Row};
use lsv_conv::{ConvDesc, ConvProblem, Direction, ExecutionMode, LayerPerf};
use std::collections::HashMap;
use std::time::Instant;

const MINIBATCH: usize = 256;
const REFERENCE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/figure4.csv");

type Job = (usize, Direction, Engine);

struct Inputs {
    layers: Vec<ConvProblem>,
    jobs: Vec<Job>,
    /// `(layer, direction, engine)` -> the committed CSV line.
    reference: HashMap<(usize, String, String), String>,
}

fn prepare(seed: u64) -> Inputs {
    let text = std::fs::read_to_string(REFERENCE)
        .unwrap_or_else(|e| panic!("cannot read {REFERENCE}: {e}"));
    let reference = text
        .lines()
        .skip(1)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            let id = f[0].parse().expect("figure4.csv: layer id");
            ((id, f[1].to_string(), f[2].to_string()), l.to_string())
        })
        .collect();
    let layers = lsv_models::resnet_layers(MINIBATCH);
    let mut jobs: Vec<Job> = (0..layers.len())
        .flat_map(|id| {
            Direction::ALL
                .into_iter()
                .flat_map(move |d| Engine::ALL.into_iter().map(move |e| (id, d, e)))
        })
        .collect();
    // The seed permutes the sweep; the costliest jobs (vednn, then the
    // largest layers) still go first, so no long job is left running alone
    // on one thread at the end of the sweep.
    shuffle(&mut jobs, seed);
    jobs.sort_by_key(|&(id, _, e)| {
        std::cmp::Reverse((e == Engine::Vednn, layers[id].flops() / 1_000_000_000))
    });
    warm_up_simulator();
    Inputs {
        layers,
        jobs,
        reference,
    }
}

fn layer_of(e: Engine) -> &'static str {
    match e {
        Engine::Vednn => "vednn",
        Engine::Direct(_) => "sim",
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (inputs, setup_s) = ctx.setup(|| prepare(ctx.seed));
    let arch = sx_aurora();
    let tracer = &ctx.tracer;

    let mut m = Metrics::default();
    let (sweeps, jobs) = ctx.measure(|k| {
        tracer.span(
            "bench",
            || format!("sweep {k}"),
            None,
            |root| {
                par_map(inputs.jobs.clone(), |job| {
                    let (id, dir, engine) = job;
                    let t = Instant::now();
                    let perf = tracer.span(
                        layer_of(engine),
                        || format!("bench_engine L{id:02} {dir} {}", engine.name()),
                        root,
                        |_| {
                            bench_engine(
                                &arch,
                                &inputs.layers[id],
                                dir,
                                engine,
                                ExecutionMode::TimingOnly,
                            )
                        },
                    );
                    (job, perf, t.elapsed().as_secs_f64() * 1e3)
                })
            },
        )
    });
    let rows: Vec<(Job, LayerPerf, f64)> = sweeps.into_iter().flatten().collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    for ((id, dir, engine), perf, _) in &rows {
        attempted += 1;
        let line = Row {
            layer_id: *id,
            direction: *dir,
            engine: *engine,
            minibatch: MINIBATCH,
            perf: perf.clone(),
        }
        .to_csv();
        let key = (*id, dir.short_name().to_string(), engine.name().to_string());
        let committed = inputs.reference.get(&key);
        if committed != Some(&line) {
            failed += 1;
            failures.push(format!("figure4 row {line} != committed {committed:?}"));
        }
    }
    let iterations = jobs.len() as f64;
    m.set("sim_sweep_s", median(jobs.iter().map(|t| t.wall)));
    let first: Vec<&LayerPerf> = rows[..inputs.jobs.len()].iter().map(|r| &r.1).collect();
    m.set("sim_gflops", geomean(first.iter().map(|p| p.gflops)));
    let mut cycles: HashMap<&str, (f64, f64)> = HashMap::new();
    let mut insts = 0.0;
    let mut host_total_ms = 0.0;
    for ((id, dir, engine), perf, ms) in &rows {
        let ms = ms / iterations;
        m.add(&format!("sim.host_ms.{}", dir.short_name()), ms);
        m.add(&format!("sim.host_ms.{}", engine.name()), ms);
        m.add(&format!("sim.host_ms.{}", layer_tag(*id)), ms);
        let c = cycles.entry(dir.short_name()).or_default();
        c.0 += perf.report.cycles as f64;
        c.1 += ms;
        insts += perf.report.insts.total() as f64;
        host_total_ms += ms;
    }
    for (dir, (cyc, ms)) in cycles {
        m.set(
            &format!("sim.mcycles_per_s.{dir}"),
            cyc / iterations / 1e6 / (ms / 1e3),
        );
    }
    m.set(
        "sim.minsts_per_s",
        insts / iterations / 1e6 / (host_total_ms / 1e3),
    );

    if ctx.tracer.enabled() {
        time_creates(ctx, &inputs, &mut m);
    }
    Outcome {
        attempted,
        failed,
        setup_s,
        jobs,
        metrics: m,
        failures,
    }
}

/// Primitive creation, timed per call on the sweep's direct jobs (traced
/// runs only: the sweep creates its primitives inside `bench_engine`).
fn time_creates(ctx: &Ctx, inputs: &Inputs, m: &mut Metrics) {
    let arch = sx_aurora();
    let mut n = 0usize;
    let t0 = Instant::now();
    ctx.tracer.span(
        "bench",
        || "primitive creation".to_string(),
        None,
        |root| {
            for &(id, dir, engine) in &inputs.jobs {
                if let Engine::Direct(alg) = engine {
                    n += 1;
                    let _ = ctx.tracer.span(
                        "conv.create",
                        || format!("ConvDesc::create L{id:02} {dir} {alg}"),
                        root,
                        |_| {
                            std::hint::black_box(
                                ConvDesc::new(inputs.layers[id], dir, alg)
                                    .create(&arch, arch.cores),
                            )
                        },
                    );
                }
            }
        },
    );
    m.set(
        "conv.create_us",
        t0.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64,
    );
    m.set("conv.creates", n as f64);
}
