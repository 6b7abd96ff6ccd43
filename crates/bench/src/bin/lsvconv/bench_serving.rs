//! The serving load sweep: (arrival shape x offered load x batching policy
//! x engine) over a whole model on the simulated chip.
//!
//! Emits `serving.csv` rows on stdout and (with `--json PATH`) the
//! `BENCH_serving.json` document, schema-validated through
//! `lsv_obs::validate_serving_json` after writing — like `lint.json`.
//!
//! Every service time comes from the `ModelRunner` / vednn latency tables
//! through the layer store: a warm store replays the whole sweep without
//! simulating a single slice (the queue simulation itself is host-side
//! arithmetic on the simulated clock).
//!
//! Usage: `lsvconv-cli bench-serving [--smoke] [--json PATH] [--timeseries PATH]
//!         [--model resnet-50] [--pass infer|train] [--requests N] [--seed N]`
//!
//! `--timeseries PATH` writes `serving_timeseries.csv`: the sampled
//! queue-depth / occupancy / rolling-p99 / SLO-burn series for every
//! (arrival, load, policy) cell on the fixed-BDC engine. The same series,
//! summarized per cell, lands in the JSON's `timeseries` section.

use crate::args::Args;
use crate::tools::model_and_pass;
use crate::Outcome;
use lsv_arch::presets::sx_aurora;
use lsv_conv::ExecutionMode;
use lsv_serve::{
    best_by_load, csv_header, csv_row, run_sweep, run_timeseries, serving_json, ArrivalShape,
    BatchPolicy, LatencyTable, ServeEngine, SweepConfig, SweepMeta,
};

pub fn run(args: &Args) -> Outcome {
    let smoke = args.has("smoke");
    let (model, pass) = model_and_pass(args);
    let seed: u64 = args.value("seed").unwrap_or(42);
    let requests: usize = args
        .value("requests")
        .unwrap_or(if smoke { 200 } else { 3000 });

    let arch = sx_aurora();
    let mode = ExecutionMode::TimingOnly;
    let max_batch = if smoke { 4 } else { 16 };
    let engines: Vec<ServeEngine> = if smoke {
        vec![ServeEngine::Fixed(lsv_conv::Algorithm::Bdc)]
    } else {
        vec![
            ServeEngine::Vednn,
            ServeEngine::Fixed(lsv_conv::Algorithm::Bdc),
            ServeEngine::Tuned,
        ]
    };

    eprintln!(
        "building latency tables: {} {} on {}, batches 1..={max_batch}, {} engine(s)...",
        model.name(),
        pass.name(),
        arch.name,
        engines.len()
    );
    let table = LatencyTable::build(&arch, model, pass, &engines, max_batch, mode);
    for (ei, e) in table.engines.iter().enumerate() {
        eprintln!(
            "  {:>6}: b1 {:.2} ms .. b{max_batch} {:.2} ms",
            e.name(),
            table.latency_ms(ei, 1),
            table.latency_ms(ei, max_batch)
        );
    }

    // SLO: twice the fastest engine's full-batch service time — generous
    // enough that a well-batched server meets it, tight enough that queueing
    // pathologies (idle waiting at low load, saturation at high load) fail
    // it. Derived from simulated latencies only, so the artifact stays
    // deterministic.
    let slo_ms = 2.0 * table.best(max_batch).1;
    let timeout_ms = slo_ms / 4.0;
    let cfg = SweepConfig {
        shapes: if smoke {
            vec![ArrivalShape::Poisson]
        } else {
            vec![
                ArrivalShape::Poisson,
                ArrivalShape::Bursty {
                    burst: 4.0,
                    period_ms: 8.0 * slo_ms,
                },
            ]
        },
        policies: vec![
            BatchPolicy::Adaptive { max_batch },
            BatchPolicy::Fixed { batch: max_batch },
            BatchPolicy::Timeout {
                max_batch,
                timeout_ms,
            },
        ],
        utilizations: if smoke {
            vec![0.3, 0.9]
        } else {
            vec![0.15, 0.4, 0.7, 0.9, 1.1]
        },
        requests,
        seed,
        slo_ms,
    };

    let rows = run_sweep(&cfg, &table);
    let best = best_by_load(&rows);

    // Time-series telemetry rides on one engine: the fixed BDC engine when
    // present (it is in every engine list, smoke and full), engine 0 otherwise.
    let ts_engine = table
        .engines
        .iter()
        .position(|e| matches!(e, ServeEngine::Fixed(lsv_conv::Algorithm::Bdc)))
        .unwrap_or(0);
    let (ts, ts_csv) = run_timeseries(&cfg, &table, ts_engine);

    println!("{}", csv_header());
    for r in &rows {
        println!("{}", csv_row(r, cfg.requests, cfg.slo_ms));
    }

    for b in &best {
        eprintln!(
            "best @ {} {:.0} rps: {} + {}",
            b.arrival, b.offered_rps, b.policy, b.engine
        );
    }

    if let Some(path) = args.get("timeseries") {
        std::fs::write(path, &ts_csv).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote {path} ({} cells x {} samples, engine {})",
            ts.cells.len(),
            ts.samples_per_cell,
            ts.engine
        );
    }

    if let Some(path) = args.get("json") {
        let meta = SweepMeta {
            arch: arch.name.clone(),
            model: model.name().to_string(),
            pass: pass.name().to_string(),
            mode: "timing-only".to_string(),
            max_batch,
        };
        let doc = serving_json(&meta, &cfg, &table, &rows, &best, &ts);
        std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        // Re-read and validate what actually landed on disk.
        let text = std::fs::read_to_string(path).expect("just wrote it");
        lsv_obs::validate_serving_json(&text)?;
        eprintln!("wrote {path} (schema-valid)");
    }
    Ok(())
}
