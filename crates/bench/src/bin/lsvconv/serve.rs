//! `lsvconv-cli serve`: serve a ResNet under a batching queue on the
//! simulated chip, optionally with the reconciled request trace.
//!
//! ```text
//! lsvconv-cli serve [--model resnet-50] [--pass infer] [--engine BDC] [--smoke]
//!                   [--trace DIR] [--metrics]
//! ```

use crate::args::Args;
use crate::tools::{arch, backend, configure_store, model_and_pass};
use crate::{usage, Outcome};
use lsv_conv::{Algorithm, ExecutionMode};
use lsv_serve::{
    best_by_load, cell_outcome, collect_plans, csv_header, csv_row, perfetto_trace_json,
    reference_capacity_rps, run_sweep, run_timeseries, serving_trace_json, ArrivalShape,
    BatchPolicy, LatencyTable, Reconciliation, ServeEngine, SweepConfig, TraceMeta,
};
use std::path::{Path, PathBuf};

pub fn run(args: &Args) -> Outcome {
    let arch = arch(args);
    backend(args, "serve", false);
    configure_store(args);
    let smoke = args.has("smoke");
    let (model, pass) = model_and_pass(args);
    let engine = match args.get("engine") {
        None => ServeEngine::Fixed(Algorithm::Bdc),
        Some(name) => {
            ServeEngine::parse(name).unwrap_or_else(|| usage(&format!("unknown engine '{name}'")))
        }
    };
    let shape = match args.get("arrival") {
        Some("bursty") => ArrivalShape::Bursty {
            burst: 4.0,
            period_ms: 200.0,
        },
        _ => ArrivalShape::Poisson,
    };
    let max_batch: usize = args.value("max-batch").unwrap_or(if smoke { 4 } else { 8 });
    let requests: usize = args
        .value("requests")
        .unwrap_or(if smoke { 200 } else { 1000 });
    let seed: u64 = args.value("seed").unwrap_or(42);
    let trace_dir = args.get("trace").map(PathBuf::from);
    let metrics = args.has("metrics");

    let table = LatencyTable::build(
        &arch,
        model,
        pass,
        &[engine],
        max_batch,
        ExecutionMode::TimingOnly,
    );
    let slo_ms = args
        .value("slo")
        .unwrap_or_else(|| 2.0 * table.best(max_batch).1);
    let cfg = SweepConfig {
        shapes: vec![shape],
        policies: vec![
            BatchPolicy::Adaptive { max_batch },
            BatchPolicy::Fixed { batch: max_batch },
            BatchPolicy::Timeout {
                max_batch,
                timeout_ms: slo_ms / 2.0,
            },
        ],
        utilizations: if smoke {
            vec![0.3, 0.9]
        } else {
            vec![0.2, 0.5, 0.8, 1.0]
        },
        requests,
        seed,
        slo_ms,
    };

    println!(
        "serving {} {} with engine {} on {} ({} cores)",
        model.name(),
        pass.name(),
        engine.name(),
        arch.name,
        arch.cores
    );
    for b in 1..=max_batch {
        println!(
            "  batch {b:>2}: {:.3} ms / dispatch",
            table.latency_ms(0, b)
        );
    }
    println!(
        "  capacity {:.1} rps (back-to-back batch-{max_batch}), SLO {slo_ms:.2} ms",
        reference_capacity_rps(&table)
    );
    println!();
    let rows = run_sweep(&cfg, &table);
    println!("{}", csv_header());
    for r in &rows {
        println!("{}", csv_row(r, cfg.requests, cfg.slo_ms));
    }
    println!();
    for b in best_by_load(&rows) {
        println!(
            "best @ {} {:.1} rps: {}",
            b.arrival, b.offered_rps, b.policy
        );
    }

    if let Some(dir) = &trace_dir {
        let reg = lsv_obs::registry();
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        // The traced cell: the configured arrival shape at the
        // heaviest sampled load under the adaptive policy — the cell
        // where batching decisions actually vary.
        let load_idx = cfg.utilizations.len() - 1;
        let policy = cfg.policies[0];
        let (offered_rps, outcome) = cell_outcome(&cfg, &table, 0, load_idx, policy, 0);
        // Per-(layer, direction) breakdown for every distinct
        // dispatched batch size, recomputed by the exact code path
        // the latency table used — bit-identical by construction,
        // asserted by the reconciliation below. The vednn baseline
        // has no layer plan; its trace carries batch spans only.
        let plan_for = |batch: usize| -> Option<lsv_conv::ModelPlan> {
            let specs = lsv_serve::resnet_specs(model, batch);
            let runner =
                lsv_conv::ModelRunner::new(&arch, specs, pass).with_mode(ExecutionMode::TimingOnly);
            match engine {
                ServeEngine::Tuned => {
                    Some(runner.with_tune(lsv_conv::TunePolicy::Empirical).plan())
                }
                ServeEngine::Fixed(alg) => Some(runner.plan_fixed(alg)),
                ServeEngine::Vednn => None,
            }
        };
        let plans = collect_plans(&outcome, &plan_for);
        for (_, p) in &plans {
            p.publish_metrics(reg);
        }
        outcome.publish_metrics(reg);
        let recon = Reconciliation::compute(&outcome, &plans);
        let meta = TraceMeta {
            arch: arch.name.clone(),
            model: model.name().to_string(),
            pass: pass.name().to_string(),
            engine: engine.name().to_string(),
            arrival: shape.name(),
            policy: policy.name(),
            utilization: cfg.utilizations[load_idx],
            offered_rps,
            seed,
            slo_ms,
            max_batch,
        };

        let trace_doc = serving_trace_json(&meta, &outcome, &plans, &recon);
        let tpath = write(dir, "serving_trace.json", &trace_doc)?;
        // Validate what actually landed on disk, like lint.json.
        let text = std::fs::read_to_string(&tpath).expect("just wrote it");
        lsv_obs::validate_serving_trace_json(&text)?;
        write(
            dir,
            "serving_trace.perfetto.json",
            &perfetto_trace_json(&meta, &outcome, &plans),
        )?;
        let (_, ts_csv) = run_timeseries(&cfg, &table, 0);
        write(dir, "serving_timeseries.csv", &ts_csv)?;

        println!();
        if recon.exact {
            println!(
                "trace reconciliation: exact ({} requests, {} batches, \
                 wait {:.3} ms, service {:.3} ms)",
                recon.requests, recon.batches, recon.wait_sum_ms, recon.service_sum_ms
            );
        } else {
            return Err(format!(
                "trace reconciliation FAILED (service {:?} ms vs layers {:?} ms)",
                recon.service_sum_ms, recon.layer_sum_ms
            ));
        }
        println!("wrote {} (schema-valid)", tpath.display());
        println!(
            "wrote {}",
            dir.join("serving_trace.perfetto.json").display()
        );
        println!("wrote {}", dir.join("serving_timeseries.csv").display());
    }

    let st = lsv_conv::store::store().stats();
    eprintln!(
        "store: {} mem hits, {} disk hits, {} misses, {} inserts",
        st.mem_hits, st.disk_hits, st.misses, st.inserts
    );
    if trace_dir.is_some() || metrics {
        // One registry, one publication: everything the run touched
        // (queue + runner via the trace block, the store here).
        let reg = lsv_obs::registry();
        st.publish(reg);
        reg.gauge_set(
            "store.disk_bytes",
            lsv_conv::store::store().disk_bytes() as f64,
        );
        if let Some(dir) = &trace_dir {
            let mpath = write(dir, "metrics.json", &reg.to_json("lsvconv serve"))?;
            let text = std::fs::read_to_string(&mpath).expect("just wrote it");
            lsv_obs::validate_metrics_json(&text)?;
            println!("wrote {} (schema-valid)", mpath.display());
        }
        if metrics {
            println!();
            println!("metrics:");
            for line in reg.summary_lines() {
                println!("  {line}");
            }
        }
    }
    Ok(())
}

/// Write `doc` to `dir/name`.
fn write(dir: &Path, name: &str, doc: &str) -> Result<PathBuf, String> {
    let path = dir.join(name);
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}
