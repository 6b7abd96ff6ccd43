//! The artifact's `performance.sh` equivalent: one CSV line per experiment,
//! indexed by (problem id, direction, algorithm, minibatch), reporting
//! GFLOP/s and milliseconds.
//!
//! Usage: `lsvconv-cli performance [minibatches...] [--profile]`
//!
//! With `--profile` every direct-algorithm run additionally records the
//! region profile and writes the per-row artifacts
//! (`results/profile/performance/l<id>_<dir>_<alg>_mb<N>.{json,trace.json,folded}`).
//! The CSV is unchanged: profiling is cycle-neutral, so the profiled runs
//! report identical numbers.

use crate::args::Args;
use crate::Outcome;
use lsv_arch::presets::sx_aurora;
use lsv_bench::profiling::{profile_meta, write_profile_artifacts};
use lsv_bench::{bench_engine, par, Engine, Row};
use lsv_conv::{bench_layer_profiled, Direction, ExecutionMode};
use lsv_models::resnet_layers;
use std::path::Path;

pub fn run(args: &Args) -> Outcome {
    let profile = args.has("profile");
    let mut minibatches: Vec<usize> = args.positionals();
    if minibatches.is_empty() {
        minibatches = vec![256];
    }
    let arch = sx_aurora();
    let out_dir = Path::new("results/profile/performance");
    println!("{}", Row::csv_header());
    for &mb in &minibatches {
        let layers = resnet_layers(mb);
        let jobs: Vec<(usize, Direction, Engine)> = (0..layers.len())
            .flat_map(|id| {
                Direction::ALL
                    .into_iter()
                    .flat_map(move |d| Engine::ALL.into_iter().map(move |e| (id, d, e)))
            })
            .collect();
        let mut rows: Vec<Row> = par::par_map(jobs, |(id, direction, engine)| {
            let perf = match (profile, engine) {
                (true, Engine::Direct(alg)) => {
                    let (perf, region_profile) = bench_layer_profiled(
                        &arch,
                        &layers[id],
                        direction,
                        alg,
                        ExecutionMode::TimingOnly,
                    );
                    let meta = profile_meta(
                        &arch,
                        &layers[id],
                        direction,
                        alg.short_name(),
                        &region_profile,
                    );
                    let stem = format!(
                        "l{id}_{}_{}_mb{mb}",
                        direction.short_name(),
                        alg.short_name()
                    );
                    write_profile_artifacts(out_dir, &stem, &region_profile, &meta)
                        .unwrap_or_else(|e| panic!("profile artifacts for {stem}: {e}"));
                    perf
                }
                _ => bench_engine(
                    &arch,
                    &layers[id],
                    direction,
                    engine,
                    ExecutionMode::TimingOnly,
                ),
            };
            Row {
                layer_id: id,
                direction,
                engine,
                minibatch: mb,
                perf,
            }
        });
        rows.sort_by_key(|r| (r.direction.short_name(), r.layer_id, r.engine.name()));
        for r in &rows {
            println!("{}", r.to_csv());
        }
    }
    if profile {
        eprintln!("# profile artifacts written under {}", out_dir.display());
    }
    Ok(())
}
