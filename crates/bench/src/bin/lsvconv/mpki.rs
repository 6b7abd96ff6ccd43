//! The MPKI study of Section 8: L1 misses per kilo-instruction measured
//! with the (simulated) hardware counters, comparing BDC and MBDC to DC per
//! direction.
//!
//! The counters come from the region profiler's per-region accounting
//! (summed over every region path), not from the plain slice report — the
//! profiler's conservation invariant guarantees the two agree *exactly*, and
//! this experiment asserts it on every row, making the whole study a continuous
//! cross-check of the accounting.
//!
//! Paper: BDC reduces MPKI by 27% (fwdd) / 18% (bwdd) / ~0% (bwdw); MBDC by
//! 22% / 20% / 8%.
//!
//! Usage: `lsvconv-cli mpki [minibatch]` (default 32 — MPKI is
//! per-instruction, so the small default keeps the run quick without
//! changing the ratios).

use crate::args::Args;
use crate::Outcome;
use lsv_arch::presets::sx_aurora;
use lsv_bench::{par, Engine};
use lsv_conv::perf::bench_layer_profiled_cached;
use lsv_conv::{Algorithm, Direction, ExecutionMode};
use lsv_models::resnet_layers;

struct MpkiRow {
    layer_id: usize,
    direction: Direction,
    engine: Engine,
    mpki_l1: f64,
    conflict_fraction: f64,
}

pub fn run(args: &Args) -> Outcome {
    let minibatch: usize = args.pos(0).unwrap_or(32);
    let arch = sx_aurora();
    let algorithms = [Algorithm::Dc, Algorithm::Bdc, Algorithm::Mbdc];
    let layers = resnet_layers(minibatch);
    let jobs: Vec<(usize, Direction, Algorithm)> = (0..layers.len())
        .flat_map(|id| {
            Direction::ALL
                .into_iter()
                .flat_map(move |d| algorithms.into_iter().map(move |a| (id, d, a)))
        })
        .collect();
    let mut rows: Vec<MpkiRow> = par::par_map(jobs, |(id, direction, alg)| {
        let (perf, profile) = bench_layer_profiled_cached(
            &arch,
            &layers[id],
            direction,
            alg,
            ExecutionMode::TimingOnly,
        );
        // MPKI from the per-region sums when this row was simulated; a store
        // hit carries no region breakdown (the profiler's conservation
        // invariant made the two views bit-identical when the entry was
        // recorded, and paranoid mode re-checks stored slices directly).
        let (mpki_l1, conflict_fraction) = if let Some(profile) = &profile {
            let insts = profile.insts_total().total();
            let l1 = profile.cache_total().l1;
            let mpki_l1 = l1.mpki(insts);
            let conflict_fraction = if l1.misses == 0 {
                0.0
            } else {
                l1.conflict_misses as f64 / l1.misses as f64
            };
            assert_eq!(
                (mpki_l1, conflict_fraction),
                (perf.mpki_l1, perf.conflict_fraction),
                "region accounting diverged from the slice report (layer {id} {direction} {alg})"
            );
            (mpki_l1, conflict_fraction)
        } else {
            (perf.mpki_l1, perf.conflict_fraction)
        };
        MpkiRow {
            layer_id: id,
            direction,
            engine: Engine::Direct(alg),
            mpki_l1,
            conflict_fraction,
        }
    });
    rows.sort_by_key(|r| (r.direction.short_name(), r.layer_id, r.engine.name()));
    println!("layer_id,direction,algorithm,mpki_l1,conflict_fraction");
    for r in &rows {
        println!(
            "{},{},{},{:.3},{:.3}",
            r.layer_id,
            r.direction.short_name(),
            r.engine.name(),
            r.mpki_l1,
            r.conflict_fraction
        );
    }
    println!();
    println!("# average MPKI reduction vs DC (paper: BDC 27/18/~0 %, MBDC 22/20/8 %)");
    for dir in Direction::ALL {
        let avg = |name: &str| -> f64 {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.direction == dir && r.engine.name() == name)
                .map(|r| r.mpki_l1)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let dc = avg("DC");
        for name in ["BDC", "MBDC"] {
            let red = if dc > 0.0 {
                (1.0 - avg(name) / dc) * 100.0
            } else {
                0.0
            };
            println!(
                "# {dir} {name}: {red:+.1}% vs DC (avg MPKI {:.2} -> {:.2})",
                dc,
                avg(name)
            );
        }
    }
    Ok(())
}
