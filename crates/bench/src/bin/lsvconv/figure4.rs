//! Figure 4: per-layer performance (GFLOP/s and % of peak) of vednn, DC,
//! BDC and MBDC on the Table 3 suite, for all three training directions at
//! minibatch 256, on the 8-core SX-Aurora model. The rightmost "geomean"
//! row aggregates each engine across layers, as in the paper.
//!
//! Usage: `lsvconv-cli figure4 [minibatch] [--functional]`

use crate::args::Args;
use crate::Outcome;
use lsv_arch::presets::sx_aurora;
use lsv_bench::{geomean, run_suite, Engine, Row};
use lsv_conv::{Direction, ExecutionMode};

pub fn run(args: &Args) -> Outcome {
    let minibatch: usize = args.pos(0).unwrap_or(256);
    let mode = if args.has("functional") {
        ExecutionMode::Functional
    } else {
        ExecutionMode::TimingOnly
    };
    let arch = sx_aurora();
    let rows = run_suite(&arch, minibatch, &Engine::ALL, &Direction::ALL, mode);

    println!("{}", Row::csv_header());
    for r in &rows {
        println!("{}", r.to_csv());
    }

    // Figure 4's aggregate columns: geometric-mean GFLOP/s per engine and
    // direction.
    println!();
    println!("# geomean GFLOP/s (and % of peak) per engine, per direction");
    for dir in Direction::ALL {
        for engine in Engine::ALL {
            let g = geomean(
                rows.iter()
                    .filter(|r| r.direction == dir && r.engine == engine)
                    .map(|r| r.perf.gflops),
            );
            let eff = g * 1e9 / arch.peak_flops() * 100.0;
            println!(
                "# {:5} {:6}: {:8.1} GFLOP/s  ({:4.1}% peak)",
                dir,
                engine.name(),
                g,
                eff
            );
        }
    }
    Ok(())
}
