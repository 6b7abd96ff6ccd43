//! Figure 6: ResNet-101 training-step throughput (GFLOP/s over all three
//! passes) for vednn, DC, BDC and MBDC across minibatch sizes.
//!
//! Paper behaviour: BDC is best at every minibatch; vednn is slightly
//! faster than DC below minibatch 32 and faster than MBDC at 8, but fails
//! to scale as the problem grows.
//!
//! Usage: `lsvconv-cli figure6 [minibatches...]` (default 8 16 32 64 128 256).

use crate::args::Args;
use crate::Outcome;
use lsv_arch::presets::sx_aurora;
use lsv_bench::{layer_time_tables, model_time_from_table, Engine};
use lsv_conv::ExecutionMode;
use lsv_models::ResNetModel;

pub fn run(args: &Args) -> Outcome {
    let mut minibatches: Vec<usize> = args.positionals();
    if minibatches.is_empty() {
        minibatches = vec![8, 16, 32, 64, 128, 256];
    }
    let arch = sx_aurora();
    let model = ResNetModel::R101;
    // Every minibatch x engine sweep simulates in one flat job pool; rows
    // print in the fixed order below.
    let configs: Vec<_> = minibatches
        .iter()
        .flat_map(|&mb| {
            let arch = &arch;
            Engine::ALL.iter().map(move |&e| (arch.clone(), mb, e))
        })
        .collect();
    let tables = layer_time_tables(&configs, ExecutionMode::TimingOnly);
    println!("minibatch,algorithm,step_ms,gflops");
    for (ci, &(_, mb, e)) in configs.iter().enumerate() {
        let flops = model.training_flops(mb) as f64;
        let ms = model_time_from_table(&tables[ci], model);
        let gflops = flops / (ms / 1e3) / 1e9;
        println!("{},{},{:.2},{:.1}", mb, e.name(), ms, gflops);
    }
    println!();
    println!("# Paper Figure 6: BDC best everywhere; vednn competitive at small minibatch,");
    println!("# does not scale; all direct algorithms scale with problem size.");
    Ok(())
}
