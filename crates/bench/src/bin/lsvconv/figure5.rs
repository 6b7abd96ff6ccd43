//! Figure 5: speed-ups of DC, BDC and MBDC on ResNet-50/101/152 training
//! steps across maximum SIMD length settings (512, 2048, 8192, 16384 bits),
//! normalized to DC at 512-bit.
//!
//! Paper headline (at 16,384-bit): BDC 1.41/1.44/1.46x over DC on
//! ResNet-50/101/152; MBDC 1.28/1.26x on ResNet-101/152 and ~1x on
//! ResNet-50 (dragged down by the bwdw bank serialization on early layers).
//!
//! Usage: `lsvconv-cli figure5 [minibatch]` (default 256).

use crate::args::Args;
use crate::Outcome;
use lsv_arch::presets::aurora_with_vlen_bits;
use lsv_bench::{layer_time_tables, model_time_from_table, Engine};
use lsv_conv::{Algorithm, ExecutionMode};
use lsv_models::ResNetModel;
use std::collections::HashMap;

pub fn run(args: &Args) -> Outcome {
    let minibatch: usize = args.pos(0).unwrap_or(256);
    let vlens = [512usize, 2048, 8192, 16384];
    let engines = [
        Engine::Direct(Algorithm::Dc),
        Engine::Direct(Algorithm::Bdc),
        Engine::Direct(Algorithm::Mbdc),
    ];
    // All vlen x engine sweeps simulate in one flat job pool; results print
    // in the fixed row order below.
    let configs: Vec<_> = vlens
        .iter()
        .flat_map(|&v| {
            engines
                .iter()
                .map(move |&e| (aurora_with_vlen_bits(v), minibatch, e))
        })
        .collect();
    let tables = layer_time_tables(&configs, ExecutionMode::TimingOnly);
    // time[(vlen, engine_name, model)] in ms
    let mut times: HashMap<(usize, &'static str, &'static str), f64> = HashMap::new();
    for (ci, (&(_, _, e), table)) in configs.iter().zip(&tables).enumerate() {
        let v = vlens[ci / engines.len()];
        for m in ResNetModel::ALL {
            times.insert((v, e.name(), m.name()), model_time_from_table(table, m));
        }
    }
    println!("model,vlen_bits,algorithm,step_ms,speedup_vs_dc512");
    for m in ResNetModel::ALL {
        let base = times[&(512, "DC", m.name())];
        for &v in &vlens {
            for &e in &engines {
                let t = times[&(v, e.name(), m.name())];
                println!("{},{},{},{:.2},{:.3}", m.name(), v, e.name(), t, base / t);
            }
        }
    }
    println!();
    println!("# Paper Figure 5 (16384-bit): BDC/DC = 1.41 (R50), 1.44 (R101), 1.46 (R152);");
    println!("# MBDC/DC = ~1.0 (R50), 1.28 (R101), 1.26 (R152); all ~equal below 8192-bit.");
    for m in ResNetModel::ALL {
        let dc = times[&(16384, "DC", m.name())];
        let bdc = times[&(16384, "BDC", m.name())];
        let mbdc = times[&(16384, "MBDC", m.name())];
        println!(
            "# measured {}: BDC/DC = {:.2}x, MBDC/DC = {:.2}x",
            m.name(),
            dc / bdc,
            dc / mbdc
        );
    }
    Ok(())
}
