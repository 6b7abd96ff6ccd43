//! Figure 3: the SIMD direct convolution's scalar memory access pattern on
//! the source tensor — rendered as an ASCII L1 set-pressure heat map per
//! algorithm, from the static stream profile (`lsv_conv::analysis`).
//!
//! The paper's figure shows the `N_vlen`-strided walk "stressing a small
//! number of cache sets"; here each column is one of the 128 L1 sets and
//! the bar height is how many lines of one register-block sweep land there.
//!
//! Usage: `lsvconv-cli figure3 [layer_id]` (default 8, a conflict-predicted layer).

use crate::args::Args;
use crate::Outcome;
use lsv_arch::presets::sx_aurora;
use lsv_conv::analysis::{scalar_stream_profile, set_pressure_histogram};
use lsv_conv::tuning::kernel_config;
use lsv_conv::{Algorithm, Direction};
use lsv_models::resnet_layer;

pub fn run(args: &Args) -> Outcome {
    let layer_id: usize = args.pos(0).unwrap_or(8);
    let arch = sx_aurora();
    let p = resnet_layer(layer_id, 256);
    println!(
        "layer {layer_id} ({p}) forward-pass scalar stream over S, on {}:",
        arch.name
    );
    println!(
        "L1: {} KB, {}-way, {} sets of {}-byte lines\n",
        arch.l1d.size / 1024,
        arch.l1d.ways,
        arch.l1d.sets(),
        arch.l1d.line
    );
    for alg in Algorithm::ALL {
        let cfg = kernel_config(&arch, &p, Direction::Fwd, alg, arch.cores);
        let prof = scalar_stream_profile(&arch, &cfg, p.stride_w);
        let hist = set_pressure_histogram(&arch, &cfg, p.stride_w);
        println!(
            "{:5}: stride {:>5} B, sweep {:>2} points -> {:>3} lines over {:>3} sets (capacity {} lines){}",
            alg.short_name(),
            prof.stride_bytes,
            prof.sweep_len,
            prof.footprint_lines,
            prof.distinct_sets,
            prof.capacity_lines,
            if prof.thrashes { "  ** THRASHES **" } else { "" }
        );
        // Eight sets per character cell; height = max lines in the cell.
        let cells: Vec<u32> = hist
            .chunks(8)
            .map(|c| c.iter().copied().max().unwrap_or(0))
            .collect();
        let peak = cells.iter().copied().max().unwrap_or(0).max(1);
        for level in (1..=peak).rev() {
            let row: String = cells
                .iter()
                .map(|&c| if c >= level { '#' } else { ' ' })
                .collect();
            let marker = if level as usize == arch.l1d.ways {
                "  <- associativity limit"
            } else {
                ""
            };
            println!("  {:>2} |{row}|{marker}", level);
        }
        println!(
            "     +{}+ sets 0..{}\n",
            "-".repeat(cells.len()),
            arch.l1d.sets()
        );
    }
    println!("# A bar above the associativity limit means the sweep's lines cannot");
    println!("# coexist in those sets: the next channel iteration conflict-misses");
    println!("# (Formula 3). MBDC's cache-line blocks place one line per set.");
    Ok(())
}
