//! Table 3: the ResNet convolution layer suite, with derived per-layer
//! properties (flop counts and the Formula 3 conflict predictions that
//! Section 8 references).
//!
//! `--profile` additionally runs a profiled forward DC pass per layer
//! (minibatch 8), writes the artifacts under `results/profile/table3/`, and
//! appends comment lines naming each layer's hottest region — the measured
//! counterpart of the analytic conflict predictions.

use crate::args::Args;
use crate::Outcome;
use lsv_arch::presets::sx_aurora;
use lsv_bench::par;
use lsv_bench::profiling::{profile_meta, write_profile_artifacts};
use lsv_conv::tuning::kernel_config;
use lsv_conv::{bench_layer_profiled, Algorithm, Direction, ExecutionMode};
use lsv_models::{resnet_layers, TABLE3};
use std::path::Path;

pub fn run(args: &Args) -> Outcome {
    let profile = args.has("profile");
    let arch = sx_aurora();
    let layers = resnet_layers(256);
    println!("id,IC,OC,IH/IW,OH/OW,KH/KW,stride,pad,gflops_n256,dc_conflict_fwdd,dc_conflict_bwdd");
    for (id, p) in layers.iter().enumerate() {
        let (_, _, _, ohw, ..) = TABLE3[id];
        let f = kernel_config(&arch, p, Direction::Fwd, Algorithm::Dc, 8);
        let b = kernel_config(&arch, p, Direction::BwdData, Algorithm::Dc, 8);
        println!(
            "{},{},{},{},{},{},{},{},{:.2},{},{}",
            id,
            p.ic,
            p.oc,
            p.ih,
            ohw,
            p.kh,
            p.stride_w,
            p.pad_w,
            p.flops() as f64 / 1e9,
            f.conflicts_predicted,
            b.conflicts_predicted,
        );
    }
    println!();
    println!(
        "# Paper Section 8: conflicts predicted fwdd on 4,5,8-10,13-18; bwdd on 4,7,9,12,14-18."
    );

    if profile {
        let out_dir = Path::new("results/profile/table3");
        let small = resnet_layers(8);
        let summaries: Vec<String> = par::par_map((0..small.len()).collect::<Vec<_>>(), |id| {
            let p = &small[id];
            let (_, region_profile) = bench_layer_profiled(
                &arch,
                p,
                Direction::Fwd,
                Algorithm::Dc,
                ExecutionMode::TimingOnly,
            );
            let meta = profile_meta(&arch, p, Direction::Fwd, "DC", &region_profile);
            write_profile_artifacts(out_dir, &format!("l{id}_fwdd_DC"), &region_profile, &meta)
                .unwrap_or_else(|e| panic!("profile artifacts for layer {id}: {e}"));
            let total = region_profile.total.cycles.max(1) as f64;
            let hottest = (0..region_profile.regions.len() as u32)
                .max_by_key(|&r| region_profile.regions[r as usize].cycles)
                .unwrap_or(0);
            format!(
                "# profile l{id}: hottest {} ({:.1}% self), L1 MPKI {:.2}",
                region_profile.full_name(hottest),
                region_profile.regions[hottest as usize].cycles as f64 / total * 100.0,
                region_profile.regions[hottest as usize].mpki_l1()
            )
        });
        println!();
        for line in summaries {
            println!("{line}");
        }
        println!("# profile artifacts written under {}", out_dir.display());
    }
    Ok(())
}
