//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Register-block sweep** — BDC's Formula 4 claim: sweep the combined
//!    `RB` on a conflict-prone layer and show the efficiency window between
//!    the dependency bound (too small) and the conflict bound (too large).
//! 2. **Schedule-grain (loop resizing) sweep** — the Section 6.1 auto-tuner
//!    choice: micro-kernel IC grain from `N_cline` up to `IC_b` on a 3x3
//!    layer whose weights overflow the LLC without resizing.
//! 3. **Weight double-buffer depth** — the software-pipelining depth the
//!    code generator picks to hide LLC vector-load latency.
//!
//! Usage: `lsvconv-cli ablation [layer_id]` (default 8 for the RB sweep).

use crate::args::Args;
use crate::Outcome;
use lsv_arch::presets::sx_aurora;
use lsv_conv::perf::bench_minibatch_parallel_with;
use lsv_conv::tuning::{kernel_config, split_register_block};
use lsv_conv::{Algorithm, ConvDesc, ConvProblem, Direction, ExecutionMode, KernelConfig};
use lsv_models::resnet_layer;

/// One sweep point; every variant runs the same BDC fwdd kernel with one
/// knob overridden. Jobs from all four sections share one host-thread pool;
/// the printed sections keep their fixed order.
enum Job {
    Rb { target: usize, cfg: KernelConfig },
    Grain { grain: usize, cfg: KernelConfig },
    Wbuf { wbuf: usize, cfg: KernelConfig },
    Pad { name: &'static str, oc: usize },
}

pub fn run(args: &Args) -> Outcome {
    let layer_id: usize = args.pos(0).unwrap_or(8);
    let arch = sx_aurora();
    let minibatch = 64;

    let p = resnet_layer(layer_id, minibatch);
    // Section 2's synthetic 3x3 layer: the full weights sub-tensor overflows
    // the LLC (W = 512 x 2048 x 9 x 4 B = 37.7 MB > 16 MB), so the Section
    // 6.1 adaptation is load-bearing there.
    let pbig = ConvProblem::new(minibatch, 2048, 2048, 14, 14, 3, 3, 1, 1);
    let p4 = resnet_layer(4, minibatch);
    let p3 = resnet_layer(3, minibatch);

    let mut jobs: Vec<Job> = Vec::new();
    // --- 1. register-block sweep (Formula 4's window) ---
    for target in [2usize, 4, 8, 12, 16, 24, 32, 48] {
        let mut cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Bdc, arch.cores);
        cfg.rb = split_register_block(target, p.ow(), p.oh());
        if cfg.rb.combined() + cfg.wbuf > arch.n_vregs {
            continue;
        }
        jobs.push(Job::Rb { target, cfg });
    }
    // --- 2. schedule-grain sweep (loop resizing) ---
    let mut grain = arch.n_cline();
    while grain <= pbig.ic {
        let mut cfg = kernel_config(&arch, &pbig, Direction::Fwd, Algorithm::Bdc, arch.cores);
        cfg.tile.c_i = grain;
        cfg.tile.kh_i = pbig.kh;
        cfg.tile.kw_i = pbig.kw;
        jobs.push(Job::Grain { grain, cfg });
        grain *= 4;
    }
    // --- 3. weight double-buffer depth on a small-register-block layer
    //        (layer 4, strided: BDC's RB is 8, so each inner iteration is
    //        short and the LLC vector-load latency needs deep pipelining).
    for wbuf in [2usize, 3, 4, 6, 8, 12] {
        let mut cfg = kernel_config(&arch, &p4, Direction::Fwd, Algorithm::Bdc, arch.cores);
        cfg.wbuf = wbuf;
        if cfg.rb.combined() + wbuf > arch.n_vregs {
            continue;
        }
        jobs.push(Job::Wbuf { wbuf, cfg });
    }
    // --- 4. dynamic vector length vs zero-padding the channel dimension
    //        (Section 4.2: long-SIMD ISAs shrink vl instead of padding).
    for (name, oc) in [
        ("dynamic_vl(oc=64)", p3.oc),
        ("padded(oc=512)", arch.n_vlen()),
    ] {
        jobs.push(Job::Pad { name, oc });
    }

    let bdc_point = |problem: &ConvProblem, cfg: KernelConfig| {
        let slice = bench_minibatch_parallel_with(
            &arch,
            problem,
            Direction::Fwd,
            ExecutionMode::TimingOnly,
            arch.cores,
            &|p_sim| {
                ConvDesc::new(p_sim, Direction::Fwd, Algorithm::Bdc)
                    .create_with_config(&arch, cfg, arch.cores)
            },
        );
        slice.into_layer_perf(&arch, problem, Direction::Fwd, Algorithm::Bdc)
    };
    let lines: Vec<(usize, String)> = lsv_bench::par::par_map(jobs, |job| match job {
        Job::Rb { target, cfg } => {
            let perf = bdc_point(&p, cfg);
            (
                1,
                format!(
                    "{},{},{},{:.1},{:.3},{:.3},{:.3}",
                    target,
                    cfg.rb.rb_w,
                    cfg.rb.rb_h,
                    perf.gflops,
                    perf.efficiency,
                    perf.mpki_l1,
                    perf.conflict_fraction
                ),
            )
        }
        Job::Grain { grain, cfg } => {
            let perf = bdc_point(&pbig, cfg);
            (
                2,
                format!("{},{:.1},{:.3}", grain, perf.gflops, perf.efficiency),
            )
        }
        Job::Wbuf { wbuf, cfg } => {
            let perf = bdc_point(&p4, cfg);
            (
                3,
                format!("{},{:.1},{:.3}", wbuf, perf.gflops, perf.efficiency),
            )
        }
        Job::Pad { name, oc } => {
            let padded = ConvProblem::new(
                p3.n,
                p3.ic,
                oc,
                p3.ih,
                p3.iw,
                p3.kh,
                p3.kw,
                p3.stride_w,
                p3.pad_w,
            );
            let perf = lsv_conv::bench_layer(
                &arch,
                &padded,
                Direction::Fwd,
                Algorithm::Bdc,
                ExecutionMode::TimingOnly,
            );
            // Padding performs 8x the useful flops; report the *useful* rate.
            let useful = perf.gflops * (p3.oc as f64 / oc as f64);
            (
                4,
                format!(
                    "{},{:.1},{:.3}",
                    name,
                    useful,
                    useful * 1e9 / arch.peak_flops()
                ),
            )
        }
    });

    let section = |want: usize| {
        lines
            .iter()
            .filter(move |(s, _)| *s == want)
            .map(|(_, l)| l.as_str())
    };
    println!("# RB sweep on layer {layer_id} fwdd (BDC kernel, all else fixed)");
    println!("rb_target,rb_w,rb_h,gflops,efficiency,mpki_l1,conflict_fraction");
    for l in section(1) {
        println!("{l}");
    }
    println!();
    println!("# IC-grain sweep on a 2048-ch 3x3 14x14 layer fwdd (BDC kernel): Section 6.1 loop resizing");
    println!("ic_grain,gflops,efficiency");
    for l in section(2) {
        println!("{l}");
    }
    println!();
    println!("# weight-buffer depth sweep on layer 4 fwdd (BDC kernel, RB=8)");
    println!("wbuf,gflops,efficiency");
    for l in section(3) {
        println!("{l}");
    }
    println!();
    println!("# dynamic VL vs channel zero-padding on layer 3 fwdd (OC=64 < N_vlen)");
    println!("variant,gflops,efficiency");
    for l in section(4) {
        println!("{l}");
    }
    Ok(())
}
