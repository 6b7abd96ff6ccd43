//! Table 2: summary of the convolution algorithms — the activation and
//! weight blocking factors, schedule grain, and register-block policy each
//! algorithm actually instantiates. Regenerated from the real kernel
//! configurations on a representative layer (ample channels so no `min(C,.)`
//! clamping hides the policy).

use crate::args::Args;
use crate::Outcome;
use lsv_arch::presets::sx_aurora;
use lsv_arch::{bdc_register_block_range, formula2_rb_min};
use lsv_conv::{Algorithm, ConvDesc, ConvProblem, Direction};

pub fn run(_: &Args) -> Outcome {
    let arch = sx_aurora();
    // A wide layer: IC = OC = 1024 >= N_vlen so the blocking policies are
    // visible unclamped.
    let p = ConvProblem::new(256, 1024, 1024, 14, 14, 3, 3, 1, 1);
    println!(
        "algorithm,act_block(IC_b/OC_b),wei_block(icb,ocb),schedule_grain,register_block,rb_range"
    );
    for alg in Algorithm::ALL {
        let prim = ConvDesc::new(p, Direction::Fwd, alg)
            .create(&arch, 8)
            .unwrap();
        let cfg = prim.cfg();
        let range = match alg {
            Algorithm::Dc => format!(">= {}", formula2_rb_min(&arch)),
            Algorithm::Bdc => {
                let r = bdc_register_block_range(&arch, cfg.src_layout.cb, p.stride_w);
                format!("[{}, {}]", r.min, r.max)
            }
            Algorithm::Mbdc => format!(">= {}", formula2_rb_min(&arch)),
        };
        println!(
            "{},{}/{},({},{}),{},{}x{}={},{}",
            alg.short_name(),
            cfg.src_layout.cb,
            cfg.dst_layout.cb,
            cfg.wei_layout.icb,
            cfg.wei_layout.ocb,
            cfg.tile.c_i.min(cfg.wei_layout.icb), // micro-kernel IC grain floor
            cfg.rb.rb_w,
            cfg.rb.rb_h,
            cfg.rb.combined(),
            range,
        );
    }
    println!();
    println!("# Paper Table 2: DC blocks activations by min(C, N_vlen) and schedules at IC_b;");
    println!("# BDC keeps the activation layout but loop-resizes the weights to N_cline and");
    println!("# bounds RB by Formula 4; MBDC re-blocks activations by N_cline.");
    Ok(())
}
