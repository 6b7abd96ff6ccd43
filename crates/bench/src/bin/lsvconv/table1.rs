//! Table 1: the architecture analytical model applied to SIMD CPUs —
//! `N_vlen`, `N_fma`, `L_fma` and the independent-computation requirement
//! `E` (Formula 1) for Intel Skylake and NEC SX-Aurora.

use crate::args::Args;
use crate::Outcome;
use lsv_arch::presets::{skylake_avx512, sx_aurora};
use lsv_arch::{formula1_required_independent_elems, formula2_rb_min};

pub fn run(_: &Args) -> Outcome {
    println!("architecture,n_vlen,n_fma,l_fma,E,rb_min");
    for arch in [skylake_avx512(), sx_aurora()] {
        println!(
            "{},{},{},{},{},{}",
            arch.name,
            arch.n_vlen(),
            arch.n_fma,
            arch.l_fma,
            formula1_required_independent_elems(&arch),
            formula2_rb_min(&arch),
        );
    }
    println!();
    println!("# Paper Table 1: skylake E=160, sx-aurora E=12288.");
    Ok(())
}
