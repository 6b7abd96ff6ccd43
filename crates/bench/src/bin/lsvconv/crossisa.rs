//! Cross-ISA study (extension beyond the paper's evaluation): how the three
//! direct algorithms behave on four machines spanning the SIMD-length
//! spectrum the paper's introduction motivates — AVX-512 Skylake, A64FX-like
//! SVE (512-bit), a hypothetical 4096-bit RISC-V "V" design, and the
//! 16,384-bit SX-Aurora.
//!
//! Expected shape: the three algorithms tie on the short-vector machines
//! (the paper's claim that the state of the art is adequate there) and
//! separate progressively as `A_b` grows with the vector length.
//!
//! Usage: `lsvconv-cli crossisa [minibatch]` (default 32).

use crate::args::Args;
use crate::Outcome;
use lsv_arch::presets::{a64fx_sve, rvv_longvector, skylake_avx512, sx_aurora};
use lsv_bench::{bench_engine, geomean, Engine};
use lsv_conv::{Algorithm, Direction, ExecutionMode};
use lsv_models::resnet_layers;

pub fn run(args: &Args) -> Outcome {
    let minibatch: usize = args.pos(0).unwrap_or(32);
    let machines = [skylake_avx512(), a64fx_sve(), rvv_longvector(), sx_aurora()];
    let engines = [
        Engine::Direct(Algorithm::Dc),
        Engine::Direct(Algorithm::Bdc),
        Engine::Direct(Algorithm::Mbdc),
    ];
    // One flat job pool over machine x engine x layer: the short-vector
    // machines' cheap layers backfill host threads while SX-Aurora simulates.
    let layers = resnet_layers(minibatch);
    let jobs: Vec<(usize, usize, usize)> = (0..machines.len())
        .flat_map(|m| {
            let n = layers.len();
            (0..engines.len()).flat_map(move |e| (0..n).map(move |l| (m, e, l)))
        })
        .collect();
    let gflops: Vec<(usize, usize, f64)> = lsv_bench::par::par_map(jobs, |(m, e, l)| {
        let perf = bench_engine(
            &machines[m],
            &layers[l],
            Direction::Fwd,
            engines[e],
            ExecutionMode::TimingOnly,
        );
        (m, e, perf.gflops)
    });
    println!("architecture,n_vlen,algorithm,geomean_gflops_fwdd,geomean_efficiency,speedup_vs_dc");
    for (m, arch) in machines.iter().enumerate() {
        let means: Vec<(Engine, f64)> = engines
            .iter()
            .enumerate()
            .map(|(e, &eng)| {
                let gfs = gflops
                    .iter()
                    .filter(|&&(jm, je, _)| jm == m && je == e)
                    .map(|&(_, _, g)| g);
                (eng, geomean(gfs))
            })
            .collect();
        let dc = means[0].1;
        for (e, g) in &means {
            println!(
                "{},{},{},{:.1},{:.3},{:.2}",
                arch.name,
                arch.n_vlen(),
                e.name(),
                g,
                g * 1e9 / arch.peak_flops(),
                g / dc
            );
        }
    }
    println!();
    println!("# Expected: the BDC/MBDC advantage grows with the vector length (conflicts only");
    println!("# manifest when A_b is large); residual short-vector gaps come from register-file");
    println!("# sizing, not from the cache phenomenon.");
    Ok(())
}
