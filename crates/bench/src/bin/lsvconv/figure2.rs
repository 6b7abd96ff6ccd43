//! Figure 2: micro-kernel memory footprint of the state-of-the-art SIMD
//! direct convolution for 3x3 layers (VGG/ResNet shapes) across vector
//! lengths. The paper's observation: the weights sub-tensor grows
//! quadratically with `N_vlen`, reaching ~9 MB at 16,384-bit vectors.

use crate::args::Args;
use crate::Outcome;
use lsv_arch::formula2_rb_min;
use lsv_arch::presets::aurora_with_vlen_bits;
use lsv_conv::footprint::microkernel_footprint;
use lsv_conv::tuning::split_register_block;
use lsv_conv::ConvProblem;

pub fn run(_: &Args) -> Outcome {
    // 3x3 layers of VGG and ResNet, labelled by spatial size x channels as
    // in the figure's x-axis.
    let shapes: &[(usize, usize)] = &[
        (224, 64),
        (112, 128),
        (56, 64),
        (56, 256),
        (28, 128),
        (28, 512),
        (14, 256),
        (14, 512),
        (7, 512),
    ];
    let vlens = [512usize, 2048, 4096, 8192, 16384];
    // Footprints are analytic but still route through the shared pool so
    // every sweep parallelizes the same way.
    let jobs: Vec<(usize, usize)> = (0..shapes.len())
        .flat_map(|s| (0..vlens.len()).map(move |v| (s, v)))
        .collect();
    let cells = lsv_bench::par::par_map(jobs, |(s, v)| {
        let (hw, c) = shapes[s];
        let arch = aurora_with_vlen_bits(vlens[v]);
        let p = ConvProblem::new(256, c, c, hw, hw, 3, 3, 1, 1);
        let rb = split_register_block(formula2_rb_min(&arch), p.ow(), p.oh());
        let fp = microkernel_footprint(&arch, &p, rb);
        format!(",{:.3}", fp.total_mib())
    });
    print!("layer");
    for v in vlens {
        print!(",{}b_MiB", v);
    }
    println!();
    for (s, &(hw, c)) in shapes.iter().enumerate() {
        print!("{}x{}_{}ch", hw, hw, c);
        for cell in &cells[s * vlens.len()..(s + 1) * vlens.len()] {
            print!("{cell}");
        }
        println!();
    }
    println!();
    println!(
        "# Paper Figure 2: footprints reach ~9 MiB at 16384-bit vectors for 512-channel layers."
    );
    Ok(())
}
