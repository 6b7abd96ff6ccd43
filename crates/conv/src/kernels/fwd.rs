//! The forward-data micro-kernel (Algorithm 2 for DC/BDC; Algorithm 4 for
//! MBDC — the two differ only in blocking parameters and in whether the `D`
//! tensor moves via unit-stride vector ops or coarse-grain gather/scatter,
//! which the shared activation-vector access helpers dispatch on).

use super::{fill_taps, init_acc_block, store_acc_block, Tap};
use crate::problem::ConvProblem;
use crate::tuning::KernelConfig;
use lsv_tensor::{ActTensor, WeiTensor};
use lsv_vengine::{Arena, VCore};
use std::ops::Range;

/// Run the forward pass for images `n_range` on one simulated core.
///
/// `src` and `dst` must use `cfg.src_layout` / `cfg.dst_layout`; `wei` must
/// use `cfg.wei_layout` (not swapped).
#[allow(clippy::too_many_arguments)]
pub fn run(
    cfg: &KernelConfig,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    src: &ActTensor,
    wei: &WeiTensor,
    dst: &ActTensor,
    n_range: Range<usize>,
) {
    debug_assert!(!cfg.wei_swapped);
    core.region_enter("fwd");
    let (oh, ow) = (p.oh(), p.ow());
    let vl_max = cfg.vl;
    let oc_vblocks = p.oc.div_ceil(vl_max);
    let (rb_w, rb_h) = (cfg.rb.rb_w, cfg.rb.rb_h);
    let n_acc = rb_w * rb_h;
    let wslot0 = n_acc; // weight double-buffer registers follow the accumulators
    let wbuf = cfg.wbuf;
    let tile = cfg.tile;
    let kh_blocks = p.kh.div_ceil(tile.kh_i);
    let kw_blocks = p.kw.div_ceil(tile.kw_i);
    let ic_chunks = p.ic.div_ceil(tile.c_i);
    let mut taps: Vec<Tap> = Vec::new();

    for n in n_range {
        core.scalar_ops(2);
        for ocv in 0..oc_vblocks {
            core.scalar_ops(2);
            let vl = vl_max.min(p.oc - ocv * vl_max);
            for icc in 0..ic_chunks {
                core.scalar_ops(2);
                let ic0 = icc * tile.c_i;
                let ic_cnt = tile.c_i.min(p.ic - ic0);
                for khb in 0..kh_blocks {
                    let kh0 = khb * tile.kh_i;
                    let kh_cnt = tile.kh_i.min(p.kh - kh0);
                    for kwb in 0..kw_blocks {
                        core.region_enter("khkw_tile");
                        let kw0 = kwb * tile.kw_i;
                        let kw_cnt = tile.kw_i.min(p.kw - kw0);
                        let first_pass = icc == 0 && khb == 0 && kwb == 0;
                        fill_taps(
                            &mut taps,
                            src,
                            wei,
                            n,
                            ocv,
                            (ic0, ic_cnt),
                            (kh0, kh_cnt),
                            (kw0, kw_cnt),
                        );
                        core.scalar_ops(2);
                        let mut oh0 = 0;
                        while oh0 < oh {
                            let rbh_cur = rb_h.min(oh - oh0);
                            let mut ow0 = 0;
                            core.scalar_ops(1);
                            while ow0 < ow {
                                let rbw_cur = rb_w.min(ow - ow0);
                                let edge = rbh_cur < rb_h || rbw_cur < rb_w || vl < vl_max;
                                if edge {
                                    core.region_enter("edge");
                                }
                                micro_kernel(MicroArgs {
                                    p,
                                    core,
                                    arena,
                                    src,
                                    dst,
                                    taps: &taps,
                                    n,
                                    c0: ocv * vl_max,
                                    vl,
                                    oh0,
                                    rbh_cur,
                                    ow0,
                                    rbw_cur,
                                    first_pass,
                                    wslot0,
                                    wbuf,
                                });
                                if edge {
                                    core.region_exit();
                                }
                                ow0 += rb_w;
                            }
                            oh0 += rb_h;
                        }
                        core.region_exit(); // khkw_tile
                    }
                }
            }
        }
    }
    core.region_exit(); // fwd
}

struct MicroArgs<'a, 'b> {
    p: &'a ConvProblem,
    core: &'b mut VCore,
    arena: &'b mut Arena,
    src: &'a ActTensor,
    dst: &'a ActTensor,
    taps: &'a [Tap],
    n: usize,
    c0: usize,
    vl: usize,
    oh0: usize,
    rbh_cur: usize,
    ow0: usize,
    rbw_cur: usize,
    first_pass: bool,
    wslot0: usize,
    wbuf: usize,
}

/// One micro-kernel invocation: `rbh_cur * rbw_cur` accumulator registers,
/// the `(kh, kw, ic_i)` inner loop with software-pipelined weight loads, and
/// the closing accumulator stores (Algorithm 2 lines 11-19).
fn micro_kernel(a: MicroArgs<'_, '_>) {
    let MicroArgs {
        p,
        core,
        arena,
        src,
        dst,
        taps,
        n,
        c0,
        vl,
        oh0,
        rbh_cur,
        ow0,
        rbw_cur,
        first_pass,
        wslot0,
        wbuf,
    } = a;
    let acc_origin = [n, c0, oh0, ow0];

    // --- accumulator init: zero on the first accumulation pass, otherwise
    //     reload the partial sums from D.
    core.region_enter("acc_init");
    init_acc_block(
        core, arena, dst, acc_origin, rbh_cur, rbw_cur, vl, first_pass,
    );
    core.region_exit();

    // --- inner loop over (kh, kw, ic_i), flattened for weight prefetch.
    core.region_enter("inner_loop");
    let total = taps.len();
    let lookahead = (wbuf - 1).min(total);
    for (j, tap) in taps.iter().take(lookahead).enumerate() {
        core.scalar_op();
        core.vload(arena, wslot0 + j % wbuf, tap.w_addr, vl);
    }
    let (h_step, w_step) = (src.h_step(), src.w_step());
    for (j, tap) in taps.iter().enumerate() {
        if let Some(ahead) = taps.get(j + lookahead) {
            core.scalar_op(); // weight pointer bump
            core.vload(arena, wslot0 + (j + lookahead) % wbuf, ahead.w_addr, vl);
        }
        let wreg = wslot0 + j % wbuf;
        for h in 0..rbh_cur {
            let ih = ((oh0 + h) * p.stride_h + tap.kh) as isize - p.pad_h as isize;
            if ih < 0 || ih >= p.ih as isize {
                continue; // zero-padding row: the JIT emits no code here
            }
            let row = tap.a_base + ih as u64 * h_step;
            for w in 0..rbw_cur {
                let iw = ((ow0 + w) * p.stride_w + tap.kw) as isize - p.pad_w as isize;
                if iw < 0 || iw >= p.iw as isize {
                    continue; // zero-padding tap
                }
                let reg = h * rbw_cur + w;
                core.scalar_op(); // source pointer update (B_seq filler #1)
                let s_addr = row + iw as u64 * w_step;
                debug_assert_eq!(s_addr, src.at(n, tap.c, ih as usize, iw as usize));
                let sv = core.scalar_load(arena, s_addr); // B_seq filler #2
                core.vfma_bcast(reg, wreg, sv, vl);
            }
        }
    }

    core.region_exit(); // inner_loop

    // --- write the partial sums back (Algorithm 2 line 19).
    core.region_enter("acc_store");
    store_acc_block(core, arena, dst, acc_origin, rbh_cur, rbw_cur, vl);
    core.region_exit();
}
