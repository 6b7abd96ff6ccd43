//! The backward-data micro-kernel (Section 4.1/4.3): the output tensor is
//! `S_diff`, the computation vectorizes the `IC` dimension, register
//! blocking covers the input spatial dimensions `(IW, IH)`, and the scalar
//! stream walks the output gradients `D_diff`.
//!
//! The weights tensor is stored role-swapped —
//! `(IC/IC_b, OC/grain, KH, KW, grain, IC_b)` — so the vectorized `IC`
//! dimension stays innermost and weight vectors remain unit-stride.

use super::{fill_taps, init_acc_block, store_acc_block, Tap};
use crate::problem::ConvProblem;
use crate::tuning::KernelConfig;
use lsv_tensor::{ActTensor, WeiTensor};
use lsv_vengine::{Arena, VCore};
use std::ops::Range;

/// Run the backward-data pass for images `n_range` on one simulated core.
///
/// `wei` must be the role-swapped tensor: allocated as
/// `WeiTensor::alloc(arena, /*oc slot*/ p.ic, /*ic slot*/ p.oc, kh, kw, cfg.wei_layout)`
/// and filled through [`crate::primitive::ConvPrimitive::store_weights`].
#[allow(clippy::too_many_arguments)]
pub fn run(
    cfg: &KernelConfig,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    src_diff: &ActTensor,
    wei: &WeiTensor,
    dst_diff: &ActTensor,
    n_range: Range<usize>,
) {
    debug_assert!(cfg.wei_swapped);
    core.region_enter("bwd_data");
    let vl_max = cfg.vl;
    let ic_vblocks = p.ic.div_ceil(vl_max);
    let (rb_w, rb_h) = (cfg.rb.rb_w, cfg.rb.rb_h);
    let wslot0 = rb_w * rb_h;
    let wbuf = cfg.wbuf;
    let tile = cfg.tile;
    let kh_blocks = p.kh.div_ceil(tile.kh_i);
    let kw_blocks = p.kw.div_ceil(tile.kw_i);
    let oc_chunks = p.oc.div_ceil(tile.c_i);
    let mut taps: Vec<Tap> = Vec::new();
    let mut producers = Producers::default();

    for n in n_range {
        core.scalar_ops(2);
        for icv in 0..ic_vblocks {
            core.scalar_ops(2);
            let vl = vl_max.min(p.ic - icv * vl_max);
            for occ in 0..oc_chunks {
                core.scalar_ops(2);
                let oc0 = occ * tile.c_i;
                let oc_cnt = tile.c_i.min(p.oc - oc0);
                for khb in 0..kh_blocks {
                    let kh0 = khb * tile.kh_i;
                    let kh_cnt = tile.kh_i.min(p.kh - kh0);
                    for kwb in 0..kw_blocks {
                        core.region_enter("khkw_tile");
                        let kw0 = kwb * tile.kw_i;
                        let kw_cnt = tile.kw_i.min(p.kw - kw0);
                        let first_pass = occ == 0 && khb == 0 && kwb == 0;
                        fill_taps(
                            &mut taps,
                            dst_diff,
                            wei,
                            n,
                            icv,
                            (oc0, oc_cnt),
                            (kh0, kh_cnt),
                            (kw0, kw_cnt),
                        );
                        core.scalar_ops(2);
                        let mut ih0 = 0;
                        while ih0 < p.ih {
                            let rbh_cur = rb_h.min(p.ih - ih0);
                            let mut iw0 = 0;
                            core.scalar_ops(1);
                            while iw0 < p.iw {
                                let rbw_cur = rb_w.min(p.iw - iw0);
                                let edge = rbh_cur < rb_h || rbw_cur < rb_w || vl < vl_max;
                                if edge {
                                    core.region_enter("edge");
                                }
                                producers.fill(
                                    p,
                                    (kh0, kh_cnt),
                                    (kw0, kw_cnt),
                                    ih0,
                                    rbh_cur,
                                    iw0,
                                    rbw_cur,
                                );
                                micro_kernel(MicroArgs {
                                    core,
                                    arena,
                                    src_diff,
                                    dst_diff,
                                    taps: &taps,
                                    producers: &producers,
                                    n,
                                    c0: icv * vl_max,
                                    vl,
                                    ih0,
                                    rbh_cur,
                                    iw0,
                                    rbw_cur,
                                    first_pass,
                                    wslot0,
                                    wbuf,
                                });
                                if edge {
                                    core.region_exit();
                                }
                                iw0 += rb_w;
                            }
                            ih0 += rb_h;
                        }
                        core.region_exit(); // khkw_tile
                    }
                }
            }
        }
    }
    core.region_exit(); // bwd_data
}

/// Map an input coordinate and kernel tap to the producing output
/// coordinate: `o = (i + pad - k) / stride` when the division is exact and
/// the result is in `[0, olen)`.
#[inline]
pub(crate) fn producer(
    i: usize,
    k: usize,
    pad: usize,
    stride: usize,
    olen: usize,
) -> Option<usize> {
    let t = i as isize + pad as isize - k as isize;
    if t < 0 {
        return None;
    }
    let t = t as usize;
    if !t.is_multiple_of(stride) {
        return None;
    }
    let o = t / stride;
    (o < olen).then_some(o)
}

/// The producing output rows and columns of one register block:
/// `rows[(kh - kh0) * rbh + h]` is the output row feeding input row
/// `ih0 + h` through kernel row `kh` (see [`producer`]), `cols` likewise.
/// Built once per micro-kernel so its FMAs never divide by the stride.
#[derive(Default)]
struct Producers {
    kh0: usize,
    kw0: usize,
    rows: Vec<Option<u64>>,
    cols: Vec<Option<u64>>,
}

impl Producers {
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &mut self,
        p: &ConvProblem,
        (kh0, kh_cnt): (usize, usize),
        (kw0, kw_cnt): (usize, usize),
        ih0: usize,
        rbh: usize,
        iw0: usize,
        rbw: usize,
    ) {
        let (oh, ow) = (p.oh(), p.ow());
        (self.kh0, self.kw0) = (kh0, kw0);
        self.rows.clear();
        self.cols.clear();
        for kh in kh0..kh0 + kh_cnt {
            self.rows.extend(
                (ih0..ih0 + rbh)
                    .map(|i| producer(i, kh, p.pad_h, p.stride_h, oh).map(|o| o as u64)),
            );
        }
        for kw in kw0..kw0 + kw_cnt {
            self.cols.extend(
                (iw0..iw0 + rbw)
                    .map(|i| producer(i, kw, p.pad_w, p.stride_w, ow).map(|o| o as u64)),
            );
        }
    }

    /// The producing rows of kernel row `kh` for the `rbh` block rows.
    fn rows(&self, kh: usize, rbh: usize) -> &[Option<u64>] {
        let k = kh - self.kh0;
        &self.rows[k * rbh..(k + 1) * rbh]
    }

    /// The producing columns of kernel column `kw` for the `rbw` block
    /// columns.
    fn cols(&self, kw: usize, rbw: usize) -> &[Option<u64>] {
        let k = kw - self.kw0;
        &self.cols[k * rbw..(k + 1) * rbw]
    }
}

struct MicroArgs<'a, 'b> {
    core: &'b mut VCore,
    arena: &'b mut Arena,
    src_diff: &'a ActTensor,
    dst_diff: &'a ActTensor,
    taps: &'a [Tap],
    producers: &'a Producers,
    n: usize,
    c0: usize,
    vl: usize,
    ih0: usize,
    rbh_cur: usize,
    iw0: usize,
    rbw_cur: usize,
    first_pass: bool,
    wslot0: usize,
    wbuf: usize,
}

fn micro_kernel(a: MicroArgs<'_, '_>) {
    let MicroArgs {
        core,
        arena,
        src_diff,
        dst_diff,
        taps,
        producers,
        n,
        c0,
        vl,
        ih0,
        rbh_cur,
        iw0,
        rbw_cur,
        first_pass,
        wslot0,
        wbuf,
    } = a;
    let acc_origin = [n, c0, ih0, iw0];

    // --- accumulators over the S_diff register block.
    core.region_enter("acc_init");
    init_acc_block(
        core, arena, src_diff, acc_origin, rbh_cur, rbw_cur, vl, first_pass,
    );
    core.region_exit();

    // --- inner loop over (kh, kw, oc_i) with software-pipelined weight loads.
    core.region_enter("inner_loop");
    let total = taps.len();
    let lookahead = (wbuf - 1).min(total);
    for (j, tap) in taps.iter().take(lookahead).enumerate() {
        core.scalar_op();
        core.vload(arena, wslot0 + j % wbuf, tap.w_addr, vl);
    }
    let (h_step, w_step) = (dst_diff.h_step(), dst_diff.w_step());
    for (j, tap) in taps.iter().enumerate() {
        if let Some(ahead) = taps.get(j + lookahead) {
            core.scalar_op();
            core.vload(arena, wslot0 + (j + lookahead) % wbuf, ahead.w_addr, vl);
        }
        let wreg = wslot0 + j % wbuf;
        let cols = producers.cols(tap.kw, rbw_cur);
        for (h, &oy) in producers.rows(tap.kh, rbh_cur).iter().enumerate() {
            let Some(oy) = oy else {
                continue;
            };
            let row = tap.a_base + oy * h_step;
            for (w, &ox) in cols.iter().enumerate() {
                let Some(ox) = ox else {
                    continue;
                };
                let reg = h * rbw_cur + w;
                core.scalar_op(); // D_diff pointer update
                let d_addr = row + ox * w_step;
                debug_assert_eq!(d_addr, dst_diff.at(n, tap.c, oy as usize, ox as usize));
                let dv = core.scalar_load(arena, d_addr);
                core.vfma_bcast(reg, wreg, dv, vl);
            }
        }
    }

    core.region_exit(); // inner_loop

    // --- write partial S_diff sums back.
    core.region_enter("acc_store");
    store_acc_block(core, arena, src_diff, acc_origin, rbh_cur, rbw_cur, vl);
    core.region_exit();
}

#[cfg(test)]
mod tests {
    use super::producer;

    #[test]
    fn producer_unit_stride() {
        // i = o + k - pad  <=>  o = i + pad - k.
        assert_eq!(producer(0, 0, 0, 1, 8), Some(0));
        assert_eq!(producer(5, 2, 1, 1, 8), Some(4));
        assert_eq!(producer(0, 2, 1, 1, 8), None, "would be negative");
        assert_eq!(producer(9, 0, 0, 1, 8), None, "past the output");
    }

    #[test]
    fn producer_stride_two_parity() {
        assert_eq!(producer(4, 0, 0, 2, 8), Some(2));
        assert_eq!(producer(5, 0, 0, 2, 8), None, "odd offset unreachable");
        assert_eq!(producer(5, 1, 0, 2, 8), Some(2));
    }
}
