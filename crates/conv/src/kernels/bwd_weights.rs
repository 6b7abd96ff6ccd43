//! The backward-weights micro-kernel (Section 4.1/4.3): the output tensor is
//! `W_diff`; the computation vectorizes the larger feature-map dimension and
//! register-blocks the smaller one (`RB_c` accumulator chains). The
//! accumulators live across the whole `(n, oh, ow)` reduction sweep, so each
//! `W_diff` vector is stored exactly once.
//!
//! Per spatial step the kernel issues one feature-map vector load of the
//! vectorized activation tensor (a coarse-grain gather under the MBDC
//! layout — this is why Section 8 observes that "the vector gather/scatter
//! operations are more frequent" in this pass) followed by `RB_c` scalar
//! loads + FMAs on the other tensor.

use super::{act_vec_lanes, load_act_vec};
use crate::problem::ConvProblem;
use crate::tuning::KernelConfig;
use lsv_tensor::{ActTensor, WeiTensor};
use lsv_vengine::{Arena, VCore};
use std::ops::Range;

/// Run the backward-weights pass on one simulated core.
///
/// * `wei_diff` — output gradients; role-swapped when `cfg.vec_over_ic`.
/// * `small_blocks` — the range of `RB_c`-sized blocks of the *smaller*
///   feature-map dimension this core owns (the paper parallelizes this loop
///   across cores, Section 4.3).
/// * `n_range` — minibatch slice to reduce over (each core reduces over the
///   full minibatch in the real scheme; the scheduler passes a slice and
///   scales, see `perf`).
#[allow(clippy::too_many_arguments)]
pub fn run(
    cfg: &KernelConfig,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    src: &ActTensor,
    wei_diff: &WeiTensor,
    dst_diff: &ActTensor,
    small_blocks: Range<usize>,
    n_range: Range<usize>,
) {
    core.region_enter("bwd_weights");
    let vl_max = cfg.vl;
    let (c_vec, c_small) = if cfg.vec_over_ic {
        (p.ic, p.oc)
    } else {
        (p.oc, p.ic)
    };
    let vec_blocks = c_vec.div_ceil(vl_max);
    let rb_c = cfg.rb_c;
    let vbuf0 = rb_c; // rotating activation-vector registers
    let vbuf = cfg.wbuf.max(2);
    // The vectorized activation tensor (vector loads) and the scalar one.
    let (vec_t, sca_t) = if cfg.vec_over_ic {
        (src, dst_diff)
    } else {
        (dst_diff, src)
    };
    let mut points: Vec<Point> = Vec::new();
    let mut sca_bases: Vec<u64> = Vec::with_capacity(rb_c);

    for cvb in 0..vec_blocks {
        core.scalar_ops(2);
        let vl = vl_max.min(c_vec - cvb * vl_max);
        let lanes = act_vec_lanes(vec_t, vl);
        for csb in small_blocks.clone() {
            let cs0 = csb * rb_c;
            if cs0 >= c_small {
                break;
            }
            let rb_cur = rb_c.min(c_small - cs0);
            for kh in 0..p.kh {
                for kw in 0..p.kw {
                    core.region_enter("khkw_tile");
                    core.scalar_ops(2);
                    // Accumulators for this (kh, kw) tap, zeroed once and
                    // reduced over the whole (n, oh, ow) domain.
                    core.region_enter("acc_init");
                    for j in 0..rb_cur {
                        core.vbroadcast_zero(j, lanes);
                    }
                    core.region_exit();
                    core.region_enter("inner_loop");
                    // One enumeration of the tap's points serves every image.
                    valid_points(&mut points, cfg, p, vec_t, sca_t, kh, kw);
                    for n in n_range.clone() {
                        core.scalar_ops(2);
                        sca_bases.clear();
                        sca_bases.extend((cs0..cs0 + rb_cur).map(|c| sca_t.at(n, c, 0, 0)));
                        sweep_spatial(
                            core,
                            arena,
                            (vec_t, sca_t),
                            (n, cvb * vl_max, cs0),
                            vec_t.at(n, cvb * vl_max, 0, 0),
                            &sca_bases,
                            &points,
                            vl,
                            vbuf0,
                            vbuf,
                        );
                    }
                    core.region_exit(); // inner_loop

                    // Store the finished W_diff vectors (one store per
                    // accumulator for the whole reduction).
                    core.region_enter("acc_store");
                    for j in 0..rb_cur {
                        let addr = wei_diff.oc_vector_at(cvb, cs0 + j, kh, kw);
                        core.vstore(arena, j, addr, vl);
                    }
                    core.region_exit();
                    core.region_exit(); // khkw_tile
                }
            }
        }
    }
    core.region_exit(); // bwd_weights
}

/// One valid output point of a `(kh, kw)` tap, as byte offsets from the
/// `(h, w) = (0, 0)` element of a channel: `vec_off` into the vectorized
/// tensor and `sca_off` into the scalar one.
struct Point {
    vec_off: u64,
    sca_off: u64,
    /// The `(h, w)` coordinates the offsets stand for (checked in debug
    /// builds).
    vec_yx: (usize, usize),
    sca_yx: (usize, usize),
}

/// Enumerate the valid `(oy, ox)` points of one `(kh, kw)` tap (the JIT
/// peels padding rows) with their offsets: the vectorized tensor is indexed
/// by `(ih, iw)` when it is `S`, by `(oy, ox)` when it is `D_diff`, and the
/// scalar tensor by the other pair.
fn valid_points(
    points: &mut Vec<Point>,
    cfg: &KernelConfig,
    p: &ConvProblem,
    vec_t: &ActTensor,
    sca_t: &ActTensor,
    kh: usize,
    kw: usize,
) {
    let (oh, ow) = (p.oh(), p.ow());
    let off = |t: &ActTensor, y: usize, x: usize| y as u64 * t.h_step() + x as u64 * t.w_step();
    points.clear();
    for oy in 0..oh {
        let ih = (oy * p.stride_h + kh) as isize - p.pad_h as isize;
        if ih < 0 || ih >= p.ih as isize {
            continue;
        }
        for ox in 0..ow {
            let iw = (ox * p.stride_w + kw) as isize - p.pad_w as isize;
            if iw < 0 || iw >= p.iw as isize {
                continue;
            }
            let (ih, iw) = (ih as usize, iw as usize);
            let (vec_yx, sca_yx) = if cfg.vec_over_ic {
                ((ih, iw), (oy, ox))
            } else {
                ((oy, ox), (ih, iw))
            };
            points.push(Point {
                vec_off: off(vec_t, vec_yx.0, vec_yx.1),
                sca_off: off(sca_t, sca_yx.0, sca_yx.1),
                vec_yx,
                sca_yx,
            });
        }
    }
}

/// The spatial reduction sweep for one (kh, kw) tap of one image: per valid
/// output point, one vector load of the vectorized activations (from
/// `vec_base + vec_off`, software-pipelined one step ahead) and one
/// scalar-load + FMA pair per accumulator `c` (from
/// `sca_bases[c] + sca_off`). `sca_bases[c]` is `sca_t.at(n, cs0 + c, 0, 0)`
/// and `vec_base` is `vec_t.at(n, c0, 0, 0)`.
#[allow(clippy::too_many_arguments)]
fn sweep_spatial(
    core: &mut VCore,
    arena: &mut Arena,
    (vec_t, sca_t): (&ActTensor, &ActTensor),
    (n, c0, cs0): (usize, usize, usize),
    vec_base: u64,
    sca_bases: &[u64],
    points: &[Point],
    vl: usize,
    vbuf0: usize,
    vbuf: usize,
) {
    let vec_addr = |pt: &Point| {
        let a = vec_base + pt.vec_off;
        debug_assert_eq!(a, vec_t.at(n, c0, pt.vec_yx.0, pt.vec_yx.1));
        a
    };
    let lookahead = (vbuf - 1).min(points.len());
    for (j, pt) in points.iter().take(lookahead).enumerate() {
        core.scalar_op();
        load_act_vec(core, arena, vec_t, vec_addr(pt), vl, vbuf0 + j % vbuf);
    }
    for (j, pt) in points.iter().enumerate() {
        if let Some(ahead) = points.get(j + lookahead) {
            core.scalar_op();
            load_act_vec(
                core,
                arena,
                vec_t,
                vec_addr(ahead),
                vl,
                vbuf0 + (j + lookahead) % vbuf,
            );
        }
        let vreg = vbuf0 + j % vbuf;
        for (c, &base) in sca_bases.iter().enumerate() {
            core.scalar_op(); // scalar pointer bump
            let addr = base + pt.sca_off;
            debug_assert_eq!(addr, sca_t.at(n, cs0 + c, pt.sca_yx.0, pt.sca_yx.1));
            let sv = core.scalar_load(arena, addr);
            core.vfma_bcast(c, vreg, sv, vl);
        }
    }
}
