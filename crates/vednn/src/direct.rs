//! Spatial-domain vectorized direct kernels (unit stride), the style of
//! vednn's tuned convolution routines: plain NCHW tensors, a physically
//! zero-padded source image, and 2-D vector loads that pack several complete
//! output rows into one long vector register.
//!
//! Vector utilization is `rows * OW / N_vlen`: near-full on 56x56 images
//! (9 rows x 56 = 504 of 512 lanes) but only 49/512 lanes on the 7x7 layers
//! — the efficiency cliff the paper's Figure 4 shows for vednn on layer ids
//! 14-18.

use crate::VednnTensors;
use lsv_arch::ArchParams;
use lsv_conv::ConvProblem;
use lsv_vengine::{Arena, VCore};
use std::ops::Range;

/// Output-channel unroll: independent accumulator chains that share each
/// loaded source vector (hides the FMA latency like the paper's register
/// blocking does for the channel-blocked kernels).
const UNROLL_C: usize = 8;
/// Rotating source-vector registers for software pipelining.
const VIN_BUFS: usize = 3;

/// Copy `len` contiguous elements via chunked vector load/store (library
/// pack routine).
pub(crate) fn copy_chunked(
    core: &mut VCore,
    arena: &mut Arena,
    from: u64,
    to: u64,
    len: usize,
    reg: usize,
) {
    let nvlen = core.arch().n_vlen();
    let mut off = 0usize;
    while off < len {
        let c = nvlen.min(len - off);
        core.scalar_op();
        core.vload(arena, reg, from + (off * 4) as u64, c);
        core.vstore(arena, reg, to + (off * 4) as u64, c);
        off += c;
    }
}

/// Zero `len` contiguous elements using a pre-zeroed register.
pub(crate) fn zero_chunked(core: &mut VCore, arena: &mut Arena, to: u64, len: usize, zreg: usize) {
    let nvlen = core.arch().n_vlen();
    let mut off = 0usize;
    while off < len {
        let c = nvlen.min(len - off);
        core.scalar_op();
        core.vstore(arena, zreg, to + (off * 4) as u64, c);
        off += c;
    }
}

/// Pack one image `(C, H, W)` read through `src_at` into the zero-bordered
/// scratch buffer with padding `pb` (borders stay zero: the arena is
/// zero-initialized and only the interior is ever written).
#[allow(clippy::too_many_arguments)]
fn pack_image(
    core: &mut VCore,
    arena: &mut Arena,
    src_at: &dyn Fn(usize, usize, usize) -> u64,
    c: usize,
    h: usize,
    w: usize,
    pad_buf: u64,
    pb: usize,
    reg: usize,
) {
    let pw = w + 2 * pb;
    for ch in 0..c {
        for y in 0..h {
            let from = src_at(ch, y, 0);
            let to = pad_buf + (((ch * (h + 2 * pb) + y + pb) * pw + pb) * 4) as u64;
            copy_chunked(core, arena, from, to, w, reg);
        }
    }
}

/// Address inside the padded scratch image.
#[inline]
fn pad_at(pad_buf: u64, h_pad: usize, w_pad: usize, c: usize, y: usize, x: usize) -> u64 {
    pad_buf + (((c * h_pad + y) * w_pad + x) * 4) as u64
}

/// One `(ci, ky, kx)` reduction tap of the spatial kernel, resolved once
/// per image: its source vector starts `in_off` bytes past the register
/// group's origin in the padded image, and output channel `co`'s weight is
/// `w0 + co * wei_co_step`.
struct Tap {
    in_off: u64,
    w0: u64,
    ci: usize,
    ky: usize,
    kx: usize,
}

/// The shared spatial kernel: output `(C_out, OH, OW)`, reduction over
/// `(C_in, KH, KW)` taps of a padded input image, `UNROLL_C` output-channel
/// accumulators. `wei_at(co, ci, kh, kw)` supplies the scalar weight address
/// (the bwd-data caller rotates the kernel and swaps roles here); it must be
/// affine in `co` with step `wei_co_step`, so the FMAs step from one
/// per-tap base instead of calling it.
#[allow(clippy::too_many_arguments)]
fn spatial_conv_image(
    core: &mut VCore,
    arena: &mut Arena,
    c_out: usize,
    c_in: usize,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
    in_buf: u64,
    in_h: usize,
    in_w: usize,
    wei_at: &dyn Fn(usize, usize, usize, usize) -> u64,
    wei_co_step: u64,
    out_at: &dyn Fn(usize, usize, usize) -> u64,
) {
    let nvlen = core.arch().n_vlen();
    let cols = ow.min(nvlen);
    let rows = if ow <= nvlen {
        (nvlen / ow).max(1).min(oh)
    } else {
        1
    };
    // Taps in (ci, ky, kx) order, kx fastest.
    let mut taps = Vec::with_capacity(c_in * kh * kw);
    for ci in 0..c_in {
        for ky in 0..kh {
            for kx in 0..kw {
                taps.push(Tap {
                    in_off: pad_at(0, in_h, in_w, ci, ky, kx),
                    w0: wei_at(0, ci, ky, kx),
                    ci,
                    ky,
                    kx,
                });
            }
        }
    }
    let lookahead = (VIN_BUFS - 1).min(taps.len());
    let vin0 = UNROLL_C;
    let row_bytes = (in_w * 4) as u64;

    let mut ocb = 0;
    while ocb < c_out {
        let uo = UNROLL_C.min(c_out - ocb);
        let mut rg = 0;
        while rg < oh {
            let rcur = rows.min(oh - rg);
            let mut cg = 0;
            while cg < ow {
                let ccur = cols.min(ow - cg);
                let vl = rcur * ccur;
                for u in 0..uo {
                    core.vbroadcast_zero(u, vl);
                }
                let origin = pad_at(in_buf, in_h, in_w, 0, rg, cg);
                let tap_addr = |tap: &Tap| {
                    let a = origin + tap.in_off;
                    debug_assert_eq!(
                        a,
                        pad_at(in_buf, in_h, in_w, tap.ci, rg + tap.ky, cg + tap.kx)
                    );
                    a
                };
                for (j, tap) in taps.iter().take(lookahead).enumerate() {
                    core.scalar_op();
                    core.vload_rows(
                        arena,
                        vin0 + j % VIN_BUFS,
                        tap_addr(tap),
                        ccur,
                        row_bytes,
                        rcur,
                    );
                }
                for (j, tap) in taps.iter().enumerate() {
                    if let Some(ahead) = taps.get(j + lookahead) {
                        core.scalar_op();
                        core.vload_rows(
                            arena,
                            vin0 + (j + lookahead) % VIN_BUFS,
                            tap_addr(ahead),
                            ccur,
                            row_bytes,
                            rcur,
                        );
                    }
                    let vin = vin0 + j % VIN_BUFS;
                    let w_blk = tap.w0 + ocb as u64 * wei_co_step;
                    for u in 0..uo {
                        core.scalar_op();
                        let w_addr = w_blk + u as u64 * wei_co_step;
                        debug_assert_eq!(w_addr, wei_at(ocb + u, tap.ci, tap.ky, tap.kx));
                        let sv = core.scalar_load(arena, w_addr);
                        core.vfma_bcast(u, vin, sv, vl);
                    }
                }
                for u in 0..uo {
                    core.vstore_rows(
                        arena,
                        u,
                        out_at(ocb + u, rg, cg),
                        ccur,
                        (ow * 4) as u64,
                        rcur,
                    );
                }
                cg += cols;
            }
            rg += rows;
        }
        ocb += UNROLL_C;
    }
}

/// Forward pass, unit stride: `D = conv(S, W)`.
pub fn run_fwd(
    arch: &ArchParams,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &VednnTensors,
    n_range: Range<usize>,
) {
    assert!(
        p.stride_h == 1 && p.stride_w == 1,
        "direct spatial kernel is unit-stride only"
    );
    assert_eq!(p.pad_h, p.pad_w, "pack_image pads both axes equally");
    let _ = arch;
    let (oh, ow) = (p.oh(), p.ow());
    let pb = p.pad_h;
    let (in_h, in_w) = (p.ih + 2 * pb, p.iw + 2 * pb);
    let reg_pack = UNROLL_C + VIN_BUFS; // scratch register for packing
    for n in n_range {
        core.scalar_ops(2);
        let src = t.src;
        let (in_buf, ih_eff, iw_eff);
        if pb > 0 {
            pack_image(
                core,
                arena,
                &|c, y, x| src.at(n, c, y, x),
                p.ic,
                p.ih,
                p.iw,
                t.pad_buf,
                pb,
                reg_pack,
            );
            in_buf = t.pad_buf;
            ih_eff = in_h;
            iw_eff = in_w;
        } else {
            // No padding: read the NCHW image in place.
            in_buf = src.at(n, 0, 0, 0);
            ih_eff = p.ih;
            iw_eff = p.iw;
        }
        let wei = t.wei;
        let dst = t.dst;
        spatial_conv_image(
            core,
            arena,
            p.oc,
            p.ic,
            oh,
            ow,
            p.kh,
            p.kw,
            in_buf,
            ih_eff,
            iw_eff,
            &|co, ci, ky, kx| wei.at(co, ci, ky, kx),
            // OIHW: consecutive output channels are IC*KH*KW apart
            (p.ic * p.kh * p.kw * 4) as u64,
            &|co, y, x| dst.at(n, co, y, x),
        );
    }
}

/// Backward data, unit stride: `S_diff = full_corr(D_diff padded by K-1-pad,
/// rot180(W))` with the channel roles swapped.
pub fn run_bwd_data(
    arch: &ArchParams,
    p: &ConvProblem,
    core: &mut VCore,
    arena: &mut Arena,
    t: &VednnTensors,
    n_range: Range<usize>,
) {
    assert!(p.stride_h == 1 && p.stride_w == 1);
    assert!(p.pad_h < p.kh && p.pad_w < p.kw, "full-correlation padding");
    assert_eq!(
        p.kh - 1 - p.pad_h,
        p.kw - 1 - p.pad_w,
        "pack_image pads both axes equally"
    );
    let pb = p.kh - 1 - p.pad_h;
    let _ = arch;
    let (oh, ow) = (p.oh(), p.ow());
    let (in_h, in_w) = (oh + 2 * pb, ow + 2 * pb);
    let reg_pack = UNROLL_C + VIN_BUFS;
    for n in n_range {
        core.scalar_ops(2);
        let dstg = t.dst;
        let (in_buf, ih_eff, iw_eff);
        if pb > 0 {
            pack_image(
                core,
                arena,
                &|c, y, x| dstg.at(n, c, y, x),
                p.oc,
                oh,
                ow,
                t.pad_buf,
                pb,
                reg_pack,
            );
            in_buf = t.pad_buf;
            ih_eff = in_h;
            iw_eff = in_w;
        } else {
            in_buf = dstg.at(n, 0, 0, 0);
            ih_eff = oh;
            iw_eff = ow;
        }
        let wei = t.wei;
        let src = t.src;
        let (kh, kw) = (p.kh, p.kw);
        spatial_conv_image(
            core,
            arena,
            p.ic,
            p.oc,
            p.ih,
            p.iw,
            kh,
            kw,
            in_buf,
            ih_eff,
            iw_eff,
            // rotated kernel, swapped channel roles
            &|ci_out, co_in, ky, kx| wei.at(co_in, ci_out, kh - 1 - ky, kw - 1 - kx),
            // OIHW: consecutive input channels are KH*KW apart
            (kh * kw * 4) as u64,
            &|ci_out, y, x| src.at(n, ci_out, y, x),
        );
    }
}
