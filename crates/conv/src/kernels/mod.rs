//! The generated micro-kernels: one module per pass direction.
//!
//! These functions are the interpreter-side equivalent of the paper's JIT
//! assembler output (Section 6.5): a [`crate::KernelConfig`] fixes every
//! blocking factor and layout at primitive-creation time; the kernel then
//! replays the *exact* instruction stream of the fully-unrolled micro-kernel
//! on the simulated vector core — scalar loads, pointer updates, vector
//! loads/stores or coarse-grain gathers/scatters, and FMAs, in the order a
//! JIT would emit them (so the `B_seq` distance of Section 6.2 is real).

pub mod bwd_data;
pub mod bwd_weights;
pub mod fwd;

use lsv_tensor::{ActTensor, WeiTensor};
use lsv_vengine::{Arena, VCore};

/// Blocks per vector access that fit the stack buffer in
/// [`load_act_vec`]/[`store_act_vec`] (covers every practical `vl / cb`
/// combination; larger gathers fall back to a heap buffer). These helpers run
/// once per micro-kernel vector access, so the former per-call `Vec` was one
/// of the hottest allocation sites in the simulator.
const MAX_BLOCKS_INLINE: usize = 64;

/// Number of stored lanes a vector access of `vl` logical channels starting
/// at channel `c0` touches in tensor `t`: `vl` itself for a `C_b >= vl`
/// layout (unit-stride), or `ceil(vl / C_b) * C_b` for a multi-block layout
/// (the gather covers whole blocks, including tail padding lanes).
#[inline]
pub(crate) fn act_vec_lanes(t: &ActTensor, vl: usize) -> usize {
    let cb = t.layout.cb;
    if cb >= vl {
        vl
    } else {
        vl.div_ceil(cb) * cb
    }
}

/// One `(kh, kw, c)` tap of a fwd/bwd-data tile's inner loop, with its
/// addresses resolved once per tile instead of once per micro-kernel FMA.
/// `c` is the reduced channel: `ic` in the forward pass, `oc` in backward
/// data.
pub(crate) struct Tap {
    /// The tap's weight vector (`oc_vector_at`).
    pub w_addr: u64,
    /// `act.at(n, c, 0, 0)` of the tensor the scalar stream reads: the
    /// tap's element at `(y, x)` is `a_base + y * h_step + x * w_step`.
    pub a_base: u64,
    pub c: usize,
    pub kh: usize,
    pub kw: usize,
}

/// Resolve a tile's taps in the JIT's `(kh, kw, c_i)` order, `c_i`
/// fastest. `vblk` is the vectorized channel block the weight vectors
/// belong to.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_taps(
    taps: &mut Vec<Tap>,
    act: &ActTensor,
    wei: &WeiTensor,
    n: usize,
    vblk: usize,
    (c0, c_cnt): (usize, usize),
    (kh0, kh_cnt): (usize, usize),
    (kw0, kw_cnt): (usize, usize),
) {
    taps.clear();
    for kh in kh0..kh0 + kh_cnt {
        for kw in kw0..kw0 + kw_cnt {
            for c in c0..c0 + c_cnt {
                taps.push(Tap {
                    w_addr: wei.oc_vector_at(vblk, c, kh, kw),
                    a_base: act.at(n, c, 0, 0),
                    c,
                    kh,
                    kw,
                });
            }
        }
    }
}

/// Channel offset of byte address `addr` inside its `C_b` block of `t`.
#[inline]
fn lane_in_block(t: &ActTensor, addr: u64) -> usize {
    ((addr - t.base) / 4) as usize % t.layout.cb
}

/// Load a feature-map vector of `vl` channels into register `reg`. `addr`
/// is the address of its first element, `t.at(n, c0, y, x)`: callers step
/// it with the tensor's strides instead of recomputing `at` per access.
///
/// Unit-stride layouts (`C_b >= vl`) use one vector load (Algorithm 2
/// line 12); multi-block layouts (`C_b < vl`) use a coarse-grain block
/// gather (Algorithm 4 line 15, with the Equation 5 index pattern) whose
/// blocks lie [`ActTensor::cblock_step`] apart.
pub(crate) fn load_act_vec(
    core: &mut VCore,
    arena: &Arena,
    t: &ActTensor,
    addr: u64,
    vl: usize,
    reg: usize,
) {
    let cb = t.layout.cb;
    if cb >= vl {
        debug_assert!(
            lane_in_block(t, addr) + vl <= cb,
            "vector access straddles a channel block"
        );
        core.vload(arena, reg, addr, vl);
    } else {
        debug_assert_eq!(
            lane_in_block(t, addr),
            0,
            "gather must start on a block boundary"
        );
        core.region_enter("gather");
        let bpv = vl.div_ceil(cb);
        let step = t.cblock_step();
        let mut inline = [0u64; MAX_BLOCKS_INLINE];
        if bpv <= MAX_BLOCKS_INLINE {
            for (j, slot) in inline[..bpv].iter_mut().enumerate() {
                *slot = addr + j as u64 * step;
            }
            core.vgather_blocks(arena, reg, &inline[..bpv], cb);
        } else {
            let blocks: Vec<u64> = (0..bpv).map(|j| addr + j as u64 * step).collect();
            core.vgather_blocks(arena, reg, &blocks, cb);
        }
        core.region_exit();
    }
}

/// Store the counterpart of [`load_act_vec`] (vector store or block scatter;
/// Algorithm 2 line 19 / Algorithm 4 line 22).
pub(crate) fn store_act_vec(
    core: &mut VCore,
    arena: &mut Arena,
    t: &ActTensor,
    addr: u64,
    vl: usize,
    reg: usize,
) {
    let cb = t.layout.cb;
    if cb >= vl {
        debug_assert!(
            lane_in_block(t, addr) + vl <= cb,
            "vector access straddles a channel block"
        );
        core.vstore(arena, reg, addr, vl);
    } else {
        debug_assert_eq!(
            lane_in_block(t, addr),
            0,
            "scatter must start on a block boundary"
        );
        core.region_enter("scatter");
        let bpv = vl.div_ceil(cb);
        let step = t.cblock_step();
        let mut inline = [0u64; MAX_BLOCKS_INLINE];
        if bpv <= MAX_BLOCKS_INLINE {
            for (j, slot) in inline[..bpv].iter_mut().enumerate() {
                *slot = addr + j as u64 * step;
            }
            core.vscatter_blocks(arena, reg, &inline[..bpv], cb);
        } else {
            let blocks: Vec<u64> = (0..bpv).map(|j| addr + j as u64 * step).collect();
            core.vscatter_blocks(arena, reg, &blocks, cb);
        }
        core.region_exit();
    }
}

/// Address of point `(h, w)` of the register block whose top-left vector
/// is `origin = (n, c0, y0, x0)` in `t`, stepped from `base = t.at(origin)`.
#[inline]
fn block_addr(t: &ActTensor, origin: [usize; 4], base: u64, h: usize, w: usize) -> u64 {
    let [n, c0, y0, x0] = origin;
    let addr = base + h as u64 * t.h_step() + w as u64 * t.w_step();
    debug_assert_eq!(addr, t.at(n, c0, y0 + h, x0 + w));
    addr
}

/// Load (or, for the first accumulation pass, zero) the `rbh x rbw`
/// register block of accumulators whose top-left vector is
/// `origin = (n, c0, y0, x0)` in `t` (register `h * rbw + w` holds spatial
/// point `(y0 + h, x0 + w)`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn init_acc_block(
    core: &mut VCore,
    arena: &Arena,
    t: &ActTensor,
    origin: [usize; 4],
    rbh: usize,
    rbw: usize,
    vl: usize,
    first_pass: bool,
) {
    let lanes = act_vec_lanes(t, vl);
    let [n, c0, y0, x0] = origin;
    let base = t.at(n, c0, y0, x0);
    for h in 0..rbh {
        for w in 0..rbw {
            let reg = h * rbw + w;
            if first_pass {
                core.vbroadcast_zero(reg, lanes);
            } else {
                let addr = block_addr(t, origin, base, h, w);
                load_act_vec(core, arena, t, addr, vl, reg);
            }
        }
    }
}

/// Write the accumulator block of [`init_acc_block`] back to `t`.
pub(crate) fn store_acc_block(
    core: &mut VCore,
    arena: &mut Arena,
    t: &ActTensor,
    origin: [usize; 4],
    rbh: usize,
    rbw: usize,
    vl: usize,
) {
    let [n, c0, y0, x0] = origin;
    let base = t.at(n, c0, y0, x0);
    for h in 0..rbh {
        for w in 0..rbw {
            let addr = block_addr(t, origin, base, h, w);
            store_act_vec(core, arena, t, addr, vl, h * rbw + w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;
    use lsv_tensor::ActivationLayout;
    use lsv_vengine::ExecutionMode;

    #[test]
    fn act_vec_lanes_covers_blocks() {
        let mut arena = Arena::new();
        let t = ActTensor::alloc(&mut arena, 1, 512, 4, 4, ActivationLayout { cb: 32 });
        assert_eq!(act_vec_lanes(&t, 512), 512);
        let t64 = ActTensor::alloc(&mut arena, 1, 64, 4, 4, ActivationLayout { cb: 32 });
        assert_eq!(act_vec_lanes(&t64, 64), 64);
        let t48 = ActTensor::alloc(&mut arena, 1, 48, 4, 4, ActivationLayout { cb: 32 });
        assert_eq!(act_vec_lanes(&t48, 48), 64, "tail block padded");
    }

    #[test]
    fn load_store_roundtrip_unit_stride_and_gather() {
        let arch = sx_aurora();
        for cb in [512usize, 32] {
            let mut arena = Arena::new();
            let mut core = VCore::new(&arch, ExecutionMode::Functional, 1);
            let t = ActTensor::alloc(&mut arena, 1, 512, 3, 3, ActivationLayout { cb });
            let data: Vec<f32> = (0..t.elems()).map(|i| i as f32).collect();
            t.store_nchw(&mut arena, &data);
            load_act_vec(&mut core, &arena, &t, t.at(0, 0, 1, 2), 512, 0);
            let u = ActTensor::alloc(&mut arena, 1, 512, 3, 3, ActivationLayout { cb });
            store_act_vec(&mut core, &mut arena, &u, u.at(0, 0, 1, 2), 512, 0);
            for c in 0..512 {
                assert_eq!(
                    arena.read(u.at(0, c, 1, 2)),
                    arena.read(t.at(0, c, 1, 2)),
                    "cb={cb} channel {c}"
                );
            }
        }
    }
}
