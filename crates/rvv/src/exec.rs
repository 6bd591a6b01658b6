//! Functional execution of vector instructions.
#![allow(clippy::needless_range_loop)] // loops index several slices + the mask; indices are clearest
//!
//! [`exec`] applies one [`VInst`] to a [`VState`] and a [`VMemory`],
//! producing an [`ExecInfo`] that reports what happened — the per-element
//! memory accesses, the number of active elements, and any scalar result.
//! The timing model (`sdv-uarch`) consumes `ExecInfo` to cost the
//! instruction; nothing in this module knows about cycles.

use crate::instr::{
    ArithKind, CmpKind, CvtKind, FArithKind, FUnaryKind, FmaKind, MaskKind, MemAddr, RedKind,
    SlideKind, VInst, VOp, WidenKind,
};
use crate::mem::VMemory;
use crate::state::VState;
use crate::vtype::Sew;

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One element-granular memory access produced by a vector memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes (the SEW width).
    pub size: u8,
    /// Read or write.
    pub kind: MemAccessKind,
}

/// A run of accesses at consecutive addresses: element `k` of the run is at
/// `addr + k * size`. Unit-stride instructions produce one run for the whole
/// vector; gathers degenerate to one run per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRun {
    /// Byte address of the first access in the run.
    pub addr: u64,
    /// Per-access size in bytes (the SEW width).
    pub size: u8,
    /// Number of accesses in the run.
    pub count: u32,
    /// Read or write.
    pub kind: MemAccessKind,
}

/// The memory accesses of one instruction, stored run-length compressed but
/// preserving exact element order. Contiguous same-kind accesses coalesce
/// into a single [`MemRun`]; iterating or indexing expands back to the
/// identical [`MemAccess`] sequence a per-element list would hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemList {
    runs: Vec<MemRun>,
    total: usize,
}

impl MemList {
    /// Number of element-granular accesses (expanded, not runs).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no access was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The run-length representation, in element order.
    pub fn runs(&self) -> &[MemRun] {
        &self.runs
    }

    /// Drop all recorded accesses, keeping the allocation.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.total = 0;
    }

    /// Append one access, merging into the last run when contiguous.
    pub fn push(&mut self, a: MemAccess) {
        self.push_run(a.addr, a.size, 1, a.kind);
    }

    /// Append `count` accesses at `addr, addr+size, ...`, merging with the
    /// last run when contiguous. A zero `count` is a no-op.
    pub fn push_run(&mut self, addr: u64, size: u8, count: u32, kind: MemAccessKind) {
        if count == 0 {
            return;
        }
        self.total += count as usize;
        if let Some(last) = self.runs.last_mut() {
            if last.kind == kind
                && last.size == size
                && addr == last.addr + last.size as u64 * last.count as u64
            {
                last.count += count;
                return;
            }
        }
        self.runs.push(MemRun { addr, size, count, kind });
    }

    /// The `i`-th element-granular access, in element order.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn access(&self, i: usize) -> MemAccess {
        let mut k = i;
        for r in &self.runs {
            if k < r.count as usize {
                return MemAccess {
                    addr: r.addr + k as u64 * r.size as u64,
                    size: r.size,
                    kind: r.kind,
                };
            }
            k -= r.count as usize;
        }
        panic!("access index {i} out of range (len {})", self.total);
    }

    /// Iterate the expanded element-granular accesses, in element order.
    pub fn iter(&self) -> impl Iterator<Item = MemAccess> + '_ {
        self.runs.iter().flat_map(|r| {
            (0..r.count as u64).map(move |k| MemAccess {
                addr: r.addr + k * r.size as u64,
                size: r.size,
                kind: r.kind,
            })
        })
    }
}

impl FromIterator<MemAccess> for MemList {
    fn from_iter<T: IntoIterator<Item = MemAccess>>(iter: T) -> Self {
        let mut l = MemList::default();
        for a in iter {
            l.push(a);
        }
        l
    }
}

/// Reusable per-machine scratch buffers for [`exec_into`]. Holding one of
/// these across instructions removes every per-instruction heap allocation
/// from the execution hot path (source snapshots, mask snapshots, element
/// addresses, staged memory bytes).
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    /// First source-operand snapshot.
    pub xs: Vec<u64>,
    /// Second source-operand snapshot.
    pub ys: Vec<u64>,
    /// Destination staging buffer: batch kernels compute every lane here,
    /// then the write-back copies all lanes (unmasked) or only the active
    /// ones (masked) into the register file.
    pub zs: Vec<u64>,
    /// Mask-operand snapshot.
    pub bs: Vec<bool>,
    /// Second mask snapshot (activity or a second mask operand).
    pub bs2: Vec<bool>,
    /// Per-element addresses of a memory instruction (None = masked off).
    pub addrs: Vec<Option<u64>>,
    /// Staged raw bytes for bulk loads/stores.
    pub bytes: Vec<u8>,
}

/// What executing one instruction did — the functional-to-timing bridge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecInfo {
    /// Memory accesses in element order, run-length compressed.
    pub mem: MemList,
    /// Scalar result (for `vpopc`, `vfirst`, `vmv.x.s`). `vfirst` returns
    /// `-1i64 as u64` when no bit is set.
    pub scalar: Option<u64>,
    /// Number of elements that were active (unmasked or mask bit set).
    pub active: usize,
    /// The VL the instruction executed at.
    pub vl: usize,
    /// Whether the addressing mode was unit-stride (timing: line bursts).
    pub unit_stride: bool,
}

impl ExecInfo {
    /// Reset for reuse on the next instruction, keeping allocations.
    pub fn reset(&mut self, vl: usize) {
        self.mem.clear();
        self.scalar = None;
        self.active = 0;
        self.vl = vl;
        self.unit_stride = false;
    }
}

#[cfg(test)]
#[inline]
fn fp_bin(sew: Sew, kind: FArithKind, a: u64, b: u64) -> u64 {
    match sew {
        Sew::E64 => {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            let r = match kind {
                FArithKind::Fadd => x + y,
                FArithKind::Fsub => x - y,
                FArithKind::Frsub => y - x,
                FArithKind::Fmul => x * y,
                FArithKind::Fdiv => x / y,
                FArithKind::Fmin => x.min(y),
                FArithKind::Fmax => x.max(y),
                FArithKind::Fsgnj => x.abs().copysign(y),
                FArithKind::Fsgnjn => x.abs().copysign(-y),
            };
            r.to_bits()
        }
        Sew::E32 => {
            let (x, y) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
            let r = match kind {
                FArithKind::Fadd => x + y,
                FArithKind::Fsub => x - y,
                FArithKind::Frsub => y - x,
                FArithKind::Fmul => x * y,
                FArithKind::Fdiv => x / y,
                FArithKind::Fmin => x.min(y),
                FArithKind::Fmax => x.max(y),
                FArithKind::Fsgnj => x.abs().copysign(y),
                FArithKind::Fsgnjn => x.abs().copysign(-y),
            };
            r.to_bits() as u64
        }
        _ => panic!("FP ops require SEW of 32 or 64 bits, got {sew:?}"),
    }
}

#[cfg(test)]
#[inline]
fn fp_fma(sew: Sew, kind: FmaKind, acc: u64, a: u64, b: u64) -> u64 {
    match sew {
        Sew::E64 => {
            let (d, x, y) = (f64::from_bits(acc), f64::from_bits(a), f64::from_bits(b));
            let r = match kind {
                FmaKind::Macc => x.mul_add(y, d),
                FmaKind::Nmsac => (-x).mul_add(y, d),
                FmaKind::Madd => x.mul_add(d, y),
            };
            r.to_bits()
        }
        Sew::E32 => {
            let (d, x, y) =
                (f32::from_bits(acc as u32), f32::from_bits(a as u32), f32::from_bits(b as u32));
            let r = match kind {
                FmaKind::Macc => x.mul_add(y, d),
                FmaKind::Nmsac => (-x).mul_add(y, d),
                FmaKind::Madd => x.mul_add(d, y),
            };
            r.to_bits() as u64
        }
        _ => panic!("FMA requires SEW of 32 or 64 bits, got {sew:?}"),
    }
}

#[cfg(test)]
#[inline]
fn int_bin(sew: Sew, kind: ArithKind, a: u64, b: u64) -> u64 {
    let mask = sew.value_mask();
    let shamt = (b as u32) & (sew.bits() as u32 - 1);
    let r = match kind {
        ArithKind::Add => a.wrapping_add(b),
        ArithKind::Sub => a.wrapping_sub(b),
        ArithKind::Rsub => b.wrapping_sub(a),
        ArithKind::And => a & b,
        ArithKind::Or => a | b,
        ArithKind::Xor => a ^ b,
        ArithKind::Sll => a << shamt,
        ArithKind::Srl => (a & mask) >> shamt,
        ArithKind::Sra => (sew.sign_extend(a) >> shamt) as u64,
        ArithKind::Mul => a.wrapping_mul(b),
        ArithKind::Min => {
            if sew.sign_extend(a) <= sew.sign_extend(b) {
                a
            } else {
                b
            }
        }
        ArithKind::Max => {
            if sew.sign_extend(a) >= sew.sign_extend(b) {
                a
            } else {
                b
            }
        }
        ArithKind::Minu => (a & mask).min(b & mask),
        ArithKind::Maxu => (a & mask).max(b & mask),
    };
    r & mask
}

#[cfg(test)]
#[inline]
fn compare(sew: Sew, kind: CmpKind, a: u64, b: u64) -> bool {
    let (ua, ub) = (a & sew.value_mask(), b & sew.value_mask());
    let (sa, sb) = (sew.sign_extend(a), sew.sign_extend(b));
    match kind {
        CmpKind::Eq => ua == ub,
        CmpKind::Ne => ua != ub,
        CmpKind::Lt => sa < sb,
        CmpKind::Ltu => ua < ub,
        CmpKind::Le => sa <= sb,
        CmpKind::Leu => ua <= ub,
        CmpKind::Gt => sa > sb,
        CmpKind::Gtu => ua > ub,
        CmpKind::Feq | CmpKind::Fne | CmpKind::Flt | CmpKind::Fle | CmpKind::Fgt => {
            let (x, y) = match sew {
                Sew::E64 => (f64::from_bits(a), f64::from_bits(b)),
                Sew::E32 => (f32::from_bits(a as u32) as f64, f32::from_bits(b as u32) as f64),
                _ => panic!("FP compare requires SEW of 32 or 64 bits"),
            };
            match kind {
                CmpKind::Feq => x == y,
                CmpKind::Fne => x != y,
                CmpKind::Flt => x < y,
                CmpKind::Fle => x <= y,
                CmpKind::Fgt => x > y,
                _ => unreachable!("outer arm matched only the FP compare kinds"),
            }
        }
    }
}

/// Element addresses touched by a memory instruction, in element order.
/// Masked-off elements are *not* accessed (RVV masked loads/stores skip them).
/// `elem_bytes` is the in-memory element footprint (SEW/2 for widening
/// loads); index registers are always read at the full SEW.
fn element_addrs_into(
    state: &VState,
    addr: &MemAddr,
    masked: bool,
    elem_bytes: usize,
    out: &mut Vec<Option<u64>>,
) -> bool {
    let sew = state.vtype.sew;
    let vl = state.vl;
    out.clear();
    out.reserve(vl);
    let unit = matches!(addr, MemAddr::Unit { .. });
    for i in 0..vl {
        if !state.active(masked, i) {
            out.push(None);
            continue;
        }
        let a = match addr {
            MemAddr::Unit { base } => base + (i * elem_bytes) as u64,
            MemAddr::Strided { base, stride } => (*base as i64 + stride * i as i64) as u64,
            MemAddr::Indexed { base, index } => base + state.regs.get(*index, sew, i),
        };
        out.push(Some(a));
    }
    unit
}

/// Snapshot per-element activity: all-true when unmasked, else the low `vl`
/// bits of `v0`. (Test-only: the batch backend uses
/// [`VState::snapshot_active`]; the reference interpreter keeps this copy.)
#[cfg(test)]
fn fill_active(state: &VState, masked: bool, vl: usize, out: &mut Vec<bool>) {
    if masked {
        state.regs.read_mask_bits_into(0, vl, out);
    } else {
        out.clear();
        out.resize(vl, true);
    }
}

// ---------------------------------------------------------------------------
// Batch kernels
// ---------------------------------------------------------------------------
//
// The execution hot path works on whole-vector snapshots: operands are read
// into `&[u64]` scratch slices, one `match` on (SEW, op kind) selects a
// monomorphized slice loop, and results are staged in `zs` then written back
// in bulk. Neither per-element closures nor per-element SEW dispatch appear
// inside any loop, so LLVM can unroll and autovectorize every kernel.
//
// Masked ops compute all `vl` lanes into the staging buffer and then write
// only the active lanes ([`VRegFile::write_elems_where`]); every op is a pure
// per-lane function, so computing an inactive lane and discarding it is
// indistinguishable from skipping it. The activity mask is snapshotted before
// the destination is written, so a masked op whose destination group overlaps
// `v0` sees the pre-instruction mask for every lane.

/// Paired element stream for the binary kernels (`vv` form): zips two
/// register snapshots.
#[inline]
fn zip2<'a>(xs: &'a [u64], ys: &'a [u64]) -> impl Iterator<Item = (u64, u64)> + 'a {
    xs.iter().copied().zip(ys.iter().copied())
}

/// Paired element stream for the `vx`/`vf` forms: a snapshot against a
/// broadcast scalar.
#[inline]
fn with_scalar(xs: &[u64], scalar: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
    xs.iter().map(move |&a| (a, scalar))
}

/// Write staged lanes to `vd`: all of them when unmasked, only the
/// `v0`-active ones when masked (inactive lanes undisturbed). Returns the
/// number of active lanes.
#[inline]
fn write_lanes(
    state: &mut VState,
    masked: bool,
    vd: u8,
    sew: Sew,
    vals: &[u64],
    act: &mut Vec<bool>,
) -> usize {
    if masked {
        state.regs.read_mask_bits_into(0, vals.len(), act);
        state.regs.write_elems_where(vd, sew, vals, act)
    } else {
        state.regs.write_elems(vd, sew, vals);
        vals.len()
    }
}

/// Integer binary ops over an element stream. The op-kind dispatch happens
/// once; every arm is its own tight loop with the SEW mask and sign-extension
/// shift hoisted to loop invariants.
fn int_bin_batch(
    sew: Sew,
    kind: ArithKind,
    pairs: impl Iterator<Item = (u64, u64)>,
    out: &mut Vec<u64>,
) {
    out.clear();
    let mask = sew.value_mask();
    let sb = sew.bits() as u32;
    let sh = 64 - sb;
    macro_rules! go {
        ($f:expr) => {
            out.extend(pairs.map(|(a, b)| ($f)(a, b)))
        };
    }
    match kind {
        ArithKind::Add => go!(|a: u64, b: u64| a.wrapping_add(b) & mask),
        ArithKind::Sub => go!(|a: u64, b: u64| a.wrapping_sub(b) & mask),
        ArithKind::Rsub => go!(|a: u64, b: u64| b.wrapping_sub(a) & mask),
        ArithKind::And => go!(|a: u64, b: u64| (a & b) & mask),
        ArithKind::Or => go!(|a: u64, b: u64| (a | b) & mask),
        ArithKind::Xor => go!(|a: u64, b: u64| (a ^ b) & mask),
        ArithKind::Sll => go!(|a: u64, b: u64| (a << ((b as u32) & (sb - 1))) & mask),
        ArithKind::Srl => go!(|a: u64, b: u64| ((a & mask) >> ((b as u32) & (sb - 1))) & mask),
        ArithKind::Sra => go!(|a: u64, b: u64| {
            ((((a << sh) as i64 >> sh) >> ((b as u32) & (sb - 1))) as u64) & mask
        }),
        ArithKind::Mul => go!(|a: u64, b: u64| a.wrapping_mul(b) & mask),
        ArithKind::Min => go!(|a: u64, b: u64| {
            if ((a << sh) as i64 >> sh) <= ((b << sh) as i64 >> sh) {
                a & mask
            } else {
                b & mask
            }
        }),
        ArithKind::Max => go!(|a: u64, b: u64| {
            if ((a << sh) as i64 >> sh) >= ((b << sh) as i64 >> sh) {
                a & mask
            } else {
                b & mask
            }
        }),
        ArithKind::Minu => go!(|a: u64, b: u64| (a & mask).min(b & mask)),
        ArithKind::Maxu => go!(|a: u64, b: u64| (a & mask).max(b & mask)),
    }
}

/// FP binary ops over an element stream, kind × width dispatch hoisted.
fn fp_bin_batch(
    sew: Sew,
    kind: FArithKind,
    pairs: impl Iterator<Item = (u64, u64)>,
    out: &mut Vec<u64>,
) {
    out.clear();
    macro_rules! fp {
        ($f64e:expr, $f32e:expr) => {
            match sew {
                Sew::E64 => out.extend(
                    pairs.map(|(a, b)| ($f64e)(f64::from_bits(a), f64::from_bits(b)).to_bits()),
                ),
                Sew::E32 => out.extend(pairs.map(|(a, b)| {
                    ($f32e)(f32::from_bits(a as u32), f32::from_bits(b as u32)).to_bits() as u64
                })),
                _ => panic!("FP ops require SEW of 32 or 64 bits, got {sew:?}"),
            }
        };
    }
    match kind {
        FArithKind::Fadd => fp!(|x: f64, y: f64| x + y, |x: f32, y: f32| x + y),
        FArithKind::Fsub => fp!(|x: f64, y: f64| x - y, |x: f32, y: f32| x - y),
        FArithKind::Frsub => fp!(|x: f64, y: f64| y - x, |x: f32, y: f32| y - x),
        FArithKind::Fmul => fp!(|x: f64, y: f64| x * y, |x: f32, y: f32| x * y),
        FArithKind::Fdiv => fp!(|x: f64, y: f64| x / y, |x: f32, y: f32| x / y),
        FArithKind::Fmin => fp!(|x: f64, y: f64| x.min(y), |x: f32, y: f32| x.min(y)),
        FArithKind::Fmax => fp!(|x: f64, y: f64| x.max(y), |x: f32, y: f32| x.max(y)),
        FArithKind::Fsgnj => {
            fp!(|x: f64, y: f64| x.abs().copysign(y), |x: f32, y: f32| x.abs().copysign(y))
        }
        FArithKind::Fsgnjn => {
            fp!(|x: f64, y: f64| x.abs().copysign(-y), |x: f32, y: f32| x.abs().copysign(-y))
        }
    }
}

/// FP fused multiply-add family, accumulating in place over `acc` (the `vd`
/// snapshot): `acc[i] = fma(acc[i], x_i, y_i)` per [`FmaKind`].
fn fp_fma_batch(sew: Sew, kind: FmaKind, acc: &mut [u64], srcs: impl Iterator<Item = (u64, u64)>) {
    macro_rules! fp {
        ($f64e:expr, $f32e:expr) => {
            match sew {
                Sew::E64 => {
                    for (d, (a, b)) in acc.iter_mut().zip(srcs) {
                        *d = ($f64e)(f64::from_bits(*d), f64::from_bits(a), f64::from_bits(b))
                            .to_bits();
                    }
                }
                Sew::E32 => {
                    for (d, (a, b)) in acc.iter_mut().zip(srcs) {
                        *d = ($f32e)(
                            f32::from_bits(*d as u32),
                            f32::from_bits(a as u32),
                            f32::from_bits(b as u32),
                        )
                        .to_bits() as u64;
                    }
                }
                _ => panic!("FMA requires SEW of 32 or 64 bits, got {sew:?}"),
            }
        };
    }
    match kind {
        FmaKind::Macc => fp!(
            |d: f64, x: f64, y: f64| x.mul_add(y, d),
            |d: f32, x: f32, y: f32| x.mul_add(y, d)
        ),
        FmaKind::Nmsac => fp!(
            |d: f64, x: f64, y: f64| (-x).mul_add(y, d),
            |d: f32, x: f32, y: f32| (-x).mul_add(y, d)
        ),
        FmaKind::Madd => fp!(
            |d: f64, x: f64, y: f64| x.mul_add(d, y),
            |d: f32, x: f32, y: f32| x.mul_add(d, y)
        ),
    }
}

/// FP unary ops over a snapshot, kind × width dispatch hoisted.
fn fp_unary_batch(sew: Sew, kind: FUnaryKind, xs: &[u64], out: &mut Vec<u64>) {
    out.clear();
    macro_rules! fp {
        ($f64e:expr, $f32e:expr) => {
            match sew {
                Sew::E64 => out.extend(xs.iter().map(|&a| ($f64e)(f64::from_bits(a)).to_bits())),
                Sew::E32 => out.extend(
                    xs.iter().map(|&a| ($f32e)(f32::from_bits(a as u32)).to_bits() as u64),
                ),
                _ => panic!("FP unary requires SEW of 32 or 64 bits"),
            }
        };
    }
    match kind {
        FUnaryKind::Fsqrt => fp!(|v: f64| v.sqrt(), |v: f32| v.sqrt()),
        FUnaryKind::Fneg => fp!(|v: f64| -v, |v: f32| -v),
        FUnaryKind::Fabs => fp!(|v: f64| v.abs(), |v: f32| v.abs()),
    }
}

/// Compares over an element stream, producing mask bits.
fn compare_batch(
    sew: Sew,
    kind: CmpKind,
    pairs: impl Iterator<Item = (u64, u64)>,
    out: &mut Vec<bool>,
) {
    out.clear();
    let mask = sew.value_mask();
    let sh = 64 - sew.bits() as u32;
    macro_rules! go {
        ($f:expr) => {
            out.extend(pairs.map(|(a, b)| ($f)(a, b)))
        };
    }
    macro_rules! gof {
        ($f:expr) => {
            match sew {
                Sew::E64 => go!(|a: u64, b: u64| ($f)(f64::from_bits(a), f64::from_bits(b))),
                Sew::E32 => go!(|a: u64, b: u64| ($f)(
                    f32::from_bits(a as u32) as f64,
                    f32::from_bits(b as u32) as f64
                )),
                _ => panic!("FP compare requires SEW of 32 or 64 bits"),
            }
        };
    }
    match kind {
        CmpKind::Eq => go!(|a: u64, b: u64| a & mask == b & mask),
        CmpKind::Ne => go!(|a: u64, b: u64| a & mask != b & mask),
        CmpKind::Lt => go!(|a: u64, b: u64| ((a << sh) as i64 >> sh) < ((b << sh) as i64 >> sh)),
        CmpKind::Ltu => go!(|a: u64, b: u64| (a & mask) < (b & mask)),
        CmpKind::Le => go!(|a: u64, b: u64| ((a << sh) as i64 >> sh) <= ((b << sh) as i64 >> sh)),
        CmpKind::Leu => go!(|a: u64, b: u64| (a & mask) <= (b & mask)),
        CmpKind::Gt => go!(|a: u64, b: u64| ((a << sh) as i64 >> sh) > ((b << sh) as i64 >> sh)),
        CmpKind::Gtu => go!(|a: u64, b: u64| (a & mask) > (b & mask)),
        CmpKind::Feq => gof!(|x: f64, y: f64| x == y),
        CmpKind::Fne => gof!(|x: f64, y: f64| x != y),
        CmpKind::Flt => gof!(|x: f64, y: f64| x < y),
        CmpKind::Fle => gof!(|x: f64, y: f64| x <= y),
        CmpKind::Fgt => gof!(|x: f64, y: f64| x > y),
    }
}

/// Int/FP conversions over a snapshot, (SEW, kind) dispatch hoisted.
fn cvt_batch(sew: Sew, kind: CvtKind, xs: &[u64], out: &mut Vec<u64>) {
    out.clear();
    macro_rules! go {
        ($f:expr) => {
            out.extend(xs.iter().map(|&v| ($f)(v)))
        };
    }
    match (sew, kind) {
        (Sew::E64, CvtKind::UToF) => go!(|v: u64| (v as f64).to_bits()),
        (Sew::E64, CvtKind::IToF) => go!(|v: u64| ((v as i64) as f64).to_bits()),
        (Sew::E64, CvtKind::FToU) => go!(|v: u64| {
            let f = f64::from_bits(v).round_ties_even();
            if f <= 0.0 {
                0
            } else if f >= u64::MAX as f64 {
                u64::MAX
            } else {
                f as u64
            }
        }),
        (Sew::E64, CvtKind::FToI) => go!(|v: u64| {
            let f = f64::from_bits(v).round_ties_even();
            (f as i64) as u64
        }),
        (Sew::E32, CvtKind::UToF) => go!(|v: u64| ((v as u32) as f32).to_bits() as u64),
        (Sew::E32, CvtKind::IToF) => go!(|v: u64| ((v as u32 as i32) as f32).to_bits() as u64),
        (Sew::E32, CvtKind::FToU) => go!(|v: u64| {
            let f = f32::from_bits(v as u32).round_ties_even();
            if f <= 0.0 {
                0
            } else if f >= u32::MAX as f32 {
                u32::MAX as u64
            } else {
                f as u32 as u64
            }
        }),
        (Sew::E32, CvtKind::FToI) => go!(|v: u64| {
            let f = f32::from_bits(v as u32).round_ties_even();
            (f as i32) as u32 as u64
        }),
        _ => panic!("conversion requires SEW of 32 or 64 bits"),
    }
}

/// Reductions over a snapshot with the kind dispatch hoisted; `active` is
/// `None` on the all-lanes fast path.
///
/// **The fold order is pinned**: a strictly sequential left fold from the
/// accumulator seed through element 0, 1, … VL−1, vfredosum-style. This is
/// the *only* reduction implementation, because any reassociation
/// (pairwise trees, per-lane partial sums) changes FP results under
/// cancellation, ±0.0 signs, and NaN propagation. Do not add a tree-shaped
/// or vectorized variant without preserving this exact order;
/// `tests::fp_reduction_order_is_pinned` guards it.
fn reduce_batch(sew: Sew, kind: RedKind, seed: u64, xs: &[u64], active: Option<&[bool]>) -> u64 {
    let mask = sew.value_mask();
    let sh = 64 - sew.bits() as u32;
    macro_rules! fold {
        ($f:expr) => {{
            let f = $f;
            let mut r = seed;
            match active {
                None => {
                    for &v in xs {
                        r = f(r, v);
                    }
                }
                Some(act) => {
                    for (&v, &a) in xs.iter().zip(act) {
                        if a {
                            r = f(r, v);
                        }
                    }
                }
            }
            r
        }};
    }
    macro_rules! ffold {
        ($f64e:expr, $f32e:expr) => {
            match sew {
                Sew::E64 => fold!(|r: u64, v: u64| ($f64e)(f64::from_bits(r), f64::from_bits(v))
                    .to_bits()),
                Sew::E32 => fold!(|r: u64, v: u64| ($f32e)(
                    f32::from_bits(r as u32),
                    f32::from_bits(v as u32)
                )
                .to_bits() as u64),
                _ => panic!("FP reduction requires SEW of 32 or 64 bits"),
            }
        };
    }
    match kind {
        RedKind::Sum => fold!(|r: u64, v: u64| r.wrapping_add(v) & mask),
        RedKind::Max => fold!(|r: u64, v: u64| {
            if ((v << sh) as i64 >> sh) > ((r << sh) as i64 >> sh) {
                v
            } else {
                r
            }
        }),
        RedKind::Min => fold!(|r: u64, v: u64| {
            if ((v << sh) as i64 >> sh) < ((r << sh) as i64 >> sh) {
                v
            } else {
                r
            }
        }),
        RedKind::Maxu => fold!(|r: u64, v: u64| (r & mask).max(v & mask)),
        RedKind::Fsum => ffold!(|a: f64, b: f64| a + b, |a: f32, b: f32| a + b),
        RedKind::Fmax => ffold!(|a: f64, b: f64| a.max(b), |a: f32, b: f32| a.max(b)),
        RedKind::Fmin => ffold!(|a: f64, b: f64| a.min(b), |a: f32, b: f32| a.min(b)),
    }
}

/// Gather `addrs.len()` elements of `W` bytes each into `vals`, recording
/// the accesses in `list`. Contiguous streaks are accumulated in two locals
/// and flushed as whole runs, so the run-length trace is built without a
/// per-element merge check against the list tail; because the kind and size
/// are constant across the loop, the resulting runs are identical to pushing
/// each access individually.
fn gather_w<M: VMemory, const W: usize>(
    mem: &M,
    addrs: &[u64],
    vals: &mut Vec<u64>,
    list: &mut MemList,
) {
    vals.clear();
    let mut run_addr = 0u64;
    let mut run_count = 0u32;
    for &a in addrs {
        let mut buf = [0u8; 8];
        mem.read_bytes(a, &mut buf[..W]);
        vals.push(u64::from_le_bytes(buf));
        if run_count > 0 && a == run_addr + W as u64 * run_count as u64 {
            run_count += 1;
        } else {
            list.push_run(run_addr, W as u8, run_count, MemAccessKind::Read);
            run_addr = a;
            run_count = 1;
        }
    }
    list.push_run(run_addr, W as u8, run_count, MemAccessKind::Read);
}

/// Scatter counterpart of [`gather_w`]: write `vals[i]` (low `W` bytes) to
/// `addrs[i]`, recording run-compressed write accesses.
fn scatter_w<M: VMemory, const W: usize>(
    mem: &mut M,
    addrs: &[u64],
    vals: &[u64],
    list: &mut MemList,
) {
    let mut run_addr = 0u64;
    let mut run_count = 0u32;
    for (&a, &v) in addrs.iter().zip(vals) {
        mem.write_bytes(a, &v.to_le_bytes()[..W]);
        if run_count > 0 && a == run_addr + W as u64 * run_count as u64 {
            run_count += 1;
        } else {
            list.push_run(run_addr, W as u8, run_count, MemAccessKind::Write);
            run_addr = a;
            run_count = 1;
        }
    }
    list.push_run(run_addr, W as u8, run_count, MemAccessKind::Write);
}

/// Width dispatch for [`gather_w`]: monomorphizes the element size so the
/// memory helper's byte slicing const-folds.
fn gather_elems<M: VMemory>(
    mem: &M,
    width: usize,
    addrs: &[u64],
    vals: &mut Vec<u64>,
    list: &mut MemList,
) {
    match width {
        1 => gather_w::<M, 1>(mem, addrs, vals, list),
        2 => gather_w::<M, 2>(mem, addrs, vals, list),
        4 => gather_w::<M, 4>(mem, addrs, vals, list),
        8 => gather_w::<M, 8>(mem, addrs, vals, list),
        _ => unreachable!("element width {width} impossible: Sew::bits()/8 is 1, 2, 4, or 8"),
    }
}

/// Compute the element addresses of an unmasked strided/indexed access into
/// `out`. Unit-stride never reaches here — it takes the bulk memcpy path.
/// `idx` is scratch for the index-register snapshot (read at full SEW, like
/// the architecture).
fn addrs_unmasked(
    state: &VState,
    addr: &MemAddr,
    vl: usize,
    idx: &mut Vec<u64>,
    out: &mut Vec<u64>,
) {
    out.clear();
    match addr {
        MemAddr::Unit { .. } => unreachable!("unit-stride takes the bulk path"),
        MemAddr::Strided { base, stride } => {
            out.extend((0..vl).map(|i| (*base as i64 + stride * i as i64) as u64));
        }
        MemAddr::Indexed { base, index } => {
            state.regs.read_elems_into(*index, state.vtype.sew, vl, idx);
            out.extend(idx.iter().map(|&o| base + o));
        }
    }
}

/// Width dispatch for [`scatter_w`].
fn scatter_elems<M: VMemory>(
    mem: &mut M,
    width: usize,
    addrs: &[u64],
    vals: &[u64],
    list: &mut MemList,
) {
    match width {
        1 => scatter_w::<M, 1>(mem, addrs, vals, list),
        2 => scatter_w::<M, 2>(mem, addrs, vals, list),
        4 => scatter_w::<M, 4>(mem, addrs, vals, list),
        8 => scatter_w::<M, 8>(mem, addrs, vals, list),
        _ => unreachable!("element width {width} impossible: Sew::bits()/8 is 1, 2, 4, or 8"),
    }
}

/// A placeholder that carries no information: every instruction runs
/// through [`exec_into`], the one execution path. It exists only for the
/// `perfbench/` call sites that still pass `Backend::default()` to four
/// `sdv-bench` functions, which ignore it, and goes when the benchmark
/// drops that argument.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Backend;

/// Execute one instruction with fresh buffers. Convenience wrapper around
/// [`exec_into`] for tests and one-off callers; hot loops should hold an
/// [`ExecScratch`] + [`ExecInfo`] and call [`exec_into`] directly.
///
/// # Panics
/// Panics on malformed programs (FP ops at SEW<32, register-group overflow);
/// these are programming errors in the kernel, not runtime conditions.
pub fn exec<M: VMemory>(inst: &VInst, state: &mut VState, mem: &mut M) -> ExecInfo {
    let mut scratch = ExecScratch::default();
    let mut info = ExecInfo::default();
    exec_into(inst, state, mem, &mut scratch, &mut info);
    info
}

/// Execute one instruction, reusing `scratch` buffers and writing the outcome
/// into `info` (which is reset first). Allocation-free after warm-up.
///
/// # Panics
/// Panics on malformed programs (FP ops at SEW<32, register-group overflow);
/// these are programming errors in the kernel, not runtime conditions.
pub fn exec_into<M: VMemory>(
    inst: &VInst,
    state: &mut VState,
    mem: &mut M,
    scratch: &mut ExecScratch,
    info: &mut ExecInfo,
) {
    let sew = state.vtype.sew;
    let vl = state.vl;
    let masked = inst.masked;
    info.reset(vl);
    // Split borrows: each buffer is borrowed independently of `state`.
    // Sources are snapshotted into these before any write, keeping every op
    // alias-safe (vd may equal a source register).
    let ExecScratch { xs, ys, zs, bs, bs2, addrs, bytes } = scratch;

    match &inst.op {
        VOp::Load { vd, addr } => {
            if !masked {
                if let MemAddr::Unit { base } = addr {
                    // Bulk path: one memcpy into the contiguous register
                    // group. Registers and memory are both little-endian, so
                    // the bytes land exactly where a per-element loop would
                    // put them.
                    info.unit_stride = true;
                    if vl > 0 {
                        let nbytes = vl * sew.bytes();
                        mem.read_bytes(*base, state.regs.group_bytes_mut(*vd, nbytes));
                        info.mem.push_run(*base, sew.bytes() as u8, vl as u32, MemAccessKind::Read);
                        info.active = vl;
                    }
                } else {
                    // Strided/indexed gather: compute every address, then one
                    // width-monomorphized element loop builds the value batch
                    // and the run-compressed trace together.
                    addrs_unmasked(state, addr, vl, ys, xs);
                    gather_elems(mem, sew.bytes(), xs, zs, &mut info.mem);
                    state.regs.write_elems(*vd, sew, zs);
                    info.active = vl;
                }
            } else {
                let unit = element_addrs_into(state, addr, masked, sew.bytes(), addrs);
                info.unit_stride = unit;
                for (i, a) in addrs.iter().enumerate() {
                    if let Some(a) = *a {
                        let v = mem.read_uint(a, sew.bytes());
                        state.regs.set(*vd, sew, i, v);
                        info.mem.push(MemAccess { addr: a, size: sew.bytes() as u8, kind: MemAccessKind::Read });
                        info.active += 1;
                    }
                }
            }
        }
        VOp::SegLoad { vd, base, nf } => {
            let nf = *nf as usize;
            assert!((2..=8).contains(&nf), "segment nf must be 2..=8");
            info.unit_stride = true;
            let eb = sew.bytes();
            if !masked {
                // The field-interleaved footprint is fully contiguous: stage
                // it with one bulk read, then de-interleave into registers.
                if vl > 0 {
                    bytes.clear();
                    bytes.resize(vl * nf * eb, 0);
                    mem.read_bytes(*base, bytes);
                    for f in 0..nf {
                        zs.clear();
                        zs.extend((0..vl).map(|i| {
                            let off = (i * nf + f) * eb;
                            let mut w = [0u8; 8];
                            w[..eb].copy_from_slice(&bytes[off..off + eb]);
                            u64::from_le_bytes(w)
                        }));
                        state.regs.write_elems(vd + f as u8, sew, zs);
                    }
                    info.mem.push_run(*base, eb as u8, (vl * nf) as u32, MemAccessKind::Read);
                    info.active = vl;
                }
            } else {
                for i in 0..vl {
                    if !state.active(masked, i) {
                        continue;
                    }
                    for f in 0..nf {
                        let a = base + ((i * nf + f) * eb) as u64;
                        let v = mem.read_uint(a, eb);
                        state.regs.set(vd + f as u8, sew, i, v);
                        info.mem.push(MemAccess {
                            addr: a,
                            size: eb as u8,
                            kind: MemAccessKind::Read,
                        });
                    }
                    info.active += 1;
                }
            }
        }
        VOp::SegStore { vs, base, nf } => {
            let nf = *nf as usize;
            assert!((2..=8).contains(&nf), "segment nf must be 2..=8");
            info.unit_stride = true;
            let eb = sew.bytes();
            if !masked {
                // Re-interleave into a staging buffer, then one bulk write.
                if vl > 0 {
                    bytes.clear();
                    bytes.resize(vl * nf * eb, 0);
                    for f in 0..nf {
                        state.regs.read_elems_into(vs + f as u8, sew, vl, xs);
                        for (i, &v) in xs.iter().enumerate() {
                            let off = (i * nf + f) * eb;
                            bytes[off..off + eb].copy_from_slice(&v.to_le_bytes()[..eb]);
                        }
                    }
                    mem.write_bytes(*base, bytes);
                    info.mem.push_run(*base, eb as u8, (vl * nf) as u32, MemAccessKind::Write);
                    info.active = vl;
                }
            } else {
                for i in 0..vl {
                    if !state.active(masked, i) {
                        continue;
                    }
                    for f in 0..nf {
                        let a = base + ((i * nf + f) * eb) as u64;
                        let v = state.regs.get(vs + f as u8, sew, i);
                        mem.write_uint(a, eb, v);
                        info.mem.push(MemAccess {
                            addr: a,
                            size: eb as u8,
                            kind: MemAccessKind::Write,
                        });
                    }
                    info.active += 1;
                }
            }
        }
        VOp::LoadWiden { vd, addr } => {
            let half = sew.half().expect("widening load requires SEW >= 16");
            let hb = half.bytes();
            if !masked {
                if let MemAddr::Unit { base } = addr {
                    // Stage the narrow elements with one bulk read, widen
                    // into the staging buffer, write back in bulk.
                    info.unit_stride = true;
                    if vl > 0 {
                        bytes.clear();
                        bytes.resize(vl * hb, 0);
                        mem.read_bytes(*base, bytes);
                        zs.clear();
                        zs.extend(bytes.chunks_exact(hb).map(|c| {
                            let mut w = [0u8; 8];
                            w[..hb].copy_from_slice(c);
                            u64::from_le_bytes(w)
                        }));
                        state.regs.write_elems(*vd, sew, zs);
                        info.mem.push_run(*base, hb as u8, vl as u32, MemAccessKind::Read);
                        info.active = vl;
                    }
                } else {
                    addrs_unmasked(state, addr, vl, ys, xs);
                    gather_elems(mem, hb, xs, zs, &mut info.mem);
                    state.regs.write_elems(*vd, sew, zs);
                    info.active = vl;
                }
            } else {
                let unit = element_addrs_into(state, addr, masked, hb, addrs);
                info.unit_stride = unit;
                for (i, a) in addrs.iter().enumerate() {
                    if let Some(a) = *a {
                        let v = mem.read_uint(a, hb);
                        state.regs.set(*vd, sew, i, v);
                        info.mem.push(MemAccess { addr: a, size: hb as u8, kind: MemAccessKind::Read });
                        info.active += 1;
                    }
                }
            }
        }
        VOp::Store { vs, addr } => {
            if !masked {
                if let MemAddr::Unit { base } = addr {
                    // Bulk path: one memcpy out of the contiguous group.
                    info.unit_stride = true;
                    if vl > 0 {
                        let nbytes = vl * sew.bytes();
                        mem.write_bytes(*base, state.regs.group_bytes(*vs, nbytes));
                        info.mem.push_run(*base, sew.bytes() as u8, vl as u32, MemAccessKind::Write);
                        info.active = vl;
                    }
                } else {
                    state.regs.read_elems_into(*vs, sew, vl, zs);
                    addrs_unmasked(state, addr, vl, ys, xs);
                    scatter_elems(mem, sew.bytes(), xs, zs, &mut info.mem);
                    info.active = vl;
                }
            } else {
                let unit = element_addrs_into(state, addr, masked, sew.bytes(), addrs);
                info.unit_stride = unit;
                for (i, a) in addrs.iter().enumerate() {
                    if let Some(a) = *a {
                        let v = state.regs.get(*vs, sew, i);
                        mem.write_uint(a, sew.bytes(), v);
                        info.mem.push(MemAccess { addr: a, size: sew.bytes() as u8, kind: MemAccessKind::Write });
                        info.active += 1;
                    }
                }
            }
        }
        VOp::ArithVV { kind, vd, x, y } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            state.regs.read_elems_into(*y, sew, vl, ys);
            int_bin_batch(sew, *kind, zip2(xs, ys), zs);
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::ArithVX { kind, vd, x, scalar } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            int_bin_batch(sew, *kind, with_scalar(xs, *scalar), zs);
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::FArithVV { kind, vd, x, y } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            state.regs.read_elems_into(*y, sew, vl, ys);
            fp_bin_batch(sew, *kind, zip2(xs, ys), zs);
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::FArithVF { kind, vd, x, scalar } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            fp_bin_batch(sew, *kind, with_scalar(xs, *scalar), zs);
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::FUnary { kind, vd, x } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            fp_unary_batch(sew, *kind, xs, zs);
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::IMaccVV { vd, x, y } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            state.regs.read_elems_into(*y, sew, vl, ys);
            state.regs.read_elems_into(*vd, sew, vl, zs);
            let mask = sew.value_mask();
            for ((d, &a), &b) in zs.iter_mut().zip(xs.iter()).zip(ys.iter()) {
                *d = d.wrapping_add(a.wrapping_mul(b)) & mask;
            }
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::SatAddU { vd, x, y } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            state.regs.read_elems_into(*y, sew, vl, ys);
            let max = sew.value_mask();
            zs.clear();
            zs.extend(zip2(xs, ys).map(|(a, b)| {
                let sum = (a & max) as u128 + (b & max) as u128;
                if sum > max as u128 {
                    max
                } else {
                    sum as u64
                }
            }));
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::WidenBin { kind, vd, x, y } => {
            let half = sew.half().expect("widening requires SEW >= 16");
            state.regs.read_elems_into(*x, half, vl, xs);
            state.regs.read_elems_into(*y, half, vl, ys);
            let mask = sew.value_mask();
            zs.clear();
            match kind {
                WidenKind::Addu => zs.extend(zip2(xs, ys).map(|(a, b)| a + b)),
                WidenKind::Subu => zs.extend(zip2(xs, ys).map(|(a, b)| a.wrapping_sub(b) & mask)),
                WidenKind::Mulu => zs.extend(zip2(xs, ys).map(|(a, b)| a.wrapping_mul(b) & mask)),
            }
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::NarrowSrl { vd, x, shamt } => {
            let half = sew.half().expect("narrowing requires SEW >= 16");
            state.regs.read_elems_into(*x, sew, vl, xs);
            let sh = shamt & (sew.bits() as u32 - 1);
            let hm = half.value_mask();
            zs.clear();
            zs.extend(xs.iter().map(|&a| (a >> sh) & hm));
            info.active = write_lanes(state, masked, *vd, half, zs, bs);
        }
        VOp::MaskSet { kind, md, m } => {
            state.regs.read_mask_bits_into(*m, vl, bs);
            let first = bs.iter().position(|&b| b);
            bs2.clear();
            bs2.extend((0..vl).map(|i| match (kind, first) {
                (crate::instr::MaskSetKind::Sbf, Some(f)) => i < f,
                (crate::instr::MaskSetKind::Sif, Some(f)) => i <= f,
                (crate::instr::MaskSetKind::Sof, Some(f)) => i == f,
                (crate::instr::MaskSetKind::Sbf, None)
                | (crate::instr::MaskSetKind::Sif, None) => true,
                (crate::instr::MaskSetKind::Sof, None) => false,
            }));
            state.regs.write_mask_bits(*md, bs2);
            info.active = vl;
        }
        VOp::FmaVV { kind, vd, x, y } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            state.regs.read_elems_into(*y, sew, vl, ys);
            state.regs.read_elems_into(*vd, sew, vl, zs);
            fp_fma_batch(sew, *kind, zs, zip2(xs, ys));
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::FmaVF { kind, vd, scalar, y } => {
            state.regs.read_elems_into(*y, sew, vl, ys);
            state.regs.read_elems_into(*vd, sew, vl, zs);
            let s = *scalar;
            fp_fma_batch(sew, *kind, zs, ys.iter().map(|&b| (s, b)));
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::CmpVV { kind, md, x, y } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            state.regs.read_elems_into(*y, sew, vl, ys);
            // Must snapshot activity before writing: md may be v0 itself.
            state.snapshot_active(masked, vl, bs2);
            compare_batch(sew, *kind, zip2(xs, ys), bs);
            state.regs.write_mask_bits_where(*md, bs, bs2);
            info.active = bs2.iter().filter(|&&a| a).count();
        }
        VOp::CmpVX { kind, md, x, scalar } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            state.snapshot_active(masked, vl, bs2);
            compare_batch(sew, *kind, with_scalar(xs, *scalar), bs);
            state.regs.write_mask_bits_where(*md, bs, bs2);
            info.active = bs2.iter().filter(|&&a| a).count();
        }
        VOp::MaskOp { kind, md, m1, m2 } => {
            state.regs.read_mask_bits_into(*m1, vl, bs);
            state.regs.read_mask_bits_into(*m2, vl, bs2);
            for i in 0..vl {
                bs[i] = match kind {
                    MaskKind::And => bs[i] & bs2[i],
                    MaskKind::Or => bs[i] | bs2[i],
                    MaskKind::Xor => bs[i] ^ bs2[i],
                    MaskKind::AndNot => bs[i] & !bs2[i],
                    MaskKind::Nand => !(bs[i] & bs2[i]),
                    MaskKind::Nor => !(bs[i] | bs2[i]),
                };
            }
            state.regs.write_mask_bits(*md, bs);
            info.active = vl;
        }
        VOp::Popc { m } => {
            state.regs.read_mask_bits_into(*m, vl, bs);
            let n = if masked {
                state.regs.read_mask_bits_into(0, vl, bs2);
                bs.iter().zip(bs2.iter()).filter(|&(&v, &a)| v && a).count()
            } else {
                bs.iter().filter(|&&v| v).count()
            };
            info.scalar = Some(n as u64);
            info.active = vl;
        }
        VOp::First { m } => {
            let mut r = -1i64;
            for i in 0..vl {
                if state.active(masked, i) && state.regs.get_mask(*m, i) {
                    r = i as i64;
                    break;
                }
            }
            info.scalar = Some(r as u64);
            info.active = vl;
        }
        VOp::Iota { vd, m } => {
            state.regs.read_mask_bits_into(*m, vl, bs);
            state.snapshot_active(masked, vl, bs2);
            let mut cnt = 0u64;
            for i in 0..vl {
                if bs2[i] {
                    state.regs.set(*vd, sew, i, cnt);
                    if bs[i] {
                        cnt += 1;
                    }
                    info.active += 1;
                }
            }
        }
        VOp::Id { vd } => {
            zs.clear();
            zs.extend(0..vl as u64);
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::Red { kind, vd, x, acc } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            let seed = state.regs.get(*acc, sew, 0);
            let r = if masked {
                state.regs.read_mask_bits_into(0, vl, bs2);
                info.active = bs2.iter().filter(|&&a| a).count();
                reduce_batch(sew, *kind, seed, xs, Some(bs2))
            } else {
                info.active = vl;
                reduce_batch(sew, *kind, seed, xs, None)
            };
            state.regs.set(*vd, sew, 0, r);
        }
        VOp::Slide { kind, vd, x, amount } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            let vlmax = state.vlmax().min(state.regs.elems_per_reg(sew) * state.vtype.lmul.factor());
            if !masked {
                // All lanes active: build the shifted vector in the staging
                // buffer and write it back in one go. Values past `vl` for
                // slide-down are read before any write, so `vd == x` aliasing
                // behaves exactly like the progressive per-element loop
                // (which also never read an element it had already written).
                match kind {
                    SlideKind::Up => {
                        let off = *amount as usize;
                        if off < vl {
                            state.regs.write_elems_at(*vd, sew, off, &xs[..vl - off]);
                        }
                        info.active = vl.saturating_sub(off);
                    }
                    SlideKind::Down => {
                        let off = *amount as usize;
                        zs.clear();
                        for i in 0..vl {
                            let src = i + off;
                            let v = if src < vl {
                                xs[src]
                            } else if src < vlmax {
                                state.regs.get(*x, sew, src)
                            } else {
                                0
                            };
                            zs.push(v);
                        }
                        state.regs.write_elems(*vd, sew, zs);
                        info.active = vl;
                    }
                    SlideKind::OneUp => {
                        if vl > 0 {
                            zs.clear();
                            zs.push(*amount);
                            zs.extend_from_slice(&xs[..vl - 1]);
                            state.regs.write_elems(*vd, sew, zs);
                        }
                        info.active = vl;
                    }
                    SlideKind::OneDown => {
                        if vl > 0 {
                            zs.clear();
                            zs.extend_from_slice(&xs[1..vl]);
                            zs.push(*amount);
                            state.regs.write_elems(*vd, sew, zs);
                        }
                        info.active = vl;
                    }
                }
            } else {
                // Masked slides keep the per-element loop: inactive lanes
                // stay undisturbed at arbitrary positions, so there is no
                // dense batch to stage.
                match kind {
                    SlideKind::Up => {
                        let off = *amount as usize;
                        for i in off..vl {
                            if state.active(masked, i) {
                                state.regs.set(*vd, sew, i, xs[i - off]);
                                info.active += 1;
                            }
                        }
                    }
                    SlideKind::Down => {
                        let off = *amount as usize;
                        for i in 0..vl {
                            if state.active(masked, i) {
                                let src = i + off;
                                let v = if src < vl {
                                    xs[src]
                                } else if src < vlmax {
                                    state.regs.get(*x, sew, src)
                                } else {
                                    0
                                };
                                state.regs.set(*vd, sew, i, v);
                                info.active += 1;
                            }
                        }
                    }
                    SlideKind::OneUp => {
                        for i in (1..vl).rev() {
                            if state.active(masked, i) {
                                state.regs.set(*vd, sew, i, xs[i - 1]);
                                info.active += 1;
                            }
                        }
                        if vl > 0 && state.active(masked, 0) {
                            state.regs.set(*vd, sew, 0, *amount);
                            info.active += 1;
                        }
                    }
                    SlideKind::OneDown => {
                        for i in 0..vl.saturating_sub(1) {
                            if state.active(masked, i) {
                                state.regs.set(*vd, sew, i, xs[i + 1]);
                                info.active += 1;
                            }
                        }
                        if vl > 0 && state.active(masked, vl - 1) {
                            state.regs.set(*vd, sew, vl - 1, *amount);
                            info.active += 1;
                        }
                    }
                }
            }
        }
        VOp::Gather { vd, x, y } => {
            let table_len = state.regs.elems_per_reg(sew) * state.vtype.lmul.factor();
            state.regs.read_elems_into(*x, sew, table_len, xs);
            state.regs.read_elems_into(*y, sew, vl, ys);
            zs.clear();
            zs.extend(ys.iter().map(|&idx| {
                let j = idx as usize;
                if j < table_len {
                    xs[j]
                } else {
                    0
                }
            }));
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::Compress { vd, x, m } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            state.regs.read_mask_bits_into(*m, vl, bs);
            zs.clear();
            for (&v, &b) in xs.iter().zip(bs.iter()) {
                if b {
                    zs.push(v);
                }
            }
            state.regs.write_elems(*vd, sew, zs);
            info.active = zs.len();
        }
        VOp::Merge { vd, x, y } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            state.regs.read_elems_into(*y, sew, vl, ys);
            state.regs.read_mask_bits_into(0, vl, bs);
            zs.clear();
            zs.extend(zip2(xs, ys).zip(bs.iter()).map(|((a, b), &t)| if t { a } else { b }));
            state.regs.write_elems(*vd, sew, zs);
            info.active = vl;
        }
        VOp::MergeVX { vd, scalar, y } => {
            state.regs.read_elems_into(*y, sew, vl, ys);
            state.regs.read_mask_bits_into(0, vl, bs);
            zs.clear();
            zs.extend(ys.iter().zip(bs.iter()).map(|(&b, &t)| if t { *scalar } else { b }));
            state.regs.write_elems(*vd, sew, zs);
            info.active = vl;
        }
        VOp::Mv { vd, x } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            info.active = write_lanes(state, masked, *vd, sew, xs, bs);
        }
        VOp::MvVX { vd, scalar } => {
            zs.clear();
            zs.resize(vl, *scalar);
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
        VOp::MvSX { vd, scalar } => {
            state.regs.set(*vd, sew, 0, *scalar);
            info.active = 1;
        }
        VOp::MvXS { x } => {
            info.scalar = Some(state.regs.get(*x, sew, 0));
            info.active = 1;
        }
        VOp::Widen { vd, x } => {
            let half = sew.half().expect("cannot widen from SEW=8's half");
            state.regs.read_elems_into(*x, half, vl, xs);
            info.active = write_lanes(state, masked, *vd, sew, xs, bs);
        }
        VOp::Cvt { kind, vd, x } => {
            state.regs.read_elems_into(*x, sew, vl, xs);
            cvt_batch(sew, *kind, xs, zs);
            info.active = write_lanes(state, masked, *vd, sew, zs, bs);
        }
    }
}


// ---------------------------------------------------------------------------
// Reference interpreter (tests only)
// ---------------------------------------------------------------------------

/// The pre-batch per-element interpreter, kept verbatim as the oracle for the
/// differential tests: every element re-dispatches on SEW x op kind x mask.
/// Slow but obvious -- each arm is a direct transcription of the RVV
/// semantics, with no staging buffers and no bulk register accessors.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Execute one instruction the slow way. Matches [`exec`] exactly for
    /// every program the batch backend accepts (the differential tests below
    /// assert this), except that malformed FP/SEW combinations may panic at
    /// a different point when no lane is active.
    pub(crate) fn exec_ref<M: VMemory>(inst: &VInst, state: &mut VState, mem: &mut M) -> ExecInfo {
        let sew = state.vtype.sew;
        let vl = state.vl;
        let masked = inst.masked;
        let mut out = ExecInfo::default();
        out.reset(vl);
        let info = &mut out;
        let mut xs: Vec<u64> = Vec::new();
        let mut ys: Vec<u64> = Vec::new();
        let mut bs: Vec<bool> = Vec::new();
        let mut bs2: Vec<bool> = Vec::new();
        let mut addrs: Vec<Option<u64>> = Vec::new();
        let mut bytes: Vec<u8> = Vec::new();
        let (xs, ys, bs, bs2, addrs, bytes) =
            (&mut xs, &mut ys, &mut bs, &mut bs2, &mut addrs, &mut bytes);

        match &inst.op {
            VOp::Load { vd, addr } => {
                if let (MemAddr::Unit { base }, false) = (addr, masked) {
                    // Bulk path: one memcpy into the contiguous register group.
                    // Registers and memory are both little-endian, so the bytes
                    // land exactly where the per-element loop would put them.
                    info.unit_stride = true;
                    if vl > 0 {
                        let nbytes = vl * sew.bytes();
                        mem.read_bytes(*base, state.regs.group_bytes_mut(*vd, nbytes));
                        info.mem.push_run(*base, sew.bytes() as u8, vl as u32, MemAccessKind::Read);
                        info.active = vl;
                    }
                } else {
                    let unit = element_addrs_into(state, addr, masked, sew.bytes(), addrs);
                    info.unit_stride = unit;
                    for (i, a) in addrs.iter().enumerate() {
                        if let Some(a) = *a {
                            let v = mem.read_uint(a, sew.bytes());
                            state.regs.set(*vd, sew, i, v);
                            info.mem.push(MemAccess { addr: a, size: sew.bytes() as u8, kind: MemAccessKind::Read });
                            info.active += 1;
                        }
                    }
                }
            }
            VOp::SegLoad { vd, base, nf } => {
                let nf = *nf as usize;
                assert!((2..=8).contains(&nf), "segment nf must be 2..=8");
                info.unit_stride = true;
                let eb = sew.bytes();
                if !masked {
                    // The field-interleaved footprint is fully contiguous: stage
                    // it with one bulk read, then de-interleave into registers.
                    if vl > 0 {
                        bytes.clear();
                        bytes.resize(vl * nf * eb, 0);
                        mem.read_bytes(*base, bytes);
                        for i in 0..vl {
                            for f in 0..nf {
                                let off = (i * nf + f) * eb;
                                let mut w = [0u8; 8];
                                w[..eb].copy_from_slice(&bytes[off..off + eb]);
                                state.regs.set(vd + f as u8, sew, i, u64::from_le_bytes(w));
                            }
                        }
                        info.mem.push_run(*base, eb as u8, (vl * nf) as u32, MemAccessKind::Read);
                        info.active = vl;
                    }
                } else {
                    for i in 0..vl {
                        if !state.active(masked, i) {
                            continue;
                        }
                        for f in 0..nf {
                            let a = base + ((i * nf + f) * eb) as u64;
                            let v = mem.read_uint(a, eb);
                            state.regs.set(vd + f as u8, sew, i, v);
                            info.mem.push(MemAccess {
                                addr: a,
                                size: eb as u8,
                                kind: MemAccessKind::Read,
                            });
                        }
                        info.active += 1;
                    }
                }
            }
            VOp::SegStore { vs, base, nf } => {
                let nf = *nf as usize;
                assert!((2..=8).contains(&nf), "segment nf must be 2..=8");
                info.unit_stride = true;
                let eb = sew.bytes();
                if !masked {
                    // Re-interleave into a staging buffer, then one bulk write.
                    if vl > 0 {
                        bytes.clear();
                        bytes.resize(vl * nf * eb, 0);
                        for i in 0..vl {
                            for f in 0..nf {
                                let v = state.regs.get(vs + f as u8, sew, i);
                                let off = (i * nf + f) * eb;
                                bytes[off..off + eb].copy_from_slice(&v.to_le_bytes()[..eb]);
                            }
                        }
                        mem.write_bytes(*base, bytes);
                        info.mem.push_run(*base, eb as u8, (vl * nf) as u32, MemAccessKind::Write);
                        info.active = vl;
                    }
                } else {
                    for i in 0..vl {
                        if !state.active(masked, i) {
                            continue;
                        }
                        for f in 0..nf {
                            let a = base + ((i * nf + f) * eb) as u64;
                            let v = state.regs.get(vs + f as u8, sew, i);
                            mem.write_uint(a, eb, v);
                            info.mem.push(MemAccess {
                                addr: a,
                                size: eb as u8,
                                kind: MemAccessKind::Write,
                            });
                        }
                        info.active += 1;
                    }
                }
            }
            VOp::LoadWiden { vd, addr } => {
                let half = sew.half().expect("widening load requires SEW >= 16");
                let hb = half.bytes();
                if let (MemAddr::Unit { base }, false) = (addr, masked) {
                    // Stage the narrow elements with one bulk read, then widen.
                    info.unit_stride = true;
                    if vl > 0 {
                        bytes.clear();
                        bytes.resize(vl * hb, 0);
                        mem.read_bytes(*base, bytes);
                        for i in 0..vl {
                            let mut w = [0u8; 8];
                            w[..hb].copy_from_slice(&bytes[i * hb..(i + 1) * hb]);
                            state.regs.set(*vd, sew, i, u64::from_le_bytes(w));
                        }
                        info.mem.push_run(*base, hb as u8, vl as u32, MemAccessKind::Read);
                        info.active = vl;
                    }
                } else {
                    let unit = element_addrs_into(state, addr, masked, hb, addrs);
                    info.unit_stride = unit;
                    for (i, a) in addrs.iter().enumerate() {
                        if let Some(a) = *a {
                            let v = mem.read_uint(a, hb);
                            state.regs.set(*vd, sew, i, v);
                            info.mem.push(MemAccess { addr: a, size: hb as u8, kind: MemAccessKind::Read });
                            info.active += 1;
                        }
                    }
                }
            }
            VOp::Store { vs, addr } => {
                if let (MemAddr::Unit { base }, false) = (addr, masked) {
                    // Bulk path: one memcpy out of the contiguous register group.
                    info.unit_stride = true;
                    if vl > 0 {
                        let nbytes = vl * sew.bytes();
                        mem.write_bytes(*base, state.regs.group_bytes(*vs, nbytes));
                        info.mem.push_run(*base, sew.bytes() as u8, vl as u32, MemAccessKind::Write);
                        info.active = vl;
                    }
                } else {
                    let unit = element_addrs_into(state, addr, masked, sew.bytes(), addrs);
                    info.unit_stride = unit;
                    for (i, a) in addrs.iter().enumerate() {
                        if let Some(a) = *a {
                            let v = state.regs.get(*vs, sew, i);
                            mem.write_uint(a, sew.bytes(), v);
                            info.mem.push(MemAccess { addr: a, size: sew.bytes() as u8, kind: MemAccessKind::Write });
                            info.active += 1;
                        }
                    }
                }
            }
            VOp::ArithVV { kind, vd, x, y } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                state.regs.read_elems_into(*y, sew, vl, ys);
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, sew, i, int_bin(sew, *kind, xs[i], ys[i]));
                        info.active += 1;
                    }
                }
            }
            VOp::ArithVX { kind, vd, x, scalar } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, sew, i, int_bin(sew, *kind, xs[i], *scalar));
                        info.active += 1;
                    }
                }
            }
            VOp::FArithVV { kind, vd, x, y } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                state.regs.read_elems_into(*y, sew, vl, ys);
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, sew, i, fp_bin(sew, *kind, xs[i], ys[i]));
                        info.active += 1;
                    }
                }
            }
            VOp::FArithVF { kind, vd, x, scalar } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, sew, i, fp_bin(sew, *kind, xs[i], *scalar));
                        info.active += 1;
                    }
                }
            }
            VOp::FUnary { kind, vd, x } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                for i in 0..vl {
                    if state.active(masked, i) {
                        let r = match sew {
                            Sew::E64 => {
                                let v = f64::from_bits(xs[i]);
                                (match kind {
                                    crate::instr::FUnaryKind::Fsqrt => v.sqrt(),
                                    crate::instr::FUnaryKind::Fneg => -v,
                                    crate::instr::FUnaryKind::Fabs => v.abs(),
                                })
                                .to_bits()
                            }
                            Sew::E32 => {
                                let v = f32::from_bits(xs[i] as u32);
                                (match kind {
                                    crate::instr::FUnaryKind::Fsqrt => v.sqrt(),
                                    crate::instr::FUnaryKind::Fneg => -v,
                                    crate::instr::FUnaryKind::Fabs => v.abs(),
                                })
                                .to_bits() as u64
                            }
                            _ => panic!("FP unary requires SEW of 32 or 64 bits"),
                        };
                        state.regs.set(*vd, sew, i, r);
                        info.active += 1;
                    }
                }
            }
            VOp::IMaccVV { vd, x, y } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                state.regs.read_elems_into(*y, sew, vl, ys);
                for i in 0..vl {
                    if state.active(masked, i) {
                        let acc = state.regs.get(*vd, sew, i);
                        let r = acc.wrapping_add(xs[i].wrapping_mul(ys[i])) & sew.value_mask();
                        state.regs.set(*vd, sew, i, r);
                        info.active += 1;
                    }
                }
            }
            VOp::SatAddU { vd, x, y } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                state.regs.read_elems_into(*y, sew, vl, ys);
                let max = sew.value_mask();
                for i in 0..vl {
                    if state.active(masked, i) {
                        let sum = (xs[i] & max) as u128 + (ys[i] & max) as u128;
                        let r = if sum > max as u128 { max } else { sum as u64 };
                        state.regs.set(*vd, sew, i, r);
                        info.active += 1;
                    }
                }
            }
            VOp::WidenBin { kind, vd, x, y } => {
                let half = sew.half().expect("widening requires SEW >= 16");
                state.regs.read_elems_into(*x, half, vl, xs);
                state.regs.read_elems_into(*y, half, vl, ys);
                for i in 0..vl {
                    if state.active(masked, i) {
                        let r = match kind {
                            crate::instr::WidenKind::Addu => xs[i] + ys[i],
                            crate::instr::WidenKind::Subu => xs[i].wrapping_sub(ys[i]) & sew.value_mask(),
                            crate::instr::WidenKind::Mulu => xs[i].wrapping_mul(ys[i]) & sew.value_mask(),
                        };
                        state.regs.set(*vd, sew, i, r);
                        info.active += 1;
                    }
                }
            }
            VOp::NarrowSrl { vd, x, shamt } => {
                let half = sew.half().expect("narrowing requires SEW >= 16");
                state.regs.read_elems_into(*x, sew, vl, xs);
                for i in 0..vl {
                    if state.active(masked, i) {
                        let r = (xs[i] >> (shamt & (sew.bits() as u32 - 1))) & half.value_mask();
                        state.regs.set(*vd, half, i, r);
                        info.active += 1;
                    }
                }
            }
            VOp::MaskSet { kind, md, m } => {
                state.regs.read_mask_bits_into(*m, vl, bs);
                let first = bs.iter().position(|&b| b);
                bs2.clear();
                bs2.extend((0..vl).map(|i| match (kind, first) {
                    (crate::instr::MaskSetKind::Sbf, Some(f)) => i < f,
                    (crate::instr::MaskSetKind::Sif, Some(f)) => i <= f,
                    (crate::instr::MaskSetKind::Sof, Some(f)) => i == f,
                    (crate::instr::MaskSetKind::Sbf, None)
                    | (crate::instr::MaskSetKind::Sif, None) => true,
                    (crate::instr::MaskSetKind::Sof, None) => false,
                }));
                state.regs.write_mask_bits(*md, bs2);
                info.active = vl;
            }
            VOp::FmaVV { kind, vd, x, y } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                state.regs.read_elems_into(*y, sew, vl, ys);
                for i in 0..vl {
                    if state.active(masked, i) {
                        let acc = state.regs.get(*vd, sew, i);
                        state.regs.set(*vd, sew, i, fp_fma(sew, *kind, acc, xs[i], ys[i]));
                        info.active += 1;
                    }
                }
            }
            VOp::FmaVF { kind, vd, scalar, y } => {
                state.regs.read_elems_into(*y, sew, vl, ys);
                for i in 0..vl {
                    if state.active(masked, i) {
                        let acc = state.regs.get(*vd, sew, i);
                        state.regs.set(*vd, sew, i, fp_fma(sew, *kind, acc, *scalar, ys[i]));
                        info.active += 1;
                    }
                }
            }
            VOp::CmpVV { kind, md, x, y } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                state.regs.read_elems_into(*y, sew, vl, ys);
                // Must snapshot activity before writing: md may be v0 itself.
                fill_active(state, masked, vl, bs2);
                bs.clear();
                bs.extend((0..vl).map(|i| compare(sew, *kind, xs[i], ys[i])));
                state.regs.write_mask_bits_where(*md, bs, bs2);
                info.active = bs2.iter().filter(|&&a| a).count();
            }
            VOp::CmpVX { kind, md, x, scalar } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                fill_active(state, masked, vl, bs2);
                bs.clear();
                bs.extend((0..vl).map(|i| compare(sew, *kind, xs[i], *scalar)));
                state.regs.write_mask_bits_where(*md, bs, bs2);
                info.active = bs2.iter().filter(|&&a| a).count();
            }
            VOp::MaskOp { kind, md, m1, m2 } => {
                state.regs.read_mask_bits_into(*m1, vl, bs);
                state.regs.read_mask_bits_into(*m2, vl, bs2);
                for i in 0..vl {
                    bs[i] = match kind {
                        MaskKind::And => bs[i] & bs2[i],
                        MaskKind::Or => bs[i] | bs2[i],
                        MaskKind::Xor => bs[i] ^ bs2[i],
                        MaskKind::AndNot => bs[i] & !bs2[i],
                        MaskKind::Nand => !(bs[i] & bs2[i]),
                        MaskKind::Nor => !(bs[i] | bs2[i]),
                    };
                }
                state.regs.write_mask_bits(*md, bs);
                info.active = vl;
            }
            VOp::Popc { m } => {
                state.regs.read_mask_bits_into(*m, vl, bs);
                let n = if masked {
                    state.regs.read_mask_bits_into(0, vl, bs2);
                    bs.iter().zip(bs2.iter()).filter(|&(&v, &a)| v && a).count()
                } else {
                    bs.iter().filter(|&&v| v).count()
                };
                info.scalar = Some(n as u64);
                info.active = vl;
            }
            VOp::First { m } => {
                let mut r = -1i64;
                for i in 0..vl {
                    if state.active(masked, i) && state.regs.get_mask(*m, i) {
                        r = i as i64;
                        break;
                    }
                }
                info.scalar = Some(r as u64);
                info.active = vl;
            }
            VOp::Iota { vd, m } => {
                state.regs.read_mask_bits_into(*m, vl, bs);
                fill_active(state, masked, vl, bs2);
                let mut cnt = 0u64;
                for i in 0..vl {
                    if bs2[i] {
                        state.regs.set(*vd, sew, i, cnt);
                        if bs[i] {
                            cnt += 1;
                        }
                        info.active += 1;
                    }
                }
            }
            VOp::Id { vd } => {
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, sew, i, i as u64);
                        info.active += 1;
                    }
                }
            }
            VOp::Red { kind, vd, x, acc } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                let seed = state.regs.get(*acc, sew, 0);
                let is_fp = matches!(kind, RedKind::Fsum | RedKind::Fmax | RedKind::Fmin);
                let mut r = seed;
                for (i, &v) in xs.iter().enumerate().take(vl) {
                    if !state.active(masked, i) {
                        continue;
                    }
                    info.active += 1;
                    r = if is_fp {
                        match sew {
                            Sew::E64 => {
                                let (a, b) = (f64::from_bits(r), f64::from_bits(v));
                                match kind {
                                    RedKind::Fsum => (a + b).to_bits(),
                                    RedKind::Fmax => a.max(b).to_bits(),
                                    RedKind::Fmin => a.min(b).to_bits(),
                                    _ => unreachable!("is_fp admits only Fsum/Fmax/Fmin"),
                                }
                            }
                            Sew::E32 => {
                                let (a, b) = (f32::from_bits(r as u32), f32::from_bits(v as u32));
                                (match kind {
                                    RedKind::Fsum => a + b,
                                    RedKind::Fmax => a.max(b),
                                    RedKind::Fmin => a.min(b),
                                    _ => unreachable!("is_fp admits only Fsum/Fmax/Fmin"),
                                })
                                .to_bits() as u64
                            }
                            _ => panic!("FP reduction requires SEW of 32 or 64 bits"),
                        }
                    } else {
                        match kind {
                            RedKind::Sum => (r.wrapping_add(v)) & sew.value_mask(),
                            RedKind::Max => {
                                if sew.sign_extend(v) > sew.sign_extend(r) {
                                    v
                                } else {
                                    r
                                }
                            }
                            RedKind::Min => {
                                if sew.sign_extend(v) < sew.sign_extend(r) {
                                    v
                                } else {
                                    r
                                }
                            }
                            RedKind::Maxu => (r & sew.value_mask()).max(v & sew.value_mask()),
                            _ => unreachable!("FP kinds are routed to the is_fp branch"),
                        }
                    };
                }
                state.regs.set(*vd, sew, 0, r);
            }
            VOp::Slide { kind, vd, x, amount } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                let vlmax = state.vlmax().min(state.regs.elems_per_reg(sew) * state.vtype.lmul.factor());
                match kind {
                    SlideKind::Up => {
                        let off = *amount as usize;
                        for i in off..vl {
                            if state.active(masked, i) {
                                state.regs.set(*vd, sew, i, xs[i - off]);
                                info.active += 1;
                            }
                        }
                    }
                    SlideKind::Down => {
                        let off = *amount as usize;
                        for i in 0..vl {
                            if state.active(masked, i) {
                                let src = i + off;
                                let v = if src < vl {
                                    xs[src]
                                } else if src < vlmax {
                                    state.regs.get(*x, sew, src)
                                } else {
                                    0
                                };
                                state.regs.set(*vd, sew, i, v);
                                info.active += 1;
                            }
                        }
                    }
                    SlideKind::OneUp => {
                        for i in (1..vl).rev() {
                            if state.active(masked, i) {
                                state.regs.set(*vd, sew, i, xs[i - 1]);
                                info.active += 1;
                            }
                        }
                        if vl > 0 && state.active(masked, 0) {
                            state.regs.set(*vd, sew, 0, *amount);
                            info.active += 1;
                        }
                    }
                    SlideKind::OneDown => {
                        for i in 0..vl.saturating_sub(1) {
                            if state.active(masked, i) {
                                state.regs.set(*vd, sew, i, xs[i + 1]);
                                info.active += 1;
                            }
                        }
                        if vl > 0 && state.active(masked, vl - 1) {
                            state.regs.set(*vd, sew, vl - 1, *amount);
                            info.active += 1;
                        }
                    }
                }
            }
            VOp::Gather { vd, x, y } => {
                let table_len = state.regs.elems_per_reg(sew) * state.vtype.lmul.factor();
                state.regs.read_elems_into(*x, sew, table_len, xs);
                state.regs.read_elems_into(*y, sew, vl, ys);
                for i in 0..vl {
                    if state.active(masked, i) {
                        let j = ys[i] as usize;
                        let v = if j < table_len { xs[j] } else { 0 };
                        state.regs.set(*vd, sew, i, v);
                        info.active += 1;
                    }
                }
            }
            VOp::Compress { vd, x, m } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                state.regs.read_mask_bits_into(*m, vl, bs);
                let mut j = 0usize;
                for i in 0..vl {
                    if bs[i] {
                        state.regs.set(*vd, sew, j, xs[i]);
                        j += 1;
                    }
                }
                info.active = j;
            }
            VOp::Merge { vd, x, y } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                state.regs.read_elems_into(*y, sew, vl, ys);
                for i in 0..vl {
                    let take_x = state.regs.get_mask(0, i);
                    state.regs.set(*vd, sew, i, if take_x { xs[i] } else { ys[i] });
                }
                info.active = vl;
            }
            VOp::MergeVX { vd, scalar, y } => {
                state.regs.read_elems_into(*y, sew, vl, ys);
                for i in 0..vl {
                    let take_s = state.regs.get_mask(0, i);
                    state.regs.set(*vd, sew, i, if take_s { *scalar } else { ys[i] });
                }
                info.active = vl;
            }
            VOp::Mv { vd, x } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, sew, i, xs[i]);
                        info.active += 1;
                    }
                }
            }
            VOp::MvVX { vd, scalar } => {
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, sew, i, *scalar);
                        info.active += 1;
                    }
                }
            }
            VOp::MvSX { vd, scalar } => {
                state.regs.set(*vd, sew, 0, *scalar);
                info.active = 1;
            }
            VOp::MvXS { x } => {
                info.scalar = Some(state.regs.get(*x, sew, 0));
                info.active = 1;
            }
            VOp::Widen { vd, x } => {
                let half = sew.half().expect("cannot widen from SEW=8's half");
                state.regs.read_elems_into(*x, half, vl, xs);
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, sew, i, xs[i]);
                        info.active += 1;
                    }
                }
            }
            VOp::Cvt { kind, vd, x } => {
                state.regs.read_elems_into(*x, sew, vl, xs);
                for i in 0..vl {
                    if !state.active(masked, i) {
                        continue;
                    }
                    let v = xs[i];
                    let r = match (sew, kind) {
                        (Sew::E64, CvtKind::UToF) => (v as f64).to_bits(),
                        (Sew::E64, CvtKind::IToF) => ((v as i64) as f64).to_bits(),
                        (Sew::E64, CvtKind::FToU) => {
                            let f = f64::from_bits(v).round_ties_even();
                            if f <= 0.0 {
                                0
                            } else if f >= u64::MAX as f64 {
                                u64::MAX
                            } else {
                                f as u64
                            }
                        }
                        (Sew::E64, CvtKind::FToI) => {
                            let f = f64::from_bits(v).round_ties_even();
                            (f as i64) as u64
                        }
                        (Sew::E32, CvtKind::UToF) => ((v as u32) as f32).to_bits() as u64,
                        (Sew::E32, CvtKind::IToF) => ((v as u32 as i32) as f32).to_bits() as u64,
                        (Sew::E32, CvtKind::FToU) => {
                            let f = f32::from_bits(v as u32).round_ties_even();
                            if f <= 0.0 {
                                0
                            } else if f >= u32::MAX as f32 {
                                u32::MAX as u64
                            } else {
                                f as u32 as u64
                            }
                        }
                        (Sew::E32, CvtKind::FToI) => {
                            let f = f32::from_bits(v as u32).round_ties_even();
                            (f as i32) as u32 as u64
                        }
                        _ => panic!("conversion requires SEW of 32 or 64 bits"),
                    };
                    state.regs.set(*vd, sew, i, r);
                    info.active += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::FlatMemory;
    use crate::vtype::Lmul;

    fn st(vl: usize) -> VState {
        let mut s = VState::new(2048); // 32 f64 per register
        s.set_vl(vl, Sew::E64, Lmul::M1);
        s
    }

    fn run(s: &mut VState, op: VOp) -> ExecInfo {
        let mut m = FlatMemory::new(1);
        exec(&VInst::new(op), s, &mut m)
    }

    fn run_masked(s: &mut VState, op: VOp) -> ExecInfo {
        let mut m = FlatMemory::new(1);
        exec(&VInst::masked(op), s, &mut m)
    }

    #[test]
    fn unit_load_store_roundtrip() {
        let mut s = st(8);
        let mut mem = FlatMemory::new(1024);
        for i in 0..8 {
            mem.write_uint(i * 8, 8, 100 + i);
        }
        let info = exec(&VInst::new(VOp::Load { vd: 1, addr: MemAddr::Unit { base: 0 } }), &mut s, &mut mem);
        assert_eq!(info.mem.len(), 8);
        assert!(info.unit_stride);
        assert_eq!(s.regs.get(1, Sew::E64, 0), 100);
        assert_eq!(s.regs.get(1, Sew::E64, 7), 107);
        let info = exec(&VInst::new(VOp::Store { vs: 1, addr: MemAddr::Unit { base: 512 } }), &mut s, &mut mem);
        assert_eq!(info.mem.len(), 8);
        assert_eq!(mem.read_uint(512 + 7 * 8, 8), 107);
    }

    #[test]
    fn strided_load_reads_with_stride() {
        let mut s = st(4);
        let mut mem = FlatMemory::new(1024);
        for i in 0..4u64 {
            mem.write_uint(i * 24, 8, i + 1);
        }
        exec(
            &VInst::new(VOp::Load { vd: 2, addr: MemAddr::Strided { base: 0, stride: 24 } }),
            &mut s,
            &mut mem,
        );
        for i in 0..4 {
            assert_eq!(s.regs.get(2, Sew::E64, i), i as u64 + 1);
        }
    }

    #[test]
    fn indexed_gather_uses_byte_offsets() {
        let mut s = st(4);
        let mut mem = FlatMemory::new(1024);
        mem.write_uint(40, 8, 7);
        mem.write_uint(8, 8, 9);
        // offsets: 40, 8, 40, 8
        for (i, off) in [40u64, 8, 40, 8].iter().enumerate() {
            s.regs.set(3, Sew::E64, i, *off);
        }
        let info = exec(
            &VInst::new(VOp::Load { vd: 4, addr: MemAddr::Indexed { base: 0, index: 3 } }),
            &mut s,
            &mut mem,
        );
        assert!(!info.unit_stride);
        assert_eq!(s.regs.get(4, Sew::E64, 0), 7);
        assert_eq!(s.regs.get(4, Sew::E64, 1), 9);
        assert_eq!(s.regs.get(4, Sew::E64, 2), 7);
        assert_eq!(s.regs.get(4, Sew::E64, 3), 9);
    }

    #[test]
    fn widening_load_unit_stride() {
        let mut s = st(4);
        let mut mem = FlatMemory::new(1024);
        // Four consecutive u32 values.
        for i in 0..4u64 {
            mem.write_uint(i * 4, 4, 0x8000_0000 + i);
        }
        let info = exec(
            &VInst::new(VOp::LoadWiden { vd: 2, addr: MemAddr::Unit { base: 0 } }),
            &mut s,
            &mut mem,
        );
        assert!(info.unit_stride);
        assert_eq!(info.mem.len(), 4);
        assert_eq!(info.mem.access(1).addr, 4, "element footprint is SEW/2 bytes");
        assert_eq!(info.mem.access(0).size, 4);
        for i in 0..4 {
            assert_eq!(s.regs.get(2, Sew::E64, i), 0x8000_0000 + i as u64, "zero-extended");
        }
    }

    #[test]
    fn widening_load_indexed() {
        let mut s = st(2);
        let mut mem = FlatMemory::new(1024);
        mem.write_uint(100, 4, 7);
        mem.write_uint(200, 4, 9);
        s.regs.set(1, Sew::E64, 0, 100);
        s.regs.set(1, Sew::E64, 1, 200);
        exec(
            &VInst::new(VOp::LoadWiden { vd: 2, addr: MemAddr::Indexed { base: 0, index: 1 } }),
            &mut s,
            &mut mem,
        );
        assert_eq!(s.regs.get(2, Sew::E64, 0), 7);
        assert_eq!(s.regs.get(2, Sew::E64, 1), 9);
    }

    #[test]
    fn masked_load_skips_inactive_elements() {
        let mut s = st(4);
        let mut mem = FlatMemory::new(1024);
        for i in 0..4u64 {
            mem.write_uint(i * 8, 8, 50 + i);
        }
        s.regs.set_mask(0, 0, true);
        s.regs.set_mask(0, 2, true);
        s.regs.set(5, Sew::E64, 1, 999); // will stay undisturbed
        let info = exec(
            &VInst::masked(VOp::Load { vd: 5, addr: MemAddr::Unit { base: 0 } }),
            &mut s,
            &mut mem,
        );
        assert_eq!(info.mem.len(), 2);
        assert_eq!(info.active, 2);
        assert_eq!(s.regs.get(5, Sew::E64, 0), 50);
        assert_eq!(s.regs.get(5, Sew::E64, 1), 999);
        assert_eq!(s.regs.get(5, Sew::E64, 2), 52);
    }

    #[test]
    fn int_add_and_tail_undisturbed() {
        let mut s = st(4);
        s.regs.set(10, Sew::E64, 4, 777); // beyond vl: must stay
        for i in 0..4 {
            s.regs.set(8, Sew::E64, i, i as u64);
            s.regs.set(9, Sew::E64, i, 10);
        }
        run(&mut s, VOp::ArithVV { kind: ArithKind::Add, vd: 10, x: 8, y: 9 });
        for i in 0..4 {
            assert_eq!(s.regs.get(10, Sew::E64, i), i as u64 + 10);
        }
        assert_eq!(s.regs.get(10, Sew::E64, 4), 777, "tail must be undisturbed");
    }

    #[test]
    fn arith_vx_and_rsub() {
        let mut s = st(3);
        for i in 0..3 {
            s.regs.set(1, Sew::E64, i, 5);
        }
        run(&mut s, VOp::ArithVX { kind: ArithKind::Rsub, vd: 2, x: 1, scalar: 20 });
        assert_eq!(s.regs.get(2, Sew::E64, 0), 15); // 20 - 5
        run(&mut s, VOp::ArithVX { kind: ArithKind::Sll, vd: 2, x: 1, scalar: 3 });
        assert_eq!(s.regs.get(2, Sew::E64, 0), 40); // 5 << 3
    }

    #[test]
    fn signed_ops_at_narrow_sew() {
        let mut s = VState::new(2048);
        s.set_vl(2, Sew::E8, Lmul::M1);
        s.regs.set(1, Sew::E8, 0, 0x80); // -128
        s.regs.set(1, Sew::E8, 1, 0x7F); // 127
        s.regs.set(2, Sew::E8, 0, 1);
        s.regs.set(2, Sew::E8, 1, 1);
        run(&mut s, VOp::ArithVV { kind: ArithKind::Max, vd: 3, x: 1, y: 2 });
        assert_eq!(s.regs.get(3, Sew::E8, 0), 1, "signed max(-128, 1) = 1");
        assert_eq!(s.regs.get(3, Sew::E8, 1), 0x7F);
        run(&mut s, VOp::ArithVV { kind: ArithKind::Maxu, vd: 3, x: 1, y: 2 });
        assert_eq!(s.regs.get(3, Sew::E8, 0), 0x80, "unsigned max(128, 1) = 128");
    }

    #[test]
    fn fp_ops_and_fma() {
        let mut s = st(2);
        s.regs.set_f64(1, 0, 2.0);
        s.regs.set_f64(1, 1, -4.0);
        s.regs.set_f64(2, 0, 3.0);
        s.regs.set_f64(2, 1, 0.5);
        run(&mut s, VOp::FArithVV { kind: FArithKind::Fmul, vd: 3, x: 1, y: 2 });
        assert_eq!(s.regs.get_f64(3, 0), 6.0);
        assert_eq!(s.regs.get_f64(3, 1), -2.0);
        // vd += x*y
        run(&mut s, VOp::FmaVV { kind: FmaKind::Macc, vd: 3, x: 1, y: 2 });
        assert_eq!(s.regs.get_f64(3, 0), 12.0);
        assert_eq!(s.regs.get_f64(3, 1), -4.0);
        run(&mut s, VOp::FArithVF { kind: FArithKind::Fadd, vd: 3, x: 3, scalar: 1.0f64.to_bits() });
        assert_eq!(s.regs.get_f64(3, 0), 13.0);
    }

    #[test]
    fn compare_sets_mask_bits() {
        let mut s = st(4);
        for (i, v) in [1u64, 5, 3, 9].iter().enumerate() {
            s.regs.set(1, Sew::E64, i, *v);
        }
        run(&mut s, VOp::CmpVX { kind: CmpKind::Gtu, md: 7, x: 1, scalar: 3 });
        assert!(!s.regs.get_mask(7, 0));
        assert!(s.regs.get_mask(7, 1));
        assert!(!s.regs.get_mask(7, 2));
        assert!(s.regs.get_mask(7, 3));
    }

    #[test]
    fn fp_compare() {
        let mut s = st(2);
        s.regs.set_f64(1, 0, 1.5);
        s.regs.set_f64(1, 1, f64::NAN);
        s.regs.set_f64(2, 0, 2.0);
        s.regs.set_f64(2, 1, 2.0);
        run(&mut s, VOp::CmpVV { kind: CmpKind::Flt, md: 4, x: 1, y: 2 });
        assert!(s.regs.get_mask(4, 0));
        assert!(!s.regs.get_mask(4, 1), "NaN compares false");
    }

    #[test]
    fn mask_logicals() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set_mask(1, i, i % 2 == 0); // 1010
            s.regs.set_mask(2, i, i < 2); //       1100
        }
        run(&mut s, VOp::MaskOp { kind: MaskKind::And, md: 3, m1: 1, m2: 2 });
        assert_eq!((0..4).map(|i| s.regs.get_mask(3, i)).collect::<Vec<_>>(), vec![true, false, false, false]);
        run(&mut s, VOp::MaskOp { kind: MaskKind::Nand, md: 3, m1: 1, m2: 1 });
        assert_eq!((0..4).map(|i| s.regs.get_mask(3, i)).collect::<Vec<_>>(), vec![false, true, false, true]);
    }

    #[test]
    fn popc_first_iota() {
        let mut s = st(8);
        for i in [1usize, 3, 4, 7] {
            s.regs.set_mask(2, i, true);
        }
        let info = run(&mut s, VOp::Popc { m: 2 });
        assert_eq!(info.scalar, Some(4));
        let info = run(&mut s, VOp::First { m: 2 });
        assert_eq!(info.scalar, Some(1));
        run(&mut s, VOp::Iota { vd: 5, m: 2 });
        let iota: Vec<u64> = (0..8).map(|i| s.regs.get(5, Sew::E64, i)).collect();
        assert_eq!(iota, vec![0, 0, 1, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn first_none_returns_minus_one() {
        let mut s = st(8);
        let info = run(&mut s, VOp::First { m: 6 });
        assert_eq!(info.scalar, Some((-1i64) as u64));
    }

    #[test]
    fn vid_writes_indices() {
        let mut s = st(5);
        run(&mut s, VOp::Id { vd: 1 });
        for i in 0..5 {
            assert_eq!(s.regs.get(1, Sew::E64, i), i as u64);
        }
    }

    #[test]
    fn fp_reduction_sum_with_seed() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set_f64(1, i, (i + 1) as f64); // 1+2+3+4 = 10
        }
        s.regs.set_f64(2, 0, 100.0); // seed
        run(&mut s, VOp::Red { kind: RedKind::Fsum, vd: 3, x: 1, acc: 2 });
        assert_eq!(s.regs.get_f64(3, 0), 110.0);
    }

    #[test]
    fn masked_reduction_skips_inactive() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set_f64(1, i, (i + 1) as f64);
        }
        s.regs.set_mask(0, 0, true);
        s.regs.set_mask(0, 2, true);
        s.regs.set_f64(2, 0, 0.0);
        let mut m = FlatMemory::new(1);
        exec(&VInst::masked(VOp::Red { kind: RedKind::Fsum, vd: 3, x: 1, acc: 2 }), &mut s, &mut m);
        assert_eq!(s.regs.get_f64(3, 0), 4.0); // 1 + 3
    }

    #[test]
    fn int_reductions() {
        let mut s = st(4);
        for (i, v) in [5u64, 2, 9, 1].iter().enumerate() {
            s.regs.set(1, Sew::E64, i, *v);
        }
        s.regs.set(2, Sew::E64, 0, 0);
        run(&mut s, VOp::Red { kind: RedKind::Sum, vd: 3, x: 1, acc: 2 });
        assert_eq!(s.regs.get(3, Sew::E64, 0), 17);
        s.regs.set(2, Sew::E64, 0, 4);
        run(&mut s, VOp::Red { kind: RedKind::Maxu, vd: 3, x: 1, acc: 2 });
        assert_eq!(s.regs.get(3, Sew::E64, 0), 9);
    }

    #[test]
    fn slides() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set(1, Sew::E64, i, 10 + i as u64);
        }
        run(&mut s, VOp::Slide { kind: SlideKind::Up, vd: 2, x: 1, amount: 2 });
        assert_eq!(s.regs.get(2, Sew::E64, 2), 10);
        assert_eq!(s.regs.get(2, Sew::E64, 3), 11);
        run(&mut s, VOp::Slide { kind: SlideKind::Down, vd: 3, x: 1, amount: 1 });
        assert_eq!(s.regs.get(3, Sew::E64, 0), 11);
        assert_eq!(s.regs.get(3, Sew::E64, 2), 13);
        run(&mut s, VOp::Slide { kind: SlideKind::OneUp, vd: 4, x: 1, amount: 99 });
        assert_eq!(s.regs.get(4, Sew::E64, 0), 99);
        assert_eq!(s.regs.get(4, Sew::E64, 1), 10);
        run(&mut s, VOp::Slide { kind: SlideKind::OneDown, vd: 5, x: 1, amount: 77 });
        assert_eq!(s.regs.get(5, Sew::E64, 0), 11);
        assert_eq!(s.regs.get(5, Sew::E64, 3), 77);
    }

    #[test]
    fn slide1up_is_alias_safe() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set(1, Sew::E64, i, i as u64);
        }
        run(&mut s, VOp::Slide { kind: SlideKind::OneUp, vd: 1, x: 1, amount: 50 });
        assert_eq!(
            (0..4).map(|i| s.regs.get(1, Sew::E64, i)).collect::<Vec<_>>(),
            vec![50, 0, 1, 2]
        );
    }

    #[test]
    fn gather_and_out_of_range_zero() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set(1, Sew::E64, i, 100 + i as u64);
        }
        for (i, idx) in [3u64, 0, 1_000_000, 1].iter().enumerate() {
            s.regs.set(2, Sew::E64, i, *idx);
        }
        run(&mut s, VOp::Gather { vd: 3, x: 1, y: 2 });
        assert_eq!(s.regs.get(3, Sew::E64, 0), 103);
        assert_eq!(s.regs.get(3, Sew::E64, 1), 100);
        assert_eq!(s.regs.get(3, Sew::E64, 2), 0);
        assert_eq!(s.regs.get(3, Sew::E64, 3), 101);
    }

    #[test]
    fn compress_packs_selected() {
        let mut s = st(6);
        for i in 0..6 {
            s.regs.set(1, Sew::E64, i, i as u64);
        }
        for i in [1usize, 3, 4] {
            s.regs.set_mask(2, i, true);
        }
        let info = run(&mut s, VOp::Compress { vd: 3, x: 1, m: 2 });
        assert_eq!(info.active, 3);
        assert_eq!(s.regs.get(3, Sew::E64, 0), 1);
        assert_eq!(s.regs.get(3, Sew::E64, 1), 3);
        assert_eq!(s.regs.get(3, Sew::E64, 2), 4);
    }

    #[test]
    fn merge_selects_by_v0() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set(1, Sew::E64, i, 1);
            s.regs.set(2, Sew::E64, i, 2);
            s.regs.set_mask(0, i, i % 2 == 0);
        }
        run(&mut s, VOp::Merge { vd: 3, x: 1, y: 2 });
        assert_eq!(
            (0..4).map(|i| s.regs.get(3, Sew::E64, i)).collect::<Vec<_>>(),
            vec![1, 2, 1, 2]
        );
        run(&mut s, VOp::MergeVX { vd: 4, scalar: 9, y: 2 });
        assert_eq!(
            (0..4).map(|i| s.regs.get(4, Sew::E64, i)).collect::<Vec<_>>(),
            vec![9, 2, 9, 2]
        );
    }

    #[test]
    fn moves_and_broadcast() {
        let mut s = st(3);
        run(&mut s, VOp::MvVX { vd: 1, scalar: 42 });
        for i in 0..3 {
            assert_eq!(s.regs.get(1, Sew::E64, i), 42);
        }
        run(&mut s, VOp::MvSX { vd: 2, scalar: 7 });
        assert_eq!(s.regs.get(2, Sew::E64, 0), 7);
        assert_eq!(s.regs.get(2, Sew::E64, 1), 0);
        let info = run(&mut s, VOp::MvXS { x: 2 });
        assert_eq!(info.scalar, Some(7));
        run(&mut s, VOp::Mv { vd: 3, x: 1 });
        assert_eq!(s.regs.get(3, Sew::E64, 2), 42);
    }

    #[test]
    fn widen_u32_to_u64() {
        let mut s = st(4);
        // Lay out four u32 values in v1's low half.
        for i in 0..4 {
            s.regs.set(1, Sew::E32, i, 1000 + i as u64);
        }
        run(&mut s, VOp::Widen { vd: 2, x: 1 });
        for i in 0..4 {
            assert_eq!(s.regs.get(2, Sew::E64, i), 1000 + i as u64);
        }
    }

    #[test]
    fn conversions() {
        let mut s = st(3);
        for (i, v) in [0u64, 7, 100].iter().enumerate() {
            s.regs.set(1, Sew::E64, i, *v);
        }
        run(&mut s, VOp::Cvt { kind: CvtKind::UToF, vd: 2, x: 1 });
        assert_eq!(s.regs.get_f64(2, 1), 7.0);
        run(&mut s, VOp::Cvt { kind: CvtKind::FToU, vd: 3, x: 2 });
        assert_eq!(s.regs.get(3, Sew::E64, 2), 100);
        // Negative saturates to 0 for FToU.
        s.regs.set_f64(2, 0, -5.0);
        run(&mut s, VOp::Cvt { kind: CvtKind::FToU, vd: 3, x: 2 });
        assert_eq!(s.regs.get(3, Sew::E64, 0), 0);
        // FToI handles negatives.
        run(&mut s, VOp::Cvt { kind: CvtKind::FToI, vd: 4, x: 2 });
        assert_eq!(s.regs.get(4, Sew::E64, 0) as i64, -5);
    }

    #[test]
    fn masked_arith_leaves_inactive_undisturbed() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set(1, Sew::E64, i, 10);
            s.regs.set(2, Sew::E64, i, 1);
            s.regs.set(3, Sew::E64, i, 555);
            s.regs.set_mask(0, i, i >= 2);
        }
        let info = run_masked(&mut s, VOp::ArithVV { kind: ArithKind::Add, vd: 3, x: 1, y: 2 });
        assert_eq!(info.active, 2);
        assert_eq!(s.regs.get(3, Sew::E64, 0), 555);
        assert_eq!(s.regs.get(3, Sew::E64, 1), 555);
        assert_eq!(s.regs.get(3, Sew::E64, 2), 11);
        assert_eq!(s.regs.get(3, Sew::E64, 3), 11);
    }

    #[test]
    fn vl_zero_is_a_nop() {
        let mut s = st(0);
        s.regs.set(2, Sew::E64, 0, 123);
        let info = run(&mut s, VOp::ArithVV { kind: ArithKind::Add, vd: 2, x: 1, y: 1 });
        assert_eq!(info.active, 0);
        assert_eq!(s.regs.get(2, Sew::E64, 0), 123);
    }

    #[test]
    fn fp_unary_ops() {
        let mut s = st(3);
        s.regs.set_f64(1, 0, 9.0);
        s.regs.set_f64(1, 1, -2.5);
        s.regs.set_f64(1, 2, 0.0);
        run(&mut s, VOp::FUnary { kind: crate::instr::FUnaryKind::Fsqrt, vd: 2, x: 1 });
        assert_eq!(s.regs.get_f64(2, 0), 3.0);
        run(&mut s, VOp::FUnary { kind: crate::instr::FUnaryKind::Fneg, vd: 2, x: 1 });
        assert_eq!(s.regs.get_f64(2, 1), 2.5);
        run(&mut s, VOp::FUnary { kind: crate::instr::FUnaryKind::Fabs, vd: 2, x: 1 });
        assert_eq!(s.regs.get_f64(2, 1), 2.5);
        assert_eq!(s.regs.get_f64(2, 0), 9.0);
    }

    #[test]
    fn integer_macc() {
        let mut s = st(2);
        for i in 0..2 {
            s.regs.set(1, Sew::E64, i, 3);
            s.regs.set(2, Sew::E64, i, 4);
            s.regs.set(3, Sew::E64, i, 100);
        }
        run(&mut s, VOp::IMaccVV { vd: 3, x: 1, y: 2 });
        assert_eq!(s.regs.get(3, Sew::E64, 0), 112);
    }

    #[test]
    fn saturating_add_clamps() {
        let mut s = VState::new(2048);
        s.set_vl(2, Sew::E8, Lmul::M1);
        s.regs.set(1, Sew::E8, 0, 200);
        s.regs.set(2, Sew::E8, 0, 100); // 300 -> saturates to 255
        s.regs.set(1, Sew::E8, 1, 10);
        s.regs.set(2, Sew::E8, 1, 20);
        run(&mut s, VOp::SatAddU { vd: 3, x: 1, y: 2 });
        assert_eq!(s.regs.get(3, Sew::E8, 0), 255);
        assert_eq!(s.regs.get(3, Sew::E8, 1), 30);
    }

    #[test]
    fn widening_binary_ops() {
        let mut s = st(2);
        // Sources at E32 within the same registers.
        s.regs.set(1, Sew::E32, 0, 0xFFFF_FFFF);
        s.regs.set(2, Sew::E32, 0, 2);
        s.regs.set(1, Sew::E32, 1, 7);
        s.regs.set(2, Sew::E32, 1, 6);
        run(&mut s, VOp::WidenBin { kind: crate::instr::WidenKind::Addu, vd: 3, x: 1, y: 2 });
        assert_eq!(s.regs.get(3, Sew::E64, 0), 0x1_0000_0001, "no wraparound at SEW");
        run(&mut s, VOp::WidenBin { kind: crate::instr::WidenKind::Mulu, vd: 3, x: 1, y: 2 });
        assert_eq!(s.regs.get(3, Sew::E64, 0), 0xFFFF_FFFF * 2);
        assert_eq!(s.regs.get(3, Sew::E64, 1), 42);
    }

    #[test]
    fn narrowing_shift() {
        let mut s = st(2);
        s.regs.set(1, Sew::E64, 0, 0xAABB_CCDD_1122_3344);
        s.regs.set(1, Sew::E64, 1, 0x0000_0000_FFFF_0000);
        run(&mut s, VOp::NarrowSrl { vd: 2, x: 1, shamt: 32 });
        assert_eq!(s.regs.get(2, Sew::E32, 0), 0xAABB_CCDD);
        assert_eq!(s.regs.get(2, Sew::E32, 1), 0);
        run(&mut s, VOp::NarrowSrl { vd: 3, x: 1, shamt: 16 });
        assert_eq!(s.regs.get(3, Sew::E32, 1), 0x0000_FFFF);
    }

    #[test]
    fn mask_set_first_family() {
        use crate::instr::MaskSetKind;
        let mut s = st(6);
        for i in [3usize, 5] {
            s.regs.set_mask(2, i, true);
        }
        run(&mut s, VOp::MaskSet { kind: MaskSetKind::Sbf, md: 3, m: 2 });
        assert_eq!((0..6).map(|i| s.regs.get_mask(3, i)).collect::<Vec<_>>(),
                   vec![true, true, true, false, false, false]);
        run(&mut s, VOp::MaskSet { kind: MaskSetKind::Sif, md: 3, m: 2 });
        assert_eq!((0..6).map(|i| s.regs.get_mask(3, i)).collect::<Vec<_>>(),
                   vec![true, true, true, true, false, false]);
        run(&mut s, VOp::MaskSet { kind: MaskSetKind::Sof, md: 3, m: 2 });
        assert_eq!((0..6).map(|i| s.regs.get_mask(3, i)).collect::<Vec<_>>(),
                   vec![false, false, false, true, false, false]);
    }

    #[test]
    fn mask_set_with_empty_source() {
        use crate::instr::MaskSetKind;
        let mut s = st(4);
        run(&mut s, VOp::MaskSet { kind: MaskSetKind::Sbf, md: 3, m: 2 });
        assert!((0..4).all(|i| s.regs.get_mask(3, i)), "no set bit: sbf is all ones");
        run(&mut s, VOp::MaskSet { kind: MaskSetKind::Sof, md: 3, m: 2 });
        assert!((0..4).all(|i| !s.regs.get_mask(3, i)), "no set bit: sof is all zeros");
    }

    #[test]
    fn alias_safe_binary_op() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set(1, Sew::E64, i, i as u64 + 1);
        }
        // vd == x == y: vd[i] = x[i] + y[i] must read pre-write values.
        run(&mut s, VOp::ArithVV { kind: ArithKind::Add, vd: 1, x: 1, y: 1 });
        for i in 0..4 {
            assert_eq!(s.regs.get(1, Sew::E64, i), 2 * (i as u64 + 1));
        }
    }

    #[test]
    fn segment_load_deinterleaves_pairs() {
        let mut s = st(4);
        let mut mem = FlatMemory::new(256);
        // Interleaved (re, im) pairs.
        for i in 0..4u64 {
            mem.write_uint(i * 16, 8, 100 + i); // field 0
            mem.write_uint(i * 16 + 8, 8, 200 + i); // field 1
        }
        let info = exec(&VInst::new(VOp::SegLoad { vd: 2, base: 0, nf: 2 }), &mut s, &mut mem);
        assert!(info.unit_stride);
        assert_eq!(info.mem.len(), 8, "two fields per element");
        for i in 0..4 {
            assert_eq!(s.regs.get(2, Sew::E64, i), 100 + i as u64, "field 0 -> v2");
            assert_eq!(s.regs.get(3, Sew::E64, i), 200 + i as u64, "field 1 -> v3");
        }
    }

    #[test]
    fn segment_store_reinterleaves() {
        let mut s = st(3);
        let mut mem = FlatMemory::new(256);
        for i in 0..3 {
            s.regs.set(4, Sew::E64, i, 10 + i as u64);
            s.regs.set(5, Sew::E64, i, 20 + i as u64);
        }
        exec(&VInst::new(VOp::SegStore { vs: 4, base: 32, nf: 2 }), &mut s, &mut mem);
        for i in 0..3u64 {
            assert_eq!(mem.read_uint(32 + i * 16, 8), 10 + i);
            assert_eq!(mem.read_uint(32 + i * 16 + 8, 8), 20 + i);
        }
    }

    #[test]
    fn segment_roundtrip() {
        let mut s = st(8);
        let mut mem = FlatMemory::new(512);
        for i in 0..8 {
            s.regs.set(6, Sew::E64, i, i as u64 * 3);
            s.regs.set(7, Sew::E64, i, i as u64 * 7);
        }
        exec(&VInst::new(VOp::SegStore { vs: 6, base: 0, nf: 2 }), &mut s, &mut mem);
        exec(&VInst::new(VOp::SegLoad { vd: 10, base: 0, nf: 2 }), &mut s, &mut mem);
        for i in 0..8 {
            assert_eq!(s.regs.get(10, Sew::E64, i), i as u64 * 3);
            assert_eq!(s.regs.get(11, Sew::E64, i), i as u64 * 7);
        }
    }

    #[test]
    fn lmul_groups_span_registers() {
        // VLEN=2048 bits -> 32 f64 per register; LMUL=4 -> VL up to 128.
        let mut s = VState::new(2048);
        let vl = s.set_vl(100, Sew::E64, Lmul::M4);
        assert_eq!(vl, 100);
        let mut mem = FlatMemory::new(8 * 128);
        for i in 0..100u64 {
            mem.write_uint(i * 8, 8, 1000 + i);
        }
        // Load into group v8..v11, add a scalar, store from group v12..v15.
        exec(&VInst::new(VOp::Load { vd: 8, addr: MemAddr::Unit { base: 0 } }), &mut s, &mut mem);
        assert_eq!(s.regs.get(8, Sew::E64, 0), 1000);
        assert_eq!(s.regs.get(8, Sew::E64, 99), 1099, "element 99 lives in v11");
        assert_eq!(s.regs.get(11, Sew::E64, 3), 1099, "group indexing matches raw register");
        exec(
            &VInst::new(VOp::ArithVX { kind: ArithKind::Add, vd: 12, x: 8, scalar: 5 }),
            &mut s,
            &mut mem,
        );
        exec(&VInst::new(VOp::Store { vs: 12, addr: MemAddr::Unit { base: 0 } }), &mut s, &mut mem);
        for i in 0..100u64 {
            assert_eq!(mem.read_uint(i * 8, 8), 1005 + i);
        }
    }

    #[test]
    fn lmul_reduction_covers_whole_group() {
        let mut s = VState::new(2048);
        let vl = s.set_vl(64, Sew::E64, Lmul::M2);
        assert_eq!(vl, 64);
        let mut mem = FlatMemory::new(1);
        for i in 0..64 {
            s.regs.set(2, Sew::E64, i, 1); // group v2..v3
        }
        s.regs.set(6, Sew::E64, 0, 0);
        exec(&VInst::new(VOp::Red { kind: RedKind::Sum, vd: 8, x: 2, acc: 6 }), &mut s, &mut mem);
        assert_eq!(s.regs.get(8, Sew::E64, 0), 64);
    }

    #[test]
    fn memlist_merges_contiguous_and_expands_in_order() {
        let mut l = MemList::default();
        for i in 0..4u64 {
            l.push(MemAccess { addr: 100 + i * 8, size: 8, kind: MemAccessKind::Read });
        }
        assert_eq!(l.runs().len(), 1, "contiguous same-kind accesses coalesce");
        assert_eq!(l.len(), 4);
        l.push(MemAccess { addr: 500, size: 8, kind: MemAccessKind::Read });
        l.push(MemAccess { addr: 508, size: 8, kind: MemAccessKind::Write });
        assert_eq!(l.runs().len(), 3, "gap and kind change both break runs");
        assert_eq!(l.len(), 6);
        let flat: Vec<MemAccess> = l.iter().collect();
        assert_eq!(flat.len(), 6);
        for (i, a) in flat.iter().enumerate() {
            assert_eq!(*a, l.access(i), "iter and access agree at {i}");
        }
        assert_eq!(l.access(3).addr, 124);
        assert_eq!(l.access(4).addr, 500);
        assert_eq!(l.access(5).kind, MemAccessKind::Write);
    }

    #[test]
    fn memlist_strided_pushes_stay_separate() {
        let l: MemList = (0..5u64)
            .map(|i| MemAccess { addr: i * 24, size: 8, kind: MemAccessKind::Write })
            .collect();
        assert_eq!(l.len(), 5);
        assert_eq!(l.runs().len(), 5);
        assert_eq!(l.access(2).addr, 48);
    }

    #[test]
    fn memlist_push_run_merges_and_skips_empty() {
        let mut l = MemList::default();
        l.push_run(0, 8, 4, MemAccessKind::Read);
        l.push_run(32, 8, 4, MemAccessKind::Read);
        assert_eq!(l.runs().len(), 1, "adjacent runs merge");
        assert_eq!(l.len(), 8);
        l.push_run(96, 8, 0, MemAccessKind::Read);
        assert_eq!(l.len(), 8, "count 0 is a no-op");
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.runs().len(), 0);
    }

    #[test]
    fn exec_into_with_reused_scratch_matches_fresh_exec() {
        // Run a sequence of instructions twice: once with exec() (fresh
        // buffers each time) and once through a single reused scratch/info.
        // Register state, memory, and ExecInfo must match exactly.
        let prog = [
            VInst::new(VOp::Load { vd: 1, addr: MemAddr::Unit { base: 0 } }),
            VInst::new(VOp::ArithVX { kind: ArithKind::Add, vd: 2, x: 1, scalar: 5 }),
            VInst::masked(VOp::Load { vd: 3, addr: MemAddr::Strided { base: 8, stride: 16 } }),
            VInst::new(VOp::CmpVX { kind: CmpKind::Gtu, md: 4, x: 2, scalar: 108 }),
            VInst::new(VOp::Store { vs: 2, addr: MemAddr::Unit { base: 256 } }),
        ];
        let setup = || {
            let mut s = st(8);
            let mut mem = FlatMemory::new(1024);
            for i in 0..8 {
                mem.write_uint(i * 8, 8, 100 + i);
            }
            for i in 0..8 {
                s.regs.set_mask(0, i as usize, i % 2 == 0);
            }
            (s, mem)
        };
        let (mut s1, mut m1) = setup();
        let fresh: Vec<ExecInfo> = prog.iter().map(|i| exec(i, &mut s1, &mut m1)).collect();
        let (mut s2, mut m2) = setup();
        let mut scratch = ExecScratch::default();
        let mut info = ExecInfo::default();
        for (i, inst) in prog.iter().enumerate() {
            exec_into(inst, &mut s2, &mut m2, &mut scratch, &mut info);
            assert_eq!(info, fresh[i], "instruction {i}");
        }
        for r in 0..8u8 {
            for e in 0..8 {
                assert_eq!(s1.regs.get(r, Sew::E64, e), s2.regs.get(r, Sew::E64, e));
            }
        }
        assert_eq!(m1.read_uint(256 + 7 * 8, 8), m2.read_uint(256 + 7 * 8, 8));
    }

    #[test]
    fn bulk_unit_load_records_single_run() {
        let mut s = st(8);
        let mut mem = FlatMemory::new(1024);
        let info = exec(
            &VInst::new(VOp::Load { vd: 1, addr: MemAddr::Unit { base: 64 } }),
            &mut s,
            &mut mem,
        );
        assert_eq!(info.mem.len(), 8);
        assert_eq!(info.mem.runs().len(), 1);
        let r = info.mem.runs()[0];
        assert_eq!((r.addr, r.size, r.count, r.kind), (64, 8, 8, MemAccessKind::Read));
    }

    #[test]
    fn lmul_mask_bits_cover_group_length() {
        let mut s = VState::new(2048);
        s.set_vl(128, Sew::E64, Lmul::M4);
        let mut mem = FlatMemory::new(1);
        for i in 0..128 {
            s.regs.set(4, Sew::E64, i, i as u64);
        }
        exec(
            &VInst::new(VOp::CmpVX { kind: CmpKind::Gtu, md: 1, x: 4, scalar: 99 }),
            &mut s,
            &mut mem,
        );
        let info = exec(&VInst::new(VOp::Popc { m: 1 }), &mut s, &mut mem);
        assert_eq!(info.scalar, Some(28), "elements 100..127 exceed 99");
    }

    /// The FP reduction order is *pinned*: a strictly sequential left fold
    /// from the accumulator seed (vfredosum-style). Inputs chosen so any
    /// reassociation (pairwise tree, per-lane partial sums) changes the
    /// answer: catastrophic cancellation, -0.0 sign preservation, and NaN
    /// propagation.
    #[test]
    fn fp_reduction_order_is_pinned() {
        let fsum = |lanes: &[f64], seed: f64| -> u64 {
            let mut s = st(lanes.len());
            for (i, &v) in lanes.iter().enumerate() {
                s.regs.set(4, Sew::E64, i, v.to_bits());
            }
            s.regs.set(8, Sew::E64, 0, seed.to_bits());
            run(&mut s, VOp::Red { kind: RedKind::Fsum, vd: 20, x: 4, acc: 8 });
            s.regs.get(20, Sew::E64, 0)
        };
        // Catastrophic cancellation: 1e16 + 1.0 rounds 1.0 away, then the
        // -1e16 cancels to exactly 0.0. Any reordering yields 1.0 instead.
        let pinned = (((1e16_f64 + 1.0) + -1e16) + 2.0).to_bits();
        assert_eq!(pinned, 2.0f64.to_bits(), "the inputs must be order-sensitive");
        assert_eq!(fsum(&[1.0, -1e16, 2.0], 1e16), pinned, "fold order changed");
        // -0.0: (-0.0) + (-0.0) keeps the sign; a +0.0-identity partial sum
        // would lose it.
        assert_eq!(fsum(&[-0.0, -0.0], -0.0), (-0.0f64).to_bits(), "-0.0 sign lost");
        // NaN propagates through the fold.
        assert!(f64::from_bits(fsum(&[1.0, f64::NAN, 3.0], 0.0)).is_nan());
    }
}

#[cfg(test)]
mod differential {
    //! Differential tests: the batch backend behind [`exec_into`] against the
    //! naive per-element [`reference`] interpreter, swept over every op
    //! family × SEW × mask pattern × edge VLs. Equality is exact: the
    //! returned [`ExecInfo`] (including the memory trace), all 32 registers,
    //! and the full memory image must match bit for bit.

    use super::reference::exec_ref;
    use super::*;
    use crate::instr::MaskSetKind;
    use crate::mem::FlatMemory;
    use crate::vtype::Lmul;

    const MEM_SIZE: usize = 128 * 1024;
    const EDGE_VLS: [usize; 5] = [0, 1, 7, 255, 256];

    /// Deterministic byte filler (splitmix-style LCG on the seed).
    fn fill(buf: &mut [u8], mut seed: u64) {
        for b in buf.iter_mut() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (seed >> 33) as u8;
        }
    }

    /// A fully-random starting state: every register and every memory byte
    /// seeded, so undisturbed-element and tail behaviour can't hide behind
    /// zeroes.
    fn templates() -> (VState, FlatMemory) {
        let mut s = VState::paper_vpu();
        for r in 0..32u8 {
            fill(s.regs.reg_bytes_mut(r), 0x9e37_79b9_7f4a_7c15 ^ ((r as u64) << 8));
        }
        let mut m = FlatMemory::new(MEM_SIZE);
        let mut bytes = vec![0u8; MEM_SIZE];
        fill(&mut bytes, 0x0123_4567_89ab_cdef);
        m.write_bytes(0, &bytes);
        (s, m)
    }

    /// Mask patterns written into `v0` for the masked sweeps.
    #[derive(Clone, Copy, Debug)]
    enum MaskPat {
        Unmasked,
        Alternating,
        AllClear,
        AllSet,
        Random,
    }

    const ALL_PATS: [MaskPat; 5] = [
        MaskPat::Unmasked,
        MaskPat::Alternating,
        MaskPat::AllClear,
        MaskPat::AllSet,
        MaskPat::Random,
    ];

    impl MaskPat {
        fn masked(self) -> bool {
            !matches!(self, MaskPat::Unmasked)
        }

        fn bit(self, i: usize) -> bool {
            match self {
                MaskPat::Unmasked | MaskPat::AllSet => true,
                MaskPat::Alternating => i.is_multiple_of(2),
                MaskPat::AllClear => false,
                MaskPat::Random => (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 1,
            }
        }
    }

    /// The op catalog at one SEW. Register conventions: `v0` is the mask,
    /// `v4` holds controlled byte offsets for indexed addressing, and every
    /// destination is `>= 1` so masked runs never overwrite the mask
    /// register mid-instruction.
    fn catalog(sew: Sew) -> Vec<VOp> {
        use VOp::*;
        let fbits = |v: f64| -> u64 {
            match sew {
                Sew::E64 => v.to_bits(),
                Sew::E32 => (v as f32).to_bits() as u64,
                _ => unreachable!("FP ops are only catalogued at E32/E64"),
            }
        };
        let mut ops = vec![
            Load { vd: 6, addr: MemAddr::Unit { base: 4096 } },
            Store { vs: 6, addr: MemAddr::Unit { base: 4096 } },
            Load { vd: 6, addr: MemAddr::Strided { base: 4096, stride: 40 } },
            Store { vs: 6, addr: MemAddr::Strided { base: 4096, stride: 40 } },
            Load { vd: 6, addr: MemAddr::Strided { base: 4096, stride: 0 } },
            Store { vs: 6, addr: MemAddr::Strided { base: 65536, stride: 0 } },
            Load { vd: 6, addr: MemAddr::Strided { base: 65536, stride: -48 } },
            Store { vs: 6, addr: MemAddr::Strided { base: 65536, stride: -48 } },
            Load { vd: 6, addr: MemAddr::Indexed { base: 8192, index: 4 } },
            Store { vs: 6, addr: MemAddr::Indexed { base: 8192, index: 4 } },
            SegLoad { vd: 8, base: 32768, nf: 2 },
            SegStore { vs: 8, base: 32768, nf: 2 },
            SegLoad { vd: 8, base: 32768, nf: 3 },
            SegStore { vs: 8, base: 32768, nf: 3 },
            SegLoad { vd: 8, base: 32768, nf: 8 },
            SegStore { vs: 8, base: 32768, nf: 8 },
        ];
        for kind in [
            ArithKind::Add,
            ArithKind::Sub,
            ArithKind::Rsub,
            ArithKind::And,
            ArithKind::Or,
            ArithKind::Xor,
            ArithKind::Sll,
            ArithKind::Srl,
            ArithKind::Sra,
            ArithKind::Mul,
            ArithKind::Min,
            ArithKind::Max,
            ArithKind::Minu,
            ArithKind::Maxu,
        ] {
            ops.push(ArithVV { kind, vd: 1, x: 2, y: 3 });
            ops.push(ArithVX { kind, vd: 1, x: 2, scalar: 0x1234_5678_9abc_def0 });
        }
        ops.push(IMaccVV { vd: 1, x: 2, y: 3 });
        ops.push(SatAddU { vd: 1, x: 2, y: 3 });
        for kind in [
            CmpKind::Eq,
            CmpKind::Ne,
            CmpKind::Lt,
            CmpKind::Ltu,
            CmpKind::Le,
            CmpKind::Leu,
            CmpKind::Gt,
            CmpKind::Gtu,
        ] {
            ops.push(CmpVV { kind, md: 5, x: 2, y: 3 });
            ops.push(CmpVX { kind, md: 5, x: 2, scalar: 0x80 });
        }
        for kind in [MaskSetKind::Sbf, MaskSetKind::Sif, MaskSetKind::Sof] {
            ops.push(MaskSet { kind, md: 5, m: 6 });
        }
        for kind in [
            MaskKind::And,
            MaskKind::Or,
            MaskKind::Xor,
            MaskKind::AndNot,
            MaskKind::Nand,
            MaskKind::Nor,
        ] {
            ops.push(MaskOp { kind, md: 5, m1: 6, m2: 7 });
        }
        ops.push(Popc { m: 6 });
        ops.push(First { m: 6 });
        ops.push(Iota { vd: 1, m: 6 });
        ops.push(Id { vd: 1 });
        for kind in [RedKind::Sum, RedKind::Max, RedKind::Min, RedKind::Maxu] {
            ops.push(Red { kind, vd: 1, x: 2, acc: 3 });
        }
        for kind in [SlideKind::Up, SlideKind::Down] {
            for amount in [0u64, 1, 3, 300] {
                ops.push(Slide { kind, vd: 1, x: 2, amount });
            }
        }
        ops.push(Slide { kind: SlideKind::OneUp, vd: 1, x: 2, amount: 0x55aa });
        ops.push(Slide { kind: SlideKind::OneDown, vd: 1, x: 2, amount: 0x55aa });
        ops.push(Gather { vd: 1, x: 2, y: 3 });
        ops.push(Compress { vd: 1, x: 2, m: 6 });
        ops.push(Merge { vd: 1, x: 2, y: 3 });
        ops.push(MergeVX { vd: 1, scalar: 0xfeed, y: 3 });
        ops.push(Mv { vd: 1, x: 2 });
        ops.push(MvVX { vd: 1, scalar: 0xfeed_face });
        ops.push(MvSX { vd: 1, scalar: 0xfeed_face });
        ops.push(MvXS { x: 2 });
        // Destination aliasing a source: batch kernels snapshot operands, the
        // reference must agree.
        ops.push(ArithVV { kind: ArithKind::Add, vd: 2, x: 2, y: 2 });
        ops.push(Slide { kind: SlideKind::Up, vd: 2, x: 2, amount: 1 });
        ops.push(Slide { kind: SlideKind::Down, vd: 2, x: 2, amount: 1 });
        ops.push(Gather { vd: 2, x: 2, y: 2 });
        if sew.half().is_some() {
            for kind in [WidenKind::Addu, WidenKind::Subu, WidenKind::Mulu] {
                ops.push(WidenBin { kind, vd: 1, x: 2, y: 3 });
            }
            ops.push(NarrowSrl { vd: 1, x: 2, shamt: 3 });
            ops.push(Widen { vd: 1, x: 2 });
            ops.push(LoadWiden { vd: 6, addr: MemAddr::Unit { base: 4096 } });
            ops.push(LoadWiden { vd: 6, addr: MemAddr::Strided { base: 4096, stride: 40 } });
            ops.push(LoadWiden { vd: 6, addr: MemAddr::Indexed { base: 8192, index: 4 } });
        }
        if matches!(sew, Sew::E32 | Sew::E64) {
            for kind in [
                FArithKind::Fadd,
                FArithKind::Fsub,
                FArithKind::Frsub,
                FArithKind::Fmul,
                FArithKind::Fdiv,
                FArithKind::Fmin,
                FArithKind::Fmax,
                FArithKind::Fsgnj,
                FArithKind::Fsgnjn,
            ] {
                ops.push(FArithVV { kind, vd: 1, x: 2, y: 3 });
            }
            ops.push(FArithVF { kind: FArithKind::Fadd, vd: 1, x: 2, scalar: fbits(1.5) });
            ops.push(FArithVF { kind: FArithKind::Fmul, vd: 1, x: 2, scalar: fbits(-0.75) });
            for kind in [FUnaryKind::Fsqrt, FUnaryKind::Fneg, FUnaryKind::Fabs] {
                ops.push(FUnary { kind, vd: 1, x: 2 });
            }
            for kind in [FmaKind::Macc, FmaKind::Nmsac, FmaKind::Madd] {
                ops.push(FmaVV { kind, vd: 1, x: 2, y: 3 });
                ops.push(FmaVF { kind, vd: 1, scalar: fbits(2.5), y: 3 });
            }
            for kind in [CmpKind::Feq, CmpKind::Fne, CmpKind::Flt, CmpKind::Fle, CmpKind::Fgt] {
                ops.push(CmpVV { kind, md: 5, x: 2, y: 3 });
                ops.push(CmpVX { kind, md: 5, x: 2, scalar: fbits(0.5) });
            }
            for kind in [RedKind::Fsum, RedKind::Fmax, RedKind::Fmin] {
                ops.push(Red { kind, vd: 1, x: 2, acc: 3 });
            }
            for kind in [CvtKind::UToF, CvtKind::IToF, CvtKind::FToU, CvtKind::FToI] {
                ops.push(Cvt { kind, vd: 1, x: 2 });
            }
        }
        ops
    }

    /// Run one instruction through both backends from identical state and
    /// assert bit-exact agreement on trace, registers, and memory.
    fn run_case(op: &VOp, pat: MaskPat, sew: Sew, lmul: Lmul, vl: usize, st: &VState, mt: &FlatMemory) {
        let mut s1 = st.clone();
        let granted = s1.set_vl(vl, sew, lmul);
        assert_eq!(granted, vl, "test VL {vl} must be grantable at {sew:?}/{lmul:?}");
        for i in 0..vl {
            s1.regs.set_mask(0, i, pat.bit(i));
        }
        // Controlled byte offsets for indexed addressing: in-bounds at every
        // SEW (they truncate at E8/E16, which both backends must agree on),
        // unaligned on odd elements, colliding across elements.
        for i in 0..vl {
            let off = (((i * 37) % 512) * 8 + (i % 2) * 4) as u64;
            s1.regs.set(4, sew, i, off);
        }
        let mut m1 = mt.clone();
        let mut s2 = s1.clone();
        let mut m2 = m1.clone();
        let inst = VInst { op: op.clone(), masked: pat.masked() };
        let got = exec(&inst, &mut s1, &mut m1);
        let want = exec_ref(&inst, &mut s2, &mut m2);
        let ctx = format!("{op:?} pat={pat:?} sew={sew:?} lmul={lmul:?} vl={vl}");
        assert_eq!(got, want, "ExecInfo diverged: {ctx}");
        for r in 0..32u8 {
            assert_eq!(s1.regs.reg_bytes(r), s2.regs.reg_bytes(r), "v{r} diverged: {ctx}");
        }
        let mut b1 = vec![0u8; MEM_SIZE];
        let mut b2 = vec![0u8; MEM_SIZE];
        m1.read_bytes(0, &mut b1);
        m2.read_bytes(0, &mut b2);
        assert!(b1 == b2, "memory diverged: {ctx}");
    }

    fn sweep(sew: Sew) {
        let (st, mt) = templates();
        for op in catalog(sew) {
            for pat in ALL_PATS {
                for vl in EDGE_VLS {
                    run_case(&op, pat, sew, Lmul::M1, vl, &st, &mt);
                }
            }
        }
    }

    #[test]
    fn batch_matches_reference_e8() {
        sweep(Sew::E8);
    }

    #[test]
    fn batch_matches_reference_e16() {
        sweep(Sew::E16);
    }

    #[test]
    fn batch_matches_reference_e32() {
        sweep(Sew::E32);
    }

    #[test]
    fn batch_matches_reference_e64() {
        sweep(Sew::E64);
    }

    /// LMUL=4 register groups: element indices spill across registers and
    /// mask bits cover the whole group length.
    #[test]
    fn batch_matches_reference_at_lmul4() {
        let (st, mt) = templates();
        let ops = [
            VOp::Load { vd: 8, addr: MemAddr::Unit { base: 4096 } },
            VOp::Store { vs: 8, addr: MemAddr::Unit { base: 4096 } },
            VOp::Load { vd: 8, addr: MemAddr::Indexed { base: 8192, index: 4 } },
            VOp::ArithVV { kind: ArithKind::Add, vd: 8, x: 12, y: 16 },
            VOp::FmaVV { kind: FmaKind::Macc, vd: 8, x: 12, y: 16 },
            VOp::Red { kind: RedKind::Fsum, vd: 8, x: 12, acc: 16 },
            VOp::Slide { kind: SlideKind::Down, vd: 8, x: 12, amount: 5 },
            VOp::Gather { vd: 8, x: 12, y: 16 },
        ];
        for op in &ops {
            for pat in [MaskPat::Unmasked, MaskPat::Alternating, MaskPat::Random] {
                for vl in [1usize, 7, 1000, 1024] {
                    run_case(op, pat, Sew::E64, Lmul::M4, vl, &st, &mt);
                }
            }
        }
    }
}
