//! The functional (untimed) machine.
//!
//! Computes exactly the same architectural results as the timed platform but
//! skips the microarchitecture, so kernel correctness tests run fast. The
//! cycle counter reports retired trace-ops instead of cycles.

use crate::memory::SimMemory;
use crate::vm::Vm;
use sdv_engine::Stats;
use sdv_rvv::{exec_into, ExecInfo, ExecScratch, Lmul, Sew, VInst, VState};

/// A machine with architectural state only.
pub struct FunctionalMachine {
    state: VState,
    mem: SimMemory,
    ops: u64,
    stats: Stats,
    scratch: ExecScratch,
    info: ExecInfo,
}

impl FunctionalMachine {
    /// A machine with the paper's VPU (VLEN = 16384 bits) and `heap` bytes of
    /// simulated memory.
    pub fn new(heap: usize) -> Self {
        Self {
            state: VState::paper_vpu(),
            mem: SimMemory::new(heap),
            ops: 0,
            stats: Stats::new(),
            scratch: ExecScratch::default(),
            info: ExecInfo::default(),
        }
    }

    /// A machine with a custom VLEN in bits.
    pub fn with_vlen(vlen_bits: usize, heap: usize) -> Self {
        Self {
            state: VState::new(vlen_bits),
            mem: SimMemory::new(heap),
            ops: 0,
            stats: Stats::new(),
            scratch: ExecScratch::default(),
            info: ExecInfo::default(),
        }
    }

    /// Architectural vector state (tests poke registers directly).
    pub fn state(&self) -> &VState {
        &self.state
    }

    /// Mutable architectural vector state.
    pub fn state_mut(&mut self) -> &mut VState {
        &mut self.state
    }

    /// Retired trace-op count.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Per-category op statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }
}

impl Vm for FunctionalMachine {
    fn alloc(&mut self, bytes: usize, align: usize) -> u64 {
        self.mem.alloc(bytes, align)
    }

    fn mem(&self) -> &SimMemory {
        &self.mem
    }

    fn mem_mut(&mut self) -> &mut SimMemory {
        &mut self.mem
    }

    fn load_f64(&mut self, addr: u64) -> f64 {
        self.ops += 1;
        self.stats.inc("func.loads");
        self.mem.peek_f64(addr)
    }

    fn store_f64(&mut self, addr: u64, v: f64) {
        self.ops += 1;
        self.stats.inc("func.stores");
        self.mem.poke_f64(addr, v);
    }

    fn load_u64(&mut self, addr: u64) -> u64 {
        self.ops += 1;
        self.stats.inc("func.loads");
        self.mem.peek_u64(addr)
    }

    fn store_u64(&mut self, addr: u64, v: u64) {
        self.ops += 1;
        self.stats.inc("func.stores");
        self.mem.poke_u64(addr, v);
    }

    fn load_u32(&mut self, addr: u64) -> u32 {
        self.ops += 1;
        self.stats.inc("func.loads");
        self.mem.peek_u32(addr)
    }

    fn store_u32(&mut self, addr: u64, v: u32) {
        self.ops += 1;
        self.stats.inc("func.stores");
        self.mem.poke_u32(addr, v);
    }

    fn int_ops(&mut self, n: u32) {
        self.ops += n as u64;
    }

    fn fp_ops(&mut self, n: u32) {
        self.ops += n as u64;
    }

    fn branch(&mut self, _taken: bool) {
        self.ops += 1;
        self.stats.inc("func.branches");
    }

    fn setvl(&mut self, avl: usize, sew: Sew, lmul: Lmul) -> usize {
        self.ops += 1;
        self.state.set_vl(avl, sew, lmul)
    }

    fn vl(&self) -> usize {
        self.state.vl
    }

    fn maxvl(&self, sew: Sew) -> usize {
        (self.state.regs.vlen_bits() / sew.bits()).min(self.state.maxvl_cap)
    }

    fn set_maxvl_cap(&mut self, cap: usize) {
        self.state.set_maxvl_cap(cap);
    }

    fn exec_v(&mut self, inst: VInst) -> Option<u64> {
        self.ops += 1;
        self.stats.inc("func.vector_instrs");
        exec_into(&inst, &mut self.state, &mut self.mem, &mut self.scratch, &mut self.info);
        self.stats.add("func.vector_elems", self.info.active as u64);
        self.info.scalar
    }

    fn rdcycle(&mut self) -> u64 {
        self.ops
    }

    fn fence(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setvl_and_maxvl_cap() {
        let mut m = FunctionalMachine::new(1 << 16);
        assert_eq!(m.setvl(10_000, Sew::E64, Lmul::M1), 256);
        m.set_maxvl_cap(32);
        assert_eq!(m.setvl(10_000, Sew::E64, Lmul::M1), 32);
        assert_eq!(m.maxvl(Sew::E64), 32);
    }

    #[test]
    fn vector_roundtrip_through_memory() {
        let mut m = FunctionalMachine::new(1 << 16);
        let src = m.alloc(8 * 16, 64);
        let dst = m.alloc(8 * 16, 64);
        for i in 0..16 {
            m.mem_mut().poke_f64(src + 8 * i, i as f64);
        }
        m.setvl(16, Sew::E64, Lmul::M1);
        m.vle(1, src);
        m.vfmul_vf(2, 1, 2.0);
        m.vse(2, dst);
        for i in 0..16 {
            assert_eq!(m.mem().peek_f64(dst + 8 * i), 2.0 * i as f64);
        }
    }

    #[test]
    fn intrinsic_scalar_results() {
        let mut m = FunctionalMachine::new(1 << 16);
        m.setvl(8, Sew::E64, Lmul::M1);
        m.vid(1);
        m.vmsltu_vx(2, 1, 3); // elements 0,1,2
        assert_eq!(m.vpopc(2), 3);
        assert_eq!(m.vfirst(2), 0);
        m.vmnot(3, 2);
        assert_eq!(m.vfirst(3), 3);
    }

    #[test]
    fn reduction_via_intrinsics() {
        let mut m = FunctionalMachine::new(1 << 16);
        m.setvl(8, Sew::E64, Lmul::M1);
        m.vid(1);
        m.vfcvt_f_xu(2, 1); // 0..7 as f64
        m.vfmv_sf(3, 0.0);
        m.vfredsum(4, 2, 3);
        assert_eq!(m.vfmv_fs(4), 28.0);
    }

    #[test]
    fn rdcycle_counts_ops() {
        let mut m = FunctionalMachine::new(1 << 16);
        let t0 = m.rdcycle();
        m.int_ops(5);
        m.branch(true);
        assert_eq!(m.rdcycle() - t0, 6);
    }

    #[test]
    fn scalar_accessors_are_functional() {
        let mut m = FunctionalMachine::new(1 << 16);
        let a = m.alloc(64, 64);
        m.store_f64(a, 1.5);
        assert_eq!(m.load_f64(a), 1.5);
        m.store_u32(a + 8, 77);
        assert_eq!(m.load_u32(a + 8), 77);
        m.store_u64(a + 16, u64::MAX);
        assert_eq!(m.load_u64(a + 16), u64::MAX);
    }
}
