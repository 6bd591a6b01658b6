//! The timed platform: the FPGA-SDV machine.
//!
//! [`SdvMachine`] couples the functional RVV engine with the full timing
//! model (scalar core, VPU, mesh, L2HN banks, DRAM + knobs). Every `Vm` call
//! both computes the architectural result *and* advances simulated time, so
//! `rdcycle` behaves exactly like the hardware counter the paper reads.

use crate::memory::SimMemory;
use crate::vm::Vm;
use sdv_engine::{Cycle, Stats};
use sdv_rvv::{exec_into, ExecInfo, ExecScratch, Lmul, Sew, VInst, VState};
use sdv_uarch::op::classify_into;
use sdv_uarch::{Op, SdvTiming, TimingConfig, VClass, VectorOp};

/// The FPGA-SDV platform model.
pub struct SdvMachine {
    state: VState,
    mem: SimMemory,
    timing: SdvTiming,
    cfg: TimingConfig,
    line_bytes: u64,
    extra_latency_for_display: Cycle,
    /// Reusable execution buffers: no per-instruction heap traffic.
    scratch: ExecScratch,
    info: ExecInfo,
    /// Recycled line-address buffer for vector memory classification.
    lines_pool: Vec<u64>,
}

impl SdvMachine {
    /// The paper's machine: VLEN = 16384 bits (256 × f64), default timing.
    pub fn new(heap: usize) -> Self {
        Self::with_config(heap, TimingConfig::default())
    }

    /// A machine with custom timing parameters.
    pub fn with_config(heap: usize, cfg: TimingConfig) -> Self {
        let line_bytes = cfg.mem.l1.line_bytes;
        Self {
            state: VState::paper_vpu(),
            mem: SimMemory::new(heap),
            timing: SdvTiming::new(cfg),
            cfg,
            line_bytes,
            extra_latency_for_display: 0,
            scratch: ExecScratch::default(),
            info: ExecInfo::default(),
            lines_pool: Vec::new(),
        }
    }


    /// The timing configuration in effect.
    pub fn config(&self) -> &TimingConfig {
        &self.cfg
    }

    /// Attribution measurement mode: when on, every timing op is accepted
    /// and discarded, so the run's wall clock measures only the functional
    /// (exec + kernel driver) half of the machine. Cycle counts of a
    /// bypassed run are meaningless — `perf_baseline --breakdown` subtracts
    /// its wall time from a timed run's to attribute the difference to the
    /// timing model.
    pub fn set_timing_bypass(&mut self, on: bool) {
        self.timing.set_bypass(on);
    }

    /// Arm a wall-clock deadline for the current run: a cell still issuing
    /// ops `limit` from now latches a structured
    /// [`sdv_engine::SimError::DeadlineExceeded`] instead of running
    /// unbounded. Cleared by [`SdvMachine::reset_with_config`] — arm it per
    /// cell, after the reset. A deadline that does not fire never changes
    /// simulated cycles.
    pub fn set_wall_deadline(&mut self, limit: std::time::Duration) {
        self.timing.set_wall_deadline(limit);
    }

    /// Rewind this machine to the state `with_config(heap, cfg)` would build,
    /// reusing the large allocations (register file, simulated heap, exec
    /// scratch). Timing state is rebuilt from scratch — cycle counts of a
    /// reset machine are bit-identical to those of a fresh one.
    ///
    /// "From scratch" includes the hardening state: a latched fault
    /// (watchdog deadlock, cycle budget, wall-clock deadline) and any armed
    /// wall deadline die with the replaced timing model, so a machine that
    /// failed one cell simulates the next cleanly. The pooled-machine sweep
    /// workers rely on this — only a *panicking* cell forces them to discard
    /// a machine.
    pub fn reset_with_config(&mut self, cfg: TimingConfig) {
        self.state.reset();
        self.mem.reset();
        self.timing = SdvTiming::new(cfg);
        self.line_bytes = cfg.mem.l1.line_bytes;
        self.cfg = cfg;
        self.extra_latency_for_display = 0;
    }

    /// The paper's §2.2 knob: extra DRAM latency in cycles.
    pub fn set_extra_latency(&mut self, extra: Cycle) {
        self.extra_latency_for_display = extra;
        self.timing.set_extra_latency(extra);
    }

    /// The paper's §2.3 knob: DRAM bandwidth cap in bytes/cycle (1–64).
    pub fn set_bandwidth_limit(&mut self, bytes_per_cycle: u64) {
        self.timing.set_bandwidth_limit(bytes_per_cycle);
    }

    /// Raw `(num, den)` limiter programming (the register-level interface).
    pub fn set_bandwidth_fraction(&mut self, num: u32, den: u32) {
        self.timing.set_bandwidth_fraction(num, den);
    }

    /// Finish the program: drain all in-flight work, return final cycles.
    pub fn finish(&mut self) -> Cycle {
        self.timing.finish()
    }

    /// Finish the program, surfacing any failure the watchdog latched during
    /// the run and then running the end-of-run invariant audits. `Ok` carries
    /// the final cycle count; `Err` means the cycle numbers are meaningless.
    pub fn try_finish(&mut self) -> Result<Cycle, sdv_engine::SimError> {
        self.timing.try_finish()
    }

    /// The first structured failure latched by the watchdog, if any.
    pub fn fault(&self) -> Option<&sdv_engine::SimError> {
        self.timing.fault()
    }

    /// Merged statistics from every modelled component.
    pub fn stats(&self) -> Stats {
        self.timing.stats()
    }

    /// The collected timeline as Chrome `trace_event` JSON (empty unless the
    /// config's probe enables tracing).
    pub fn trace_json(&self) -> String {
        self.timing.trace_json()
    }

    /// A human-readable description of the instantiated platform — the
    /// textual equivalent of the paper's Figures 1 and 2 block diagrams.
    pub fn describe(&self) -> String {
        let c = &self.cfg;
        let vlen_bits = self.state.regs.vlen_bits();
        format!(
            "FPGA-SDV platform model\n\
               core   : in-order superscalar, {}-wide issue, {} MSHRs, run-ahead {} ops\n\
               L1D    : {} KiB, {}-way, {} B lines, {}-cycle hits (scalar side only)\n\
               VPU    : {} lanes, VLEN {} bits ({} x f64 per register), decoupling queue {},\n\
                        vector-memory window {} line requests (bypasses L1, coherent via home node)\n\
               NoC    : {}x{} mesh, {}-cycle routers, {} B links\n\
               L2HN   : {} banks x {} KiB ({}-way), MESI home node per bank, {}-cycle hits\n\
               DRAM   : {}-cycle service + latency controller (+{} cycles) + bandwidth limiter\n\
               knobs  : MAXVL CSR cap = {}, extra latency = {}, bandwidth fraction per paper §2.2-2.3",
            c.scalar.issue_width,
            c.scalar.max_outstanding_loads,
            c.scalar.runahead_window,
            c.mem.l1.size_bytes / 1024,
            c.mem.l1.ways,
            c.mem.l1.line_bytes,
            c.mem.l1_hit_latency,
            c.vpu.lanes,
            vlen_bits,
            vlen_bits / 64,
            c.vpu.queue_depth,
            c.vpu.vmem_outstanding,
            c.mem.mesh.width,
            c.mem.mesh.height,
            c.mem.mesh.router_latency,
            c.mem.mesh.flit_bytes,
            c.mem.num_banks,
            c.mem.l2_bank.size_bytes / 1024,
            c.mem.l2_bank.ways,
            c.mem.l2_hit_latency,
            c.mem.dram.service_latency,
            self.timing_extra_latency(),
            if self.state.maxvl_cap == usize::MAX {
                "none".to_string()
            } else {
                self.state.maxvl_cap.to_string()
            },
            self.timing_extra_latency(),
        )
    }

    fn timing_extra_latency(&self) -> Cycle {
        // The knob lives in the DRAM channel; surface it for display.
        self.extra_latency_for_display
    }

    /// Architectural vector state.
    pub fn state(&self) -> &VState {
        &self.state
    }
}

impl Vm for SdvMachine {
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
        self.timing.issue(&Op::Load { addr, size: 8 });
        self.mem.peek_f64(addr)
    }

    fn store_f64(&mut self, addr: u64, v: f64) {
        self.timing.issue(&Op::Store { addr, size: 8 });
        self.mem.poke_f64(addr, v);
    }

    fn load_u64(&mut self, addr: u64) -> u64 {
        self.timing.issue(&Op::Load { addr, size: 8 });
        self.mem.peek_u64(addr)
    }

    fn store_u64(&mut self, addr: u64, v: u64) {
        self.timing.issue(&Op::Store { addr, size: 8 });
        self.mem.poke_u64(addr, v);
    }

    fn load_u32(&mut self, addr: u64) -> u32 {
        self.timing.issue(&Op::Load { addr, size: 4 });
        self.mem.peek_u32(addr)
    }

    fn store_u32(&mut self, addr: u64, v: u32) {
        self.timing.issue(&Op::Store { addr, size: 4 });
        self.mem.poke_u32(addr, v);
    }

    fn int_ops(&mut self, n: u32) {
        if n > 0 {
            self.timing.issue(&Op::IntOps(n));
        }
    }

    fn fp_ops(&mut self, n: u32) {
        if n > 0 {
            self.timing.issue(&Op::FpOps(n));
        }
    }

    fn branch(&mut self, taken: bool) {
        self.timing.issue(&Op::Branch { taken });
    }

    fn setvl(&mut self, avl: usize, sew: Sew, lmul: Lmul) -> usize {
        let vl = self.state.set_vl(avl, sew, lmul);
        self.timing.issue(&Op::Vector(VectorOp {
            class: VClass::SetVl,
            vl,
            active: 0,
            mem: None,
            produces_scalar: false,
            is_fp: false,
        }));
        vl
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
        exec_into(&inst, &mut self.state, &mut self.mem, &mut self.scratch, &mut self.info);
        let vop = classify_into(&inst, &self.info, self.line_bytes, &mut self.lines_pool);
        let op = Op::Vector(vop);
        self.timing.issue(&op);
        // Reclaim the line buffer for the next memory instruction.
        if let Op::Vector(v) = op {
            if let Some(m) = v.mem {
                self.lines_pool = m.lines;
                self.lines_pool.clear();
            }
        }
        self.info.scalar
    }

    fn rdcycle(&mut self) -> u64 {
        self.timing.now()
    }

    fn fence(&mut self) {
        self.timing.issue(&Op::Sync);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_results_match_functional_machine() {
        use crate::functional::FunctionalMachine;
        let run = |vm: &mut dyn Vm| -> Vec<f64> {
            let src = vm.alloc(8 * 64, 64);
            let dst = vm.alloc(8 * 64, 64);
            for i in 0..64 {
                vm.mem_mut().poke_f64(src + 8 * i, (i as f64) * 0.5);
            }
            vm.setvl(64, Sew::E64, Lmul::M1);
            vm.vle(1, src);
            vm.vfmacc_vf(1, 3.0, 1); // v1 += 3*v1 => 4*v1
            vm.vse(1, dst);
            vm.mem().peek_f64_vec(dst, 64)
        };
        let mut f = FunctionalMachine::new(1 << 16);
        let mut t = SdvMachine::new(1 << 16);
        assert_eq!(run(&mut f), run(&mut t));
    }

    #[test]
    fn rdcycle_advances_with_work() {
        let mut m = SdvMachine::new(1 << 20);
        let a = m.alloc(8 * 1024, 64);
        let t0 = m.rdcycle();
        for i in 0..128 {
            m.load_f64(a + 8 * i);
        }
        m.fence();
        assert!(m.rdcycle() > t0);
    }

    #[test]
    fn knobs_change_measured_time() {
        let run = |extra: u64, bw: u64| {
            let mut m = SdvMachine::new(1 << 22);
            m.set_extra_latency(extra);
            m.set_bandwidth_limit(bw);
            let n = 4096u64;
            let a = m.alloc((n * 8) as usize, 64);
            m.setvl(256, Sew::E64, Lmul::M1);
            let mut off = 0;
            while off < n {
                m.vle(1, a + off * 8);
                off += 256;
            }
            m.finish()
        };
        let base = run(0, 64);
        let slow_lat = run(512, 64);
        let slow_bw = run(0, 1);
        assert!(slow_lat > base, "latency knob must cost: {slow_lat} vs {base}");
        assert!(slow_bw > base, "bandwidth knob must cost: {slow_bw} vs {base}");
    }

    #[test]
    fn maxvl_cap_limits_granted_vl() {
        let mut m = SdvMachine::new(1 << 16);
        m.set_maxvl_cap(16);
        assert_eq!(m.setvl(1000, Sew::E64, Lmul::M1), 16);
    }

    #[test]
    fn describe_reports_the_paper_topology() {
        let mut m = SdvMachine::new(1 << 16);
        m.set_maxvl_cap(64);
        m.set_extra_latency(128);
        let d = m.describe();
        assert!(d.contains("8 lanes"), "{d}");
        assert!(d.contains("VLEN 16384 bits"), "{d}");
        assert!(d.contains("2x2 mesh"), "{d}");
        assert!(d.contains("4 banks"), "{d}");
        assert!(d.contains("MAXVL CSR cap = 64"), "{d}");
        assert!(d.contains("+128"), "{d}");
    }

    #[test]
    fn try_finish_surfaces_injected_faults_and_passes_clean_runs() {
        use sdv_engine::{FaultKind, FaultPlan, SimError};
        use sdv_uarch::WatchdogConfig;
        let program = |m: &mut SdvMachine| {
            let n = 8192u64;
            let a = m.alloc((n * 8) as usize, 64);
            m.setvl(256, Sew::E64, Lmul::M1);
            let mut off = 0;
            while off < n {
                m.vle(1, a + off * 8);
                off += 256;
            }
            m.try_finish()
        };
        let mut clean = SdvMachine::with_config(
            1 << 22,
            TimingConfig { watchdog: WatchdogConfig::default_on(), ..TimingConfig::default() },
        );
        program(&mut clean).expect("clean run passes");
        let mut faulty = SdvMachine::with_config(
            1 << 22,
            TimingConfig {
                watchdog: WatchdogConfig::default_on(),
                fault: FaultPlan::new(FaultKind::StallBank, 6),
                ..TimingConfig::default()
            },
        );
        let e = program(&mut faulty).expect_err("the stalled bank must surface");
        assert!(matches!(e, SimError::Deadlock { .. }), "{e}");
        assert!(faulty.fault().is_some());
    }

    #[test]
    fn reset_clears_latched_deadline_and_armed_wall() {
        use sdv_engine::SimError;
        let cfg = TimingConfig::default();
        // Enough scalar ops to cross the deadline's check stride (2^14 ops)
        // several times, so a zero deadline is guaranteed to latch.
        let program = |m: &mut SdvMachine| {
            let a = m.alloc(64, 64);
            for _ in 0..100_000u64 {
                m.load_f64(a);
            }
        };
        let mut fresh = SdvMachine::with_config(1 << 22, cfg);
        program(&mut fresh);
        let clean = fresh.try_finish().expect("no deadline armed");

        let mut m = SdvMachine::with_config(1 << 22, cfg);
        m.set_wall_deadline(std::time::Duration::ZERO);
        program(&mut m);
        let e = m.try_finish().expect_err("a zero deadline fires on the first op");
        assert!(matches!(e, SimError::DeadlineExceeded { .. }), "{e}");
        assert!(m.fault().is_some());

        // The reset must clear both the latched fault and the armed deadline:
        // the next cell on this machine runs clean and bit-identical.
        m.reset_with_config(cfg);
        assert!(m.fault().is_none(), "reset must clear the latched fault");
        program(&mut m);
        assert_eq!(m.try_finish().expect("deadline must not survive reset"), clean);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut m = SdvMachine::new(1 << 16);
        let a = m.alloc(64, 64);
        m.load_f64(a);
        let t1 = m.finish();
        let t2 = m.finish();
        assert_eq!(t1, t2);
    }
}
