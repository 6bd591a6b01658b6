//! The traced run's span recorder and the `Vm`-forwarding wrapper that
//! counts and times a kernel driver's calls into the machine.
//!
//! Spans are recorded from benchmark code around calls into the crates'
//! public functions (no tracing inside the crates). They are kept in memory
//! and written out once, at exit, as JSON lines. Individual `Vm` calls are
//! too many to span (tens of millions per paper cell); the wrapper keeps a
//! count and a time per call class instead, attached to the driver span.

use sdv_core::{SimMemory, Vm};
use sdv_rvv::{Lmul, Sew, VInst};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    /// The cell the span worked on, when it worked on one.
    pub cell: Option<String>,
}

/// All spans of a run, in start order of their ids.
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record a finished interval; returns its id.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        cell: Option<String>,
    ) -> usize {
        let mut v = self
            .spans
            .lock()
            .expect("no panics while holding the span lock");
        v.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
            cell,
        });
        v.len() - 1
    }

    /// Open a span whose children are recorded before it ends: reserves the
    /// id now, [`Spans::close`] sets the end.
    pub fn open(&self, name: &str, parent: Option<usize>, cell: Option<String>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, cell)
    }

    pub fn close(&self, id: usize) {
        self.spans
            .lock()
            .expect("no panics while holding the span lock")[id]
            .end = Instant::now();
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        cell: Option<String>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(name, start, end, parent, cell);
        (r, (end - start).as_secs_f64())
    }

    /// Write the spans as JSON lines; returns how many.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self
            .spans
            .lock()
            .expect("no panics while holding the span lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = s
                .cell
                .as_ref()
                .map_or("null".to_string(), |c| format!("\"{c}\""));
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"cell\": {cell}}}",
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// `Vm` call classes the wrapper separates.
pub const CLASSES: [&str; 4] = ["exec_v", "scalar_mem", "scalar_alu", "setvl_fence"];
const EXEC: usize = 0;
const MEM: usize = 1;
const ALU: usize = 2;
const CTL: usize = 3;

/// Calls and nanoseconds per class.
#[derive(Default, Clone, Copy)]
pub struct VmCounts {
    pub calls: [u64; 4],
    pub ns: [u64; 4],
}

impl VmCounts {
    pub fn add(&mut self, o: &VmCounts) {
        for i in 0..4 {
            self.calls[i] += o.calls[i];
            self.ns[i] += o.ns[i];
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Forwards every `Vm` call to the wrapped machine, counting and timing
/// the calls a kernel driver makes. Memory-map accessors and `alloc` are
/// forwarded untimed: they are set-up, not the driver's work.
pub struct Counted<'a, M: Vm> {
    pub m: &'a mut M,
    pub counts: VmCounts,
}

impl<'a, M: Vm> Counted<'a, M> {
    pub fn new(m: &'a mut M) -> Self {
        Self {
            m,
            counts: VmCounts::default(),
        }
    }

    #[inline(always)]
    fn timed<R>(&mut self, class: usize, f: impl FnOnce(&mut M) -> R) -> R {
        let t = Instant::now();
        let r = f(self.m);
        self.counts.ns[class] += t.elapsed().as_nanos() as u64;
        self.counts.calls[class] += 1;
        r
    }
}

impl<M: Vm> Vm for Counted<'_, M> {
    fn alloc(&mut self, bytes: usize, align: usize) -> u64 {
        self.m.alloc(bytes, align)
    }
    fn mem(&self) -> &SimMemory {
        self.m.mem()
    }
    fn mem_mut(&mut self) -> &mut SimMemory {
        self.m.mem_mut()
    }
    fn load_f64(&mut self, addr: u64) -> f64 {
        self.timed(MEM, |m| m.load_f64(addr))
    }
    fn store_f64(&mut self, addr: u64, v: f64) {
        self.timed(MEM, |m| m.store_f64(addr, v))
    }
    fn load_u64(&mut self, addr: u64) -> u64 {
        self.timed(MEM, |m| m.load_u64(addr))
    }
    fn store_u64(&mut self, addr: u64, v: u64) {
        self.timed(MEM, |m| m.store_u64(addr, v))
    }
    fn load_u32(&mut self, addr: u64) -> u32 {
        self.timed(MEM, |m| m.load_u32(addr))
    }
    fn store_u32(&mut self, addr: u64, v: u32) {
        self.timed(MEM, |m| m.store_u32(addr, v))
    }
    fn int_ops(&mut self, n: u32) {
        self.timed(ALU, |m| m.int_ops(n))
    }
    fn fp_ops(&mut self, n: u32) {
        self.timed(ALU, |m| m.fp_ops(n))
    }
    fn branch(&mut self, taken: bool) {
        self.timed(ALU, |m| m.branch(taken))
    }
    fn setvl(&mut self, avl: usize, sew: Sew, lmul: Lmul) -> usize {
        self.timed(CTL, |m| m.setvl(avl, sew, lmul))
    }
    fn vl(&self) -> usize {
        self.m.vl()
    }
    fn maxvl(&self, sew: Sew) -> usize {
        self.m.maxvl(sew)
    }
    fn set_maxvl_cap(&mut self, cap: usize) {
        self.m.set_maxvl_cap(cap)
    }
    fn exec_v(&mut self, inst: VInst) -> Option<u64> {
        self.timed(EXEC, |m| m.exec_v(inst))
    }
    fn rdcycle(&mut self) -> u64 {
        self.timed(CTL, |m| m.rdcycle())
    }
    fn fence(&mut self) {
        self.timed(CTL, |m| m.fence())
    }
}
