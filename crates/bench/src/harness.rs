//! The experiment runner.

use crate::cache::{CacheKey, ResultCache};
use sdv_core::{SdvMachine, TiledMachine, Vm};
use sdv_engine::{SimError, StableHash, Stats};
use sdv_rvv::Backend;
use sdv_kernels::fft::{self, Complexes};
use sdv_kernels::{bfs, pagerank, spmv, CsrMatrix, Graph, SellCS};
use sdv_uarch::TimingConfig;

/// Which kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Sparse matrix-vector multiplication (CAGE10-scale input).
    Spmv,
    /// Breadth-first search (2^15-node graph).
    Bfs,
    /// PageRank (2^15-node graph).
    Pr,
    /// 2048-point FFT.
    Fft,
}

impl KernelKind {
    /// All four, in the paper's order.
    pub fn all() -> [KernelKind; 4] {
        [KernelKind::Spmv, KernelKind::Bfs, KernelKind::Pr, KernelKind::Fft]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Spmv => "SPMV",
            KernelKind::Bfs => "BFS",
            KernelKind::Pr => "PR",
            KernelKind::Fft => "FFT",
        }
    }
}

impl std::str::FromStr for KernelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "SPMV" => Ok(KernelKind::Spmv),
            "BFS" => Ok(KernelKind::Bfs),
            "PR" => Ok(KernelKind::Pr),
            "FFT" => Ok(KernelKind::Fft),
            other => Err(format!("unknown kernel '{other}' (expected SPMV, BFS, PR, or FFT)")),
        }
    }
}

/// Which implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplKind {
    /// The scalar baseline.
    Scalar,
    /// The vector implementation with the MAXVL CSR capped at `maxvl`.
    Vector {
        /// Maximum vector length in double-precision elements (8..=256).
        maxvl: usize,
    },
}

impl ImplKind {
    /// The paper's implementation set: scalar + VL ∈ {8,16,32,64,128,256}.
    pub fn paper_set() -> Vec<ImplKind> {
        let mut v = vec![ImplKind::Scalar];
        for vl in [8, 16, 32, 64, 128, 256] {
            v.push(ImplKind::Vector { maxvl: vl });
        }
        v
    }

}

/// Column label: `scalar` or `vl=N`. Formats straight into the output
/// stream — no intermediate `String` per cell like the old `label()`.
impl std::fmt::Display for ImplKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImplKind::Scalar => f.write_str("scalar"),
            ImplKind::Vector { maxvl } => write!(f, "vl={maxvl}"),
        }
    }
}

/// Inverse of the `Display` labels: `scalar` or `vl=N`.
impl std::str::FromStr for ImplKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "scalar" {
            return Ok(ImplKind::Scalar);
        }
        if let Some(n) = s.strip_prefix("vl=") {
            let maxvl: usize = n
                .parse()
                .map_err(|_| format!("bad implementation label '{s}': 'vl=' needs a number"))?;
            if maxvl == 0 {
                return Err(format!("bad implementation label '{s}': vl must be positive"));
            }
            return Ok(ImplKind::Vector { maxvl });
        }
        Err(format!("unknown implementation label '{s}' (expected 'scalar' or 'vl=N')"))
    }
}

/// The paper's workloads, built once.
pub struct Workloads {
    /// The SpMV matrix (CAGE10-like).
    pub mat: CsrMatrix,
    /// Its SELL-C-σ form (C = 256, full σ).
    pub sell: SellCS,
    /// The graph for BFS/PR.
    pub graph: Graph,
    /// The FFT input signal.
    pub signal: Complexes,
    /// BFS source vertex.
    pub bfs_src: usize,
    /// PageRank iterations (the paper runs a fixed-iteration PR; we default
    /// to 5 to keep full sweeps tractable — relative behaviour is
    /// iteration-count independent).
    pub pr_iters: usize,
    /// Simulated heap per machine.
    pub heap: usize,
}

impl Workloads {
    /// Full paper-scale inputs: CAGE10-scale matrix (n = 11397), 2^15-node
    /// graph at average degree 16, 2048-point FFT.
    pub fn paper() -> Self {
        let mat = CsrMatrix::cage10_scale(0xCA6E);
        // σ = C: sort rows only within slice windows, preserving the
        // matrix's banded locality for the x-gathers (as Gómez et al. do).
        let sell = SellCS::from_csr(&mat, 256, 256);
        Self {
            graph: Graph::paper_graph(0x6AF),
            signal: fft::test_signal(2048),
            mat,
            sell,
            bfs_src: 0,
            pr_iters: 5,
            heap: 256 << 20,
        }
    }

    /// Reduced inputs for CI / smoke tests.
    pub fn small() -> Self {
        let mat = CsrMatrix::cage_like(1200, 0xCA6E);
        let sell = SellCS::from_csr(&mat, 256, 256);
        Self {
            graph: Graph::uniform(1 << 11, 16, 0x6AF),
            signal: fft::test_signal(512),
            mat,
            sell,
            bfs_src: 0,
            pr_iters: 3,
            heap: 96 << 20,
        }
    }

    /// A 32-hex content fingerprint of every input a cycle count depends on.
    ///
    /// This is the workload half of the persistent cache key, and what the
    /// `sweepd` protocol compares to prove client and server built the same
    /// inputs. It hashes the actual data — matrix structure and values,
    /// SELL-C-σ layout, graph adjacency, FFT signal — not the generator
    /// seeds, so any change to workload construction is key-visible. The
    /// struct is exhaustively destructured: adding an input field without
    /// fingerprinting it is a compile error.
    pub fn fingerprint(&self) -> String {
        let Workloads { mat, sell, graph, signal, bfs_src, pr_iters, heap } = self;
        let mut h = StableHash::new();
        let CsrMatrix { nrows, ncols, row_ptr, col_idx, vals } = mat;
        h.u64(*nrows as u64);
        h.u64(*ncols as u64);
        h.u32s(row_ptr);
        h.u32s(col_idx);
        h.f64s(vals);
        let SellCS { c, nrows, perm, slice_ptr, slice_width, cols, vals } = sell;
        h.u64(*c as u64);
        h.u64(*nrows as u64);
        h.u32s(perm);
        h.u64s(slice_ptr);
        h.u32s(slice_width);
        h.u32s(cols);
        h.f64s(vals);
        let Graph { n, row_ptr, adj } = graph;
        h.u64(*n as u64);
        h.u32s(row_ptr);
        h.u32s(adj);
        h.f64s(&signal.0);
        h.f64s(&signal.1);
        h.u64(*bfs_src as u64);
        h.u64(*pr_iters as u64);
        h.u64(*heap as u64);
        h.finish_hex()
    }
}

/// One grid cell: what to run and under which knob settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Kernel.
    pub kernel: KernelKind,
    /// Implementation.
    pub imp: ImplKind,
    /// Extra DRAM latency in cycles (§2.2 knob).
    pub extra_latency: u64,
    /// DRAM bandwidth cap in bytes/cycle (§2.3 knob), 64 = unthrottled.
    pub bandwidth: u64,
}

/// The outcome of one cell.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The cell that produced this result.
    pub cell: Cell,
    /// Measured cycles (the paper's hardware counter).
    pub cycles: u64,
    /// Component statistics for deeper analysis.
    pub stats: Stats,
}

/// How one grid cell ended: a measured result, or a structured failure
/// (watchdog deadlock, budget exhaustion, invariant violation, or an
/// isolated panic). Failed cells never abort the rest of a grid.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell ran to completion and passed the end-of-run audits.
    Done(RunResult),
    /// The cell failed; the error says how and carries the diagnostic.
    Failed {
        /// The cell that failed.
        cell: Cell,
        /// The structured failure.
        error: SimError,
    },
}

impl CellOutcome {
    /// The cell this outcome belongs to.
    pub fn cell(&self) -> Cell {
        match self {
            CellOutcome::Done(r) => r.cell,
            CellOutcome::Failed { cell, .. } => *cell,
        }
    }

    /// Measured cycles, when the cell completed.
    pub fn cycles(&self) -> Option<u64> {
        match self {
            CellOutcome::Done(r) => Some(r.cycles),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Whether the cell completed.
    pub fn is_done(&self) -> bool {
        matches!(self, CellOutcome::Done(_))
    }

    /// The failure, when the cell failed.
    pub fn error(&self) -> Option<&SimError> {
        match self {
            CellOutcome::Done(_) => None,
            CellOutcome::Failed { error, .. } => Some(error),
        }
    }
}

/// Run one cell on a fresh machine with the given timing configuration.
pub fn run_with_config(w: &Workloads, cell: Cell, cfg: TimingConfig) -> RunResult {
    let mut m = SdvMachine::with_config(w.heap, cfg);
    run_on(&mut m, w, cell, cfg)
}

/// [`run_with_config`] through an optional result cache: consults the
/// context first, simulates and stores on a miss, and passes straight
/// through when no cache was requested. Failures (which panic here, as in
/// [`run_with_config`]) are never cached.
pub fn run_with_config_cached(
    w: &Workloads,
    cell: Cell,
    cfg: TimingConfig,
    ctx: Option<&crate::cache::CacheContext>,
) -> RunResult {
    let Some(ctx) = ctx else { return run_with_config(w, cell, cfg) };
    let key = ctx.cell_key(cell, &cfg);
    if let Some(hit) = ctx.cache().load(&key) {
        return RunResult { cell, cycles: hit.cycles, stats: hit.stats };
    }
    let r = run_with_config(w, cell, cfg);
    ctx.cache().store(&key, r.cycles, &r.stats);
    r
}

/// Fallible variant of [`run_with_config`]: surfaces watchdog and audit
/// failures instead of panicking.
pub fn try_run_with_config(
    w: &Workloads,
    cell: Cell,
    cfg: TimingConfig,
) -> Result<RunResult, SimError> {
    if cfg.mem.tiles > 1 {
        // Dispatch before building any machine: an over-capacity topology
        // must come back as a structured error, not a constructor panic.
        return try_run_tiled(w, cell, cfg, None);
    }
    let mut m = SdvMachine::with_config(w.heap, cfg);
    try_run_on(&mut m, w, cell, cfg)
}

/// Run one cell on a pooled machine: rewinds it to the fresh state (keeping
/// its allocations), then runs the kernel. Cycle counts are bit-identical to
/// [`run_with_config`] on a brand-new machine.
fn run_on(m: &mut SdvMachine, w: &Workloads, cell: Cell, cfg: TimingConfig) -> RunResult {
    try_run_on(m, w, cell, cfg)
        .unwrap_or_else(|e| panic!("cell {}/{} failed: {e}", cell.kernel.name(), cell.imp))
}

/// Fallible pooled-machine run: the kernel always executes to completion
/// (its control flow depends only on functional state), then any latched
/// watchdog failure or audit violation is surfaced.
fn try_run_on(
    m: &mut SdvMachine,
    w: &Workloads,
    cell: Cell,
    cfg: TimingConfig,
) -> Result<RunResult, SimError> {
    try_run_on_walled(m, w, cell, cfg, None)
}

/// [`try_run_on`] with an optional wall-clock deadline armed for this cell.
/// The deadline is host-speed dependent, so it lives outside [`TimingConfig`]
/// (it must never reach a cache key or the client/server identity check);
/// `sweepd` arms it per cell to convert runaway work into a structured
/// [`SimError::DeadlineExceeded`] failure instead of a wedged worker.
fn try_run_on_walled(
    m: &mut SdvMachine,
    w: &Workloads,
    cell: Cell,
    cfg: TimingConfig,
    wall: Option<std::time::Duration>,
) -> Result<RunResult, SimError> {
    if cfg.mem.tiles > 1 {
        return try_run_tiled(w, cell, cfg, wall);
    }
    m.reset_with_config(cfg);
    if let Some(limit) = wall {
        m.set_wall_deadline(limit);
    }
    m.set_extra_latency(cell.extra_latency);
    m.set_bandwidth_limit(cell.bandwidth);
    if let ImplKind::Vector { maxvl } = cell.imp {
        m.set_maxvl_cap(maxvl);
    }
    drive_kernel(m, w, cell);
    let cycles = m.try_finish()?;
    Ok(RunResult { cell, cycles, stats: m.stats() })
}

/// Multi-tile variant of [`try_run_on_walled`]: runs the cell on a fresh
/// [`TiledMachine`] partitioned across `cfg.mem.tiles` core+VPU tiles.
///
/// Tiled machines are not pooled: the capture/replay traces and per-tile
/// architectural states make rewind-in-place subtle, and multi-tile sweeps
/// are dominated by simulation time, not construction. A fresh machine per
/// cell also guarantees cross-run bit-identity by construction.
///
/// Only the vector implementations of SpMV, BFS, and PageRank have
/// partitioned drivers; scalar cells and FFT come back as structured
/// [`SimError::BadInput`] failures rather than silently running one tile.
fn try_run_tiled(
    w: &Workloads,
    cell: Cell,
    cfg: TimingConfig,
    wall: Option<std::time::Duration>,
) -> Result<RunResult, SimError> {
    // Validate the highest requestor id this topology will mint *before*
    // MemHierarchy::new can panic on an oversized directory mask.
    sdv_memsys::requestor_id(2 * cfg.mem.tiles - 1)?;
    let maxvl = match (cell.kernel, cell.imp) {
        (KernelKind::Fft, _) => {
            return Err(SimError::BadInput {
                what: format!("{} has no partitioned multi-tile driver", cell.kernel.name()),
            });
        }
        (_, ImplKind::Scalar) => {
            return Err(SimError::BadInput {
                what: "scalar implementations have no partitioned multi-tile driver".to_string(),
            });
        }
        (_, ImplKind::Vector { maxvl }) => maxvl,
    };
    let mut m = TiledMachine::with_config(w.heap, cfg);
    if let Some(limit) = wall {
        m.set_wall_deadline(limit);
    }
    m.set_extra_latency(cell.extra_latency);
    m.set_bandwidth_limit(cell.bandwidth);
    m.set_maxvl_cap(maxvl);
    match cell.kernel {
        KernelKind::Spmv => {
            let dev = spmv::setup_spmv(&mut m.vm(0), &w.mat, &w.sell);
            sdv_kernels::spmv_vector_sell_tiled(&mut m, &dev);
        }
        KernelKind::Bfs => {
            let dev = bfs::setup_bfs(&mut m.vm(0), &w.graph, 256, w.bfs_src);
            sdv_kernels::bfs_vector_tiled(&mut m, &dev);
        }
        KernelKind::Pr => {
            let dev = pagerank::setup_pagerank(&mut m.vm(0), &w.graph, 256, 0.85, w.pr_iters);
            sdv_kernels::pagerank_vector_tiled(&mut m, &dev);
        }
        KernelKind::Fft => unreachable!("rejected above"),
    }
    let cycles = m.try_finish()?;
    Ok(RunResult { cell, cycles, stats: m.stats() })
}

/// Dispatch one cell's kernel onto a configured machine.
fn drive_kernel(m: &mut SdvMachine, w: &Workloads, cell: Cell) {
    match (cell.kernel, cell.imp) {
        (KernelKind::Spmv, ImplKind::Scalar) => {
            let dev = spmv::setup_spmv(m, &w.mat, &w.sell);
            spmv::spmv_scalar(m, &dev);
        }
        (KernelKind::Spmv, ImplKind::Vector { .. }) => {
            let dev = spmv::setup_spmv(m, &w.mat, &w.sell);
            spmv::spmv_vector_sell(m, &dev);
        }
        (KernelKind::Bfs, ImplKind::Scalar) => {
            let dev = bfs::setup_bfs(m, &w.graph, 256, w.bfs_src);
            bfs::bfs_scalar(m, &dev);
        }
        (KernelKind::Bfs, ImplKind::Vector { .. }) => {
            let dev = bfs::setup_bfs(m, &w.graph, 256, w.bfs_src);
            bfs::bfs_vector(m, &dev);
        }
        (KernelKind::Pr, ImplKind::Scalar) => {
            let dev = pagerank::setup_pagerank(m, &w.graph, 256, 0.85, w.pr_iters);
            pagerank::pagerank_scalar(m, &dev);
        }
        (KernelKind::Pr, ImplKind::Vector { .. }) => {
            let dev = pagerank::setup_pagerank(m, &w.graph, 256, 0.85, w.pr_iters);
            pagerank::pagerank_vector(m, &dev);
        }
        (KernelKind::Fft, ImplKind::Scalar) => {
            let dev = fft::setup_fft(m, &w.signal.0, &w.signal.1);
            fft::fft_scalar(m, &dev);
        }
        (KernelKind::Fft, ImplKind::Vector { .. }) => {
            let dev = fft::setup_fft(m, &w.signal.0, &w.signal.1);
            fft::fft_vector(m, &dev);
        }
    }
}

/// Replay one cell with the timing model bypassed: the kernel executes
/// functionally (its control flow depends only on functional state) while
/// every timing op is accepted and discarded. The wall clock of this call
/// is therefore the functional/exec share of a timed run of the same cell;
/// the difference is the timing model's share. Used by
/// `perf_baseline --breakdown`; cycle counts are meaningless here, so none
/// are returned. The [`Backend`] argument is ignored.
pub fn run_functional_only(
    m: &mut SdvMachine,
    w: &Workloads,
    cell: Cell,
    cfg: TimingConfig,
    _: Backend,
) {
    m.reset_with_config(cfg);
    m.set_timing_bypass(true);
    if let ImplKind::Vector { maxvl } = cell.imp {
        m.set_maxvl_cap(maxvl);
    }
    drive_kernel(m, w, cell);
}

/// Render a caught panic payload for a [`SimError::Panic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one cell inside a panic-isolation boundary. A panicking cell leaves
/// the pooled machine in an unknown state, so the slot is cleared and the
/// next cell on this worker rebuilds it; the panic becomes a structured
/// [`SimError::Panic`] outcome instead of tearing down the whole grid.
pub(crate) fn run_guarded(
    slot: &mut Option<SdvMachine>,
    w: &Workloads,
    cell: Cell,
    cfg: TimingConfig,
    wall: Option<std::time::Duration>,
) -> CellOutcome {
    let m = slot.get_or_insert_with(|| SdvMachine::new(w.heap));
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        try_run_on_walled(m, w, cell, cfg, wall)
    })) {
        Ok(Ok(r)) => CellOutcome::Done(r),
        Ok(Err(error)) => CellOutcome::Failed { cell, error },
        Err(payload) => {
            *slot = None;
            CellOutcome::Failed {
                cell,
                error: SimError::Panic { what: panic_message(payload.as_ref()) },
            }
        }
    }
}

/// Run one cell with the default machine configuration.
pub fn run(w: &Workloads, cell: Cell) -> RunResult {
    run_with_config(w, cell, TimingConfig::default())
}

/// Run one cell on a fresh machine with timeline tracing enabled, returning
/// the result together with the Chrome `trace_event` JSON. Probes are pure
/// observers, so the cycles match an untraced run of the same cell exactly.
pub fn try_run_traced(
    w: &Workloads,
    cell: Cell,
    mut cfg: TimingConfig,
) -> Result<(RunResult, String), SimError> {
    cfg.probe.trace = true;
    let mut m = SdvMachine::with_config(w.heap, cfg);
    let r = try_run_on(&mut m, w, cell, cfg)?;
    Ok((r, m.trace_json()))
}

/// SpMV vectorization strategy (for the ABL1 format ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpmvVariant {
    /// SELL-C-σ slices (the paper's long-vector format).
    Sell,
    /// Row-at-a-time CSR gather + reduce (naive vectorization).
    CsrGather,
}

/// Run one SpMV variant under the given knobs; returns cycles.
pub fn run_spmv_variant(
    w: &Workloads,
    variant: SpmvVariant,
    maxvl: usize,
    extra_latency: u64,
    bandwidth: u64,
) -> u64 {
    let mut m = SdvMachine::new(w.heap);
    m.set_extra_latency(extra_latency);
    m.set_bandwidth_limit(bandwidth);
    m.set_maxvl_cap(maxvl);
    let dev = spmv::setup_spmv(&mut m, &w.mat, &w.sell);
    match variant {
        SpmvVariant::Sell => spmv::spmv_vector_sell(&mut m, &dev),
        SpmvVariant::CsrGather => spmv::spmv_vector_csr(&mut m, &dev),
    }
    m.finish()
}

/// Run a grid of cells across OS threads. Results come back in input order.
/// Each simulation is single-threaded and deterministic, so the grid is
/// embarrassingly parallel. Convenience wrapper over a one-shot [`Sweeper`];
/// figure binaries that run several overlapping grids should hold a single
/// `Sweeper` instead so machines and duplicate cells are shared.
pub fn sweep(w: &Workloads, cells: &[Cell], threads: usize) -> Vec<RunResult> {
    Sweeper::new().sweep(w, cells, threads)
}

/// A persistent experiment runner.
///
/// Holds a pool of simulated machines whose big allocations (register file,
/// simulated heap, execution scratch) survive from cell to cell, and a memo
/// of every cell simulated so far: overlapping figure grids (e.g. the
/// unthrottled column FIG3 and FIG4 share) are simulated exactly once.
///
/// Use one `Sweeper` per [`Workloads`]: pooled machines are sized for the
/// first workload's heap, and memoized results are only valid for the inputs
/// they ran against.
pub struct Sweeper {
    machines: Vec<std::sync::Mutex<Option<SdvMachine>>>,
    memo: std::collections::HashMap<Cell, CellOutcome>,
    cfg: TimingConfig,
    cache: Option<ResultCache>,
    remote: Option<RemoteSweep>,
    retry: crate::server::RetryPolicy,
    fallback_local: bool,
    input_fp: Option<String>,
    fresh_simulations: std::sync::atomic::AtomicUsize,
}

/// Where a remote-mode sweep sends its cells: a `sweepd` server address plus
/// the workload name (`small` / `paper`) the server must be holding.
#[derive(Debug, Clone)]
pub struct RemoteSweep {
    /// `host:port` of the `sweepd` server.
    pub addr: String,
    /// Workload name the server was started with.
    pub workload: String,
}

impl Default for Sweeper {
    fn default() -> Self {
        Self::new()
    }
}

impl Sweeper {
    /// An empty runner with default timing. Machines are created lazily,
    /// one per worker thread.
    pub fn new() -> Self {
        Self::with_config(TimingConfig::default())
    }

    /// An empty runner whose cells run under `cfg` — how figure binaries
    /// arm the watchdog or a fault plan for every cell of a sweep.
    pub fn with_config(cfg: TimingConfig) -> Self {
        Self {
            machines: Vec::new(),
            memo: std::collections::HashMap::new(),
            cfg,
            cache: None,
            remote: None,
            retry: crate::server::RetryPolicy::none(),
            fallback_local: false,
            input_fp: None,
            fresh_simulations: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Attach a persistent result cache: every cell is looked up before
    /// simulating and stored after (completed cells only). Cache hits count
    /// as simulated for [`Sweeper::cells_simulated`] purposes — they fill
    /// the memo exactly like a run — but skip the actual simulation.
    pub fn set_cache(&mut self, cache: ResultCache) {
        self.cache = Some(cache);
    }

    /// Route every sweep to a `sweepd` server instead of simulating locally.
    /// The server must hold the same workload (name *and* content
    /// fingerprint) and the same canonical timing configuration; mismatches
    /// come back as [`SimError::Remote`] outcomes, never as wrong numbers.
    pub fn set_remote(&mut self, addr: &str, workload: &str) {
        self.remote = Some(RemoteSweep { addr: addr.to_string(), workload: workload.to_string() });
    }

    /// Retry transient remote failures (connect refused, dropped
    /// connection, `overloaded`, `draining`) per `policy`. Safe at any
    /// count: sweep submission is idempotent thanks to the server's
    /// exactly-once dedup, and each retry re-requests only missing cells.
    pub fn set_retry_policy(&mut self, policy: crate::server::RetryPolicy) {
        self.retry = policy;
    }

    /// Degrade gracefully when the remote server stays unreachable after
    /// the retry budget: fall back to local in-process simulation instead
    /// of failing the grid (`--fallback-local` on the CLI). Results are
    /// bit-identical either way — only wall-clock and placement change.
    pub fn set_fallback_local(&mut self, enabled: bool) {
        self.fallback_local = enabled;
    }

    /// Cells actually simulated by this process (memo/cache/remote hits
    /// excluded). The `sweepd` smoke test uses this to prove exactly-once
    /// simulation under duplicate-heavy load.
    pub fn fresh_simulations(&self) -> usize {
        self.fresh_simulations.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The workload fingerprint used in cache keys, computed once per
    /// sweeper (one `Sweeper` serves one [`Workloads`]).
    fn input_fingerprint(&mut self, w: &Workloads) -> String {
        self.input_fp.get_or_insert_with(|| w.fingerprint()).clone()
    }

    /// Number of distinct cells simulated so far.
    pub fn cells_simulated(&self) -> usize {
        self.memo.len()
    }

    fn ensure_slots(&mut self, n: usize) {
        while self.machines.len() < n {
            self.machines.push(std::sync::Mutex::new(None));
        }
    }

    /// Run one cell sequentially on the pooled machine. A cell already in
    /// the memo returns its recorded result without re-simulating.
    ///
    /// # Panics
    /// Panics if the cell fails; use [`Sweeper::try_run_cell`] when the
    /// configuration can produce failures (fault injection, budgets).
    pub fn run_cell(&mut self, w: &Workloads, cell: Cell) -> RunResult {
        match self.try_run_cell(w, cell) {
            CellOutcome::Done(r) => r,
            CellOutcome::Failed { cell, error } => {
                panic!("cell {}/{} failed: {error}", cell.kernel.name(), cell.imp)
            }
        }
    }

    /// Run one cell sequentially on the pooled machine, reporting failures
    /// as a structured outcome instead of panicking. Routes through the
    /// attached cache or remote server like a sweep would.
    pub fn try_run_cell(&mut self, w: &Workloads, cell: Cell) -> CellOutcome {
        if let Some(r) = self.memo.get(&cell) {
            return r.clone();
        }
        self.sweep_outcomes_with(w, &[cell], 1, |_| {}).pop().expect("one cell in, one out")
    }

    /// Run a grid of cells across OS threads, reusing pooled machines and
    /// the memo. Results come back in input order; duplicate cells — within
    /// this grid or remembered from earlier calls — are simulated once.
    ///
    /// # Panics
    /// Panics if any cell fails; use [`Sweeper::sweep_outcomes`] when the
    /// configuration can produce failures.
    pub fn sweep(&mut self, w: &Workloads, cells: &[Cell], threads: usize) -> Vec<RunResult> {
        self.sweep_outcomes(w, cells, threads)
            .into_iter()
            .map(|o| match o {
                CellOutcome::Done(r) => r,
                CellOutcome::Failed { cell, error } => {
                    panic!("cell {}/{} failed: {error}", cell.kernel.name(), cell.imp)
                }
            })
            .collect()
    }

    /// Like [`Sweeper::sweep`], but every cell's fate comes back as a
    /// [`CellOutcome`]: failing cells (watchdog aborts, invariant
    /// violations, even panics) are isolated and the rest of the grid
    /// completes.
    pub fn sweep_outcomes(
        &mut self,
        w: &Workloads,
        cells: &[Cell],
        threads: usize,
    ) -> Vec<CellOutcome> {
        self.sweep_outcomes_with(w, cells, threads, |_| {})
    }

    /// [`Sweeper::sweep_outcomes`] with a progress callback, invoked from
    /// worker threads once per freshly-simulated cell (memo hits are not
    /// reported), e.g. to time or record cells as they land.
    pub fn sweep_outcomes_with(
        &mut self,
        w: &Workloads,
        cells: &[Cell],
        threads: usize,
        on_cell: impl Fn(&CellOutcome) + Sync,
    ) -> Vec<CellOutcome> {
        assert!(threads > 0);
        // Unique not-yet-memoized cells, in first-seen order.
        let mut todo: Vec<Cell> = Vec::new();
        for c in cells {
            if !self.memo.contains_key(c) && !todo.contains(c) {
                todo.push(*c);
            }
        }
        if let Some(remote) = self.remote.clone() {
            match self.sweep_remote(&remote, w, cells, todo.clone(), &on_cell) {
                Ok(outcomes) => return outcomes,
                Err(e) if self.fallback_local && e.transient() => {
                    // Server gone past the retry budget: degrade to local
                    // in-process simulation. Deterministic cycles make the
                    // fallback bit-identical, just slower and on this host.
                    eprintln!(
                        "warning: sweepd at {} unavailable ({}); falling back to local simulation",
                        remote.addr,
                        e.class()
                    );
                }
                Err(e) => {
                    // No fallback: every missing cell fails with the
                    // transport error, and the grid never silently loses
                    // cells.
                    for c in todo {
                        self.memo.insert(
                            c,
                            CellOutcome::Failed { cell: c, error: e.clone() },
                        );
                    }
                    return cells.iter().map(|c| self.memo[c].clone()).collect();
                }
            }
            // Falling back: anything the server did stream before dying is
            // memoized already — only simulate the remainder locally.
            todo.retain(|c| !self.memo.contains_key(c));
        }
        // Long-pole-first schedule: start the predicted-slowest cells first
        // so no worker is left simulating a multi-second cell alone at the
        // end of the grid (makespan, not throughput, bounds a sweep). The
        // sort is stable, so equal-cost cells keep first-seen order, and
        // results still come back in input order via the memo below.
        todo.sort_by_key(|c| std::cmp::Reverse(predicted_cost(c)));
        let workers = threads.min(todo.len().max(1));
        self.ensure_slots(workers);
        // Cache keys need the workload fingerprint and canonical config;
        // compute them once, outside the workers (the fingerprint hashes
        // every input array).
        let key_ctx: Option<(String, String)> =
            self.cache.is_some().then(|| (self.input_fingerprint(w), self.cfg.canonical()));
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Option<CellOutcome>>> =
            (0..todo.len()).map(|_| std::sync::Mutex::new(None)).collect();
        let machines = &self.machines;
        let todo_ref = &todo;
        let cfg = self.cfg;
        let on_cell = &on_cell;
        let cache = self.cache.as_ref();
        let key_ctx = key_ctx.as_ref();
        let fresh = &self.fresh_simulations;
        std::thread::scope(|s| {
            for machine in machines.iter().take(workers) {
                let slots = &slots;
                let next = &next;
                s.spawn(move || {
                    // Each worker owns one pooled machine for the whole
                    // grid. Cells run inside a panic-isolation boundary, so
                    // one diseased cell cannot take the grid down with it.
                    let mut guard = machine.lock().unwrap();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= todo_ref.len() {
                            break;
                        }
                        let out =
                            run_cached(cache.zip(key_ctx), &mut guard, w, todo_ref[i], cfg, fresh);
                        on_cell(&out);
                        *slots[i].lock().unwrap() = Some(out);
                    }
                });
            }
        });
        for (c, slot) in todo.iter().zip(slots) {
            let r = slot.into_inner().unwrap().expect("worker filled every slot");
            self.memo.insert(*c, r);
        }
        cells.iter().map(|c| self.memo[c].clone()).collect()
    }

    /// Remote-mode sweep: ship the deduplicated grid to the `sweepd` server
    /// (with retries per the configured [`RetryPolicy`](crate::RetryPolicy))
    /// and absorb the streamed results. A failure that outlives the retry
    /// budget comes back as `Err` so the caller can decide between
    /// per-cell structured failures and the local fallback; results already
    /// streamed before the failure are kept in the memo either way — a
    /// fallback only simulates what the server never delivered.
    fn sweep_remote(
        &mut self,
        remote: &RemoteSweep,
        w: &Workloads,
        cells: &[Cell],
        todo: Vec<Cell>,
        on_cell: &(impl Fn(&CellOutcome) + Sync),
    ) -> Result<Vec<CellOutcome>, SimError> {
        let input_fp = self.input_fingerprint(w);
        let cfg_text = self.cfg.canonical();
        let mut got: std::collections::HashMap<Cell, CellOutcome> = std::collections::HashMap::new();
        let transport = crate::server::client_sweep(
            &remote.addr,
            &remote.workload,
            &input_fp,
            &cfg_text,
            Backend,
            &todo,
            &self.retry,
            |out| {
                on_cell(&out);
                got.insert(out.cell(), out);
            },
        );
        // Partial results are results: memoize everything that made it
        // across before deciding what to do about the rest.
        for (c, out) in got {
            self.memo.insert(c, out);
        }
        transport?;
        for c in todo {
            // client_sweep only returns Ok once every requested cell
            // streamed back; this is pure defense in depth.
            self.memo.entry(c).or_insert_with(|| CellOutcome::Failed {
                cell: c,
                error: SimError::Remote { what: "server did not return this cell".to_string() },
            });
        }
        Ok(cells.iter().map(|c| self.memo[c].clone()).collect())
    }
}

/// One worker-side cell execution: consult the cache (when attached), fall
/// back to an isolated simulation, and persist completed results. Failures
/// are never cached — a failing cell re-runs next time, keeping its
/// diagnostic reproducible.
fn run_cached(
    cache: Option<(&ResultCache, &(String, String))>,
    slot: &mut Option<SdvMachine>,
    w: &Workloads,
    cell: Cell,
    cfg: TimingConfig,
    fresh: &std::sync::atomic::AtomicUsize,
) -> CellOutcome {
    let key = cache.map(|(cache, (input_fp, cfg_text))| {
        (cache, CacheKey::for_cell(cell, input_fp, cfg_text, Backend))
    });
    if let Some((cache, key)) = &key {
        if let Some(hit) = cache.load(key) {
            return CellOutcome::Done(RunResult { cell, cycles: hit.cycles, stats: hit.stats });
        }
    }
    let out = run_guarded(slot, w, cell, cfg, None);
    fresh.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    if let (Some((cache, key)), CellOutcome::Done(r)) = (&key, &out) {
        cache.store(key, r.cycles, &r.stats);
    }
    out
}

/// Relative host-cost estimate for scheduling (arbitrary units). Calibrated
/// against observed small-workload wall times: graph kernels dominate
/// (PageRank > BFS >> SpMV > FFT), short-vector and scalar implementations
/// cost the most host work per cell, and extra DRAM latency grows the
/// simulated cycle count without changing the host work much.
pub(crate) fn predicted_cost(c: &Cell) -> u64 {
    let kernel: u64 = match c.kernel {
        KernelKind::Pr => 24,
        KernelKind::Bfs => 14,
        KernelKind::Spmv => 5,
        KernelKind::Fft => 1,
    };
    let imp: u64 = match c.imp {
        ImplKind::Scalar => 30,
        ImplKind::Vector { maxvl } => 20 + (256 / maxvl.max(1)) as u64,
    };
    kernel * imp * (1024 + c.extra_latency)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(kernel: KernelKind, imp: ImplKind) -> Cell {
        Cell { kernel, imp, extra_latency: 0, bandwidth: 64 }
    }

    #[test]
    fn pooled_slot_recovers_after_deadline_failure() {
        // A walled cell that blows its deadline latches a structured fault
        // on the pooled machine; reset_with_config must clear it so the
        // next cell on the same slot runs clean and bit-identical.
        let w = Workloads::small();
        let c = cell(KernelKind::Bfs, ImplKind::Scalar);
        let cfg = TimingConfig::default();
        let mut slot = None;
        let clean = match run_guarded(&mut slot, &w, c, cfg, None) {
            CellOutcome::Done(r) => r.cycles,
            other => panic!("clean run failed: {other:?}"),
        };
        match run_guarded(&mut slot, &w, c, cfg, Some(std::time::Duration::ZERO)) {
            CellOutcome::Failed { error: SimError::DeadlineExceeded { .. }, .. } => {}
            other => panic!("zero deadline must fail the cell: {other:?}"),
        }
        assert!(slot.is_some(), "a structured failure keeps the pooled machine");
        match run_guarded(&mut slot, &w, c, cfg, None) {
            CellOutcome::Done(r) => {
                assert_eq!(r.cycles, clean, "post-failure run must be bit-identical")
            }
            other => panic!("post-failure run failed: {other:?}"),
        }
    }

    /// A multi-tile configuration on the study's smallest scale-out step:
    /// 4 tiles on the default 2×2 mesh.
    fn tiled_cfg(tiles: usize) -> TimingConfig {
        let mut cfg = TimingConfig::default();
        cfg.mem.tiles = tiles;
        cfg
    }

    #[test]
    fn multi_tile_cells_dispatch_and_are_deterministic() {
        let w = Workloads::small();
        let c = cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 });
        let a = try_run_with_config(&w, c, tiled_cfg(4)).expect("tiled SpMV runs");
        let b = try_run_with_config(&w, c, tiled_cfg(4)).expect("tiled SpMV reruns");
        assert_eq!(a.cycles, b.cycles, "multi-tile cycles must be reproducible");
        assert_eq!(
            format!("{:?}", a.stats),
            format!("{:?}", b.stats),
            "multi-tile stats must be reproducible"
        );
        assert!(a.stats.get("tile3.scalar.ops") > 0, "all four tiles must do work");
    }

    #[test]
    fn multi_tile_rejects_scalar_and_fft_with_structured_error() {
        let w = Workloads::small();
        let scalar = try_run_with_config(
            &w,
            cell(KernelKind::Spmv, ImplKind::Scalar),
            tiled_cfg(4),
        );
        assert!(
            matches!(scalar, Err(SimError::BadInput { .. })),
            "scalar at tiles>1 must be a structured rejection: {scalar:?}"
        );
        let fft = try_run_with_config(
            &w,
            cell(KernelKind::Fft, ImplKind::Vector { maxvl: 256 }),
            tiled_cfg(4),
        );
        assert!(
            matches!(fft, Err(SimError::BadInput { .. })),
            "FFT at tiles>1 must be a structured rejection: {fft:?}"
        );
        let too_many = try_run_with_config(
            &w,
            cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 }),
            tiled_cfg(1 << 10),
        );
        assert!(
            matches!(too_many, Err(SimError::BadInput { .. })),
            "a topology past directory capacity must be rejected, not panic: {too_many:?}"
        );
    }

    #[test]
    fn one_tile_on_a_4x4_mesh_matches_the_classic_machine() {
        // The capture/replay machine with one tile must be bit-identical to
        // the classic machine running the same kernel program — here on a
        // non-default 4×4 mesh, so the equivalence covers scaled topologies
        // too. (The *partitioned* drivers are a different op stream even on
        // one tile: PageRank's adds a rank-mass merge phase.)
        let w = Workloads::small();
        let c = cell(KernelKind::Pr, ImplKind::Vector { maxvl: 64 });
        let mut cfg = TimingConfig::default();
        cfg.mem.mesh = sdv_noc::MeshConfig::grid(4, 4);
        cfg.mem.num_banks = 16;
        let classic = try_run_with_config(&w, c, cfg).expect("classic 4x4 run");

        let mut m = sdv_core::TiledMachine::with_config(w.heap, cfg);
        m.set_maxvl_cap(64);
        let dev = pagerank::setup_pagerank(&mut m.vm(0), &w.graph, 256, 0.85, w.pr_iters);
        pagerank::pagerank_vector(&mut m.vm(0), &dev);
        let cycles = m.try_finish().expect("tiled 1-tile run");
        assert_eq!(cycles, classic.cycles, "1 tile on 4x4 must match the classic machine");
    }

    #[test]
    fn long_pole_cells_sort_first() {
        // The graph kernels at short VL / scalar with high latency are the
        // multi-second cells; FFT at long VL is the cheapest.
        let slow = Cell {
            kernel: KernelKind::Pr,
            imp: ImplKind::Vector { maxvl: 8 },
            extra_latency: 512,
            bandwidth: 64,
        };
        let fast = Cell {
            kernel: KernelKind::Fft,
            imp: ImplKind::Vector { maxvl: 256 },
            extra_latency: 0,
            bandwidth: 64,
        };
        assert!(predicted_cost(&slow) > predicted_cost(&fast));
        assert!(
            predicted_cost(&cell(KernelKind::Bfs, ImplKind::Scalar))
                > predicted_cost(&cell(KernelKind::Bfs, ImplKind::Vector { maxvl: 256 }))
        );
        assert!(
            predicted_cost(&cell(KernelKind::Pr, ImplKind::Vector { maxvl: 8 }))
                > predicted_cost(&cell(KernelKind::Pr, ImplKind::Vector { maxvl: 256 }))
        );
    }

    #[test]
    fn sweep_returns_results_in_input_order_despite_scheduling() {
        let w = Workloads::small();
        let mut sw = Sweeper::new();
        // Input deliberately cheapest-first: scheduling must not reorder
        // the returned results.
        let cells = [
            cell(KernelKind::Fft, ImplKind::Vector { maxvl: 256 }),
            cell(KernelKind::Spmv, ImplKind::Scalar),
            cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 }),
        ];
        let rs = sw.sweep(&w, &cells, 2);
        for (c, r) in cells.iter().zip(&rs) {
            assert_eq!(*c, r.cell, "result order must match input order");
        }
    }

    #[test]
    fn paper_impl_set_has_seven_columns() {
        let set = ImplKind::paper_set();
        assert_eq!(set.len(), 7);
        assert_eq!(set[0], ImplKind::Scalar);
        assert_eq!(set[6], ImplKind::Vector { maxvl: 256 });
    }

    #[test]
    fn smoke_run_every_kernel_small() {
        let w = Workloads::small();
        for k in KernelKind::all() {
            for imp in [ImplKind::Scalar, ImplKind::Vector { maxvl: 256 }] {
                let r = run(&w, cell(k, imp));
                assert!(r.cycles > 0, "{k:?}/{imp:?}");
            }
        }
    }

    #[test]
    fn vector_beats_scalar_at_full_bandwidth_small() {
        let w = Workloads::small();
        for k in [KernelKind::Spmv, KernelKind::Fft] {
            let s = run(&w, cell(k, ImplKind::Scalar)).cycles;
            let v = run(&w, cell(k, ImplKind::Vector { maxvl: 256 })).cycles;
            assert!(v < s, "{k:?}: vector {v} should beat scalar {s}");
        }
    }

    #[test]
    fn sweep_matches_individual_runs() {
        let w = Workloads::small();
        let cells = vec![
            cell(KernelKind::Spmv, ImplKind::Scalar),
            cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 64 }),
        ];
        let swept = sweep(&w, &cells, 2);
        for (c, r) in cells.iter().zip(&swept) {
            let solo = run(&w, *c);
            assert_eq!(solo.cycles, r.cycles, "determinism across threads");
        }
    }

    #[test]
    fn pooled_machine_reuse_is_bit_identical() {
        let w = Workloads::small();
        let mut sw = Sweeper::new();
        let cells = [
            cell(KernelKind::Fft, ImplKind::Vector { maxvl: 64 }),
            cell(KernelKind::Spmv, ImplKind::Scalar),
            cell(KernelKind::Fft, ImplKind::Vector { maxvl: 64 }), // memo hit
        ];
        let rs: Vec<u64> = cells.iter().map(|c| sw.run_cell(&w, *c).cycles).collect();
        assert_eq!(rs[0], rs[2], "memoized result matches the original");
        assert_eq!(sw.cells_simulated(), 2, "duplicate cell must not re-simulate");
        for (c, got) in cells.iter().zip(&rs) {
            assert_eq!(run(&w, *c).cycles, *got, "pooled machine must match a fresh one");
        }
    }

    #[test]
    fn sweep_thread_count_does_not_change_results() {
        let w = Workloads::small();
        let mut cells = Vec::new();
        for imp in
            [ImplKind::Scalar, ImplKind::Vector { maxvl: 32 }, ImplKind::Vector { maxvl: 256 }]
        {
            for lat in [0, 256] {
                cells.push(Cell { kernel: KernelKind::Spmv, imp, extra_latency: lat, bandwidth: 64 });
            }
        }
        cells.push(cells[0]); // duplicate: exercises the memo path
        let one = Sweeper::new().sweep(&w, &cells, 1);
        let four = Sweeper::new().sweep(&w, &cells, 4);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.cycles, b.cycles, "1-thread vs 4-thread: {:?}", a.cell);
        }
        assert_eq!(one[0].cycles, one[cells.len() - 1].cycles, "duplicate cell agrees");
    }

    #[test]
    fn latency_knob_increases_cycles_small() {
        let w = Workloads::small();
        let base = run(&w, cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 })).cycles;
        let mut c = cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 });
        c.extra_latency = 512;
        let slowed = run(&w, c).cycles;
        assert!(slowed > base);
    }
}
