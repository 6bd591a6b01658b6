//! The four workloads, run untraced: each times passes over its grid until
//! the run's measuring time is spent (always at least one pass) and checks
//! every cell against the repository's pins.

use crate::pins::{cell_name, known_defect, Ledger, Pins, Scale, SMALL_SUITE_TOTAL};
use crate::util::{cpu_seconds, secs, thread_cpu_seconds, Scratch};
use sdv_bench::{
    cli, client_request, client_sweep, serve, CacheKey, Cell, CellOutcome, ImplKind, KernelKind,
    ResultCache, RetryPolicy, RunResult, ServerConfig, ShutdownSignal, Sweeper, Workloads,
};
use sdv_core::SdvMachine;
use sdv_engine::{Rng, SimError};
use sdv_rvv::Backend;
use sdv_uarch::TimingConfig;
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::Mutex;
use std::time::Instant;

/// What every workload is given.
pub struct Ctx {
    pub seed: u64,
    /// Measuring time of the run, in seconds.
    pub seconds: f64,
    /// Worker threads for the parallel sweeps (at most 2).
    pub threads: usize,
    pub pins: Pins,
    pub scratch: Scratch,
}

/// When a cell ran, for latency and for the traced run's spans.
#[derive(Clone, Copy)]
pub struct CellTime {
    pub cell: Cell,
    pub tiles: usize,
    pub start: Instant,
    pub end: Instant,
    /// CPU seconds the cell's thread spent on it.
    pub cpu: f64,
    /// Index of the worker thread within its sweep.
    pub worker: usize,
}

/// One timed pass: outcomes (with their tile count), per-cell times, and
/// the wall and process CPU seconds the pass took.
#[derive(Default)]
pub struct Pass {
    pub outcomes: Vec<(usize, CellOutcome)>,
    pub times: Vec<CellTime>,
    pub wall: f64,
    pub cpu: f64,
    /// Σ over the pass's sweeps of threads × sweep wall, for the harness's
    /// sweep efficiency.
    pub thread_seconds: f64,
}

/// A workload's measured result.
pub struct Report {
    pub ledger: Ledger,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Run `build` `n` times, recording the process CPU seconds of each; keeps
/// the last value.
pub fn setup_samples<T>(ledger: &mut Ledger, n: usize, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..n {
        let c = cpu_seconds();
        let v = build();
        ledger.setup.push(cpu_seconds() - c);
        last = Some(v);
    }
    last.expect("at least one set-up repetition")
}

/// The timing configuration for a tile count, as `fig_scale` builds it:
/// the smallest square mesh that seats the tiles, one L2 bank per node.
pub fn config_for_tiles(tiles: usize) -> TimingConfig {
    let mut cfg = TimingConfig::default();
    if tiles > 1 {
        cfg.mem.tiles = tiles;
        cfg.mem.mesh = cli::mesh_for_tiles(tiles);
        cfg.mem.num_banks = cfg.mem.mesh.nodes();
    }
    cfg
}

fn imps() -> [ImplKind; 3] {
    [
        ImplKind::Scalar,
        ImplKind::Vector { maxvl: 8 },
        ImplKind::Vector { maxvl: 256 },
    ]
}

/// `perf_baseline`'s 24-cell suite.
pub fn small_suite_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for kernel in KernelKind::all() {
        for imp in imps() {
            for extra_latency in [0, 512] {
                cells.push(Cell {
                    kernel,
                    imp,
                    extra_latency,
                    bandwidth: 64,
                });
            }
        }
    }
    cells
}

/// The 48-cell paper grid.
pub fn paper_grid_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for kernel in KernelKind::all() {
        for imp in imps() {
            for (extra_latency, bandwidth) in [(0, 64), (32, 64), (1024, 64), (0, 4)] {
                cells.push(Cell {
                    kernel,
                    imp,
                    extra_latency,
                    bandwidth,
                });
            }
        }
    }
    cells
}

/// Tile counts of the tiled_mesh workload.
pub const TILE_COUNTS: [usize; 3] = [1, 4, 16];

/// The tiled_mesh grid at one tile count: partitioned vector kernels.
pub fn tiled_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for kernel in [KernelKind::Spmv, KernelKind::Bfs, KernelKind::Pr] {
        for maxvl in [8, 256] {
            cells.push(Cell {
                kernel,
                imp: ImplKind::Vector { maxvl },
                extra_latency: 0,
                bandwidth: 64,
            });
        }
    }
    cells
}

/// The 224-cell FIG3 grid at small scale (all pinned by the golden CSV).
pub fn fig3_small_grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for kernel in KernelKind::all() {
        for imp in ImplKind::paper_set() {
            for extra_latency in [0, 16, 32, 64, 128, 256, 512, 1024] {
                cells.push(Cell {
                    kernel,
                    imp,
                    extra_latency,
                    bandwidth: 64,
                });
            }
        }
    }
    cells
}

/// Whether the run still has measuring time left.
fn more(start: Instant, ctx: &Ctx) -> bool {
    secs(start) < ctx.seconds
}

/// One sweep on a fresh `Sweeper`, recording when each cell finished on
/// which worker. A worker's cell starts when its previous cell ended (the
/// first one when the sweep started), so the per-cell times cover the
/// machine reset and kernel set-up the harness does between cells; the
/// cell's CPU time is its worker thread's CPU clock over the same span.
pub fn timed_sweep(
    w: &Workloads,
    sweeper: &mut Sweeper,
    tiles: usize,
    cells: &[Cell],
    threads: usize,
) -> Pass {
    let c0 = cpu_seconds();
    let t0 = Instant::now();
    let last: Mutex<HashMap<std::thread::ThreadId, (usize, Instant, f64)>> =
        Mutex::new(HashMap::new());
    let times: Mutex<Vec<CellTime>> = Mutex::new(Vec::with_capacity(cells.len()));
    let outcomes = sweeper.sweep_outcomes_with(w, cells, threads, |out| {
        let (end, cpu_end) = (Instant::now(), thread_cpu_seconds());
        let id = std::thread::current().id();
        let mut last = last
            .lock()
            .expect("no panics while holding the timing lock");
        let n = last.len();
        // A worker thread's CPU clock starts at zero.
        let (worker, start, cpu_start) = last.get(&id).copied().unwrap_or((n, t0, 0.0));
        last.insert(id, (worker, end, cpu_end));
        times
            .lock()
            .expect("no panics while holding the timing lock")
            .push(CellTime {
                cell: out.cell(),
                tiles,
                start,
                end,
                cpu: cpu_end - cpu_start,
                worker,
            });
    });
    let wall = secs(t0);
    Pass {
        outcomes: outcomes.into_iter().map(|o| (tiles, o)).collect(),
        times: times.into_inner().expect("workers joined"),
        wall,
        cpu: cpu_seconds() - c0,
        thread_seconds: wall * threads.min(cells.len()) as f64,
    }
}

// ---------------------------------------------------------------- small_suite

/// The 24 cells one after another on one thread, fresh `Sweeper` per pass,
/// in a seed-shuffled order.
pub fn small_suite_pass(w: &Workloads, rng: &mut Rng) -> Pass {
    let mut order = small_suite_cells();
    rng.shuffle(&mut order);
    let mut sweeper = Sweeper::new();
    let c0 = cpu_seconds();
    let t0 = Instant::now();
    let mut outcomes = Vec::with_capacity(order.len());
    let mut times = Vec::with_capacity(order.len());
    for cell in order {
        // The cell runs on a worker thread the sweeper spawns, so its CPU
        // time is the process's.
        let (start, cpu) = (Instant::now(), cpu_seconds());
        let out = sweeper.try_run_cell(w, cell);
        let cpu = cpu_seconds() - cpu;
        times.push(CellTime {
            cell,
            tiles: 1,
            start,
            end: Instant::now(),
            cpu,
            worker: 0,
        });
        outcomes.push((1, out));
    }
    let wall = secs(t0);
    Pass {
        outcomes,
        times,
        wall,
        cpu: cpu_seconds() - c0,
        thread_seconds: wall,
    }
}

pub fn small_setup(ledger: &mut Ledger) -> Workloads {
    setup_samples(ledger, 15, || {
        let w = Workloads::small();
        drop(SdvMachine::new(w.heap));
        w
    })
}

pub fn small_suite(ctx: &Ctx) -> Report {
    let mut ledger = Ledger::default();
    let w = small_setup(&mut ledger);
    let mut rng = Rng::new(ctx.seed);
    let start = Instant::now();
    while ledger.pass_walls.is_empty() || more(start, ctx) {
        let pass = small_suite_pass(&w, &mut rng);
        absorb_pass(&mut ledger, ctx, Scale::Small, &pass);
        check_suite_total(&mut ledger, &pass);
    }
    Report {
        ledger,
        notes: Vec::new(),
    }
}

/// The suite total is pinned only when every cell completed.
pub fn check_suite_total(ledger: &mut Ledger, pass: &Pass) {
    let total: Option<u64> = pass.outcomes.iter().map(|(_, o)| o.cycles()).sum();
    match total {
        Some(SMALL_SUITE_TOTAL) => {}
        Some(t) => ledger.fail(format!(
            "small suite total {t} cycles, pinned {SMALL_SUITE_TOTAL}"
        )),
        None => {} // the failing cell is already counted
    }
}

/// Record a pass: times, latencies and a pin check of every cell.
pub fn absorb_pass(ledger: &mut Ledger, ctx: &Ctx, scale: Scale, pass: &Pass) {
    ledger.pass_walls.push(pass.wall);
    ledger.pass_cpu.push(pass.cpu);
    for t in &pass.times {
        ledger
            .latencies_ms
            .push((t.end - t.start).as_secs_f64() * 1e3);
        ledger.cpu_latencies_ms.push(t.cpu * 1e3);
    }
    for (tiles, out) in &pass.outcomes {
        let pin = if *tiles == 1 {
            ctx.pins.get(scale, &out.cell())
        } else {
            None
        };
        ledger.check(scale, *tiles, out, pin);
        if let CellOutcome::Done(r) = out {
            if *tiles > 1 {
                if let Err(e) = check_sums(r, *tiles) {
                    ledger.fail(format!("{}: {e}", cell_name(&r.cell, *tiles)));
                }
            }
        }
    }
}

// ----------------------------------------------------------------- paper_grid

pub fn paper_setup(ledger: &mut Ledger) -> Workloads {
    setup_samples(ledger, 5, || {
        let w = Workloads::paper();
        drop(SdvMachine::new(w.heap));
        w
    })
}

/// One pass of the 48-cell paper grid as a single 2-thread sweep.
pub fn paper_grid_pass(w: &Workloads, ctx: &Ctx, rng: &mut Rng) -> Pass {
    let mut cells = paper_grid_cells();
    rng.shuffle(&mut cells);
    timed_sweep(w, &mut Sweeper::new(), 1, &cells, ctx.threads)
}

pub fn paper_grid(ctx: &Ctx) -> Report {
    let mut ledger = Ledger::default();
    let w = paper_setup(&mut ledger);
    let mut rng = Rng::new(ctx.seed);
    let start = Instant::now();
    let mut first = None;
    while ledger.pass_walls.is_empty() || more(start, ctx) {
        let pass = paper_grid_pass(&w, ctx, &mut rng);
        absorb_pass(&mut ledger, ctx, Scale::Paper, &pass);
        first.get_or_insert(pass);
    }
    let first = first.expect("at least one pass");
    let mut notes = Vec::new();
    match anchor_err_pct(&first) {
        Some(e) => notes.push(format!(
            "{:<36} {e:>16.6} {:<10} (deterministic; DESIGN.md §1 SpMV anchors)",
            "anchor_err_pct", "%"
        )),
        None => ledger.fail("anchor cells missing or failed".to_string()),
    }
    // The known-defect cells never complete, so they have nothing to verify.
    let unpinned: Vec<Cell> = paper_grid_cells()
        .into_iter()
        .filter(|c| ctx.pins.get(Scale::Paper, c).is_none() && !known_defect(Scale::Paper, c))
        .collect();
    verify_unpinned(
        ctx,
        &mut ledger,
        &w,
        1,
        &pick(&unpinned, ctx.seed, VERIFY_PER_RUN),
    );
    notes.push(format!(
        "known defect: {} paper-scale FFT/scalar cells failed their end-of-run audit",
        ledger.known_defects
    ));
    Report { ledger, notes }
}

/// Paper SpMV slowdown anchors (DESIGN.md §1): (impl, extra latency, paper
/// slowdown over the same impl at +0).
const ANCHORS: [(ImplKind, u64, f64); 4] = [
    (ImplKind::Scalar, 32, 1.22),
    (ImplKind::Vector { maxvl: 256 }, 32, 1.05),
    (ImplKind::Scalar, 1024, 8.78),
    (ImplKind::Vector { maxvl: 256 }, 1024, 3.39),
];

/// Mean of |model − paper| ÷ paper over the four anchors, in percent.
pub fn anchor_err_pct(pass: &Pass) -> Option<f64> {
    let cycles = |imp, lat| {
        pass.outcomes.iter().find_map(|(_, o)| {
            let c = o.cell();
            (c.kernel == KernelKind::Spmv
                && c.imp == imp
                && c.extra_latency == lat
                && c.bandwidth == 64)
                .then(|| o.cycles())
                .flatten()
        })
    };
    let mut sum = 0.0;
    for (imp, lat, paper) in ANCHORS {
        let model = cycles(imp, lat)? as f64 / cycles(imp, 0)? as f64;
        sum += (model - paper).abs() / paper;
    }
    Some(100.0 * sum / ANCHORS.len() as f64)
}

// ----------------------------------------------------------------- tiled_mesh

/// One pass: a 2-thread sweep per topology, topologies in seed order.
pub fn tiled_mesh_pass(w: &Workloads, ctx: &Ctx, rng: &mut Rng) -> Pass {
    let mut topologies = TILE_COUNTS;
    rng.shuffle(&mut topologies);
    let mut pass = Pass::default();
    for tiles in topologies {
        let mut cells = tiled_cells();
        rng.shuffle(&mut cells);
        let mut sweeper = Sweeper::with_config(config_for_tiles(tiles));
        let p = timed_sweep(w, &mut sweeper, tiles, &cells, ctx.threads);
        pass.outcomes.extend(p.outcomes);
        pass.times.extend(p.times);
        pass.wall += p.wall;
        pass.cpu += p.cpu;
        pass.thread_seconds += p.thread_seconds;
    }
    pass
}

pub fn tiled_mesh(ctx: &Ctx) -> Report {
    let mut ledger = Ledger::default();
    let w = paper_setup(&mut ledger);
    let mut rng = Rng::new(ctx.seed);
    let start = Instant::now();
    while ledger.pass_walls.is_empty() || more(start, ctx) {
        let pass = tiled_mesh_pass(&w, ctx, &mut rng);
        absorb_pass(&mut ledger, ctx, Scale::Paper, &pass);
    }
    for tiles in [4, 16] {
        verify_unpinned(
            ctx,
            &mut ledger,
            &w,
            tiles,
            &pick(&tiled_cells(), ctx.seed ^ tiles as u64, 1),
        );
    }
    Report {
        ledger,
        notes: Vec::new(),
    }
}

/// `fig_scale --check`'s exact sums: per-bank directory counters add up to
/// the aggregate coherence counters, per-tile core counters to theirs.
pub fn check_sums(r: &RunResult, tiles: usize) -> Result<(), String> {
    let bank_sum = |suffix: &str| -> u64 {
        r.stats
            .iter()
            .filter(|(k, _)| k.starts_with("l2.bank") && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    let pairs = [
        (
            bank_sum(".recalls") + bank_sum(".downgrades"),
            "coherence.recall",
        ),
        (bank_sum(".invalidations"), "coherence.invalidate"),
    ];
    for (sum, key) in pairs {
        if sum != r.stats.get(key) {
            return Err(format!("per-bank sum {sum} != {key} {}", r.stats.get(key)));
        }
    }
    for key in [
        "scalar.stall_cycles",
        "scalar.stall.vpu_sync_cycles",
        "scalar.ops",
    ] {
        let per_tile: u64 = (0..tiles)
            .map(|t| r.stats.get(&format!("tile{t}.{key}")))
            .sum();
        if per_tile != r.stats.get(key) {
            return Err(format!(
                "per-tile {key} sum {per_tile} != {}",
                r.stats.get(key)
            ));
        }
    }
    Ok(())
}

// ------------------------------------------------------- unpinned-cell checks

/// Unpinned cells re-simulated per run (seed-chosen), on one thread and
/// through the cache, against what the run's sweeps produced.
pub const VERIFY_PER_RUN: usize = 2;

/// `n` distinct cells of `cells`, chosen by `seed`.
pub fn pick(cells: &[Cell], seed: u64, n: usize) -> Vec<Cell> {
    let mut v = cells.to_vec();
    Rng::new(seed ^ 0x5EED).shuffle(&mut v);
    v.truncate(n);
    v
}

/// Re-simulate `cells` one at a time on a fresh machine (one thread), and
/// store and reload each result through a `ResultCache`: both must give
/// the cycles the run's sweeps gave.
pub fn verify_unpinned(
    ctx: &Ctx,
    ledger: &mut Ledger,
    w: &Workloads,
    tiles: usize,
    cells: &[Cell],
) {
    let cfg = config_for_tiles(tiles);
    let cache = match ResultCache::open(&ctx.scratch.path().join("verify-cache")) {
        Ok(c) => c,
        Err(e) => return ledger.fail(format!("cannot open verification cache: {e}")),
    };
    let fp = w.fingerprint();
    for cell in cells {
        let name = cell_name(cell, tiles);
        let Some(swept) = ledger.seen(tiles, cell) else {
            ledger.fail(format!("{name}: never completed in a sweep"));
            continue;
        };
        match sdv_bench::try_run_with_config(w, *cell, cfg) {
            Ok(r) if r.cycles == swept => {
                let key = CacheKey::for_cell(*cell, &fp, &cfg.canonical(), Backend::default());
                cache.store(&key, r.cycles, &r.stats);
                match cache.load(&key) {
                    Some(hit) if hit.cycles == swept => {}
                    other => ledger.fail(format!(
                        "{name}: cache round trip gave {:?}, swept {swept}",
                        other.map(|h| h.cycles)
                    )),
                }
            }
            Ok(r) => ledger.fail(format!(
                "{name}: one thread gave {}, sweep gave {swept}",
                r.cycles
            )),
            Err(e) => ledger.fail(format!("{name}: one-thread rerun failed: {e}")),
        }
    }
}

// --------------------------------------------------------------- sweepd_regen

/// Requests the sweepd_regen client sends carry the FIG3 grid plus this
/// many fresh cells each.
pub const FRESH_PER_REQUEST: usize = 2;

/// A running in-process `sweepd`.
pub struct Server {
    pub addr: String,
    signal: ShutdownSignal,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Server {
    /// Bind 127.0.0.1:0 and serve the small workload with one worker over
    /// the cache in `dir`.
    pub fn start(dir: &std::path::Path) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let mut sc = ServerConfig::new("small", TimingConfig::default(), Backend::default(), 1);
        sc.cache = Some(ResultCache::open(dir).map_err(|e| format!("open cache: {e}"))?);
        let signal = sc.signal.clone();
        let thread = std::thread::spawn(move || serve(listener, sc));
        Ok(Self {
            addr,
            signal,
            thread: Some(thread),
        })
    }

    /// Request a drain through the in-process shutdown signal (no wire
    /// round trip that could fail) and wait for the server thread to end.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.signal.request();
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }

    pub fn stats(&self, key: &str) -> Result<u64, String> {
        let v =
            client_request(&self.addr, "stats", &RetryPolicy::none()).map_err(|e| e.to_string())?;
        v.get(key)
            .and_then(sdv_bench::json::Json::as_u64)
            .ok_or_else(|| format!("stats lacks {key}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The client's view of the workload: name, content fingerprint, config.
pub struct Identity {
    pub fp: String,
    pub cfg_text: String,
}

/// One client sweep; outcomes in arrival order.
pub fn request(
    server: &Server,
    id: &Identity,
    cells: &[Cell],
) -> Result<Vec<CellOutcome>, SimError> {
    let mut got = Vec::with_capacity(cells.len());
    client_sweep(
        &server.addr,
        "small",
        &id.fp,
        &id.cfg_text,
        Backend::default(),
        cells,
        &RetryPolicy::none(),
        |o| got.push(o),
    )?;
    Ok(got)
}

/// Whether a sweepd_regen cell is a fresh one (the FIG3 grid stops at +1024).
pub fn is_fresh(cell: &Cell) -> bool {
    cell.extra_latency > 1024
}

/// Fresh-cell generator: extra latencies drawn from the seed, never
/// repeated within a run and never on the FIG3 grid's latencies, so every
/// fresh cell misses both the memo and the disk cache.
pub struct Fresh {
    rng: Rng,
    used: std::collections::HashSet<u64>,
}

impl Fresh {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed ^ 0xF2E5),
            used: Default::default(),
        }
    }

    /// SpMV vl=256 and BFS vl=256 at two fresh latencies in 1025..=9000.
    pub fn next(&mut self) -> [Cell; FRESH_PER_REQUEST] {
        let mut lat = || loop {
            let l = 1025 + self.rng.below(7976);
            if self.used.insert(l) {
                break l;
            }
        };
        let vl = ImplKind::Vector { maxvl: 256 };
        [
            Cell {
                kernel: KernelKind::Spmv,
                imp: vl,
                extra_latency: lat(),
                bandwidth: 64,
            },
            Cell {
                kernel: KernelKind::Bfs,
                imp: vl,
                extra_latency: lat(),
                bandwidth: 64,
            },
        ]
    }
}

/// State shared by the untraced and traced sweepd runs after set-up.
pub struct Sweepd {
    pub w: Workloads,
    pub id: Identity,
    pub server: Server,
    pub grid: Vec<Cell>,
    pub cache_dir: std::path::PathBuf,
    /// The cold fill sweep, for the harness metrics.
    pub fill: Pass,
}

/// Fill the cache with the FIG3 grid (a 2-thread cached sweep), then start
/// the server over it five times — bind, the server's own input build and
/// a disk-warm first sweep are each a set-up sample — keeping the last.
pub fn sweepd_setup(ctx: &Ctx, ledger: &mut Ledger) -> Result<Sweepd, String> {
    let w = Workloads::small();
    let id = Identity {
        fp: w.fingerprint(),
        cfg_text: TimingConfig::default().canonical(),
    };
    let grid = fig3_small_grid();
    let cache_dir = ctx.scratch.path().join("sweepd-cache");
    let mut filler = Sweeper::new();
    filler.set_cache(ResultCache::open(&cache_dir).map_err(|e| format!("open cache: {e}"))?);
    let fill = timed_sweep(&w, &mut filler, 1, &grid, ctx.threads);
    for (_, out) in &fill.outcomes {
        // Checked here, but not counted as the run's attempts: the fill is
        // set-up, not the measured requests.
        if ctx.pins.get(Scale::Small, &out.cell()) != out.cycles() {
            ledger.fail(format!(
                "fill: {} gave {:?}",
                cell_name(&out.cell(), 1),
                out.cycles()
            ));
        }
    }
    let mut server = None;
    for _ in 0..5 {
        if let Some(s) = server.take() {
            Server::stop(s)?;
        }
        let c = cpu_seconds();
        let s = Server::start(&cache_dir)?;
        let got = request(&s, &id, &grid).map_err(|e| format!("disk-warm sweep: {e}"))?;
        ledger.setup.push(cpu_seconds() - c);
        for out in &got {
            if ctx.pins.get(Scale::Small, &out.cell()) != out.cycles() {
                ledger.fail(format!(
                    "disk-warm: {} gave {:?}",
                    cell_name(&out.cell(), 1),
                    out.cycles()
                ));
            }
        }
        server = Some(s);
    }
    Ok(Sweepd {
        w,
        id,
        server: server.expect("five starts"),
        grid,
        cache_dir,
        fill,
    })
}

/// One closed-loop request: the FIG3 grid in seed order plus fresh cells.
/// Returns every delivered outcome.
pub fn sweepd_request(
    s: &Sweepd,
    ctx: &Ctx,
    ledger: &mut Ledger,
    rng: &mut Rng,
    fresh: &mut Fresh,
) -> Vec<CellOutcome> {
    let new = fresh.next();
    let mut cells = s.grid.clone();
    rng.shuffle(&mut cells);
    cells.extend(new);
    let (t, c) = (Instant::now(), cpu_seconds());
    let got = request(&s.server, &s.id, &cells);
    let (wall, cpu) = (secs(t), cpu_seconds() - c);
    ledger.pass_walls.push(wall);
    ledger.pass_cpu.push(cpu);
    ledger.latencies_ms.push(wall * 1e3);
    ledger.cpu_latencies_ms.push(cpu * 1e3);
    let got = match got {
        Ok(g) => g,
        Err(e) => {
            ledger.attempted += cells.len() as u64;
            ledger.fail(format!("request failed: {e}"));
            return Vec::new();
        }
    };
    if got.len() != cells.len() {
        ledger.fail(format!(
            "request returned {} of {} cells",
            got.len(),
            cells.len()
        ));
    }
    for out in &got {
        ledger.check(
            Scale::Small,
            1,
            out,
            ctx.pins.get(Scale::Small, &out.cell()),
        );
    }
    got
}

pub fn sweepd_regen(ctx: &Ctx) -> Report {
    let mut ledger = Ledger::default();
    let s = match sweepd_setup(ctx, &mut ledger) {
        Ok(s) => s,
        Err(e) => {
            ledger.attempted += 1;
            ledger.fail(format!("sweepd set-up: {e}"));
            return Report {
                ledger,
                notes: Vec::new(),
            };
        }
    };
    let mut rng = Rng::new(ctx.seed);
    let mut fresh = Fresh::new(ctx.seed);
    let mut fresh_seen: Vec<CellOutcome> = Vec::new();
    let start = Instant::now();
    while ledger.pass_walls.is_empty() || more(start, ctx) {
        let out = sweepd_request(&s, ctx, &mut ledger, &mut rng, &mut fresh);
        fresh_seen.extend(out.into_iter().filter(|o| is_fresh(&o.cell())));
    }
    let notes = verify_fresh(&mut ledger, &s, &fresh_seen);
    if let Err(e) = Server::stop(s.server) {
        ledger.fail(format!("sweepd shutdown: {e}"));
    }
    Report { ledger, notes }
}

/// The fresh cells of the first and last request must equal a local
/// one-thread simulation and must be in the disk cache.
pub fn verify_fresh(ledger: &mut Ledger, s: &Sweepd, fresh: &[CellOutcome]) -> Vec<String> {
    let n = fresh.len();
    let sample: Vec<&CellOutcome> = fresh
        .iter()
        .enumerate()
        .filter(|(i, _)| *i < FRESH_PER_REQUEST || *i + FRESH_PER_REQUEST >= n)
        .map(|(_, o)| o)
        .collect();
    let cache = ResultCache::open(&s.cache_dir);
    for out in sample {
        let cell = out.cell();
        let name = cell_name(&cell, 1);
        let Some(served) = out.cycles() else { continue }; // counted already
        match sdv_bench::try_run_with_config(&s.w, cell, TimingConfig::default()) {
            Ok(r) if r.cycles == served => {}
            Ok(r) => ledger.fail(format!("{name}: sweepd gave {served}, local {}", r.cycles)),
            Err(e) => ledger.fail(format!("{name}: local rerun failed: {e}")),
        }
        let key = CacheKey::for_cell(cell, &s.id.fp, &s.id.cfg_text, Backend::default());
        match cache.as_ref().map(|c| c.load(&key)) {
            Ok(Some(hit)) if hit.cycles == served => {}
            _ => ledger.fail(format!("{name}: not stored in the disk cache")),
        }
    }
    vec![format!("sweepd: {} fresh cells simulated and stored", n)]
}
