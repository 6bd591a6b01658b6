//! The traced run: per-layer metrics for one workload.
//!
//! It sets the workload up as the untraced run does and runs one pass of
//! it, recording a span per cell, then splits host time by layer with
//! calls into the crates' public functions:
//!
//! * a sequential replay of a fixed subset of the workload's cells, each
//!   cell three ways on one pooled machine — plain (phases timed: reset,
//!   kernel set-up, driver, `try_finish`), with the driver's `Vm` calls
//!   counted and timed, and through `run_functional_only` — whose cycles
//!   must equal the pass's;
//! * component micros (RVV exec, cache, DRAM, NoC, event queue, bounded
//!   queue), a 1-tile `TiledMachine` against `SdvMachine`, a
//!   `FunctionalMachine` against a bypassed `SdvMachine`, the result cache's
//!   load and store, and a `sweepd` probe.
//!
//! Simulated counts come from the pass's `RunResult.stats`. The traced run's
//! own overhead is the counted replay's wall minus the plain replay's.

use crate::pins::{cell_name, Ledger, Scale};
use crate::trace::{Counted, Spans, VmCounts, CLASSES};
use crate::util::{median, secs};
use crate::workloads::{self as wl, config_for_tiles, Ctx, Pass, Report, Server};
use crate::Metric;
use sdv_bench::{CacheKey, Cell, CellOutcome, ImplKind, KernelKind, ResultCache, Workloads};
use sdv_core::{FunctionalMachine, SdvMachine, TiledMachine, Vm};
use sdv_engine::{BoundedQueue, EventQueue, Rng, SimError, Stats};
use sdv_kernels::{bfs, fft, pagerank, spmv};
use sdv_memsys::{AccessKind, Cache, CacheConfig, DramChannel};
use sdv_noc::Mesh;
use sdv_rvv::{
    exec_into, ArithKind, Backend, ExecInfo, ExecScratch, Lmul, MemAddr, Sew, VInst, VOp, VState,
};
use sdv_uarch::TimingConfig;
use std::time::Instant;

/// Requests the traced sweepd run sends (fixed, so its counts repeat).
const TRACED_REQUESTS: usize = 20;

pub fn traced(workload: &str, ctx: &Ctx) -> (Report, Vec<Metric>, Spans) {
    let spans = Spans::new();
    let mut t = Traced {
        ctx,
        spans: &spans,
        ledger: Ledger::default(),
        m: Vec::new(),
        notes: Vec::new(),
    };
    let run = spans.open("run", None, Some(workload.to_string()));
    match workload {
        "small_suite" => t.small_suite(run),
        "paper_grid" => t.paper_grid(run),
        "tiled_mesh" => t.tiled_mesh(run),
        "sweepd_regen" => t.sweepd_regen(run),
        _ => unreachable!("workload validated by the caller"),
    }
    spans.close(run);
    let Traced {
        mut ledger,
        m,
        notes,
        ..
    } = t;
    // Exactly the per-layer metrics, in their documented order.
    let mut out = Vec::new();
    for (name, unit) in metric_names() {
        match m.iter().find(|x| x.name == name) {
            Some(x) => out.push(Metric::new(name, x.value, unit)),
            None => {
                ledger.fail(format!("metric {name} was not measured"));
                out.push(Metric::new(name, 0.0, unit));
            }
        }
    }
    (Report { ledger, notes }, out, spans)
}

struct Traced<'a> {
    ctx: &'a Ctx,
    spans: &'a Spans,
    ledger: Ledger,
    m: Vec<Metric>,
    notes: Vec<String>,
}

/// A kernel's device-side handles, from its `setup_*` call.
enum Dev {
    Spmv(spmv::SpmvDevice),
    Bfs(bfs::BfsDevice),
    Pr(pagerank::PrDevice),
    Fft(fft::FftDevice),
}

/// The `setup_*` call the harness makes for `kernel`.
fn setup_dev<V: Vm>(vm: &mut V, w: &Workloads, kernel: KernelKind) -> Dev {
    match kernel {
        KernelKind::Spmv => Dev::Spmv(spmv::setup_spmv(vm, &w.mat, &w.sell)),
        KernelKind::Bfs => Dev::Bfs(bfs::setup_bfs(vm, &w.graph, 256, w.bfs_src)),
        KernelKind::Pr => Dev::Pr(pagerank::setup_pagerank(
            vm, &w.graph, 256, 0.85, w.pr_iters,
        )),
        KernelKind::Fft => Dev::Fft(fft::setup_fft(vm, &w.signal.0, &w.signal.1)),
    }
}

/// The kernel driver the harness runs for `imp`.
fn drive<V: Vm>(vm: &mut V, dev: &Dev, imp: ImplKind) {
    let scalar = imp == ImplKind::Scalar;
    match dev {
        Dev::Spmv(d) if scalar => spmv::spmv_scalar(vm, d),
        Dev::Spmv(d) => spmv::spmv_vector_sell(vm, d),
        Dev::Bfs(d) if scalar => bfs::bfs_scalar(vm, d),
        Dev::Bfs(d) => bfs::bfs_vector(vm, d),
        Dev::Pr(d) if scalar => pagerank::pagerank_scalar(vm, d),
        Dev::Pr(d) => pagerank::pagerank_vector(vm, d),
        Dev::Fft(d) if scalar => fft::fft_scalar(vm, d),
        Dev::Fft(d) => fft::fft_vector(vm, d),
    }
}

/// Host seconds of each phase of one replayed cell.
#[derive(Default)]
struct Phases {
    reset: f64,
    setup: f64,
    driver: f64,
    finish: f64,
    vm: VmCounts,
}

impl Phases {
    fn wall(&self) -> f64 {
        self.reset + self.setup + self.driver + self.finish
    }
}

/// Replay one 1-tile cell on `m` the way the harness runs it, timing each
/// phase; with `count`, the driver runs through the counting wrapper.
fn replay(
    m: &mut SdvMachine,
    w: &Workloads,
    cell: Cell,
    count: bool,
    spans: &Spans,
    parent: usize,
) -> (Result<u64, SimError>, Phases, Stats) {
    let name = Some(cell_name(&cell, 1));
    let mut p = Phases::default();
    let span = spans.open(
        if count {
            "replay_counted"
        } else {
            "replay_plain"
        },
        Some(parent),
        name.clone(),
    );
    ((), p.reset) = spans.time("core.reset_with_config", Some(span), name.clone(), || {
        m.reset_with_config(TimingConfig::default());
        m.set_extra_latency(cell.extra_latency);
        m.set_bandwidth_limit(cell.bandwidth);
        if let ImplKind::Vector { maxvl } = cell.imp {
            m.set_maxvl_cap(maxvl);
        }
    });
    let dev;
    (dev, p.setup) = spans.time("kernels.setup", Some(span), name.clone(), || {
        setup_dev(m, w, cell.kernel)
    });
    ((), p.driver) = spans.time("kernels.driver", Some(span), name.clone(), || {
        if count {
            let mut c = Counted::new(&mut *m);
            drive(&mut c, &dev, cell.imp);
            p.vm = c.counts;
        } else {
            drive(m, &dev, cell.imp);
        }
    });
    let cycles;
    (cycles, p.finish) = spans.time("uarch.try_finish", Some(span), name, || m.try_finish());
    spans.close(span);
    (cycles, p, m.stats())
}

/// Sum of a stat over the pass's completed cells.
fn stat_sum(pass: &[(usize, CellOutcome)], key: &str) -> u64 {
    pass.iter()
        .filter_map(|(_, o)| match o {
            CellOutcome::Done(r) => Some(r.stats.get(key)),
            CellOutcome::Failed { .. } => None,
        })
        .sum()
}

/// Median ns per iteration of `f` over five timed batches of `iters`.
fn micro(iters: u64, mut f: impl FnMut()) -> f64 {
    f();
    let mut v = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        v.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&v)
}

/// Flat memory for the RVV micros.
struct Flat(Vec<u8>);

impl sdv_rvv::VMemory for Flat {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let a = addr as usize;
        buf.copy_from_slice(&self.0[a..a + buf.len()]);
    }
    fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        let a = addr as usize;
        self.0[a..a + buf.len()].copy_from_slice(buf);
    }
}

impl Traced<'_> {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.m.push(Metric::new(name, value, unit));
    }

    // -------------------------------------------------------- the workloads

    fn small_suite(&mut self, run: usize) {
        let w = wl::small_setup(&mut self.ledger);
        let pass = wl::small_suite_pass(&w, &mut Rng::new(self.ctx.seed));
        wl::absorb_pass(&mut self.ledger, self.ctx, Scale::Small, &pass);
        wl::check_suite_total(&mut self.ledger, &pass);
        self.pass_metrics(&pass, run);
        self.counts(&pass.outcomes);
        self.replays(&w, &pass, &wl::small_suite_cells(), run);
        self.probes(&w, Scale::Small, &pass, run);
        self.server_probe(run);
    }

    fn paper_grid(&mut self, run: usize) {
        let w = wl::paper_setup(&mut self.ledger);
        let pass = wl::paper_grid_pass(&w, self.ctx, &mut Rng::new(self.ctx.seed));
        wl::absorb_pass(&mut self.ledger, self.ctx, Scale::Paper, &pass);
        self.pass_metrics(&pass, run);
        self.counts(&pass.outcomes);
        // One cell per kernel × implementation: the +0, 64 B/cycle column.
        let subset: Vec<Cell> = wl::paper_grid_cells()
            .into_iter()
            .filter(|c| c.extra_latency == 0 && c.bandwidth == 64)
            .collect();
        self.replays(&w, &pass, &subset, run);
        self.probes(&w, Scale::Paper, &pass, run);
        self.server_probe(run);
    }

    fn tiled_mesh(&mut self, run: usize) {
        let w = wl::paper_setup(&mut self.ledger);
        let pass = wl::tiled_mesh_pass(&w, self.ctx, &mut Rng::new(self.ctx.seed));
        wl::absorb_pass(&mut self.ledger, self.ctx, Scale::Paper, &pass);
        self.pass_metrics(&pass, run);
        self.counts(&pass.outcomes);
        let classic: Vec<(usize, CellOutcome)> = pass
            .outcomes
            .iter()
            .filter(|(t, _)| *t == 1)
            .cloned()
            .collect();
        let classic = Pass {
            outcomes: classic,
            ..Pass::default()
        };
        self.replays(&w, &classic, &wl::tiled_cells(), run);
        self.probes(&w, Scale::Paper, &pass, run);
        // Multi-tile cells replace the probe's 1-tile finish time.
        let mut finish = 0.0;
        for tiles in [4, 16] {
            for cell in wl::tiled_cells() {
                let want = pass
                    .outcomes
                    .iter()
                    .find(|(t, o)| *t == tiles && o.cell() == cell);
                let (got, f) = self.tiled_run(&w, cell, config_for_tiles(tiles), run);
                finish += f;
                if want.and_then(|(_, o)| o.cycles()) != got.as_ref().ok().copied() {
                    self.ledger.fail(format!(
                        "{}: tiled replay gave {got:?}, sweep {:?}",
                        cell_name(&cell, tiles),
                        want.and_then(|(_, o)| o.cycles())
                    ));
                }
            }
        }
        self.set("core.tiled_finish_ms", finish * 1e3);
        self.server_probe(run);
    }

    fn sweepd_regen(&mut self, run: usize) {
        let s = match wl::sweepd_setup(self.ctx, &mut self.ledger) {
            Ok(s) => s,
            Err(e) => {
                self.ledger.attempted += 1;
                self.ledger.fail(format!("sweepd set-up: {e}"));
                return self.zero_fill();
            }
        };
        let mut rng = Rng::new(self.ctx.seed);
        let mut fresh = wl::Fresh::new(self.ctx.seed);
        let mut fresh_seen = Vec::new();
        let mut rtt = Vec::new();
        let before = s.server.stats("simulated").unwrap_or(0);
        // The first request's delivered cells, for the counts: the FIG3
        // grid from the server's memo plus two simulated fresh cells.
        let mut first: Vec<(usize, CellOutcome)> = Vec::new();
        for _ in 0..TRACED_REQUESTS {
            let (out, _) = self.spans.time("bench.client_sweep", Some(run), None, || {
                wl::sweepd_request(&s, self.ctx, &mut self.ledger, &mut rng, &mut fresh)
            });
            if first.is_empty() {
                first = out.iter().map(|o| (1, o.clone())).collect();
            }
            fresh_seen.extend(out.into_iter().filter(|o| wl::is_fresh(&o.cell())));
            let (r, dt) = self
                .spans
                .time("bench.client_request.status", Some(run), None, || {
                    sdv_bench::client_request(
                        &s.server.addr,
                        "status",
                        &sdv_bench::RetryPolicy::none(),
                    )
                });
            if let Err(e) = r {
                self.ledger.fail(format!("status: {e}"));
            }
            rtt.push(dt * 1e3);
        }
        let after = s.server.stats("simulated").unwrap_or(0);
        let hits = s.server.stats("cache_hits").unwrap_or(0);
        self.notes
            .extend(wl::verify_fresh(&mut self.ledger, &s, &fresh_seen));
        let statless = first
            .iter()
            .filter(|(_, o)| matches!(o, CellOutcome::Done(r) if r.stats.iter().next().is_none()))
            .count();
        if statless > 0 {
            self.ledger.fail(format!(
                "{statless} served cells came back without their stats"
            ));
        }
        let req = Pass {
            outcomes: first,
            ..Pass::default()
        };
        self.pass_metrics(&s.fill, run);
        self.counts(&req.outcomes);
        let replay_cells: Vec<Cell> = fresh_seen.iter().take(8).map(|o| o.cell()).collect();
        let with_fresh = Pass {
            outcomes: fresh_seen.iter().map(|o| (1, o.clone())).collect(),
            ..Pass::default()
        };
        self.replays(&s.w, &with_fresh, &replay_cells, run);
        self.probes(&s.w, Scale::Small, &req, run);
        self.set("server.status_rtt_ms", median(&rtt));
        self.set(
            "server.cells_simulated",
            (after - before) as f64 / TRACED_REQUESTS as f64,
        );
        self.set(
            "cache.hit_ratio",
            hits as f64 / (hits + after).max(1) as f64,
        );
        if let Err(e) = Server::stop(s.server) {
            self.ledger.fail(format!("sweepd shutdown: {e}"));
        }
    }

    /// Every metric at 0, when set-up failed and nothing was measured.
    fn zero_fill(&mut self) {
        for (name, unit) in metric_names() {
            self.put(&name, 0.0, unit);
        }
    }

    /// Replace (or add) a metric's value.
    fn set(&mut self, name: &str, value: f64) {
        let unit = metric_names()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or("count", |(_, u)| u);
        self.m.retain(|m| m.name != name);
        self.put(name, value, unit);
    }

    // ------------------------------------------------------ measured pieces

    /// Per-cell spans and the harness's sweep efficiency.
    fn pass_metrics(&mut self, pass: &Pass, run: usize) {
        let p = self.spans.open("pass", Some(run), None);
        let mut busy = 0.0;
        for t in &pass.times {
            busy += (t.end - t.start).as_secs_f64();
            self.spans.record(
                &format!("bench.cell.worker{}", t.worker),
                t.start,
                t.end,
                Some(p),
                Some(cell_name(&t.cell, t.tiles)),
            );
        }
        self.spans.close(p);
        self.set(
            "harness.sweep_efficiency",
            busy / pass.thread_seconds.max(f64::MIN_POSITIVE),
        );
    }

    fn counts(&mut self, outs: &[(usize, CellOutcome)]) {
        let s = |k: &str| stat_sum(outs, k) as f64;
        self.set("uarch.scalar_stall_cycles", s("scalar.stall_cycles"));
        self.set("uarch.vpu_mem_wait_cycles", s("vpu.mem_wait_cycles"));
        self.set("rvv.vector_instrs", s("vpu.instrs"));
        self.set("rvv.vector_elems", s("vpu.elements"));
        self.set("memsys.l1_miss", s("l1.miss"));
        self.set("memsys.l2_hit", s("l2.hit"));
        self.set("memsys.l2_miss", s("l2.miss"));
        self.set("memsys.dram_requests", s("dram.requests"));
        self.set(
            "memsys.dram_row_hit_ratio",
            s("dram.row_hits") / s("dram.requests").max(1.0),
        );
        self.set("memsys.coherence_recalls", s("coherence.recall"));
        self.set("noc.packets", s("noc.packets"));
        self.set("noc.flits", s("noc.flits"));
        self.set("noc.link_wait_cycles", s("noc.link_wait_cycles"));
    }

    /// Replay `cells` plain, counted and functional-only on one pooled
    /// machine; each replay's outcome must match the pass's.
    fn replays(&mut self, w: &Workloads, pass: &Pass, cells: &[Cell], run: usize) {
        let span = self.spans.open("replays", Some(run), None);
        let mut m = SdvMachine::new(w.heap);
        let (mut plain, mut counted) = (Phases::default(), Phases::default());
        let (mut plain_wall, mut counted_wall, mut func_wall) = (0.0, 0.0, 0.0);
        let mut sim_ops = 0u64;
        let mut per_kernel: Vec<(KernelKind, f64, f64)> = Vec::new();
        for &cell in cells {
            let want = pass
                .outcomes
                .iter()
                .find(|(t, o)| *t == 1 && o.cell() == cell)
                .map(|(_, o)| o.cycles());
            let (c1, p1, stats) = replay(&mut m, w, cell, false, self.spans, span);
            let (c2, p2, _) = replay(&mut m, w, cell, true, self.spans, span);
            let ((), f) = self.spans.time(
                "bench.run_functional_only",
                Some(span),
                Some(cell_name(&cell, 1)),
                || {
                    sdv_bench::run_functional_only(
                        &mut m,
                        w,
                        cell,
                        TimingConfig::default(),
                        Backend::default(),
                    )
                },
            );
            for got in [&c1, &c2] {
                if let Some(want) = want.filter(|want| *want != got.as_ref().ok().copied()) {
                    self.ledger.fail(format!(
                        "{}: replay gave {got:?}, pass {want:?}",
                        cell_name(&cell, 1)
                    ));
                }
            }
            sim_ops += stats.get("scalar.ops") + stats.get("vpu.instrs");
            plain_wall += p1.wall();
            counted_wall += p2.wall();
            func_wall += f;
            match per_kernel.iter_mut().find(|(k, ..)| *k == cell.kernel) {
                Some(e) => {
                    e.1 += p1.wall();
                    e.2 += f;
                }
                None => per_kernel.push((cell.kernel, p1.wall(), f)),
            }
            for (acc, p) in [(&mut plain, &p1), (&mut counted, &p2)] {
                acc.reset += p.reset;
                acc.setup += p.setup;
                acc.driver += p.driver;
                acc.finish += p.finish;
                acc.vm.add(&p.vm);
            }
        }
        self.spans.close(span);
        let timing = (plain_wall - func_wall).max(0.0);
        for (k, timed, func) in &per_kernel {
            self.notes.push(format!(
                "uarch timing share {:<5} {:6.1}% (timed {:.1} ms, functional-only {:.1} ms)",
                k.name(),
                100.0 * (timed - func).max(0.0) / timed,
                timed * 1e3,
                func * 1e3
            ));
        }
        self.notes
            .push(format!("replayed {} cells: {}", cells.len(), names(cells)));
        self.set("kernels.setup_ms", plain.setup * 1e3);
        self.set(
            "kernels.driver_self_ms",
            (counted.driver - counted.vm.total_ns() as f64 * 1e-9) * 1e3,
        );
        for (i, class) in CLASSES.iter().enumerate() {
            let calls = counted.vm.calls[i];
            self.set(&format!("core.vm_calls.{class}"), calls as f64);
            self.set(
                &format!("core.vm_ns.{class}"),
                counted.vm.ns[i] as f64 / calls.max(1) as f64,
            );
        }
        self.set("core.reset_ms", plain.reset * 1e3);
        self.set("uarch.timing_ms", timing * 1e3);
        self.set(
            "uarch.timing_share",
            timing / plain_wall.max(f64::MIN_POSITIVE),
        );
        self.set(
            "uarch.host_ns_per_sim_op",
            timing * 1e9 / sim_ops.max(1) as f64,
        );
        self.set("uarch.finish_ms", plain.finish * 1e3);
        self.set("trace.overhead_ms", (counted_wall - plain_wall) * 1e3);
        self.set(
            "trace.overhead_pct",
            100.0 * (counted_wall - plain_wall) / plain_wall.max(f64::MIN_POSITIVE),
        );
    }

    /// One cell on a fresh `TiledMachine`; returns its cycles and the
    /// seconds `try_finish` took.
    fn tiled_run(
        &mut self,
        w: &Workloads,
        cell: Cell,
        cfg: TimingConfig,
        run: usize,
    ) -> (Result<u64, SimError>, f64) {
        let name = Some(cell_name(&cell, cfg.mem.tiles));
        let span = self.spans.open("tiled_cell", Some(run), name.clone());
        let (mut m, _) = self.spans.time(
            "core.TiledMachine::with_config",
            Some(span),
            name.clone(),
            || {
                let mut m = TiledMachine::with_config(w.heap, cfg);
                m.set_extra_latency(cell.extra_latency);
                m.set_bandwidth_limit(cell.bandwidth);
                if let ImplKind::Vector { maxvl } = cell.imp {
                    m.set_maxvl_cap(maxvl);
                }
                m
            },
        );
        let (dev, _) = self
            .spans
            .time("kernels.setup", Some(span), name.clone(), || {
                setup_dev(&mut m.vm(0), w, cell.kernel)
            });
        self.spans.time(
            "kernels.tiled_driver",
            Some(span),
            name.clone(),
            || match &dev {
                Dev::Spmv(d) => sdv_kernels::spmv_vector_sell_tiled(&mut m, d),
                Dev::Bfs(d) => {
                    sdv_kernels::bfs_vector_tiled(&mut m, d);
                }
                Dev::Pr(d) => {
                    sdv_kernels::pagerank_vector_tiled(&mut m, d);
                }
                Dev::Fft(_) => unreachable!("FFT has no partitioned driver and is not in the grid"),
            },
        );
        let (cycles, f) =
            self.spans
                .time("core.TiledMachine::try_finish", Some(span), name, || {
                    m.try_finish()
                });
        self.spans.close(span);
        (cycles, f)
    }

    /// Component micros and machine comparisons, on the workload's inputs.
    fn probes(&mut self, w: &Workloads, scale: Scale, pass: &Pass, run: usize) {
        let span = self.spans.open("probes", Some(run), None);
        // A 1-tile TiledMachine against SdvMachine on SpMV vl=256 +0.
        let cell = Cell {
            kernel: KernelKind::Spmv,
            imp: ImplKind::Vector { maxvl: 256 },
            extra_latency: 0,
            bandwidth: 64,
        };
        let (mut classic, mut tiled, mut finish) = (Vec::new(), Vec::new(), Vec::new());
        let mut cycles = Vec::new();
        for _ in 0..3 {
            let (r, dt) = self.spans.time(
                "bench.try_run_with_config",
                Some(span),
                Some(cell_name(&cell, 1)),
                || sdv_bench::try_run_with_config(w, cell, TimingConfig::default()),
            );
            classic.push(dt);
            cycles.push(r.map(|r| r.cycles).ok());
            let t = Instant::now();
            let (r, f) = self.tiled_run(w, cell, TimingConfig::default(), span);
            tiled.push(secs(t));
            finish.push(f);
            cycles.push(r.ok());
        }
        let pin = self.ctx.pins.get(scale, &cell);
        if cycles
            .iter()
            .any(|c| c.is_none() || *c != cycles[0] || (pin.is_some() && *c != pin))
        {
            self.ledger.fail(format!(
                "1-tile TiledMachine vs SdvMachine cycles differ: {cycles:?}"
            ));
        }
        self.set(
            "core.tiled1_over_classic",
            median(&tiled) / median(&classic),
        );
        self.set("core.tiled_finish_ms", median(&finish) * 1e3);

        // FunctionalMachine against a bypassed SdvMachine, same cell.
        let mut m = SdvMachine::new(w.heap);
        sdv_bench::run_functional_only(
            &mut m,
            w,
            cell,
            TimingConfig::default(),
            Backend::default(),
        );
        let (mut func, mut bypass) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let ((), dt) = self.spans.time(
                "core.FunctionalMachine",
                Some(span),
                Some(cell_name(&cell, 1)),
                || {
                    let mut f = FunctionalMachine::new(w.heap);
                    f.set_maxvl_cap(256);
                    let dev = setup_dev(&mut f, w, cell.kernel);
                    drive(&mut f, &dev, cell.imp);
                },
            );
            func.push(dt);
            let ((), dt) = self.spans.time(
                "bench.run_functional_only",
                Some(span),
                Some(cell_name(&cell, 1)),
                || {
                    sdv_bench::run_functional_only(
                        &mut m,
                        w,
                        cell,
                        TimingConfig::default(),
                        Backend::default(),
                    )
                },
            );
            bypass.push(dt);
        }
        self.set(
            "core.functional_over_bypass",
            median(&func) / median(&bypass),
        );

        let micros = self.spans.open("micros", Some(span), None);
        self.micros();
        self.spans.close(micros);
        self.cache_probe(pass, w, span);
        self.spans.close(span);
    }

    fn micros(&mut self) {
        let mut st = VState::paper_vpu();
        st.set_vl(256, Sew::E64, Lmul::M1);
        let mut mem = Flat(vec![0u8; 1 << 16]);
        let mut scratch = ExecScratch::default();
        let mut info = ExecInfo::default();
        let mut exec = |inst: &VInst, st: &mut VState, iters: u64| {
            micro(iters, || {
                exec_into(
                    std::hint::black_box(inst),
                    st,
                    &mut mem,
                    &mut scratch,
                    &mut info,
                )
            })
        };
        let vadd = VInst::new(VOp::ArithVV {
            kind: ArithKind::Add,
            vd: 1,
            x: 2,
            y: 3,
        });
        let vle = VInst::new(VOp::Load {
            vd: 1,
            addr: MemAddr::Unit { base: 0 },
        });
        let vadd_ns = exec(&vadd, &mut st, 20_000);
        let vle_ns = exec(&vle, &mut st, 20_000);
        for i in 0..256 {
            st.regs.set(4, Sew::E64, i, ((i * 37) % 1024) as u64 * 8);
        }
        let vlxe = VInst::new(VOp::Load {
            vd: 1,
            addr: MemAddr::Indexed { base: 0, index: 4 },
        });
        let vlxe_ns = exec(&vlxe, &mut st, 5_000);
        self.set("rvv.exec_vadd_ns", vadd_ns);
        self.set("rvv.exec_vle_ns", vle_ns);
        self.set("rvv.exec_vlxe_ns", vlxe_ns);

        let mut cache = Cache::new(CacheConfig::l1d());
        cache.fill(0x1000, false);
        self.set(
            "memsys.cache_hit_ns",
            micro(400_000, || {
                std::hint::black_box(cache.access(0x1000, AccessKind::Read));
            }),
        );
        let mut dram = DramChannel::default();
        let mut t = 0u64;
        self.set(
            "memsys.dram_submit_ns",
            micro(200_000, || {
                t += 1;
                std::hint::black_box(dram.submit(t * 64, t));
            }),
        );
        let mut mesh = Mesh::default();
        let mut t = 0u64;
        self.set(
            "noc.send_ns",
            micro(200_000, || {
                t += 1;
                std::hint::black_box(mesh.send(0, 3, 64, t));
            }),
        );
        let mut evq: EventQueue<u32> = EventQueue::new();
        let (mut now, mut n) = (0u64, 0u64);
        self.set(
            "engine.events_schedule_pop_ns",
            micro(200_000, || {
                now += 3;
                evq.schedule(now + 10 + n.wrapping_mul(0x9E37_79B9) % 600, n as u32);
                n += 1;
                while let Some(due) = evq.pop_due(now) {
                    std::hint::black_box(due);
                }
            }),
        );
        let mut q: BoundedQueue<u64> = BoundedQueue::new(64);
        let mut k = 0u64;
        while !q.is_full() {
            q.push(k).expect("the is_full guard leaves room");
            k += 1;
        }
        self.set(
            "engine.bounded_queue_remove_ns",
            micro(200_000, || {
                let victim = k.wrapping_mul(0x9E37_79B9) % 64;
                if q.remove_first(|&v| v % 64 == victim).is_some() {
                    q.push(k).expect("a successful remove frees a slot");
                    k += 1;
                }
            }),
        );
    }

    /// Store then load the pass's completed results through a fresh
    /// `ResultCache`, timing each call.
    fn cache_probe(&mut self, pass: &Pass, w: &Workloads, parent: usize) {
        let dir = self.ctx.scratch.path().join("cache-probe");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = match ResultCache::open(&dir) {
            Ok(c) => c,
            Err(e) => return self.ledger.fail(format!("cache probe: {e}")),
        };
        let fp = w.fingerprint();
        let mut done: Vec<(CacheKey, u64, Stats)> = Vec::new();
        for (tiles, out) in &pass.outcomes {
            if let CellOutcome::Done(r) = out {
                let cfg = config_for_tiles(*tiles).canonical();
                done.push((
                    CacheKey::for_cell(r.cell, &fp, &cfg, Backend::default()),
                    r.cycles,
                    r.stats.clone(),
                ));
            }
        }
        done.truncate(64);
        let (mut store, mut load) = (Vec::new(), Vec::new());
        for (key, cycles, stats) in &done {
            let ((), dt) = self
                .spans
                .time("bench.ResultCache::store", Some(parent), None, || {
                    cache.store(key, *cycles, stats)
                });
            store.push(dt * 1e6);
        }
        for (key, cycles, _) in &done {
            let (hit, dt) = self
                .spans
                .time("bench.ResultCache::load", Some(parent), None, || {
                    cache.load(key)
                });
            load.push(dt * 1e6);
            if hit.map(|h| h.cycles) != Some(*cycles) {
                self.ledger
                    .fail("cache probe: a stored result did not load back".to_string());
            }
        }
        if done.is_empty() {
            self.ledger
                .fail("cache probe: no completed cells".to_string());
            store.push(0.0);
            load.push(0.0);
        }
        self.set("cache.store_us_p50", median(&store));
        self.set("cache.load_us_p50", median(&load));
    }

    /// A small `sweepd` round on the workloads that do not run one: a cold
    /// request, the same cells plus two fresh ones, and the same six again
    /// after a restart over the disk cache; plus status round trips.
    fn server_probe(&mut self, run: usize) {
        let span = self.spans.open("server_probe", Some(run), None);
        let r = self.server_probe_inner(span);
        self.spans.close(span);
        if let Err(e) = r {
            self.ledger.fail(format!("server probe: {e}"));
        }
    }

    fn server_probe_inner(&mut self, span: usize) -> Result<(), String> {
        let dir = self.ctx.scratch.path().join("server-probe");
        let w = Workloads::small();
        let id = wl::Identity {
            fp: w.fingerprint(),
            cfg_text: TimingConfig::default().canonical(),
        };
        let vl = ImplKind::Vector { maxvl: 256 };
        let mut cells: Vec<Cell> = [KernelKind::Fft, KernelKind::Spmv]
            .into_iter()
            .flat_map(|kernel| {
                [0, 16].map(|extra_latency| Cell {
                    kernel,
                    imp: vl,
                    extra_latency,
                    bandwidth: 64,
                })
            })
            .collect();
        let mut sims = 0;
        let check = |got: Vec<CellOutcome>, ledger: &mut Ledger| {
            for o in &got {
                ledger.check(
                    Scale::Small,
                    1,
                    o,
                    self.ctx.pins.get(Scale::Small, &o.cell()),
                );
            }
        };
        let server = Server::start(&dir)?;
        let got = self
            .spans
            .time("bench.client_sweep", Some(span), None, || {
                wl::request(&server, &id, &cells)
            })
            .0;
        check(got.map_err(|e| e.to_string())?, &mut self.ledger);
        let base = server.stats("simulated")?;
        cells.extend(wl::Fresh::new(self.ctx.seed).next());
        let got = self
            .spans
            .time("bench.client_sweep", Some(span), None, || {
                wl::request(&server, &id, &cells)
            })
            .0;
        check(got.map_err(|e| e.to_string())?, &mut self.ledger);
        sims += server.stats("simulated")?;
        let fresh_sims = sims - base;
        let mut rtt = Vec::new();
        for _ in 0..20 {
            let (r, dt) = self
                .spans
                .time("bench.client_request.status", Some(span), None, || {
                    sdv_bench::client_request(
                        &server.addr,
                        "status",
                        &sdv_bench::RetryPolicy::none(),
                    )
                });
            r.map_err(|e| e.to_string())?;
            rtt.push(dt * 1e3);
        }
        Server::stop(server)?;
        let server = Server::start(&dir)?;
        let got = self
            .spans
            .time("bench.client_sweep", Some(span), None, || {
                wl::request(&server, &id, &cells)
            })
            .0;
        check(got.map_err(|e| e.to_string())?, &mut self.ledger);
        let hits = server.stats("cache_hits")?;
        sims += server.stats("simulated")?;
        Server::stop(server)?;
        self.set("server.status_rtt_ms", median(&rtt));
        self.set("server.cells_simulated", fresh_sims as f64);
        self.set("cache.hit_ratio", hits as f64 / (hits + sims).max(1) as f64);
        Ok(())
    }
}

fn names(cells: &[Cell]) -> String {
    cells
        .iter()
        .map(|c| cell_name(c, 1))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("harness.sweep_efficiency".into(), "ratio"),
        ("kernels.setup_ms".into(), "ms"),
        ("kernels.driver_self_ms".into(), "ms"),
    ];
    for class in CLASSES {
        v.push((format!("core.vm_calls.{class}"), "count"));
    }
    for class in CLASSES {
        v.push((format!("core.vm_ns.{class}"), "ns"));
    }
    for (n, u) in [
        ("core.reset_ms", "ms"),
        ("core.tiled_finish_ms", "ms"),
        ("core.tiled1_over_classic", "ratio"),
        ("core.functional_over_bypass", "ratio"),
        ("uarch.timing_ms", "ms"),
        ("uarch.timing_share", "ratio"),
        ("uarch.host_ns_per_sim_op", "ns"),
        ("uarch.finish_ms", "ms"),
        ("uarch.scalar_stall_cycles", "cycles"),
        ("uarch.vpu_mem_wait_cycles", "cycles"),
        ("rvv.exec_vadd_ns", "ns"),
        ("rvv.exec_vle_ns", "ns"),
        ("rvv.exec_vlxe_ns", "ns"),
        ("rvv.vector_instrs", "count"),
        ("rvv.vector_elems", "count"),
        ("memsys.cache_hit_ns", "ns"),
        ("memsys.dram_submit_ns", "ns"),
        ("memsys.l1_miss", "count"),
        ("memsys.l2_hit", "count"),
        ("memsys.l2_miss", "count"),
        ("memsys.dram_requests", "count"),
        ("memsys.dram_row_hit_ratio", "ratio"),
        ("memsys.coherence_recalls", "count"),
        ("noc.send_ns", "ns"),
        ("noc.packets", "count"),
        ("noc.flits", "count"),
        ("noc.link_wait_cycles", "cycles"),
        ("engine.events_schedule_pop_ns", "ns"),
        ("engine.bounded_queue_remove_ns", "ns"),
        ("cache.load_us_p50", "us"),
        ("cache.store_us_p50", "us"),
        ("cache.hit_ratio", "ratio"),
        ("server.status_rtt_ms", "ms"),
        ("server.cells_simulated", "count"),
        ("trace.overhead_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ] {
        v.push((n.into(), u));
    }
    v
}
