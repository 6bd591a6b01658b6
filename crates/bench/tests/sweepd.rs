//! Integration tests for the sweep job server: real TCP, real workers,
//! concurrent clients with overlapping grids.

use std::time::Duration;

use sdv_bench::server::{client_request, client_sweep, RetryPolicy, ShutdownSignal, SweepSummary};
use sdv_bench::{
    serve, Cell, CellOutcome, ChaosKind, ChaosPlan, ImplKind, KernelKind, ServerConfig, Sweeper,
    Workloads,
};
use sdv_engine::SimError;
use sdv_rvv::Backend;
use sdv_uarch::TimingConfig;

/// Bind port 0, serve the small workload, and return (addr, join handle).
fn spawn_server(threads: usize) -> (String, std::thread::JoinHandle<()>) {
    spawn_server_with(threads, |_| {})
}

/// [`spawn_server`] with a configuration hook for the hardening knobs.
fn spawn_server_with(
    threads: usize,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (String, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut sc = ServerConfig::new("small", TimingConfig::default(), Backend, threads);
    tweak(&mut sc);
    let handle = std::thread::spawn(move || serve(listener, sc).unwrap());
    (addr, handle)
}

fn ask(addr: &str, op: &str) -> sdv_bench::json::Json {
    client_request(addr, op, &RetryPolicy::none()).unwrap()
}

fn sweep_from(
    addr: &str,
    w: &Workloads,
    cells: &[Cell],
) -> (SweepSummary, Vec<CellOutcome>) {
    let mut outcomes = Vec::new();
    let summary = client_sweep(
        addr,
        "small",
        &w.fingerprint(),
        &TimingConfig::default().canonical(),
        Backend,
        cells,
        &RetryPolicy::none(),
        |o| outcomes.push(o),
    )
    .unwrap();
    (summary, outcomes)
}

/// Two concurrent clients submit duplicate-heavy overlapping grids; every
/// unique cell is simulated exactly once for the server's lifetime, both
/// clients get full, agreeing results, and shutdown is clean.
#[test]
fn duplicate_heavy_concurrent_clients_simulate_each_cell_once() {
    let (addr, handle) = spawn_server(2);
    let w = Workloads::small();

    let mk = |imp, extra_latency| Cell {
        kernel: KernelKind::Spmv,
        imp,
        extra_latency,
        bandwidth: 64,
    };
    // 3 unique cells; client A asks for two of them (one duplicated in the
    // same request), client B overlaps on both of A's plus one of its own.
    let a_cells =
        vec![mk(ImplKind::Scalar, 0), mk(ImplKind::Vector { maxvl: 64 }, 0), mk(ImplKind::Scalar, 0)];
    let b_cells = vec![
        mk(ImplKind::Scalar, 0),
        mk(ImplKind::Vector { maxvl: 64 }, 0),
        mk(ImplKind::Vector { maxvl: 256 }, 0),
    ];

    let (a, b) = std::thread::scope(|s| {
        let wa = &w;
        let aa = addr.clone();
        let ha = s.spawn(move || sweep_from(&aa, wa, &a_cells));
        let ab = addr.clone();
        let hb = s.spawn(move || sweep_from(&ab, wa, &b_cells));
        (ha.join().unwrap(), hb.join().unwrap())
    });

    assert_eq!(a.0.cells, 2, "client A's duplicate collapses to 2 unique cells");
    assert_eq!(b.0.cells, 3);
    // The `simulated` counter is server-lifetime; after both sweeps it must
    // equal the number of unique cells across both grids.
    let stats = ask(&addr, "stats");
    assert_eq!(stats.get("simulated").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(stats.get("served").and_then(|v| v.as_u64()), Some(5));

    // Overlapping cells agree across clients.
    let cycles_of = |outcomes: &[CellOutcome], cell: Cell| {
        outcomes
            .iter()
            .find(|o| o.cell() == cell)
            .and_then(|o| o.cycles())
            .expect("cell present and done")
    };
    for cell in [mk(ImplKind::Scalar, 0), mk(ImplKind::Vector { maxvl: 64 }, 0)] {
        assert_eq!(cycles_of(&a.1, cell), cycles_of(&b.1, cell));
    }

    let ok = ask(&addr, "shutdown");
    assert_eq!(ok.get("ok").and_then(|v| v.as_bool()), Some(true));
    handle.join().unwrap();
}

/// A client whose identity (config) differs from the server's is rejected
/// with a transport-level error, not wrong results.
#[test]
fn mismatched_identity_is_rejected() {
    let (addr, handle) = spawn_server(1);
    let w = Workloads::small();
    let mut cfg = TimingConfig::default();
    cfg.vpu.lanes = 4;
    let err = client_sweep(
        &addr,
        "small",
        &w.fingerprint(),
        &cfg.canonical(),
        Backend,
        &[Cell {
            kernel: KernelKind::Spmv,
            imp: ImplKind::Scalar,
            extra_latency: 0,
            bandwidth: 64,
        }],
        &RetryPolicy::none(),
        |_| {},
    )
    .unwrap_err();
    assert!(err.to_string().contains("cfg"), "error names the mismatched field: {err}");
    ask(&addr, "shutdown");
    handle.join().unwrap();
}

/// Like [`sweep_from`] but with a caller-chosen retry policy, surfacing
/// the error instead of unwrapping.
fn try_sweep_from(
    addr: &str,
    w: &Workloads,
    cells: &[Cell],
    policy: &RetryPolicy,
) -> Result<(SweepSummary, Vec<CellOutcome>), SimError> {
    let mut outcomes = Vec::new();
    client_sweep(
        addr,
        "small",
        &w.fingerprint(),
        &TimingConfig::default().canonical(),
        Backend,
        cells,
        policy,
        |o| outcomes.push(o),
    )
    .map(|s| (s, outcomes))
}

fn spmv(imp: ImplKind) -> Cell {
    Cell { kernel: KernelKind::Spmv, imp, extra_latency: 0, bandwidth: 64 }
}

/// A sweep that would overflow the bounded job queue is rejected up front
/// with a classed `overloaded` error — transient, so clients may retry —
/// and the server stays healthy for correctly-sized work.
#[test]
fn a_sweep_beyond_the_queue_bound_is_rejected_as_overloaded() {
    let (addr, handle) = spawn_server_with(1, |sc| sc.max_queue = 1);
    let w = Workloads::small();
    let too_big = vec![
        spmv(ImplKind::Scalar),
        spmv(ImplKind::Vector { maxvl: 64 }),
        spmv(ImplKind::Vector { maxvl: 256 }),
    ];
    let err = try_sweep_from(&addr, &w, &too_big, &RetryPolicy::none()).unwrap_err();
    assert!(matches!(err, SimError::Overloaded { .. }), "got: {err}");
    assert!(err.transient(), "overload must invite a retry");
    assert!(err.to_string().contains("queue full"), "names the cause: {err}");

    // A right-sized sweep on the same server succeeds.
    let (s, outcomes) = try_sweep_from(&addr, &w, &too_big[..1], &RetryPolicy::none()).unwrap();
    assert_eq!(s.cells, 1);
    assert!(matches!(outcomes[0], CellOutcome::Done(_)));
    ask(&addr, "shutdown");
    handle.join().unwrap();
}

/// With drop-connection chaos armed, a retrying client still completes the
/// sweep (idempotent re-submission); a non-retrying client would have died.
#[test]
fn retry_rides_out_a_chaos_dropped_connection() {
    let (addr, handle) =
        spawn_server_with(1, |sc| sc.chaos = ChaosPlan::only(ChaosKind::DropConnection, 7));
    let w = Workloads::small();
    let cells = [spmv(ImplKind::Scalar), spmv(ImplKind::Vector { maxvl: 64 })];
    let policy = RetryPolicy::retries(6, 7);
    let (s, outcomes) = try_sweep_from(&addr, &w, &cells, &policy).unwrap();
    assert_eq!(s.cells, 2);
    assert!(outcomes.iter().all(|o| matches!(o, CellOutcome::Done(_))));
    client_request(&addr, "shutdown", &policy).unwrap();
    handle.join().unwrap();
}

/// A client that connects and then sends nothing is reaped by the
/// per-connection io timeout instead of holding a handler hostage; other
/// clients are unaffected.
#[test]
fn a_stalled_client_is_reaped_without_blocking_others() {
    let (addr, handle) =
        spawn_server_with(1, |sc| sc.io_timeout = Some(Duration::from_millis(200)));
    let stalled = std::net::TcpStream::connect(&addr).unwrap();
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // A healthy client sweeps to completion while the stall is pending.
    let w = Workloads::small();
    let (s, outcomes) = try_sweep_from(&addr, &w, &[spmv(ImplKind::Scalar)], &RetryPolicy::none())
        .unwrap();
    assert_eq!(s.cells, 1);
    assert!(matches!(outcomes[0], CellOutcome::Done(_)));

    // The server gives up on the silent connection: we observe EOF.
    let n = std::io::Read::read(&mut { stalled }, &mut [0u8; 16]).unwrap();
    assert_eq!(n, 0, "reaped connection closes cleanly from the client's view");
    ask(&addr, "shutdown");
    handle.join().unwrap();
}

/// The graceful-shutdown state machine end to end, driven by the same
/// [`ShutdownSignal`] the SIGTERM handler uses: an in-flight sweep runs to
/// completion, new sweeps are rejected with a classed `draining` error,
/// and the server then exits cleanly.
#[test]
fn shutdown_signal_drains_in_flight_work_and_rejects_new_sweeps() {
    let signal = ShutdownSignal::new();
    let sig = signal.clone();
    let (addr, handle) = spawn_server_with(1, move |sc| sc.signal = sig);
    let w = Workloads::small();
    // A long grid on one worker so the drain window is wide open.
    let grid: Vec<Cell> = [KernelKind::Spmv, KernelKind::Bfs, KernelKind::Pr, KernelKind::Fft]
        .into_iter()
        .flat_map(|k| {
            [ImplKind::Scalar, ImplKind::Vector { maxvl: 64 }, ImplKind::Vector { maxvl: 256 }]
                .map(|imp| Cell { kernel: k, imp, extra_latency: 0, bandwidth: 64 })
        })
        .collect();

    let (in_flight, rejected) = std::thread::scope(|s| {
        let wa = &w;
        let ga = grid.clone();
        let aa = addr.clone();
        let sweeping = s.spawn(move || try_sweep_from(&aa, wa, &ga, &RetryPolicy::none()));
        // Give the sweep time to be admitted, then pull the plug.
        std::thread::sleep(Duration::from_millis(150));
        signal.request();
        std::thread::sleep(Duration::from_millis(100));
        let rejected = try_sweep_from(&addr, &w, &[spmv(ImplKind::Scalar)], &RetryPolicy::none());
        (sweeping.join().unwrap(), rejected)
    });

    let (s, outcomes) = in_flight.expect("the admitted sweep survives the drain");
    assert_eq!(s.cells as usize, grid.len());
    assert!(outcomes.iter().all(|o| matches!(o, CellOutcome::Done(_))));
    let err = rejected.expect_err("a sweep submitted mid-drain is turned away");
    assert!(
        matches!(err, SimError::Draining { .. } | SimError::Unavailable { .. }),
        "got: {err}"
    );
    // serve() returns without a shutdown op ever being sent.
    handle.join().unwrap();
    assert!(
        std::net::TcpStream::connect(&addr).is_err(),
        "the drained server no longer listens"
    );
}

/// With `--fallback-local` semantics enabled, an unreachable server
/// degrades to in-process simulation; without it, the grid fails loudly.
#[test]
fn an_unreachable_server_falls_back_to_local_simulation_only_when_opted_in() {
    // Grab an ephemeral port and release it: nothing listens there now.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let w = Workloads::small();
    let cell = spmv(ImplKind::Scalar);

    let mut strict = Sweeper::with_config(TimingConfig::default());
    strict.set_remote(&dead_addr, "small");
    let outcomes = strict.sweep_outcomes(&w, &[cell], 1);
    assert!(
        matches!(&outcomes[0], CellOutcome::Failed { error, .. } if error.transient()),
        "without fallback the failure surfaces as a transient error"
    );

    let mut resilient = Sweeper::with_config(TimingConfig::default());
    resilient.set_remote(&dead_addr, "small");
    resilient.set_fallback_local(true);
    let outcomes = resilient.sweep_outcomes(&w, &[cell], 1);
    assert!(
        matches!(outcomes[0], CellOutcome::Done(_)),
        "with fallback the cell is simulated locally"
    );
    assert_eq!(resilient.fresh_simulations(), 1);
}

/// A cell that outlives the per-cell wall deadline comes back as a
/// structured failure; the server itself keeps serving.
#[test]
fn a_runaway_cell_trips_the_wall_deadline_as_a_failed_cell() {
    // Small-workload cells simulate in milliseconds of host time, so the
    // runaway threshold has to sit at microseconds: the first wall check
    // (every 2^14 cycles) already finds it blown.
    let (addr, handle) =
        spawn_server_with(1, |sc| sc.cell_wall = Some(Duration::from_micros(1)));
    let w = Workloads::small();
    let (s, outcomes) =
        try_sweep_from(&addr, &w, &[spmv(ImplKind::Scalar)], &RetryPolicy::none()).unwrap();
    assert_eq!(s.cells, 1);
    match &outcomes[0] {
        CellOutcome::Failed { error, .. } => {
            assert!(error.to_string().contains("deadline"), "names the cause: {error}");
        }
        CellOutcome::Done(r) => {
            panic!("a 1 µs deadline cannot fit a real cell ({} cycles)", r.cycles)
        }
    }
    // The server survives its client's runaway cell.
    let pong = ask(&addr, "ping");
    assert_eq!(pong.get("ok").and_then(|v| v.as_bool()), Some(true));
    ask(&addr, "shutdown");
    handle.join().unwrap();
}
