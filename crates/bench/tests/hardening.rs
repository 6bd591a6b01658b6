//! End-to-end tests for the hardened sweep stack: seeded fault injection is
//! caught as structured per-cell failures, panics are isolated to their cell,
//! cycle budgets split a grid without killing it, and the armed watchdog
//! never perturbs healthy runs.

use sdv_bench::{Cell, CellOutcome, ImplKind, KernelKind, Sweeper, Workloads};
use sdv_engine::{FaultKind, FaultPlan, SimError};
use sdv_uarch::{TimingConfig, WatchdogConfig};

fn cell(kernel: KernelKind, maxvl: usize, extra_latency: u64) -> Cell {
    Cell { kernel, imp: ImplKind::Vector { maxvl }, extra_latency, bandwidth: 64 }
}

fn fault_config(kind: FaultKind, seed: u64) -> TimingConfig {
    TimingConfig {
        fault: FaultPlan::new(kind, seed),
        watchdog: WatchdogConfig::default_on(),
        ..Default::default()
    }
}

#[test]
fn every_fault_class_is_caught_as_a_structured_failure_without_aborting_the_grid() {
    let w = Workloads::small();
    let grid =
        [cell(KernelKind::Spmv, 64, 0), cell(KernelKind::Fft, 64, 0), cell(KernelKind::Bfs, 64, 0)];
    for kind in
        [FaultKind::StallBank, FaultKind::DropResponse, FaultKind::WedgeCredit, FaultKind::InjectPanic]
    {
        let mut sweeper = Sweeper::with_config(fault_config(kind, 7));
        let outcomes = sweeper.sweep_outcomes(&w, &grid, 2);
        assert_eq!(outcomes.len(), grid.len(), "{kind:?}: the grid must complete");
        for o in &outcomes {
            let CellOutcome::Failed { error, .. } = o else {
                panic!("{kind:?}: fault escaped — cell {:?} completed", o.cell());
            };
            match kind {
                FaultKind::InjectPanic => {
                    assert!(
                        matches!(error, SimError::Panic { .. }),
                        "{kind:?}: expected an isolated panic, got {error}"
                    );
                    assert!(error.to_string().contains("fault injection"), "{error}");
                }
                _ => {
                    assert!(
                        matches!(error, SimError::Deadlock { .. }),
                        "{kind:?}: expected a watchdog deadlock, got {error}"
                    );
                    let msg = error.to_string();
                    assert!(msg.contains("vpu:"), "diagnostic has VPU state: {msg}");
                    assert!(msg.contains("mesh:"), "diagnostic has NoC state: {msg}");
                }
            }
        }
    }
}

#[test]
fn panicked_cells_leave_the_worker_able_to_run_more_cells() {
    // Three cells through ONE worker thread with a panic fault armed: the
    // first panic poisons nothing — the pool slot is rebuilt and the later
    // cells still run (and fail with their own structured error, since the
    // rebuilt machine re-arms the fault).
    let w = Workloads::small();
    let grid =
        [cell(KernelKind::Spmv, 64, 0), cell(KernelKind::Fft, 64, 0), cell(KernelKind::Pr, 64, 0)];
    let mut sweeper = Sweeper::with_config(fault_config(FaultKind::InjectPanic, 3));
    let outcomes = sweeper.sweep_outcomes(&w, &grid, 1);
    assert_eq!(outcomes.len(), 3);
    for (o, c) in outcomes.iter().zip(&grid) {
        assert_eq!(o.cell(), *c, "outcomes stay in input order");
        assert!(
            matches!(o, CellOutcome::Failed { error: SimError::Panic { .. }, .. }),
            "every cell should report its own isolated panic"
        );
    }
}

#[test]
fn cycle_budget_fails_slow_cells_and_passes_fast_ones_in_the_same_grid() {
    let w = Workloads::small();
    // Golden small-workload cycles: SPMV vl=64 ≈ 31k (under budget),
    // SPMV scalar ≈ 134k (over budget).
    let fast = cell(KernelKind::Spmv, 64, 0);
    let slow = Cell {
        kernel: KernelKind::Spmv,
        imp: ImplKind::Scalar,
        extra_latency: 0,
        bandwidth: 64,
    };
    let mut cfg = TimingConfig::default();
    cfg.watchdog.cycle_budget = 50_000;
    let mut sweeper = Sweeper::with_config(cfg);
    let outcomes = sweeper.sweep_outcomes(&w, &[fast, slow], 2);

    let CellOutcome::Done(r) = &outcomes[0] else {
        panic!("fast cell must finish under budget: {:?}", outcomes[0]);
    };
    // Budget checking must not perturb timing: same cycles as a vanilla run.
    let vanilla = Sweeper::new().run_cell(&w, fast).cycles;
    assert_eq!(r.cycles, vanilla, "budget watchdog is a pure observer");

    let CellOutcome::Failed { error, .. } = &outcomes[1] else {
        panic!("slow cell must exceed the 50k budget: {:?}", outcomes[1]);
    };
    assert!(
        matches!(error, SimError::CycleBudgetExceeded { budget: 50_000, .. }),
        "expected a budget error, got {error}"
    );
}

#[test]
fn armed_watchdog_never_perturbs_healthy_grids() {
    let w = Workloads::small();
    let grid = [
        cell(KernelKind::Spmv, 64, 16),
        cell(KernelKind::Fft, 256, 0),
        cell(KernelKind::Bfs, 32, 0),
    ];
    let plain = Sweeper::new().sweep(&w, &grid, 2);
    let cfg = TimingConfig { watchdog: WatchdogConfig::default_on(), ..Default::default() };
    let watched = Sweeper::with_config(cfg).sweep_outcomes(&w, &grid, 2);
    for (p, o) in plain.iter().zip(&watched) {
        assert_eq!(o.cycles(), Some(p.cycles), "cell {:?}", p.cell);
    }
}
