//! FIG3 — Figure 3 of the paper: execution time of the four kernels as a
//! function of added memory latency, for the scalar implementation and the
//! vector implementation at MAXVL ∈ {8,16,32,64,128,256}.
//!
//! Usage: `fig3_latency [--small] [--threads N] [--csv PATH]
//! [--cache | --cache-dir DIR] [--server ADDR]
//! [--metrics-json PATH] [--trace PATH [--trace-kernel K]]
//! [--watchdog] [--cycle-budget N]
//! [--fault KIND [--fault-seed N]]`
//!
//! `--metrics-json` exports the per-cell stall breakdown; `--trace` writes a
//! Chrome `trace_event` timeline of the highest-latency vl=256 cell (another
//! kernel via `--trace-kernel`). Neither flag changes the sweep's cycles.
//!
//! `--cache` consults (and fills) the persistent result cache under
//! `results/cache/` before simulating — a warm rerun regenerates this
//! figure's CSV byte-identically without simulating anything. `--server`
//! ships the grid to a running `sweepd` instead of simulating locally.
//!
//! The cache stores every completed cell as it lands, so rerunning a killed
//! sweep with `--cache` simulates only the missing cells and produces a
//! bit-identical CSV. Failing cells (watchdog deadlocks, invariant
//! violations, injected faults) are reported per cell, render as `FAILED`,
//! and turn the exit code into 4 — the rest of the grid still completes.

use sdv_bench::cli;
use sdv_bench::{Cell, CellOutcome, ImplKind, KernelKind, Sweeper, Workloads};
use std::fmt::Write as _;

const BIN: &str = "fig3_latency";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let threads = match cli::parse_arg::<usize>(&args, "--threads") {
        Ok(Some(0)) => cli::die_usage(BIN, "--threads must be positive"),
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Err(e) => cli::die_usage(BIN, &e),
    };
    let csv = cli::arg_value(&args, "--csv").map(str::to_string);
    let cfg = cli::hardening_config(&args).unwrap_or_else(|e| cli::die_usage(BIN, &e));

    let w = if small { Workloads::small() } else { Workloads::paper() };
    let latencies: &[u64] = &[0, 16, 32, 64, 128, 256, 512, 1024];
    let impls = ImplKind::paper_set();

    // One runner for the whole figure: machines are reset and reused across
    // kernels instead of reallocated, and repeated cells are memoized.
    let mut sweeper = Sweeper::with_config(cfg);
    cli::configure_sweeper(BIN, &args, &mut sweeper, if small { "small" } else { "paper" });
    // Submit the whole figure as ONE grid up front: the long-pole-first
    // schedule then orders cells across all four kernels (not within each
    // kernel's barrier), so workers never idle at a per-kernel boundary.
    // The per-kernel sweeps below replay from the memo for free.
    let all_cells: Vec<Cell> = KernelKind::all()
        .into_iter()
        .flat_map(|kernel| {
            impls.iter().flat_map(move |&imp| {
                latencies.iter().map(move |&extra_latency| Cell {
                    kernel,
                    imp,
                    extra_latency,
                    bandwidth: 64,
                })
            })
        })
        .collect();
    let outcomes = sweeper.sweep_outcomes(&w, &all_cells, threads);
    let mut csv_out = String::from("kernel,impl,extra_latency,cycles\n");
    for kernel in KernelKind::all() {
        let cells: Vec<Cell> = impls
            .iter()
            .flat_map(|&imp| {
                latencies.iter().map(move |&extra_latency| Cell {
                    kernel,
                    imp,
                    extra_latency,
                    bandwidth: 64,
                })
            })
            .collect();
        let results = sweeper.sweep_outcomes(&w, &cells, threads);
        let headers: Vec<String> = impls.iter().map(|i| i.to_string()).collect();
        let rows: Vec<(String, Vec<String>)> = latencies
            .iter()
            .enumerate()
            .map(|(li, &lat)| {
                let cells: Vec<String> = impls
                    .iter()
                    .enumerate()
                    .map(|(ii, imp)| {
                        let o = &results[ii * latencies.len() + li];
                        let shown = match o.cycles() {
                            Some(cy) => cy.to_string(),
                            None => "FAILED".to_string(),
                        };
                        writeln!(csv_out, "{},{imp},{lat},{shown}", kernel.name()).unwrap();
                        shown
                    })
                    .collect();
                (lat.to_string(), cells)
            })
            .collect();
        println!(
            "{}",
            harness_table(
                &format!("Figure 3 — {} execution time [cycles] vs added latency", kernel.name()),
                &headers,
                &rows
            )
        );
        // The log-scale chart needs every point; skip it when any cell of
        // this kernel failed (the table above still shows which ones).
        if results.iter().all(CellOutcome::is_done) {
            let series: Vec<sdv_bench::plot::Series> = impls
                .iter()
                .enumerate()
                .map(|(ii, imp)| sdv_bench::plot::Series {
                    label: imp.to_string(),
                    ys: latencies
                        .iter()
                        .enumerate()
                        .map(|(li, _)| {
                            results[ii * latencies.len() + li].cycles().unwrap() as f64
                        })
                        .collect(),
                })
                .collect();
            println!(
                "{}",
                sdv_bench::plot::line_chart(
                    &format!(
                        "{} (log cycles; paper Fig. 3 shape: darker/longer VL = flatter)",
                        kernel.name()
                    ),
                    &latencies.iter().map(|l| format!("+{l}")).collect::<Vec<_>>(),
                    &series,
                    16,
                    true
                )
            );
        } else {
            println!("{}: chart skipped — kernel has failed cells\n", kernel.name());
        }
    }
    if let Some(path) = csv {
        if let Err(e) = std::fs::write(&path, csv_out) {
            cli::die_bad_input(BIN, &format!("cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }
    sdv_bench::metrics::write_metrics_if_requested(BIN, &args, &outcomes);
    sdv_bench::metrics::write_trace_if_requested(
        BIN,
        &args,
        &w,
        cfg,
        Cell {
            kernel: KernelKind::Spmv,
            imp: ImplKind::Vector { maxvl: 256 },
            extra_latency: *latencies.last().unwrap(),
            bandwidth: 64,
        },
    );
    cli::report_failures_and_exit(BIN, &outcomes);
}

fn harness_table(title: &str, headers: &[String], rows: &[(String, Vec<String>)]) -> String {
    sdv_bench::table::render(title, "+latency", headers, rows)
}
