//! FIG5 — Figure 5 of the paper: execution time of the four kernels as a
//! function of the bandwidth cap (1–64 B/cycle), normalized per
//! implementation to its own run at 1 B/cycle. Lower is better; a curve that
//! keeps dropping at high caps is an implementation that can exploit more
//! bandwidth from a single core.
//!
//! Usage: `fig5_bandwidth [--small] [--threads N] [--csv PATH]
//! [--cache | --cache-dir DIR] [--server ADDR]
//! [--metrics-json PATH] [--trace PATH [--trace-kernel K]]
//! [--watchdog] [--cycle-budget N]
//! [--fault KIND [--fault-seed N]]`
//!
//! Failed cells render as `FAILED` (a failed 1 B/cycle baseline fails its
//! whole column), the rest of the grid completes, and the process exits 4.

use sdv_bench::cli;
use sdv_bench::table::render;
use sdv_bench::{Cell, ImplKind, KernelKind, Sweeper, Workloads};
use std::fmt::Write as _;

const BIN: &str = "fig5_bandwidth";

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
    let bandwidths: &[u64] = &[1, 2, 4, 8, 16, 32, 64];
    let impls = ImplKind::paper_set();

    // One runner for the whole figure: machines reset and reused across
    // kernels, repeated cells memoized.
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
                bandwidths.iter().map(move |&bandwidth| Cell {
                    kernel,
                    imp,
                    extra_latency: 0,
                    bandwidth,
                })
            })
        })
        .collect();
    let outcomes = sweeper.sweep_outcomes(&w, &all_cells, threads);
    let mut csv_out = String::from("kernel,impl,bandwidth_bytes_per_cycle,normalized_time\n");
    for kernel in KernelKind::all() {
        let cells: Vec<Cell> = impls
            .iter()
            .flat_map(|&imp| {
                bandwidths.iter().map(move |&bandwidth| Cell {
                    kernel,
                    imp,
                    extra_latency: 0,
                    bandwidth,
                })
            })
            .collect();
        let results = sweeper.sweep_outcomes(&w, &cells, threads);
        // results[ii * B + bi]; baseline is bi == 0 (1 B/cycle). A failed
        // cell (or a failed baseline) yields None and renders as FAILED.
        let norm = |ii: usize, bi: usize| -> Option<f64> {
            let base = results[ii * bandwidths.len()].cycles()?;
            let c = results[ii * bandwidths.len() + bi].cycles()?;
            Some(c as f64 / base as f64)
        };
        let headers: Vec<String> = impls.iter().map(|i| i.to_string()).collect();
        let rows: Vec<(String, Vec<String>)> = bandwidths
            .iter()
            .enumerate()
            .map(|(bi, &bw)| {
                let cells: Vec<String> = impls
                    .iter()
                    .enumerate()
                    .map(|(ii, imp)| match norm(ii, bi) {
                        Some(n) => {
                            writeln!(csv_out, "{},{imp},{bw},{n:.4}", kernel.name()).unwrap();
                            format!("{n:.3}")
                        }
                        None => {
                            writeln!(csv_out, "{},{imp},{bw},FAILED", kernel.name()).unwrap();
                            "FAILED".to_string()
                        }
                    })
                    .collect();
                (format!("{bw} B/cy"), cells)
            })
            .collect();
        println!(
            "{}",
            render(
                &format!(
                    "Figure 5 — {} execution time vs bandwidth cap (normalized to 1 B/cycle)",
                    kernel.name()
                ),
                "bandwidth",
                &headers,
                &rows
            )
        );
        // The chart needs every point; skip it when any cell of this kernel
        // failed (the table above still shows which ones).
        let all_done = (0..impls.len())
            .all(|ii| (0..bandwidths.len()).all(|bi| norm(ii, bi).is_some()));
        if all_done {
            let series: Vec<sdv_bench::plot::Series> = impls
                .iter()
                .enumerate()
                .map(|(ii, imp)| sdv_bench::plot::Series {
                    label: imp.to_string(),
                    ys: (0..bandwidths.len()).map(|bi| norm(ii, bi).unwrap()).collect(),
                })
                .collect();
            println!(
                "{}",
                sdv_bench::plot::line_chart(
                    &format!(
                        "{} (normalized time; paper Fig. 5 shape: longer VL = later plateau)",
                        kernel.name()
                    ),
                    &bandwidths.iter().map(|b| format!("{b}B/cy")).collect::<Vec<_>>(),
                    &series,
                    16,
                    false
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
            extra_latency: 0,
            bandwidth: *bandwidths.first().unwrap(),
        },
    );
    cli::report_failures_and_exit(BIN, &outcomes);
}
