//! FIG4 — Figure 4 of the paper: per-implementation slowdown tables.
//!
//! For each kernel, a table with implementations as columns (scalar,
//! vl=8..256) and added-latency values as rows; each cell is that
//! implementation's execution time normalized to its own run with 0 extra
//! latency. The paper color-codes green→red; we flag cells `*`/`**`/`!!` by
//! slowdown magnitude.
//!
//! Also prints the paper's §4.1 anchor comparison (SpMV at +32 and +1024).
//!
//! Usage: `fig4_slowdown [--small] [--threads N] [--csv PATH]
//! [--cache | --cache-dir DIR] [--server ADDR]
//! [--metrics-json PATH] [--trace PATH [--trace-kernel K]]
//! [--watchdog] [--cycle-budget N]
//! [--fault KIND [--fault-seed N]]`
//!
//! Failed cells render as `FAILED` (a failed 0-latency baseline fails its
//! whole column), the rest of the grid completes, and the process exits 4.

use sdv_bench::cli;
use sdv_bench::table::{render, slowdown_cell};
use sdv_bench::{Cell, ImplKind, KernelKind, Sweeper, Workloads};
use std::fmt::Write as _;

const BIN: &str = "fig4_slowdown";

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

    // One runner for the whole figure: machine pool + memo shared across
    // kernels (fig4's grid is identical to fig3's, so a combined driver could
    // share a Sweeper across both and pay for each cell once).
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
    let mut csv_out = String::from("kernel,impl,extra_latency,slowdown\n");
    let mut anchors: Vec<String> = Vec::new();
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
        // results[ii * L + li]; baseline is li == 0. A failed cell (or a
        // failed baseline) yields None and renders as FAILED.
        let headers: Vec<String> = impls.iter().map(|i| i.to_string()).collect();
        let mut slowdown = vec![vec![None::<f64>; impls.len()]; latencies.len()];
        for (ii, _) in impls.iter().enumerate() {
            let base = results[ii * latencies.len()].cycles();
            for (li, _) in latencies.iter().enumerate() {
                slowdown[li][ii] = match (base, results[ii * latencies.len() + li].cycles()) {
                    (Some(b), Some(c)) => Some(c as f64 / b as f64),
                    _ => None,
                };
            }
        }
        let rows: Vec<(String, Vec<String>)> = latencies
            .iter()
            .enumerate()
            .map(|(li, &lat)| {
                let cells: Vec<String> = impls
                    .iter()
                    .enumerate()
                    .map(|(ii, imp)| match slowdown[li][ii] {
                        Some(s) => {
                            writeln!(csv_out, "{},{imp},{lat},{s:.4}", kernel.name()).unwrap();
                            slowdown_cell(s)
                        }
                        None => {
                            writeln!(csv_out, "{},{imp},{lat},FAILED", kernel.name()).unwrap();
                            "FAILED".to_string()
                        }
                    })
                    .collect();
                (format!("+{lat}"), cells)
            })
            .collect();
        println!(
            "{}",
            render(
                &format!(
                    "Figure 4 — {} slowdown vs own 0-latency run (scalar .. vl=256)",
                    kernel.name()
                ),
                "+latency",
                &headers,
                &rows
            )
        );
        if kernel == KernelKind::Spmv {
            let li32 = latencies.iter().position(|&l| l == 32).unwrap();
            let li1024 = latencies.iter().position(|&l| l == 1024).unwrap();
            let anchor_cells =
                [slowdown[li32][0], slowdown[li32][6], slowdown[li1024][0], slowdown[li1024][6]];
            if let [Some(s32), Some(v32), Some(s1024), Some(v1024)] = anchor_cells {
                anchors.push(format!(
                    "SpMV anchor (paper §4.1: +32 ⇒ scalar 1.22x vs vl256 1.05x; +1024 ⇒ 8.78x vs 3.39x)\n\
                     measured: +32 ⇒ scalar {s32:.2}x vs vl256 {v32:.2}x; +1024 ⇒ scalar {s1024:.2}x vs vl256 {v1024:.2}x"
                ));
            } else {
                anchors.push("SpMV anchor skipped — anchor cells failed".to_string());
            }
        }
    }
    for a in anchors {
        println!("{a}\n");
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
