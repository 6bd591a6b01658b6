//! perfbench — the repository benchmark.
//!
//! `perfbench --workload W --seed N --seconds S --trace 0|1`, run from the
//! root of a checkout. Runs one named workload for about `S` seconds of
//! measuring (always at least one whole pass), checks every simulated cell
//! against the repository's cycle pins, and prints as its last stdout line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones of `BENCHMARK.json`;
//! with `--trace 1` they are the per-layer ones, from a separate traced run
//! that also writes its spans to `.perfbench/spans-<W>-seed<N>.jsonl`.
//!
//! `perfbench --compare BASE.log NEW.log` summarises two sets of saved runs
//! side by side and refuses (exit 3) when they come from different hosts or
//! a side mixes builds.
//!
//! Workloads, metrics and the layer map are described in `perfbench/NOTES.md`.
//! Exit codes: 0 when a result was printed, 2 for a usage error, 1 when the
//! run could not start (for example outside a checkout).

mod compare;
mod layers;
mod pins;
mod trace;
mod util;
mod workloads;

use pins::Pins;
use std::path::Path;
use util::{median, peak_rss_mb, tail};
use workloads::{Ctx, Report};

const WORKLOADS: [&str; 4] = ["small_suite", "paper_grid", "tiled_mesh", "sweepd_regen"];

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1\n       perfbench --compare BASE.log NEW.log",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn arg<T: std::str::FromStr>(args: &[String], key: &str) -> T {
    let Some(i) = args.iter().position(|a| a == key) else {
        usage(&format!("missing {key}"))
    };
    let Some(v) = args.get(i + 1) else {
        usage(&format!("{key} needs a value"))
    };
    v.parse()
        .unwrap_or_else(|_| usage(&format!("bad value '{v}' for {key}")))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--compare") {
        let [base, new] = [args.get(2), args.get(3)].map(|p| {
            p.cloned()
                .unwrap_or_else(|| usage("--compare needs two log files"))
        });
        match compare::compare(&base, &new) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("perfbench: not comparable: {e}");
                std::process::exit(3);
            }
        }
        return;
    }
    let workload: String = arg(&args, "--workload");
    let seed: u64 = arg(&args, "--seed");
    let seconds: f64 = arg(&args, "--seconds");
    let traced = match arg::<u8>(&args, "--trace") {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload '{workload}'"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage("--seconds must be positive");
    }
    let root = Path::new(".");
    if !root.join("crates").is_dir() || !root.join("results/golden").is_dir() {
        eprintln!(
            "perfbench: run from the root of a checkout (no crates/ or results/golden/ here)"
        );
        std::process::exit(1);
    }
    let scratch = util::Scratch::new(root).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create .perfbench/ scratch dir: {e}");
        std::process::exit(1);
    });
    let threads = util::nproc().min(2);
    // Numbers are comparable only between runs with the same host line.
    println!(
        "fingerprint: build={} src={} cpu=\"{}\" nproc={} threads={threads} seed={seed} workload={workload} trace={}",
        sdv_engine::build_info(),
        util::source_fingerprint(root),
        util::cpu_model(),
        util::nproc(),
        u8::from(traced),
    );
    let ctx = Ctx {
        seed,
        seconds,
        threads,
        pins: Pins::load(),
        scratch,
    };
    let ticks = util::cpu_ticks();

    let (report, metrics) = if traced {
        let (report, metrics, spans) = layers::traced(&workload, &ctx);
        let path = root
            .join(".perfbench")
            .join(format!("spans-{workload}-seed{seed}.jsonl"));
        match spans.write(&path) {
            Ok(n) => println!("spans: {n} written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
        (report, metrics)
    } else {
        let report = match workload.as_str() {
            "small_suite" => workloads::small_suite(&ctx),
            "paper_grid" => workloads::paper_grid(&ctx),
            "tiled_mesh" => workloads::tiled_mesh(&ctx),
            "sweepd_regen" => workloads::sweepd_regen(&ctx),
            _ => unreachable!("workload validated above"),
        };
        let metrics = end_to_end(&report);
        (report, metrics)
    };
    println!(
        "host: {:.1}% of this VM's CPU time was stolen by the host during the run",
        100.0 * util::steal_share(ticks, util::cpu_ticks())
    );
    print_result(&report, &metrics);
}

/// The end-to-end metrics of an untraced run.
///
/// The gated metrics (the result line) are in CPU time, which leaves out
/// the time the host steals from this VM's virtual CPUs: wall-clock pass
/// times moved by up to 2× between runs minutes apart on a shared 2-vCPU
/// host while CPU times moved by a few percent. Every metric of the
/// benchmark's specification is also printed, under its own name and in
/// wall time where it is a wall-time metric, on the lines before it.
fn end_to_end(r: &Report) -> Vec<Metric> {
    let l = &r.ledger;
    let cpu: f64 = l.pass_cpu.iter().sum();
    let wall: f64 = l.pass_walls.iter().sum();
    let (tail_ms, pct) = tail(&l.latencies_ms);
    let (tail_cpu_ms, _) = tail(&l.cpu_latencies_ms);
    let n = l.latencies_ms.len();
    let info = [
        (
            "wall_s",
            median(&l.pass_walls),
            "s",
            format!("median of {} passes", l.pass_walls.len()),
        ),
        (
            "sim_mcycles_per_s",
            l.cycles as f64 / wall / 1e6,
            "Mcycles/s",
            "wall".to_string(),
        ),
        (
            "sweep_ms_p50",
            median(&l.latencies_ms),
            "ms",
            format!("wall, {n} requests"),
        ),
        (
            "sweep_ms_tail",
            tail_ms,
            "ms",
            format!("wall p{pct:.1} of {n} requests"),
        ),
        (
            "sweep_cpu_ms_p50",
            median(&l.cpu_latencies_ms),
            "ms",
            format!("CPU, {n} requests"),
        ),
        (
            "sweep_cpu_ms_tail",
            tail_cpu_ms,
            "ms",
            format!("CPU p{pct:.1} of {n} requests"),
        ),
        (
            "cells_per_s",
            l.cells as f64 / wall,
            "1/s",
            "wall".to_string(),
        ),
        ("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM".to_string()),
        (
            "fail_frac",
            l.failed as f64 / l.attempted.max(1) as f64,
            "ratio",
            format!("{} of {}", l.failed, l.attempted),
        ),
    ];
    for (name, value, unit, how) in info {
        println!("{name:<36} {value:>16.6} {unit:<10} ({how})");
    }
    vec![
        Metric::new("cpu_s", median(&l.pass_cpu), "s"),
        Metric::new(
            "sim_mcycles_per_cpu_s",
            l.cycles as f64 / cpu / 1e6,
            "Mcycles/s",
        ),
        Metric::new("setup_s", median(&l.setup), "s"),
    ]
}

fn print_result(r: &Report, metrics: &[Metric]) {
    let l = &r.ledger;
    for note in &r.notes {
        println!("{note}");
    }
    for p in &l.problems {
        println!("FAILED: {p}");
    }
    for m in metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        l.correct(),
        l.attempted.max(1),
        l.failed,
        body.join(", ")
    );
}
