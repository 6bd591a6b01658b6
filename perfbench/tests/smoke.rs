//! Smoke test: every workload at minimal length, untraced and traced. Each
//! run must exit 0, pass its correctness check, and print exactly the
//! metric names `BENCHMARK.json` lists for its mode.
//!
//! The paper-scale workloads take about a minute each in a release build:
//! run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["small_suite", "paper_grid", "tiled_mesh", "sweepd_regen"];

/// The `"name"` values of one metric list in `BENCHMARK.json`.
fn names_in(spec: &str, list: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("no {list} list"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("list ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn names_out(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    metrics
        .split("\": {\"value\"")
        .filter_map(|chunk| chunk.rfind('"').map(|i| chunk[i + 1..].to_string()))
        .filter(|n| {
            !n.is_empty()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        })
        .collect()
}

fn run(root: &Path, workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.01",
            "--trace",
        ])
        .arg(trace.to_string())
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_is_correct_and_prints_exactly_the_listed_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let end_to_end = names_in(&spec, "end_to_end");
    let per_layer = names_in(&spec, "per_layer");
    for workload in WORKLOADS {
        for (trace, want) in [(0, &end_to_end), (1, &per_layer)] {
            let line = run(root, workload, trace);
            assert!(
                line.starts_with("{\"correct\": true,"),
                "{workload} trace={trace}: {line}"
            );
            assert_eq!(&names_out(&line), want, "{workload} trace={trace}");
        }
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
