//! Regression test for the paper-scale FFT/scalar column of Figure 3.
//!
//! A store that merges into an L1 line evicted while its fill was still in
//! flight re-installs the line; the line it displaces must leave the MESI
//! directory too. Before that was so, every paper-scale FFT/scalar cell
//! failed its end-of-run coherence audit. This pins the whole column to the
//! cycles recorded in `results/fig3.csv`.

use sdv_bench::{Cell, CellOutcome, ImplKind, KernelKind, Sweeper, Workloads};
use sdv_uarch::TimingConfig;

const FIG3_LATENCIES: [u64; 8] = [0, 16, 32, 64, 128, 256, 512, 1024];

/// The recorded FFT/scalar cycles of `results/fig3.csv`, keyed by latency.
fn recorded_cycles() -> Vec<(u64, u64)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fig3.csv");
    let text = std::fs::read_to_string(path).expect("results/fig3.csv");
    text.lines()
        .filter_map(|row| {
            let f: Vec<&str> = row.split(',').collect();
            (f[0] == "FFT" && f[1] == "scalar")
                .then(|| (f[2].parse().unwrap(), f[3].parse().unwrap()))
        })
        .collect()
}

#[test]
fn paper_fft_scalar_column_completes_with_its_recorded_cycles() {
    let recorded = recorded_cycles();
    assert_eq!(
        recorded.iter().map(|&(lat, _)| lat).collect::<Vec<_>>(),
        FIG3_LATENCIES,
        "results/fig3.csv holds the whole FFT/scalar column"
    );
    let cells: Vec<Cell> = FIG3_LATENCIES
        .iter()
        .map(|&extra_latency| Cell {
            kernel: KernelKind::Fft,
            imp: ImplKind::Scalar,
            extra_latency,
            bandwidth: 64,
        })
        .collect();
    let w = Workloads::paper();
    let outcomes = Sweeper::with_config(TimingConfig::default()).sweep_outcomes(&w, &cells, 2);
    for ((lat, want), out) in recorded.into_iter().zip(&outcomes) {
        match out {
            CellOutcome::Done(r) => assert_eq!(r.cycles, want, "FFT/scalar +{lat}"),
            CellOutcome::Failed { error, .. } => panic!("FFT/scalar +{lat} failed: {error}"),
        }
    }
}
