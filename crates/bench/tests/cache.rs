//! Integration tests for the persistent result cache, driven through the
//! real sweep entry points — what `--cache` actually exercises.

use sdv_bench::{Cell, ImplKind, KernelKind, ResultCache, RunResult, Sweeper, Workloads};
use sdv_uarch::TimingConfig;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sdv_cache_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for imp in [ImplKind::Scalar, ImplKind::Vector { maxvl: 64 }] {
        for extra_latency in [0u64, 256] {
            cells.push(Cell { kernel: KernelKind::Spmv, imp, extra_latency, bandwidth: 64 });
        }
    }
    cells
}

fn assert_bit_identical(cold: &[RunResult], other: &[RunResult]) {
    assert_eq!(cold.len(), other.len());
    for (c, h) in cold.iter().zip(other) {
        assert_eq!(c.cycles, h.cycles, "cached cycles must be bit-identical");
        for (name, value) in c.stats.iter() {
            assert_eq!(h.stats.get(name), value, "stat {name} must survive the round trip");
        }
    }
}

/// A cold sweep fills the cache; a warm sweep on a FRESH `Sweeper` (empty
/// memo) reproduces every cycle count and stat without simulating anything.
/// A sweep killed part-way leaves a half-warm cache, and rerunning it
/// simulates exactly the missing cells — the cache is how sweeps resume.
#[test]
fn warm_sweep_is_bit_identical_and_simulates_nothing() {
    let dir = temp_dir("warm");
    let w = Workloads::small();
    let cells = grid();

    let mut cold = Sweeper::new();
    cold.set_cache(ResultCache::open(&dir).unwrap());
    let cold_out = cold.sweep(&w, &cells, 2);
    assert_eq!(cold.fresh_simulations(), cells.len(), "cold run simulates every cell");

    let mut warm = Sweeper::new();
    warm.set_cache(ResultCache::open(&dir).unwrap());
    let warm_out = warm.sweep(&w, &cells, 2);
    assert_eq!(warm.fresh_simulations(), 0, "warm run must come entirely from the cache");
    assert_bit_identical(&cold_out, &warm_out);

    // A run killed after the first half of the grid stored those cells as
    // they landed; the rerun simulates only the other half.
    let half_dir = temp_dir("half");
    let half = cells.len() / 2;
    let mut killed = Sweeper::new();
    killed.set_cache(ResultCache::open(&half_dir).unwrap());
    killed.sweep(&w, &cells[..half], 2);
    let mut rerun = Sweeper::new();
    rerun.set_cache(ResultCache::open(&half_dir).unwrap());
    let rerun_out = rerun.sweep(&w, &cells, 2);
    assert_eq!(rerun.fresh_simulations(), cells.len() - half, "rerun simulates the missing half");
    assert_bit_identical(&cold_out, &rerun_out);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&half_dir);
}

/// Concurrent sweepers racing the same key converge: the atomic
/// tmp+rename store means last-writer-wins with no torn entries, and a
/// third run reads a valid cache.
#[test]
fn concurrent_writers_racing_one_key_leave_a_valid_entry() {
    let dir = temp_dir("race");
    let w = Workloads::small();
    let cell = Cell {
        kernel: KernelKind::Fft,
        imp: ImplKind::Vector { maxvl: 64 },
        extra_latency: 0,
        bandwidth: 64,
    };
    let expected = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let dir = dir.clone();
                let w = &w;
                s.spawn(move || {
                    let mut sw = Sweeper::new();
                    sw.set_cache(ResultCache::open(&dir).unwrap());
                    sw.sweep(w, &[cell], 1)[0].cycles
                })
            })
            .collect();
        let got: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(got.windows(2).all(|p| p[0] == p[1]), "racing writers must agree: {got:?}");
        got[0]
    });
    let mut reader = Sweeper::new();
    reader.set_cache(ResultCache::open(&dir).unwrap());
    assert_eq!(reader.sweep(&w, &[cell], 1)[0].cycles, expected);
    assert_eq!(reader.fresh_simulations(), 0, "the surviving entry must be readable");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every identity knob isolates its own entries: a sweep under a different
/// timing config or workload must not hit entries written by another.
/// (Key-part sensitivity is unit-tested in `cache.rs`; this checks
/// the Sweeper actually routes those parts into the key.)
#[test]
fn sweeper_cache_keys_separate_config_and_input() {
    let dir = temp_dir("keys");
    let w = Workloads::small();
    let cell = Cell {
        kernel: KernelKind::Spmv,
        imp: ImplKind::Vector { maxvl: 64 },
        extra_latency: 0,
        bandwidth: 64,
    };

    let mut base = Sweeper::new();
    base.set_cache(ResultCache::open(&dir).unwrap());
    base.sweep(&w, &[cell], 1);
    assert_eq!(base.fresh_simulations(), 1);

    // Different timing config -> different key -> fresh simulation.
    let mut cfg = TimingConfig::default();
    cfg.vpu.lanes = 4;
    let mut other_cfg = Sweeper::with_config(cfg);
    other_cfg.set_cache(ResultCache::open(&dir).unwrap());
    other_cfg.sweep(&w, &[cell], 1);
    assert_eq!(other_cfg.fresh_simulations(), 1, "lane-count change must miss");

    // Same identity as the first run -> pure hit.
    let mut again = Sweeper::new();
    again.set_cache(ResultCache::open(&dir).unwrap());
    again.sweep(&w, &[cell], 1);
    assert_eq!(again.fresh_simulations(), 0, "identical identity must hit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit-flipped entry is rejected (checksum), deleted, and transparently
/// re-simulated — a corrupt cache can cost time but never correctness.
#[test]
fn corrupted_entry_is_resimulated_not_trusted() {
    let dir = temp_dir("corrupt");
    let w = Workloads::small();
    let cell = Cell {
        kernel: KernelKind::Bfs,
        imp: ImplKind::Vector { maxvl: 64 },
        extra_latency: 0,
        bandwidth: 64,
    };
    let mut cold = Sweeper::new();
    cold.set_cache(ResultCache::open(&dir).unwrap());
    let truth = cold.sweep(&w, &[cell], 1)[0].cycles;

    // Flip one digit of the cycles line in the single entry on disk.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "entry"))
        .expect("cold sweep wrote an entry");
    let text = std::fs::read_to_string(&entry).unwrap();
    let tampered = text.replacen(&truth.to_string(), &(truth + 1).to_string(), 1);
    assert_ne!(text, tampered, "tampering must change the entry");
    std::fs::write(&entry, &tampered).unwrap();

    let mut warm = Sweeper::new();
    warm.set_cache(ResultCache::open(&dir).unwrap());
    assert_eq!(warm.sweep(&w, &[cell], 1)[0].cycles, truth);
    assert_eq!(warm.fresh_simulations(), 1, "tampered entry must be re-simulated");
    // The re-simulation repaired the entry in place (same key, same path):
    // the tampered bytes are gone and a third run hits clean.
    assert_ne!(std::fs::read_to_string(&entry).unwrap(), tampered);
    let mut third = Sweeper::new();
    third.set_cache(ResultCache::open(&dir).unwrap());
    assert_eq!(third.sweep(&w, &[cell], 1)[0].cycles, truth);
    assert_eq!(third.fresh_simulations(), 0, "repaired entry must hit");
    let _ = std::fs::remove_dir_all(&dir);
}
