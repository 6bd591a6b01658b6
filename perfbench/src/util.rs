//! Small helpers: order statistics, host facts, the scratch directory.

use sdv_engine::StableHash;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail latency the benchmark reports: the highest percentile that
/// still has at least ten samples beyond it. Returns `(value, percentile)`;
/// with fewer than eleven samples there is no such percentile and the
/// maximum is returned with percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return (v[n - 1], 100.0);
    }
    let k = n - 11;
    (v[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// The process's peak resident set (`VmHWM`) in MiB, from `/proc`.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// CPU model name from `/proc/cpuinfo` (`unknown` where it is absent).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A content hash of the simulator sources the benchmark was built from:
/// every `.rs` and `Cargo.toml` under `crates/`, in sorted path order.
/// `sdv_engine::build_info()` falls back to the crate version outside a
/// git checkout, so this is what tells two builds apart there.
pub fn source_fingerprint(root: &Path) -> String {
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut h = StableHash::new();
    for f in &files {
        h.str(&f.strip_prefix(root).unwrap_or(f).to_string_lossy());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    h.finish_hex()[..12].to_string()
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}

/// A per-process scratch directory under the checkout's `.perfbench/`,
/// removed (with everything in it) when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(root: &Path) -> std::io::Result<Self> {
        let dir = root
            .join(".perfbench")
            .join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// CPU seconds this process has used, over all its threads including
/// those that have exited. Unlike wall time it leaves out the time the host
/// steals from the guest's virtual CPUs, which on a shared VM can exceed
/// the run itself (see `steal_share`).
pub fn cpu_seconds() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used since it started.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec with the C layout
    // (`time_t` and `long` are both 64-bit on the 64-bit Linux targets this
    // benchmark runs on), and `clock` is one of the kernel's constant ids.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Host-wide CPU time counters from `/proc/stat`: (steal, all) ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().sum())
}

/// The share of the guest's CPU time the host stole between two
/// `cpu_ticks` readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let all = to.1.saturating_sub(from.1);
    if all == 0 {
        return 0.0;
    }
    to.0.saturating_sub(from.0) as f64 / all as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (30.0, 75.0));
        assert_eq!(tail(&xs[..5]), (5.0, 100.0));
    }
}
