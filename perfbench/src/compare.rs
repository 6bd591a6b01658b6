//! `perfbench --compare BASE.log NEW.log`: summarise two sets of runs of one
//! workload side by side, refusing numbers that are not comparable.
//!
//! Each log is the concatenated stdout of runs of one build, appended one
//! after another. Every run's fingerprint line must name the same CPU
//! model, `nproc`, thread count, workload and mode on both sides, and all
//! runs of one side must come from one build (`src=` hash): wall-clock or
//! CPU numbers from another host prove nothing, and a side mixing builds
//! has no single median to compare.

use crate::util::median;
use std::collections::BTreeMap;

/// One run: its fingerprint fields and its result's metric values.
struct Run {
    fp: BTreeMap<String, String>,
    metrics: Vec<(String, f64)>,
}

/// Fingerprint fields that must agree across every run of both sides.
const HOST: [&str; 5] = ["cpu", "nproc", "threads", "workload", "trace"];

/// Returns the text to print, or why the two logs are not comparable.
pub fn compare(base_path: &str, new_path: &str) -> Result<String, String> {
    let base = read(base_path)?;
    let new = read(new_path)?;
    let first = &base[0].fp;
    for (side, runs) in [(base_path, &base), (new_path, &new)] {
        for r in runs.iter() {
            for key in HOST {
                if r.fp.get(key) != first.get(key) {
                    return Err(format!(
                        "{side}: {key}={:?} but {base_path} starts with {key}={:?}",
                        r.fp.get(key),
                        first.get(key)
                    ));
                }
            }
            if r.fp.get("src") != runs[0].fp.get("src") {
                return Err(format!("{side} mixes builds (src hashes differ)"));
            }
        }
    }
    let mut out = format!(
        "{} runs of {} vs {} runs of {}; workload {} on cpu {} (nproc {})\n",
        base.len(),
        base[0].fp.get("src").map_or("?", String::as_str),
        new.len(),
        new[0].fp.get("src").map_or("?", String::as_str),
        first.get("workload").map_or("?", String::as_str),
        first.get("cpu").map_or("?", String::as_str),
        first.get("nproc").map_or("?", String::as_str),
    );
    out.push_str(&format!(
        "{:<36} {:>14} {:>14} {:>9} {:>11}\n",
        "metric", "base median", "new median", "new/base", "base IQR/med"
    ));
    for (name, _) in &base[0].metrics {
        let values = |runs: &[Run]| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect()
        };
        let (b, n) = (values(&base), values(&new));
        if b.is_empty() || n.is_empty() {
            return Err(format!("metric {name} is missing from one side"));
        }
        let (mb, mn) = (median(&b), median(&n));
        out.push_str(&format!(
            "{name:<36} {mb:>14.6} {mn:>14.6} {:>9.4} {:>11.4}\n",
            mn / mb,
            iqr(&b) / mb
        ));
    }
    Ok(out)
}

/// Distance between the first and third quartile (exclusive method, as
/// Python's `statistics.quantiles(xs, n=4)` computes them).
fn iqr(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let h = (v.len() + 1) as f64 * p - 1.0;
        let (lo, frac) = (h.floor().clamp(0.0, (v.len() - 1) as f64), h - h.floor());
        let lo = lo as usize;
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * frac.clamp(0.0, 1.0)
    };
    q(0.75) - q(0.25)
}

fn read(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    let mut fp: Option<BTreeMap<String, String>> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("fingerprint: ") {
            fp = Some(fields(rest));
        } else if line.starts_with("{\"correct\"") {
            let fp = fp
                .take()
                .ok_or_else(|| format!("{path}: a result without a fingerprint"))?;
            runs.push(Run {
                fp,
                metrics: metrics(line),
            });
        }
    }
    if runs.is_empty() {
        return Err(format!("{path}: no runs"));
    }
    Ok(runs)
}

/// `key=value` pairs, values optionally double-quoted.
fn fields(s: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut rest = s.trim();
    while let Some(eq) = rest.find('=') {
        let key = rest[..eq].trim().to_string();
        rest = &rest[eq + 1..];
        let (value, tail) = match rest.strip_prefix('"') {
            Some(q) => q.split_once('"').unwrap_or((q, "")),
            None => rest.split_once(' ').unwrap_or((rest, "")),
        };
        out.insert(key, value.to_string());
        rest = tail.trim_start();
    }
    out
}

/// `(name, value)` of every metric in a result line.
fn metrics(line: &str) -> Vec<(String, f64)> {
    line.split("{\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .filter_map(|w| {
            let name = w[0].trim_end_matches(": ").trim_end_matches('"');
            let name = &name[name.rfind('"')? + 1..];
            let value = w[1][..w[1].find(',')?].parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_fields_keep_quoted_values_whole() {
        let f = fields("build=v0.1.0 src=ab cpu=\"Intel(R) Xeon(R) X\" nproc=2 trace=0");
        assert_eq!(f["cpu"], "Intel(R) Xeon(R) X");
        assert_eq!(f["nproc"], "2");
        assert_eq!(f["trace"], "0");
    }

    #[test]
    fn metrics_are_read_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
                    {\"cpu_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"setup_s\": {\"value\": 2e-3, \"unit\": \"s\"}}}";
        assert_eq!(
            metrics(line),
            vec![("cpu_s".to_string(), 0.5), ("setup_s".to_string(), 0.002)]
        );
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&xs) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn other_hosts_and_mixed_builds_are_refused() {
        let dir = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let run = |src: &str, cpu: &str, v: f64| {
            format!(
                "fingerprint: build=v src={src} cpu=\"{cpu}\" nproc=2 threads=2 seed=1 workload=w trace=0\n\
                 {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"cpu_s\": {{\"value\": {v:?}, \"unit\": \"s\"}}}}}}\n"
            )
        };
        let write = |name: &str, text: String| {
            let p = dir.join(name);
            std::fs::write(&p, text).expect("write log");
            p.to_string_lossy().to_string()
        };
        let base = write("base", run("a", "X", 1.0) + &run("a", "X", 1.2));
        let new = write("new", run("b", "X", 0.5) + &run("b", "X", 0.7));
        let other_host = write("host", run("b", "Y", 0.5));
        let mixed = write("mixed", run("b", "X", 0.5) + &run("c", "X", 0.5));
        let table = compare(&base, &new).expect("same host");
        assert!(table.contains("cpu_s"), "{table}");
        assert!(
            table.contains("0.5455"),
            "new/base of the medians 0.6 / 1.1: {table}"
        );
        assert!(compare(&base, &other_host).unwrap_err().contains("cpu"));
        assert!(compare(&base, &mixed).unwrap_err().contains("mixes builds"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
