//! Order statistics and process accounting (`/proc`).

use std::time::Duration;

/// Median, quartiles and a tail percentile of a sample.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p95: f64,
}

/// The `q`-quantile by linear interpolation between order statistics.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarize a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
        p95: quantile(&v, 0.95),
    }
}

/// The `q`-quantile of an unsorted, non-empty sample.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Median of a sample; 0 for an empty one (a layer that never ran).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile_of(values, 0.5)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time this process has used, all threads, user + system.
///
/// Summed from the per-thread scheduler accounting (nanosecond
/// resolution; the benchmark's threads all live for the whole run), with
/// the 10 ms-tick `utime + stime` of `/proc/self/stat` as the fallback
/// on kernels built without scheduler statistics.
pub fn process_cpu() -> Duration {
    let mut ns = 0u64;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let on_cpu = std::fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
            ns += on_cpu.unwrap_or(0);
        }
    }
    if ns > 0 {
        return Duration::from_nanos(ns);
    }
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th of the line, in 100 Hz ticks.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("stat tick counts are integers"))
        .sum();
    Duration::from_millis(ticks * 10)
}

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM");
    kib / 1024.0
}
