//! `--compare A.json B.json`: apply `BENCHMARK.json`'s bounds to two
//! result files of the suite, one row per (end-to-end metric, workload).
//!
//! A row is *regressed* when B's median is worse than A's by more than
//! the metric's bound, *improved* when it is better by more than the
//! run-to-run spread, *unchanged* otherwise — and *unresolved* when the
//! spread of either side (interquartile range over median, across the
//! file's runs) is wider than the bound, unless every run of one side
//! beats every run of the other. A file with a single run per workload
//! has no spread; its rows are judged on the two values alone.

use crate::json::Value;
use std::process::ExitCode;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let p = i * (n + 1);
        let j = (p / 4).clamp(1, n - 1);
        let delta = p as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((at(1), at(2), at(3)))
}

fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(values[0], |q| q.1)
}

/// IQR over median: the spread the benchmark's bounds are judged against.
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q2, q3)| (q3 - q1) / q2.abs())
}

struct Side {
    /// Per run, the metric's value.
    values: Vec<f64>,
    attempted: f64,
    failed: f64,
}

fn side(file: &Value, workload: &str, metric: &str) -> Option<Side> {
    let runs = file.get("workloads")?.get(workload)?.as_array()?;
    let mut s = Side {
        values: Vec::new(),
        attempted: 0.0,
        failed: 0.0,
    };
    for run in runs {
        if let Some(v) = run.get("metrics")?.get(metric) {
            s.values.push(v.get("value")?.as_f64()?);
            s.attempted += run.get("attempted")?.as_f64()?;
            s.failed += run.get("failed")?.as_f64()?;
        }
    }
    (!s.values.is_empty()).then_some(s)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let loaded = load("BENCHMARK.json").and_then(|s| Ok((s, load(a_path)?, load(b_path)?)));
    let (spec, a, b) = match loaded {
        Ok(files) => files,
        Err(e) => {
            eprintln!("flock-sysbench: {e}");
            return ExitCode::from(2);
        }
    };
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    println!(
        "{:<24} {:<14} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "metric", "workload", "A median", "B median", "change", "spread", "bound"
    );
    let mut regressed = 0;
    for m in spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        let (name, better) = (field(m, "name"), field(m, "better"));
        let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
        for w in &workloads {
            let (Some(sa), Some(sb)) = (side(&a, w, &name), side(&b, w, &name)) else {
                println!("{name:<24} {w:<14} missing from one of the files");
                continue;
            };
            let (ma, mb) = (median(&sa.values), median(&sb.values));
            // Positive = B worse, as a share of A's median.
            let sign = if better == "lower" { 1.0 } else { -1.0 };
            let worse_by = sign * (mb - ma) / ma.abs();
            let wide = spread(&sa.values).max(spread(&sb.values));
            let worse = |x: f64, y: f64| sign * (x - y) > 0.0;
            let all = |f: &dyn Fn(f64, f64) -> bool| {
                sb.values
                    .iter()
                    .all(|&x| sa.values.iter().all(|&y| f(x, y)))
            };
            let verdict = if wide > bound && all(&|x, y| worse(y, x)) {
                "improved"
            } else if wide > bound && !(worse_by > bound && all(&worse)) {
                "unresolved"
            } else if worse_by > bound {
                regressed += 1;
                "REGRESSED"
            } else if worse_by < -wide.max(0.01) {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{name:<24} {w:<14} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>7.1}% {:>6.0}%  {verdict}",
                100.0 * sign * worse_by,
                100.0 * wide,
                100.0 * bound
            );
        }
    }
    for w in &workloads {
        let share = |f: &Value| {
            side(f, w, "setup_s").map_or("-".into(), |s| format!("{}/{}", s.failed, s.attempted))
        };
        println!("failed/attempted {w:<14} A {} | B {}", share(&a), share(&b));
    }
    if regressed > 0 {
        println!("{regressed} row(s) regressed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert_eq!((q1, q2, q3), (3.5, 13.5, 31.0));
        assert!((spread(&v) - 27.5 / 13.5).abs() < 1e-12);
        assert_eq!(quartiles(&[5.0]), None);
    }
}
