//! Runs every workload with `--quick`, untraced and traced, and checks
//! the result lines against `BENCHMARK.json`: exactly the contract's
//! keys, exactly the declared metric names with their units, every
//! operation correct.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::collections::BTreeMap;
use std::process::Command;

fn names_and_units(spec: &Value, section: &str) -> BTreeMap<String, String> {
    spec.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn quick_run_matches_benchmark_json() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Value::parse(&std::fs::read_to_string(spec_path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let workloads = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), 5);
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_flock-sysbench"))
                .args(["--workload", name, "--quick", "--trace", trace])
                .args(["--out", env!("CARGO_TARGET_TMPDIR")])
                .output()
                .expect("run flock-sysbench");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{name} --trace {trace} failed:\n{stdout}"
            );
            let line = Value::parse(stdout.lines().last().expect("a result line"))
                .unwrap_or_else(|e| panic!("{name}: last line is not JSON: {e}"));
            let Value::Object(result) = &line else {
                panic!("{name}: result is not an object")
            };
            let keys: Vec<&str> = result.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(
                line.get("attempted")
                    .and_then(Value::as_f64)
                    .expect("attempted")
                    >= 1.0
            );

            let Some(Value::Object(metrics)) = line.get("metrics") else {
                panic!("{name}: metrics is not an object")
            };
            let reported: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, m)| {
                    assert!(
                        m.get("value").and_then(Value::as_f64).is_some(),
                        "{name}: {k}"
                    );
                    (
                        k.clone(),
                        m.get("unit").and_then(Value::as_str).expect("unit").into(),
                    )
                })
                .collect();
            assert_eq!(
                reported,
                names_and_units(&spec, section),
                "{name} --trace {trace}"
            );
        }
    }
    // A workload BENCHMARK.json does not name is refused.
    let status = Command::new(env!("CARGO_BIN_EXE_flock-sysbench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run flock-sysbench")
        .status;
    assert_eq!(status.code(), Some(2));
}
