//! Runs the benchmark binary in `--smoke` mode and checks what it prints
//! against `BENCHMARK.json`: the contract the harness holds it to.

use cw_engine::calibrate::json::{self, JsonValue};
use std::collections::BTreeSet;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_cw-benchmark");

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .args(["--smoke", "--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("spawn the benchmark binary")
}

/// The JSON object on the last line of standard output.
fn result_of(output: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("the benchmark printed nothing");
    json::parse(last).expect("the last line is JSON")
}

fn names_of(contract: &JsonValue, key: &str) -> Vec<(String, String)> {
    contract
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn smoke_emits_every_declared_metric_once_per_workload() {
    let contract = json::parse(
        &std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repo root"),
    )
    .expect("BENCHMARK.json parses");
    let workloads = contract.get("workloads").and_then(JsonValue::as_array).unwrap();
    assert_eq!(workloads.len(), 4);
    for workload in workloads {
        let name = workload.get("name").and_then(JsonValue::as_str).unwrap();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = run(&["--workload", name, "--seed", "1", "--trace", trace]);
            assert!(output.status.success(), "{name} --trace {trace}: {:?}", output.status);
            let result = result_of(&output);
            let keys: Vec<&str> =
                result.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
            assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);

            let emitted = result.get("metrics").and_then(JsonValue::as_object).unwrap();
            let declared = names_of(&contract, key);
            let unique: BTreeSet<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(unique.len(), emitted.len(), "{name}: a metric is emitted twice");
            let wanted: BTreeSet<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(unique, wanted, "{name} --trace {trace}: emitted vs declared names");
            for (metric, unit) in &declared {
                assert!(metric.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                let m = result.get("metrics").unwrap().get(metric).unwrap();
                assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(unit.as_str()));
                let value = m.get("value").and_then(JsonValue::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {metric} = {value:?}");
            }
        }
    }
}

#[test]
fn a_corrupted_oracle_fails_the_run() {
    let output = run(&["--workload", "cluster-mesh", "--seed", "1", "--corrupt-oracle"]);
    assert_eq!(output.status.code(), Some(1), "a wrong product must exit non-zero");
    let result = result_of(&output);
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(false)));
    let failed = result.get("failed").and_then(JsonValue::as_f64).unwrap();
    let attempted = result.get("attempted").and_then(JsonValue::as_f64).unwrap();
    assert!(failed >= 1.0 && failed <= attempted, "failed {failed} of {attempted}");
}

#[test]
fn an_unknown_workload_is_refused() {
    let output = run(&["--workload", "no-such-workload"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
