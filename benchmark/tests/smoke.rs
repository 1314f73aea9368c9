//! The command line end to end: every workload for one second, and the declared
//! metric names against what is actually printed.

use std::process::Command;

use pochoir_benchmark::report::{Metric, END_TO_END, PER_LAYER};
use pochoir_benchmark::workloads::WORKLOADS;
use pochoir_trace::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).expect("valid JSON")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn in_harness(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

/// Runs one workload and returns its result line, parsed.
fn run(workload: &str, trace: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_pochoir-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

/// `(name, unit)` of every metric a result line carries, and that the line has
/// exactly the four keys of the contract.
fn reported(result: &Json) -> Vec<(String, String)> {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("a numeric value");
            assert!(value.is_finite(), "{name}");
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("a unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn the_harness_and_benchmark_json_declare_the_same_metrics_and_workloads() {
    assert_eq!(declared("end_to_end"), in_harness(&END_TO_END));
    assert_eq!(declared("per_layer"), in_harness(&PER_LAYER));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        benchmark_json()
            .get("paths")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );
}

/// One test, so the runs do not compete with each other for the two cores.
#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    for workload in WORKLOADS {
        let result = run(workload, "0");
        assert_eq!(reported(&result), declared("end_to_end"), "{workload}");
        for (name, _) in declared("end_to_end") {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(&name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(value > Some(0.0), "{workload} {name} must never be 0");
        }
    }
    // The traced run measures the whole ledger whatever the workload; one is enough.
    let traced = run("serve-tenants", "1");
    assert_eq!(reported(&traced), declared("per_layer"));
}

#[test]
fn a_bad_command_line_prints_no_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pochoir-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
