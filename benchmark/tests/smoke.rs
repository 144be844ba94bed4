//! Runs every workload at 1/10 scale through the real binary and checks the
//! result lines against the contract in `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::{Command, Output};

use wcc_benchmark::json::Json;
use wcc_benchmark::WORKLOADS;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wcc-benchmark"))
        .args(args)
        .env_remove("WCC_THREADS")
        .env_remove("WCC_WALK_KERNEL")
        .output()
        .expect("the benchmark binary starts")
}

fn result_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("a result line on stdout");
    Json::parse(line).unwrap_or_else(|e| panic!("last stdout line is not JSON ({e}): {line}"))
}

fn contract() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in `section` of the contract.
fn declared(contract: &Json, section: &str) -> Vec<(String, String)> {
    contract
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .expect("name and unit are strings")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let contract = contract();
    let declared_workloads: Vec<&str> = contract
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);

    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = run(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ]);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let result = result_line(&output);
            let keys: Vec<&str> = result
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );

            let printed: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    let value = m
                        .get("value")
                        .and_then(Json::as_f64)
                        .expect("a numeric value");
                    assert!(value.is_finite(), "{workload}: {name} is not finite");
                    if section == "end_to_end" {
                        assert!(value != 0.0, "{workload}: end-to-end metric {name} is zero");
                    }
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("a unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(
                printed,
                declared(&contract, section),
                "{workload} --trace {trace}"
            );
        }
    }
}

#[test]
fn a_wrong_truth_table_fails_the_run() {
    // One workload per surface: labels, engine state, served answers.
    for workload in ["oneshot_ring", "stream_insert", "serve_live"] {
        let output = run(&[
            "--workload",
            workload,
            "--seconds",
            "1",
            "--trace",
            "0",
            "--quick",
            "--corrupt-truth",
        ]);
        assert!(
            !output.status.success(),
            "{workload} passed against a corrupted truth table"
        );
        let result = result_line(&output);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
        assert!(result.get("failed").and_then(Json::as_f64).expect("failed") >= 1.0);
    }
}

#[test]
fn refuses_to_run_under_the_environment_overrides() {
    for var in ["WCC_THREADS", "WCC_WALK_KERNEL"] {
        let output = Command::new(env!("CARGO_BIN_EXE_wcc-benchmark"))
            .args(["--workload", "oneshot_ring", "--seconds", "1", "--quick"])
            .env(var, "2")
            .output()
            .expect("the benchmark binary starts");
        assert!(!output.status.success(), "ran with {var} set");
        assert!(output.stdout.is_empty(), "printed a result with {var} set");
    }
}
