//! `BENCHMARK.json` is well-formed and names the workloads the code defines;
//! a `--smoke` run of every workload prints exactly the metrics it lists,
//! each with its unit.

use hcc_benchmark::spec::{RunRecord, Spec};
use hcc_benchmark::workloads;
use hcc_telemetry::json::{self, Value};
use std::process::Command;

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_lists_what_the_code_defines() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    assert_eq!(names, spec.workloads, "workload names");
    let mut seen = std::collections::BTreeSet::new();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(legal_name(&m.name), "metric name {}", m.name);
        assert!(seen.insert(&m.name), "metric {} listed twice", m.name);
        assert!(
            !m.unit.is_empty() && m.unit.len() <= 16,
            "unit of {}",
            m.name
        );
    }
    for m in &spec.end_to_end {
        let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert!(!setup.higher_is_better && setup.unit == "s");
    let widest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
}

/// Runs one smoke run and returns its result line.
fn smoke(workload: &str, traced: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hcc-benchmark"))
        .args(["--workload", workload, "--seed", "24301", "--seconds", "1"])
        .args(["--trace", if traced { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace {traced}: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn smoke_runs_emit_exactly_the_listed_metrics_with_units() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    for workload in &spec.workloads {
        for (traced, listed) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let line = smoke(workload, traced);
            let doc = json::parse(&line).expect("result line is JSON");
            let Value::Obj(top) = &doc else {
                panic!("result line is not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Value::Bool(true)), "{workload}");
            assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
            assert!(doc.get("attempted").and_then(Value::as_u64) >= Some(1));

            let Some(Value::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics object")
            };
            let got: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                    (
                        name.as_str(),
                        m.get("unit").and_then(Value::as_str).unwrap_or(""),
                    )
                })
                .collect();
            let want: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            assert_eq!(got, want, "{workload} trace {traced}");

            // The set-file round trip `sweep` and `compare` rely on.
            let record = RunRecord::from_result(workload, 24301, traced, &line).expect("record");
            assert_eq!(record.metrics.len(), listed.len());
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    // Unknown workloads and malformed flags exit non-zero with no result.
    let out = Command::new(env!("CARGO_BIN_EXE_hcc-benchmark"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("benchmark binary starts");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
}
