//! `BENCHMARK.json` and run-set files, as `sweep` and `compare` read them.

use hcc_telemetry::json::{self, Value};
use std::collections::BTreeMap;

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the tools use.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no {key} array"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k}"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: match text("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other}")),
                },
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// The `BENCHMARK.json` beside this package's directory, as it was when
    /// the package was built.
    pub fn load() -> Result<Spec, String> {
        Spec::parse(include_str!("../../BENCHMARK.json"))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: doc
                .get("workloads")
                .and_then(Value::as_arr)
                .ok_or("BENCHMARK.json: no workloads array")?
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| "BENCHMARK.json: workload without name".to_string())
                })
                .collect::<Result<_, _>>()?,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }
}

/// One run of a set file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl RunRecord {
    /// Parses a run's result line (metrics as `{"value": v, "unit": u}`) or
    /// a set-file line (metrics as bare numbers, plus `workload`, `seed` and
    /// `trace` keys, which a result line lacks).
    fn parse(line: &str) -> Result<RunRecord, String> {
        let doc = json::parse(line)?;
        let Some(Value::Obj(members)) = doc.get("metrics") else {
            return Err("no metrics object".into());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .unwrap_or(m)
                    .as_f64()
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name} has no numeric value"))
            })
            .collect::<Result<_, _>>()?;
        let count = |key: &str| doc.get(key).and_then(Value::as_u64).unwrap_or(0);
        Ok(RunRecord {
            workload: doc
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            seed: count("seed"),
            traced: count("trace") == 1,
            correct: doc.get("correct") == Some(&Value::Bool(true)),
            attempted: count("attempted"),
            failed: count("failed"),
            metrics,
        })
    }

    /// Builds a record from a run's result line (its last stdout line).
    pub fn from_result(
        workload: &str,
        seed: u64,
        traced: bool,
        line: &str,
    ) -> Result<RunRecord, String> {
        Ok(RunRecord {
            workload: workload.to_string(),
            seed,
            traced,
            ..RunRecord::parse(line).map_err(|e| format!("result line: {e}"))?
        })
    }

    /// One line of a set file.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Reads a set file written by `sweep`.
pub fn read_set(path: &str) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| RunRecord::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// Groups a set's values by `(workload, metric)`, for runs with the given
/// trace setting.
pub fn group(records: &[RunRecord], traced: bool) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.traced == traced) {
        for (name, v) in &r.metrics {
            out.entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(*v);
        }
    }
    out
}
