//! Measured values and the result line.
//!
//! `BENCHMARK.json` is the one list of metric names and units
//! ([`crate::spec::Spec`]); the code that measures a value names it, and a
//! run fails if the two disagree in either direction.

use crate::spec::MetricSpec;

/// Values keyed by metric name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|(n, _)| *n)
    }
}

/// A value as JSON: every digit as measured; a non-finite value (a
/// percentile that landed on a shed query) becomes a large finite number,
/// since JSON has no infinity.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e12".to_string()
    }
}

/// Renders the result line for `table` (one of `BENCHMARK.json`'s two
/// lists). Fails if a listed metric was never set — a missing number must
/// not pass for a zero — or if a value was measured that the list lacks.
pub fn result_line(
    table: &[MetricSpec],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some(extra) = values.names().find(|n| !table.iter().any(|m| m.name == *n)) {
        return Err(format!("metric {extra} is not listed in BENCHMARK.json"));
    }
    let mut metrics = Vec::with_capacity(table.len());
    for MetricSpec { name, unit, .. } in table {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(v)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

/// The human-readable listing printed above the result line.
pub fn listing(table: &[MetricSpec], values: &Values) -> String {
    let mut out = String::new();
    for MetricSpec { name, unit, .. } in table {
        if let Some(v) = values.get(name) {
            out.push_str(&format!("  {name:<40} {v:>16.6} {unit}\n"));
        }
    }
    out
}
