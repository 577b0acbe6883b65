//! The perf-regression gate's comparison logic, plus schema validators for
//! every committed `results/BENCH_*.json` artifact.
//!
//! Parsing goes through `hcc_telemetry::json` (the same vendored parser the
//! telemetry JSONL reader uses), so the gate binary stays dependency-free.
//! The schemas themselves are documented in `results/README.md`; the
//! validators here are the executable version of that document and run as
//! unit tests against the committed artifacts.

use hcc_telemetry::json::{self, Value};

/// One measured cell of the hotpath bench: a (backend, schedule) pair and
/// its throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathRow {
    pub backend: String,
    pub schedule: String,
    pub updates_per_sec: f64,
}

/// The gate's verdict for one cell present in the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// `"backend + schedule"` label.
    pub cell: String,
    /// Baseline updates/s.
    pub baseline: f64,
    /// Current updates/s, `None` if the current run lacks this cell
    /// (counts as a failure: the gate must not silently skip cells).
    pub current: Option<f64>,
    /// `current / baseline` when both exist.
    pub ratio: Option<f64>,
    /// True when this cell trips the gate.
    pub regressed: bool,
}

/// Extracts the `results` rows of a hotpath JSON document.
pub fn parse_hotpath(src: &str) -> Result<Vec<HotpathRow>, String> {
    let doc = json::parse(src)?;
    validate_hotpath_schema(&doc)?;
    let rows = doc.get("results").and_then(Value::as_arr).unwrap();
    Ok(rows
        .iter()
        .map(|r| HotpathRow {
            backend: r
                .get("backend")
                .and_then(Value::as_str)
                .unwrap()
                .to_string(),
            schedule: r
                .get("schedule")
                .and_then(Value::as_str)
                .unwrap()
                .to_string(),
            updates_per_sec: r.get("updates_per_sec").and_then(Value::as_f64).unwrap(),
        })
        .collect())
}

/// Compares a current hotpath run against the committed baseline. A cell
/// regresses when its throughput drops by more than `threshold` (e.g. 0.15
/// = 15%), or when the baseline measured it and the current run did not
/// (a vanished SIMD tier is itself a regression). Returns the per-cell
/// verdicts and whether the gate passes.
pub fn compare(
    baseline: &[HotpathRow],
    current: &[HotpathRow],
    threshold: f64,
) -> (Vec<Verdict>, bool) {
    let verdicts: Vec<Verdict> = baseline
        .iter()
        .map(|b| {
            let cur = current
                .iter()
                .find(|c| c.backend == b.backend && c.schedule == b.schedule)
                .map(|c| c.updates_per_sec);
            let ratio = cur.map(|c| c / b.updates_per_sec);
            let regressed = match ratio {
                Some(r) => r < 1.0 - threshold,
                None => true,
            };
            Verdict {
                cell: format!("{} + {}", b.backend, b.schedule),
                baseline: b.updates_per_sec,
                current: cur,
                ratio,
                regressed,
            }
        })
        .collect();
    let pass = !verdicts.is_empty() && verdicts.iter().all(|v| !v.regressed);
    (verdicts, pass)
}

/// One measured cell of the serving bench: a (mode, batch) pair and its
/// query throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRow {
    pub mode: String,
    pub batch: u64,
    pub queries_per_sec: f64,
}

/// Extracts the `results` rows and the headline speedup of a serving JSON
/// document.
pub fn parse_serving(src: &str) -> Result<(Vec<ServingRow>, f64), String> {
    let doc = json::parse(src)?;
    validate_serving_schema(&doc)?;
    let rows = doc.get("results").and_then(Value::as_arr).unwrap();
    let parsed = rows
        .iter()
        .map(|r| ServingRow {
            mode: r.get("mode").and_then(Value::as_str).unwrap().to_string(),
            batch: r.get("batch").and_then(Value::as_f64).unwrap() as u64,
            queries_per_sec: r.get("queries_per_sec").and_then(Value::as_f64).unwrap(),
        })
        .collect();
    let speedup = doc
        .get("speedup_batch256_vs_naive")
        .and_then(Value::as_f64)
        .unwrap();
    Ok((parsed, speedup))
}

/// Compares a current serving run against the committed baseline with the
/// same rules as the hotpath gate: a (mode, batch) cell regresses when its
/// throughput drops by more than `threshold` or vanishes entirely.
pub fn compare_serving(
    baseline: &[ServingRow],
    current: &[ServingRow],
    threshold: f64,
) -> (Vec<Verdict>, bool) {
    let as_hotpath = |rows: &[ServingRow]| -> Vec<HotpathRow> {
        rows.iter()
            .map(|r| HotpathRow {
                backend: r.mode.clone(),
                schedule: format!("batch-{}", r.batch),
                updates_per_sec: r.queries_per_sec,
            })
            .collect()
    };
    compare(&as_hotpath(baseline), &as_hotpath(current), threshold)
}

fn require<'a>(doc: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    doc.get(key)
        .ok_or_else(|| format!("{what}: missing key \"{key}\""))
}

fn require_num(doc: &Value, key: &str, what: &str) -> Result<f64, String> {
    require(doc, key, what)?
        .as_f64()
        .ok_or_else(|| format!("{what}: \"{key}\" must be a number"))
}

fn require_str<'a>(doc: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    require(doc, key, what)?
        .as_str()
        .ok_or_else(|| format!("{what}: \"{key}\" must be a string"))
}

fn require_arr<'a>(doc: &'a Value, key: &str, what: &str) -> Result<&'a [Value], String> {
    require(doc, key, what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: \"{key}\" must be an array"))
}

/// Validates the `BENCH_hotpath*.json` schema (see `results/README.md`).
pub fn validate_hotpath_schema(doc: &Value) -> Result<(), String> {
    let what = "hotpath";
    let bench = require_str(doc, "bench", what)?;
    if bench != "hotpath" {
        return Err(format!(
            "{what}: \"bench\" is \"{bench}\", expected \"hotpath\""
        ));
    }
    for key in ["k", "rows", "cols", "nnz", "threads", "epochs_timed"] {
        require_num(doc, key, what)?;
    }
    require_str(doc, "detected_backend", what)?;
    let grid = require(doc, "tile_grid", what)?;
    for key in ["grid_u", "grid_i", "u_block", "i_block", "build_secs"] {
        require_num(grid, key, "hotpath.tile_grid")?;
    }
    let rows = require_arr(doc, "results", what)?;
    if rows.is_empty() {
        return Err(format!("{what}: \"results\" is empty"));
    }
    for (i, r) in rows.iter().enumerate() {
        let what = format!("hotpath.results[{i}]");
        require_str(r, "backend", &what)?;
        require_str(r, "schedule", &what)?;
        let ups = require_num(r, "updates_per_sec", &what)?;
        let secs = require_num(r, "epoch_secs", &what)?;
        if ups <= 0.0 || secs <= 0.0 {
            return Err(format!("{what}: non-positive measurement"));
        }
    }
    Ok(())
}

/// Validates the `BENCH_serving*.json` schema (see `results/README.md`).
pub fn validate_serving_schema(doc: &Value) -> Result<(), String> {
    let what = "serving";
    let bench = require_str(doc, "bench", what)?;
    if bench != "serving" {
        return Err(format!(
            "{what}: \"bench\" is \"{bench}\", expected \"serving\""
        ));
    }
    for key in ["users", "items", "k", "topk", "queries", "shards", "rounds"] {
        require_num(doc, key, what)?;
    }
    require_str(doc, "backend", what)?;
    let rows = require_arr(doc, "results", what)?;
    if rows.is_empty() {
        return Err(format!("{what}: \"results\" is empty"));
    }
    for (i, r) in rows.iter().enumerate() {
        let what = format!("serving.results[{i}]");
        let mode = require_str(r, "mode", &what)?;
        if mode != "naive" && mode != "sharded" {
            return Err(format!("{what}: unknown mode \"{mode}\""));
        }
        require_num(r, "batch", &what)?;
        let qps = require_num(r, "queries_per_sec", &what)?;
        let p50 = require_num(r, "p50_us", &what)?;
        let p99 = require_num(r, "p99_us", &what)?;
        let p999 = require_num(r, "p999_us", &what)?;
        if qps <= 0.0 || p50 < 0.0 || p99 < p50 || p999 < p99 {
            return Err(format!("{what}: inconsistent measurement"));
        }
    }
    let speedup = require_num(doc, "speedup_batch256_vs_naive", what)?;
    if speedup <= 0.0 {
        return Err(format!("{what}: non-positive speedup"));
    }
    Ok(())
}

/// One measured cell of the quantized serving bench: a (precision, pruned)
/// pair with throughput and quality.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantRow {
    pub precision: String,
    pub pruned: bool,
    pub queries_per_sec: f64,
    pub recall_at_topk: f64,
    pub skip_rate: f64,
}

/// Extracts the `results` rows and the headline speedup of a
/// `BENCH_serving_quant*.json` document.
pub fn parse_serving_quant(src: &str) -> Result<(Vec<QuantRow>, f64), String> {
    let doc = json::parse(src)?;
    validate_serving_quant_schema(&doc)?;
    let rows = doc.get("results").and_then(Value::as_arr).unwrap();
    let parsed = rows
        .iter()
        .map(|r| QuantRow {
            precision: r
                .get("precision")
                .and_then(Value::as_str)
                .unwrap()
                .to_string(),
            pruned: matches!(r.get("pruned"), Some(Value::Bool(true))),
            queries_per_sec: r.get("queries_per_sec").and_then(Value::as_f64).unwrap(),
            recall_at_topk: r.get("recall_at_topk").and_then(Value::as_f64).unwrap(),
            skip_rate: r.get("skip_rate").and_then(Value::as_f64).unwrap(),
        })
        .collect();
    let speedup = doc
        .get("speedup_best_vs_f32_exhaustive")
        .and_then(Value::as_f64)
        .unwrap();
    Ok((parsed, speedup))
}

/// Compares a current quantized-serving run against the committed
/// baseline: a (precision, pruned) cell regresses when its throughput
/// drops by more than `threshold` or vanishes entirely (a missing cell —
/// e.g. a dropped precision tier — is itself a regression, same rule as
/// hotpath), and any cell whose recall falls below `recall_floor` fails
/// regardless of speed.
pub fn compare_serving_quant(
    baseline: &[QuantRow],
    current: &[QuantRow],
    threshold: f64,
    recall_floor: f64,
) -> (Vec<Verdict>, bool) {
    let as_hotpath = |rows: &[QuantRow]| -> Vec<HotpathRow> {
        rows.iter()
            .map(|r| HotpathRow {
                backend: r.precision.clone(),
                schedule: if r.pruned { "pruned" } else { "exhaustive" }.into(),
                updates_per_sec: r.queries_per_sec,
            })
            .collect()
    };
    let (verdicts, mut pass) = compare(&as_hotpath(baseline), &as_hotpath(current), threshold);
    pass &= current.iter().all(|r| r.recall_at_topk >= recall_floor);
    (verdicts, pass)
}

/// Validates the `BENCH_serving_quant*.json` schema (see
/// `results/README.md`). Every row must carry the full latency triple
/// (p50/p99/p999) plus recall and skip rate — a row missing any of them is
/// rejected, so the committed artifact cannot silently drop a tail cell.
pub fn validate_serving_quant_schema(doc: &Value) -> Result<(), String> {
    let what = "serving_quant";
    let bench = require_str(doc, "bench", what)?;
    if bench != "serving_quant" {
        return Err(format!(
            "{what}: \"bench\" is \"{bench}\", expected \"serving_quant\""
        ));
    }
    for key in [
        "users", "items", "k", "topk", "queries", "batch", "shards", "rounds",
    ] {
        require_num(doc, key, what)?;
    }
    require_str(doc, "backend", what)?;
    require_str(doc, "catalogue", what)?;
    require_str(doc, "best_cell", what)?;
    let rows = require_arr(doc, "results", what)?;
    if rows.is_empty() {
        return Err(format!("{what}: \"results\" is empty"));
    }
    let mut has_f32_exhaustive = false;
    for (i, r) in rows.iter().enumerate() {
        let what = format!("serving_quant.results[{i}]");
        let precision = require_str(r, "precision", &what)?;
        if !matches!(precision, "f32" | "fp16" | "int8") {
            return Err(format!("{what}: unknown precision \"{precision}\""));
        }
        let pruned = match require(r, "pruned", &what)? {
            Value::Bool(b) => *b,
            _ => return Err(format!("{what}: \"pruned\" must be a boolean")),
        };
        has_f32_exhaustive |= precision == "f32" && !pruned;
        let qps = require_num(r, "queries_per_sec", &what)?;
        let p50 = require_num(r, "p50_us", &what)?;
        let p99 = require_num(r, "p99_us", &what)?;
        let p999 = require_num(r, "p999_us", &what)?;
        let recall = require_num(r, "recall_at_topk", &what)?;
        let skip = require_num(r, "skip_rate", &what)?;
        if qps <= 0.0 || p50 < 0.0 || p99 < p50 || p999 < p99 {
            return Err(format!("{what}: inconsistent latency measurement"));
        }
        if !(0.0..=1.0).contains(&recall) || !(0.0..=1.0).contains(&skip) {
            return Err(format!("{what}: recall/skip_rate outside [0, 1]"));
        }
    }
    if !has_f32_exhaustive {
        return Err(format!("{what}: no f32 exhaustive reference cell"));
    }
    let speedup = require_num(doc, "speedup_best_vs_f32_exhaustive", what)?;
    if speedup <= 0.0 {
        return Err(format!("{what}: non-positive speedup"));
    }
    Ok(())
}

/// Validates the `BENCH_epoch_breakdown.json` schema (see
/// `results/README.md`).
pub fn validate_epoch_breakdown_schema(doc: &Value) -> Result<(), String> {
    let what = "epoch_breakdown";
    let bench = require_str(doc, "bench", what)?;
    if bench != "epoch_breakdown" {
        return Err(format!(
            "{what}: \"bench\" is \"{bench}\", expected \"epoch_breakdown\""
        ));
    }
    for key in ["k", "nnz", "workers", "epochs"] {
        require_num(doc, key, what)?;
    }
    let workers = require_num(doc, "workers", what)? as usize;
    let modes = require_arr(doc, "modes", what)?;
    if modes.is_empty() {
        return Err(format!("{what}: \"modes\" is empty"));
    }
    for m in modes {
        let mode = require_str(m, "mode", "epoch_breakdown.modes[]")?.to_string();
        let what = format!("epoch_breakdown.{mode}");
        let epochs = require_arr(m, "epochs", &what)?;
        for (i, e) in epochs.iter().enumerate() {
            let what = format!("{what}.epochs[{i}]");
            require_num(e, "epoch", &what)?;
            require_num(e, "wall_secs", &what)?;
            require_num(e, "pull_bytes", &what)?;
            require_num(e, "push_bytes", &what)?;
            let per_worker = require_arr(e, "workers", &what)?;
            if per_worker.len() != workers {
                return Err(format!(
                    "{what}: {} worker entries, header says {workers}",
                    per_worker.len()
                ));
            }
            for w in per_worker {
                for key in ["pull_secs", "comp_secs", "push_secs", "sync_secs"] {
                    require_num(w, key, &what)?;
                }
            }
        }
        let v = require(m, "model_validation", &what)?;
        if !matches!(v, Value::Null) {
            for key in ["mean_error", "worst_error", "epochs_scored"] {
                require_num(v, key, &format!("{what}.model_validation"))?;
            }
        }
    }
    let ovh = require(doc, "telemetry_overhead", what)?;
    for key in ["disabled_secs", "enabled_secs", "overhead_frac"] {
        require_num(ovh, key, "epoch_breakdown.telemetry_overhead")?;
    }
    Ok(())
}

/// One measured cell of the cluster-scaling bench: a dataset simulated at a
/// node count, with one server shard per node.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRow {
    pub dataset: String,
    pub nodes: u64,
    pub updates_per_sec: f64,
}

/// Extracts the per-(dataset, nodes) rows and the headline worst-case
/// 4-node scaling of a `BENCH_cluster.json` document.
pub fn parse_cluster(src: &str) -> Result<(Vec<ClusterRow>, f64), String> {
    let doc = json::parse(src)?;
    validate_cluster_schema(&doc)?;
    let mut parsed = Vec::new();
    for d in doc.get("datasets").and_then(Value::as_arr).unwrap() {
        let dataset = d.get("name").and_then(Value::as_str).unwrap().to_string();
        for r in d.get("results").and_then(Value::as_arr).unwrap() {
            parsed.push(ClusterRow {
                dataset: dataset.clone(),
                nodes: r.get("nodes").and_then(Value::as_f64).unwrap() as u64,
                updates_per_sec: r.get("updates_per_sec").and_then(Value::as_f64).unwrap(),
            });
        }
    }
    let scaling_min = doc
        .get("scaling_4node_min")
        .and_then(Value::as_f64)
        .unwrap();
    Ok((parsed, scaling_min))
}

/// Compares a current cluster-scaling run against the committed baseline
/// with the same rules as the hotpath gate: a (dataset, nodes) cell
/// regresses when its throughput drops by more than `threshold` or
/// vanishes entirely.
pub fn compare_cluster(
    baseline: &[ClusterRow],
    current: &[ClusterRow],
    threshold: f64,
) -> (Vec<Verdict>, bool) {
    let as_hotpath = |rows: &[ClusterRow]| -> Vec<HotpathRow> {
        rows.iter()
            .map(|r| HotpathRow {
                backend: r.dataset.clone(),
                schedule: format!("nodes-{}", r.nodes),
                updates_per_sec: r.updates_per_sec,
            })
            .collect()
    };
    compare(&as_hotpath(baseline), &as_hotpath(current), threshold)
}

/// Validates the `BENCH_cluster.json` schema (see `results/README.md`).
/// Beyond shape, this encodes the artifact's load-bearing claims: it says of
/// itself that its throughputs are virtual time, every dataset carries a
/// 1-node reference and a 4-node cell (so the scaling ratio is
/// well-defined), and the delta section ships strictly fewer bytes than
/// full-buffer pushing would.
pub fn validate_cluster_schema(doc: &Value) -> Result<(), String> {
    let what = "cluster";
    let bench = require_str(doc, "bench", what)?;
    if bench != "cluster_scaling" {
        return Err(format!(
            "{what}: \"bench\" is \"{bench}\", expected \"cluster_scaling\""
        ));
    }
    if !matches!(require(doc, "virtual_time", what)?, Value::Bool(true)) {
        return Err(format!(
            "{what}: \"virtual_time\" must be true — every cell is simulator time"
        ));
    }
    require_num(doc, "epochs", what)?;
    let counts = require_arr(doc, "node_counts", what)?;
    if counts.is_empty() {
        return Err(format!("{what}: \"node_counts\" is empty"));
    }
    let datasets = require_arr(doc, "datasets", what)?;
    if datasets.is_empty() {
        return Err(format!("{what}: \"datasets\" is empty"));
    }
    for d in datasets {
        let name = require_str(d, "name", "cluster.datasets[]")?.to_string();
        let what = format!("cluster.{name}");
        let scaling = require_num(d, "scaling_4node", &what)?;
        if scaling <= 0.0 {
            return Err(format!("{what}: non-positive scaling_4node"));
        }
        let rows = require_arr(d, "results", &what)?;
        if rows.is_empty() {
            return Err(format!("{what}: \"results\" is empty"));
        }
        let mut node_counts_seen = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            let what = format!("{what}.results[{i}]");
            let nodes = require_num(r, "nodes", &what)?;
            let shards = require_num(r, "server_shards", &what)?;
            require_num(r, "workers", &what)?;
            require_str(r, "strategy", &what)?;
            let ups = require_num(r, "updates_per_sec", &what)?;
            let ideal = require_num(r, "ideal_updates_per_sec", &what)?;
            if ups <= 0.0 || ideal < ups {
                return Err(format!("{what}: updates/s outside (0, ideal]"));
            }
            if shards < 1.0 {
                return Err(format!("{what}: server_shards below 1"));
            }
            node_counts_seen.push(nodes as u64);
        }
        for need in [1, 4] {
            if !node_counts_seen.contains(&need) {
                return Err(format!("{what}: no {need}-node cell"));
            }
        }
    }
    let scaling_min = require_num(doc, "scaling_4node_min", what)?;
    if scaling_min <= 0.0 {
        return Err(format!("{what}: non-positive scaling_4node_min"));
    }
    let delta = require(doc, "delta", what)?;
    let what = "cluster.delta";
    for key in ["workers", "region_rows", "k", "epochs"] {
        require_num(delta, key, what)?;
    }
    let rows_shipped = require_num(delta, "rows_shipped", what)?;
    let rows_total = require_num(delta, "rows_total", what)?;
    let bytes_shipped = require_num(delta, "bytes_shipped", what)?;
    let bytes_full = require_num(delta, "bytes_full", what)?;
    let ratio = require_num(delta, "shipped_ratio", what)?;
    if rows_shipped > rows_total {
        return Err(format!("{what}: rows_shipped exceeds rows_total"));
    }
    if bytes_shipped >= bytes_full {
        return Err(format!(
            "{what}: delta shipping must beat full shipping \
             ({bytes_shipped} >= {bytes_full} bytes)"
        ));
    }
    if !(0.0..1.0).contains(&ratio) {
        return Err(format!("{what}: shipped_ratio outside [0, 1)"));
    }
    Ok(())
}

/// Recall floor for the quantized serving gate: quantization or pruning
/// changes that trade more than a point of recall@topk for speed fail even
/// when throughput holds.
pub const QUANT_RECALL_FLOOR: f64 = 0.99;

/// Scaling floor for the cluster gate: the node-sharded server must keep
/// at least 3.2x of the 1-node throughput at 4 nodes on every dataset.
pub const CLUSTER_SCALING_FLOOR: f64 = 3.2;

/// Why a baseline/current pair could not be gated at all.
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// One side failed to parse or failed its schema (`role` is `"baseline"`
    /// or `"current"`).
    Invalid { role: &'static str, reason: String },
    /// The two artifacts carry different `"bench"` tags.
    KindMismatch { baseline: String, current: String },
    /// Both carry this `"bench"` tag, and no gate exists for it.
    UnknownKind(String),
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Invalid { role, reason } => write!(f, "{role} is invalid: {reason}"),
            GateError::KindMismatch { baseline, current } => write!(
                f,
                "baseline is a \"{baseline}\" artifact but current is \"{current}\""
            ),
            GateError::UnknownKind(kind) => write!(f, "no gate for \"{kind}\" artifacts"),
        }
    }
}

/// The gate's result for one baseline/current pair.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// The pair's shared `"bench"` tag.
    pub kind: String,
    pub verdicts: Vec<Verdict>,
    /// Kind-specific lines for the report: headline ratios, floor breaches.
    pub notes: Vec<String>,
    pub pass: bool,
}

/// Gates one pair of `BENCH_*.json` documents, working the artifact kind
/// out of their `"bench"` tags: per-cell throughput against `threshold`
/// for every kind, plus the recall floor for `serving_quant` and the
/// scaling floor for `cluster_scaling`.
pub fn gate_pair(baseline: &str, current: &str, threshold: f64) -> Result<GateOutcome, GateError> {
    let invalid = |role| move |reason| GateError::Invalid { role, reason };
    let tag = |src, role| -> Result<String, GateError> {
        let doc = json::parse(src).map_err(invalid(role))?;
        let tag = require_str(&doc, "bench", role).map_err(invalid(role))?;
        Ok(tag.to_string())
    };
    let kind = tag(baseline, "baseline")?;
    let current_kind = tag(current, "current")?;
    if kind != current_kind {
        return Err(GateError::KindMismatch {
            baseline: kind,
            current: current_kind,
        });
    }
    let mut notes = Vec::new();
    let (verdicts, pass) = match kind.as_str() {
        "hotpath" => {
            let base = parse_hotpath(baseline).map_err(invalid("baseline"))?;
            let cur = parse_hotpath(current).map_err(invalid("current"))?;
            compare(&base, &cur, threshold)
        }
        "serving" => {
            let (base, _) = parse_serving(baseline).map_err(invalid("baseline"))?;
            let (cur, speedup) = parse_serving(current).map_err(invalid("current"))?;
            notes.push(format!("batch-256 vs naive speedup: {speedup:.2}x"));
            compare_serving(&base, &cur, threshold)
        }
        "serving_quant" => {
            let (base, _) = parse_serving_quant(baseline).map_err(invalid("baseline"))?;
            let (cur, speedup) = parse_serving_quant(current).map_err(invalid("current"))?;
            for r in cur.iter().filter(|r| r.recall_at_topk < QUANT_RECALL_FLOOR) {
                notes.push(format!(
                    "{}+{} recall {:.4} below the {QUANT_RECALL_FLOOR} floor  REGRESSED",
                    r.precision,
                    if r.pruned { "pruned" } else { "exhaustive" },
                    r.recall_at_topk
                ));
            }
            notes.push(format!(
                "best cell vs f32 exhaustive speedup: {speedup:.2}x"
            ));
            compare_serving_quant(&base, &cur, threshold, QUANT_RECALL_FLOOR)
        }
        "cluster_scaling" => {
            let (base, _) = parse_cluster(baseline).map_err(invalid("baseline"))?;
            let (cur, scaling_min) = parse_cluster(current).map_err(invalid("current"))?;
            let floor_held = scaling_min >= CLUSTER_SCALING_FLOOR;
            if !floor_held {
                notes.push(format!(
                    "4-node scaling {scaling_min:.2}x below the {CLUSTER_SCALING_FLOOR}x floor  \
                     REGRESSED"
                ));
            }
            notes.push(format!("worst-case 4-node scaling: {scaling_min:.2}x"));
            let (verdicts, pass) = compare_cluster(&base, &cur, threshold);
            (verdicts, pass && floor_held)
        }
        _ => return Err(GateError::UnknownKind(kind)),
    };
    Ok(GateOutcome {
        kind,
        verdicts,
        notes,
        pass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(backend: &str, schedule: &str, ups: f64) -> HotpathRow {
        HotpathRow {
            backend: backend.into(),
            schedule: schedule.into(),
            updates_per_sec: ups,
        }
    }

    #[test]
    fn gate_passes_within_threshold() {
        let base = vec![row("scalar", "stripe", 100.0), row("avx2", "tiled", 400.0)];
        let cur = vec![row("scalar", "stripe", 90.0), row("avx2", "tiled", 420.0)];
        let (verdicts, pass) = compare(&base, &cur, 0.15);
        assert!(pass, "{verdicts:?}");
        assert_eq!(verdicts.len(), 2);
        assert!((verdicts[0].ratio.unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn gate_fails_on_regression_or_missing_cell() {
        let base = vec![row("scalar", "stripe", 100.0), row("avx2", "tiled", 400.0)];
        let slow = vec![row("scalar", "stripe", 80.0), row("avx2", "tiled", 400.0)];
        assert!(!compare(&base, &slow, 0.15).1);
        let missing = vec![row("scalar", "stripe", 100.0)];
        let (verdicts, pass) = compare(&base, &missing, 0.15);
        assert!(!pass);
        assert!(verdicts[1].regressed && verdicts[1].current.is_none());
        // Extra cells in the current run are fine (e.g. a newer SIMD tier).
        let extra = vec![
            row("scalar", "stripe", 100.0),
            row("avx2", "tiled", 400.0),
            row("avx512", "tiled", 800.0),
        ];
        assert!(compare(&base, &extra, 0.15).1);
        // An empty baseline cannot pass: the gate would be vacuous.
        assert!(!compare(&[], &extra, 0.15).1);
    }

    fn committed(name: &str) -> Option<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .join(name);
        std::fs::read_to_string(path).ok()
    }

    #[test]
    fn committed_hotpath_artifacts_match_schema() {
        for name in ["BENCH_hotpath.json", "BENCH_hotpath_quick.json"] {
            let src = committed(name).unwrap_or_else(|| panic!("{name} missing from results/"));
            let rows = parse_hotpath(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                rows.iter()
                    .any(|r| r.backend == "scalar" && r.schedule == "stripe"),
                "{name}: no scalar+stripe baseline cell"
            );
        }
    }

    #[test]
    fn committed_serving_artifacts_match_schema_and_speedup_floor() {
        for name in ["BENCH_serving.json", "BENCH_serving_quick.json"] {
            let src = committed(name).unwrap_or_else(|| panic!("{name} missing from results/"));
            let (rows, speedup) = parse_serving(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                rows.iter().any(|r| r.mode == "naive" && r.batch == 1),
                "{name}: no naive single-query baseline cell"
            );
            assert!(
                rows.iter().any(|r| r.mode == "sharded" && r.batch == 256),
                "{name}: no sharded batch-256 cell"
            );
            // The committed full-size artifact must meet the design floor:
            // sharded batch-256 at least 3x the naive single-query path.
            if name == "BENCH_serving.json" {
                assert!(speedup >= 3.0, "{name}: speedup {speedup} below 3.0 floor");
            }
        }
    }

    #[test]
    fn serving_gate_compares_mode_batch_cells() {
        let srow = |mode: &str, batch: u64, qps: f64| ServingRow {
            mode: mode.into(),
            batch,
            queries_per_sec: qps,
        };
        let base = vec![srow("naive", 1, 50.0), srow("sharded", 256, 400.0)];
        let ok = vec![srow("naive", 1, 48.0), srow("sharded", 256, 390.0)];
        assert!(compare_serving(&base, &ok, 0.15).1);
        let slow = vec![srow("naive", 1, 50.0), srow("sharded", 256, 200.0)];
        let (verdicts, pass) = compare_serving(&base, &slow, 0.15);
        assert!(!pass);
        assert_eq!(verdicts[1].cell, "sharded + batch-256");
        // A vanished cell fails, same rule as hotpath.
        assert!(!compare_serving(&base, &base[..1], 0.15).1);
    }

    #[test]
    fn committed_quant_artifacts_meet_speedup_and_recall_floors() {
        for name in ["BENCH_serving_quant.json", "BENCH_serving_quant_quick.json"] {
            let src = committed(name).unwrap_or_else(|| panic!("{name} missing from results/"));
            let (rows, speedup) =
                parse_serving_quant(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(rows.len(), 6, "{name}: 3 precisions x pruned/exhaustive");
            for r in &rows {
                assert!(
                    r.recall_at_topk >= 0.99,
                    "{name}: {}+{} recall {} below 0.99",
                    r.precision,
                    if r.pruned { "pruned" } else { "exhaustive" },
                    r.recall_at_topk
                );
            }
            // The design floor from the serving rework: the best quantized/
            // pruned cell must beat the f32 exhaustive scan by >= 10x on the
            // committed full-size artifact.
            if name == "BENCH_serving_quant.json" {
                assert!(
                    speedup >= 10.0,
                    "{name}: speedup {speedup} below 10.0 floor"
                );
                let pruned = rows.iter().find(|r| r.pruned).unwrap();
                assert!(pruned.skip_rate > 0.0, "{name}: pruning never skipped");
            }
        }
    }

    #[test]
    fn quant_gate_compares_precision_cells_and_recall() {
        let qrow = |precision: &str, pruned: bool, qps: f64, recall: f64| QuantRow {
            precision: precision.into(),
            pruned,
            queries_per_sec: qps,
            recall_at_topk: recall,
            skip_rate: 0.5,
        };
        let base = vec![
            qrow("f32", false, 100.0, 1.0),
            qrow("int8", true, 1500.0, 0.995),
        ];
        let ok = vec![
            qrow("f32", false, 95.0, 1.0),
            qrow("int8", true, 1400.0, 0.996),
        ];
        assert!(compare_serving_quant(&base, &ok, 0.15, 0.99).1);
        // A slow cell fails.
        let slow = vec![
            qrow("f32", false, 100.0, 1.0),
            qrow("int8", true, 700.0, 0.995),
        ];
        let (verdicts, pass) = compare_serving_quant(&base, &slow, 0.15, 0.99);
        assert!(!pass);
        assert_eq!(verdicts[1].cell, "int8 + pruned");
        // A vanished cell fails even if everything present is fast.
        assert!(!compare_serving_quant(&base, &ok[..1], 0.15, 0.99).1);
        // A recall collapse fails even at full speed.
        let bad_recall = vec![
            qrow("f32", false, 100.0, 1.0),
            qrow("int8", true, 1500.0, 0.9),
        ];
        assert!(!compare_serving_quant(&base, &bad_recall, 0.15, 0.99).1);
    }

    #[test]
    fn quant_schema_rejects_malformed_documents() {
        let doc = json::parse(r#"{"bench": "serving_quant", "users": 10}"#).unwrap();
        assert!(validate_serving_quant_schema(&doc).is_err());
        // A row without p999 is rejected — the tail cell is not optional.
        let no_p999 = r#"{"bench": "serving_quant", "users": 1, "items": 1, "k": 1,
            "topk": 1, "queries": 1, "batch": 1, "shards": 1, "rounds": 1,
            "backend": "scalar", "catalogue": "zipf-norm(0.8)", "best_cell": "f32+exhaustive",
            "results": [{"precision": "f32", "pruned": false, "queries_per_sec": 10.0,
                         "p50_us": 1.0, "p99_us": 2.0,
                         "recall_at_topk": 1.0, "skip_rate": 0.0}],
            "speedup_best_vs_f32_exhaustive": 1.0}"#;
        let err = validate_serving_quant_schema(&json::parse(no_p999).unwrap()).unwrap_err();
        assert!(err.contains("p999_us"), "{err}");
        // Without the f32 exhaustive reference cell the speedup is
        // meaningless.
        let no_ref = no_p999
            .replace("\"p99_us\": 2.0,", "\"p99_us\": 2.0, \"p999_us\": 2.0,")
            .replace("\"pruned\": false", "\"pruned\": true");
        let err = validate_serving_quant_schema(&json::parse(&no_ref).unwrap()).unwrap_err();
        assert!(err.contains("f32 exhaustive"), "{err}");
    }

    #[test]
    fn serving_schema_rejects_malformed_documents() {
        let doc = json::parse(r#"{"bench": "serving", "users": 10}"#).unwrap();
        assert!(validate_serving_schema(&doc).is_err());
        // p99 below p50 is inconsistent.
        let bad = r#"{"bench": "serving", "users": 1, "items": 1, "k": 1, "topk": 1,
            "queries": 1, "shards": 1, "rounds": 1, "backend": "scalar",
            "results": [{"mode": "naive", "batch": 1, "queries_per_sec": 10.0,
                         "p50_us": 9.0, "p99_us": 2.0}],
            "speedup_batch256_vs_naive": 1.0}"#;
        assert!(validate_serving_schema(&json::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn committed_epoch_breakdown_matches_schema() {
        let src = committed("BENCH_epoch_breakdown.json")
            .expect("BENCH_epoch_breakdown.json missing from results/");
        let doc = json::parse(&src).unwrap();
        validate_epoch_breakdown_schema(&doc).unwrap();
    }

    #[test]
    fn schema_rejects_malformed_documents() {
        let doc = json::parse(r#"{"bench": "hotpath", "k": 8}"#).unwrap();
        assert!(validate_hotpath_schema(&doc).is_err());
        let doc = json::parse(r#"{"bench": "wrong"}"#).unwrap();
        assert!(validate_hotpath_schema(&doc).is_err());
        assert!(validate_epoch_breakdown_schema(&doc).is_err());
    }

    #[test]
    fn committed_cluster_artifact_meets_scaling_and_delta_floors() {
        let src =
            committed("BENCH_cluster.json").expect("BENCH_cluster.json missing from results/");
        let (rows, scaling_min) = parse_cluster(&src).unwrap_or_else(|e| panic!("{e}"));
        // The schema already enforced bytes_shipped < bytes_full; the
        // committed artifact must additionally meet the design floor:
        // every dataset scales at least 3.2x from 1 to 4 nodes.
        assert!(
            scaling_min >= 3.2,
            "4-node scaling {scaling_min} below the 3.2x floor"
        );
        for dataset in ["Yahoo! Music R2", "Netflix"] {
            for nodes in [1, 2, 4] {
                assert!(
                    rows.iter()
                        .any(|r| r.dataset == dataset && r.nodes == nodes),
                    "no ({dataset}, {nodes}-node) cell"
                );
            }
        }
    }

    #[test]
    fn cluster_gate_compares_dataset_node_cells() {
        let crow = |dataset: &str, nodes: u64, ups: f64| ClusterRow {
            dataset: dataset.into(),
            nodes,
            updates_per_sec: ups,
        };
        let base = vec![crow("Netflix", 1, 2500.0), crow("Netflix", 4, 9000.0)];
        let ok = vec![crow("Netflix", 1, 2450.0), crow("Netflix", 4, 8800.0)];
        assert!(compare_cluster(&base, &ok, 0.15).1);
        let slow = vec![crow("Netflix", 1, 2500.0), crow("Netflix", 4, 5000.0)];
        let (verdicts, pass) = compare_cluster(&base, &slow, 0.15);
        assert!(!pass);
        assert_eq!(verdicts[1].cell, "Netflix + nodes-4");
        // A vanished node count fails, same rule as hotpath.
        assert!(!compare_cluster(&base, &base[..1], 0.15).1);
    }

    #[test]
    fn cluster_schema_rejects_malformed_documents() {
        let reject = |src: &str, why: &str| {
            let doc = json::parse(src).unwrap();
            assert!(validate_cluster_schema(&doc).is_err(), "accepted: {why}");
        };
        reject(r#"{"bench": "wrong"}"#, "wrong bench tag");
        reject(
            r#"{"bench": "cluster_scaling", "virtual_time": true, "epochs": 20,
                "node_counts": [1], "datasets": [], "scaling_4node_min": 3.5,
                "delta": {"workers": 4, "region_rows": 10, "k": 8, "epochs": 1,
                          "rows_shipped": 1, "rows_total": 10,
                          "bytes_shipped": 10, "bytes_full": 100,
                          "shipped_ratio": 0.1}}"#,
            "empty datasets",
        );
        // A delta section whose shipped bytes do not beat full shipping is
        // rejected outright — the artifact's whole point.
        reject(
            r#"{"bench": "cluster_scaling", "virtual_time": true, "epochs": 20,
                "node_counts": [1, 4],
                "datasets": [{"name": "Netflix", "scaling_4node": 3.5, "results": [
                    {"nodes": 1, "workers": 4, "server_shards": 1, "strategy": "Dp1",
                     "updates_per_sec": 100, "ideal_updates_per_sec": 120},
                    {"nodes": 4, "workers": 16, "server_shards": 4, "strategy": "Dp2",
                     "updates_per_sec": 350, "ideal_updates_per_sec": 480}]}],
                "scaling_4node_min": 3.5,
                "delta": {"workers": 4, "region_rows": 10, "k": 8, "epochs": 1,
                          "rows_shipped": 10, "rows_total": 10,
                          "bytes_shipped": 100, "bytes_full": 100,
                          "shipped_ratio": 1.0}}"#,
            "delta not below full shipping",
        );
        // Missing the 4-node cell: scaling would be undefined.
        reject(
            r#"{"bench": "cluster_scaling", "virtual_time": true, "epochs": 20,
                "node_counts": [1],
                "datasets": [{"name": "Netflix", "scaling_4node": 3.5, "results": [
                    {"nodes": 1, "workers": 4, "server_shards": 1, "strategy": "Dp1",
                     "updates_per_sec": 100, "ideal_updates_per_sec": 120}]}],
                "scaling_4node_min": 3.5,
                "delta": {"workers": 4, "region_rows": 10, "k": 8, "epochs": 1,
                          "rows_shipped": 1, "rows_total": 10,
                          "bytes_shipped": 10, "bytes_full": 100,
                          "shipped_ratio": 0.1}}"#,
            "missing 4-node cell",
        );
    }

    #[test]
    fn cluster_schema_requires_the_virtual_time_stamp() {
        let committed = committed("BENCH_cluster.json").expect("BENCH_cluster.json missing");
        assert!(parse_cluster(&committed).is_ok());
        for unstamped in [
            committed.replace("  \"virtual_time\": true,\n", ""),
            committed.replace("\"virtual_time\": true", "\"virtual_time\": false"),
        ] {
            assert_ne!(unstamped, committed);
            let err = parse_cluster(&unstamped).unwrap_err();
            assert!(err.contains("virtual_time"), "{err}");
        }
    }

    #[test]
    fn gate_pair_dispatches_on_the_bench_tag() {
        // Every gated baseline passes against itself, whatever its kind.
        for (name, kind) in [
            ("BENCH_hotpath_quick.json", "hotpath"),
            ("BENCH_serving_quick.json", "serving"),
            ("BENCH_serving_quant_quick.json", "serving_quant"),
            ("BENCH_cluster.json", "cluster_scaling"),
        ] {
            let src = committed(name).unwrap_or_else(|| panic!("{name} missing from results/"));
            let outcome = gate_pair(&src, &src, 0.15).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(outcome.kind, kind);
            assert!(outcome.pass, "{name} fails against itself: {outcome:?}");
            assert!(outcome.verdicts.iter().all(|v| v.ratio == Some(1.0)));
        }
    }

    #[test]
    fn gate_pair_fails_typed_on_mismatched_unknown_or_invalid_artifacts() {
        let hotpath = committed("BENCH_hotpath_quick.json").unwrap();
        let cluster = committed("BENCH_cluster.json").unwrap();
        assert_eq!(
            gate_pair(&hotpath, &cluster, 0.15),
            Err(GateError::KindMismatch {
                baseline: "hotpath".into(),
                current: "cluster_scaling".into(),
            })
        );
        // A known artifact that has no gate, and a tag nobody emits.
        let breakdown = committed("BENCH_epoch_breakdown.json").unwrap();
        assert_eq!(
            gate_pair(&breakdown, &breakdown, 0.15),
            Err(GateError::UnknownKind("epoch_breakdown".into()))
        );
        let novel = r#"{"bench": "novel"}"#;
        assert_eq!(
            gate_pair(novel, novel, 0.15),
            Err(GateError::UnknownKind("novel".into()))
        );
        // A side that is not JSON, lacks the tag, or fails its schema.
        for (baseline, current, role) in [
            ("not json", hotpath.as_str(), "baseline"),
            (hotpath.as_str(), "{}", "current"),
            (hotpath.as_str(), r#"{"bench": "hotpath"}"#, "current"),
        ] {
            match gate_pair(baseline, current, 0.15) {
                Err(GateError::Invalid { role: got, .. }) => assert_eq!(got, role),
                other => panic!("expected an invalid {role}, got {other:?}"),
            }
        }
    }
}
