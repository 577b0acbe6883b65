//! Command-line interface plumbing for the `hcc` binary.
//!
//! Parsing lives here (not in the binary) so it is unit-testable. Commands:
//!
//! ```text
//! hcc train <ratings.txt> [training flags]     train a model
//! hcc analyze <ratings.txt>                    dataset statistics + verdict
//! hcc recommend <model.hccmf> <ratings.txt> --user N [--count K]
//! hcc serve <model.hccmf> <ratings.txt> --queries FILE [serving flags]
//! ```

use crate::config::{HccConfig, PartitionMode, TransportKind, WorkerSpec};
use crate::metrics::evaluate_ranking;
use crate::train::HccMf;
use hcc_comm::TransferStrategy;
use hcc_serve::{
    AdmissionConfig, AdmissionPipeline, Precision, ServeEngine, ServeError, ServedModel,
};
use hcc_sgd::{LearningRate, Schedule};
use hcc_sparse::stats::row_count_quantiles;
use hcc_sparse::MatrixStats;
use std::io::Write;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum CliCommand {
    /// Train on a triples file.
    Train(TrainArgs),
    /// Print dataset statistics and the §4.6 collaboration verdict.
    Analyze {
        /// Ratings file.
        path: String,
    },
    /// Serve top-k recommendations from a checkpoint.
    Recommend {
        /// Checkpoint path (written by `train --out`).
        model: String,
        /// Training ratings file (for seen-item exclusion).
        ratings: String,
        /// User to recommend for.
        user: u32,
        /// Recommendations to print.
        count: usize,
    },
    /// Run a scripted top-k query workload against a checkpoint.
    Serve(ServeArgs),
}

/// Arguments of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Checkpoint path (written by `train --out`).
    pub model: String,
    /// Training ratings file (seen-item exclusion + shard weighting).
    pub ratings: String,
    /// Query workload file: one user id per line (`#` comments and blank
    /// lines skipped).
    pub queries: String,
    /// Recommendations per query.
    pub topk: usize,
    /// Item shards (threads a batch fans out across).
    pub shards: usize,
    /// Queries per batch.
    pub batch: usize,
    /// Item-shard storage precision (f32, fp16 or int8).
    pub precision: Precision,
    /// When set, route queries through the bounded async admission
    /// pipeline with this queue capacity (`--batch` caps the micro-batch);
    /// overload sheds instead of queueing without bound.
    pub admission_queue: Option<usize>,
    /// Write a JSONL telemetry timeline (one `query` span per query).
    pub telemetry: Option<String>,
}

/// Arguments of the `train` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainArgs {
    /// Ratings file.
    pub path: String,
    /// Latent dimension.
    pub k: usize,
    /// Epochs.
    pub epochs: usize,
    /// Learning rate γ.
    pub lr: f32,
    /// L2 regularization.
    pub lambda: f32,
    /// Worker spec string (`cpu2,gpu4,...`).
    pub workers: String,
    /// Communication strategy.
    pub strategy: TransferStrategy,
    /// Async pipeline streams.
    pub streams: usize,
    /// Held-out fraction.
    pub test_frac: f64,
    /// RNG seed.
    pub seed: u64,
    /// Partition mode.
    pub partition: PartitionMode,
    /// Hogwild schedule inside each worker.
    pub schedule: Schedule,
    /// Checkpoint path prefix.
    pub out: Option<String>,
    /// Evaluate ranking metrics on the held-out split.
    pub rank_metrics: bool,
    /// Write a crash-safe checkpoint every N epochs (to `--checkpoint-path`,
    /// or `<out>.ckpt.hccmf`).
    pub checkpoint_every: Option<usize>,
    /// Explicit path for periodic checkpoints.
    pub checkpoint_path: Option<String>,
    /// Resume a killed run from a v2 checkpoint.
    pub resume: Option<String>,
    /// Enable the fault-tolerance supervisor (heartbeats, divergence
    /// rollback, survivor re-planning).
    pub fault_tolerant: bool,
    /// Transport carrying pull/push traffic between server and workers.
    pub transport: TransportKind,
    /// Parameter-server shards (1 = single endpoint; N > 1 splits the
    /// synchronized region by contiguous row range with per-shard
    /// delta shipping).
    pub server_shards: usize,
    /// Seed for deterministic network chaos injection (drops, delays,
    /// duplicates, corruption). Implies `--fault-tolerant`.
    pub net_chaos: Option<u64>,
    /// Write a JSONL telemetry timeline here and print the epoch
    /// breakdown + cost-model validation after training.
    pub telemetry: Option<String>,
}

impl Default for TrainArgs {
    fn default() -> Self {
        TrainArgs {
            path: String::new(),
            k: 32,
            epochs: 20,
            lr: 0.005,
            lambda: 0.01,
            workers: "cpu2,cpu2".into(),
            strategy: TransferStrategy::QOnly,
            streams: 1,
            test_frac: 0.1,
            seed: 42,
            partition: PartitionMode::Auto,
            schedule: Schedule::Stripe,
            out: None,
            rank_metrics: false,
            checkpoint_every: None,
            checkpoint_path: None,
            resume: None,
            fault_tolerant: false,
            transport: TransportKind::Shared,
            server_shards: 1,
            net_chaos: None,
            telemetry: None,
        }
    }
}

/// Usage text shown on parse errors.
pub const USAGE: &str = "usage:
  hcc train <ratings.txt> [--k N] [--epochs N] [--lr F] [--lambda F]
            [--workers cpu2,gpu4[@0.5]] [--strategy pq|q|halfq]
            [--streams N  (pipelined Q chunks; any --transport, not with pq)]
            [--partition auto|uniform|dp0|dp1|dp2] [--schedule stripe|tiled]
            [--test-frac F] [--seed N] [--out PREFIX] [--rank-metrics]
            [--checkpoint-every N [--checkpoint-path FILE]] [--resume FILE]
            [--fault-tolerant] [--transport shared|commp|socket|tcp]
            [--server-shards N] [--net-chaos SEED] [--telemetry FILE.jsonl]
  hcc analyze <ratings.txt>
  hcc recommend <model.hccmf> <ratings.txt> --user N [--count K]
  hcc serve <model.hccmf> <ratings.txt> --queries FILE [--topk N]
            [--shards N] [--batch N] [--precision f32|fp16|int8]
            [--admission-queue N] [--telemetry FILE.jsonl]";

/// Parses raw arguments (excluding the program name).
pub fn parse(args: &[String]) -> Result<CliCommand, String> {
    let mut it = args.iter().peekable();
    let sub = it.next().ok_or("missing subcommand")?;
    match sub.as_str() {
        "train" => parse_train(&mut it).map(CliCommand::Train),
        "analyze" => {
            let path = it.next().ok_or("analyze needs a ratings file")?.clone();
            if it.next().is_some() {
                return Err("analyze takes exactly one argument".into());
            }
            Ok(CliCommand::Analyze { path })
        }
        "recommend" => {
            let model = it.next().ok_or("recommend needs a model file")?.clone();
            let ratings = it.next().ok_or("recommend needs a ratings file")?.clone();
            let mut user = None;
            let mut count = 10usize;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--user" => {
                        user = Some(
                            it.next()
                                .ok_or("--user needs a value")?
                                .parse()
                                .map_err(|e| format!("--user: {e}"))?,
                        )
                    }
                    "--count" => {
                        count = it
                            .next()
                            .ok_or("--count needs a value")?
                            .parse()
                            .map_err(|e| format!("--count: {e}"))?
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(CliCommand::Recommend {
                model,
                ratings,
                user: user.ok_or("recommend requires --user")?,
                count,
            })
        }
        "serve" => {
            let model = it.next().ok_or("serve needs a model file")?.clone();
            let ratings = it.next().ok_or("serve needs a ratings file")?.clone();
            let mut queries = None;
            let mut topk = 10usize;
            let mut shards = 4usize;
            let mut batch = 32usize;
            let mut precision = Precision::default();
            let mut admission_queue = None;
            let mut telemetry = None;
            while let Some(arg) = it.next() {
                let mut next = |name: &str| -> Result<String, String> {
                    it.next().cloned().ok_or(format!("{name} needs a value"))
                };
                match arg.as_str() {
                    "--queries" => queries = Some(next("--queries")?),
                    "--topk" => {
                        topk = next("--topk")?
                            .parse()
                            .map_err(|e| format!("--topk: {e}"))?
                    }
                    "--shards" => {
                        shards = next("--shards")?
                            .parse()
                            .map_err(|e| format!("--shards: {e}"))?
                    }
                    "--batch" => {
                        batch = next("--batch")?
                            .parse()
                            .map_err(|e| format!("--batch: {e}"))?
                    }
                    "--precision" => {
                        precision = next("--precision")?
                            .parse()
                            .map_err(|e| format!("--precision: {e}"))?
                    }
                    "--admission-queue" => {
                        admission_queue = Some(
                            next("--admission-queue")?
                                .parse()
                                .map_err(|e| format!("--admission-queue: {e}"))?,
                        )
                    }
                    "--telemetry" => telemetry = Some(next("--telemetry")?),
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if shards == 0 || batch == 0 {
                return Err("--shards and --batch must be >= 1".into());
            }
            if admission_queue == Some(0) {
                return Err("--admission-queue must be >= 1".into());
            }
            Ok(CliCommand::Serve(ServeArgs {
                model,
                ratings,
                queries: queries.ok_or("serve requires --queries")?,
                topk,
                shards,
                batch,
                precision,
                admission_queue,
                telemetry,
            }))
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

/// Parses a query workload file: one user id per line, blank lines and
/// `#`-prefixed comments skipped.
fn parse_query_file(text: &str) -> Result<Vec<u32>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().map_err(|e| format!("query '{l}': {e}")))
        .collect()
}

fn parse_train<'a, I: Iterator<Item = &'a String>>(
    it: &mut std::iter::Peekable<I>,
) -> Result<TrainArgs, String> {
    let mut args = TrainArgs::default();
    let mut path = None;
    while let Some(arg) = it.next() {
        let mut next = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--k" => args.k = next("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--epochs" => {
                args.epochs = next("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?
            }
            "--lr" => args.lr = next("--lr")?.parse().map_err(|e| format!("--lr: {e}"))?,
            "--lambda" => {
                args.lambda = next("--lambda")?
                    .parse()
                    .map_err(|e| format!("--lambda: {e}"))?
            }
            "--workers" => args.workers = next("--workers")?,
            "--streams" => {
                args.streams = next("--streams")?
                    .parse()
                    .map_err(|e| format!("--streams: {e}"))?
            }
            "--test-frac" => {
                args.test_frac = next("--test-frac")?
                    .parse()
                    .map_err(|e| format!("--test-frac: {e}"))?
            }
            "--seed" => {
                args.seed = next("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--out" => args.out = Some(next("--out")?),
            "--rank-metrics" => args.rank_metrics = true,
            "--checkpoint-every" => {
                args.checkpoint_every = Some(
                    next("--checkpoint-every")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-every: {e}"))?,
                )
            }
            "--checkpoint-path" => args.checkpoint_path = Some(next("--checkpoint-path")?),
            "--resume" => args.resume = Some(next("--resume")?),
            "--fault-tolerant" => args.fault_tolerant = true,
            "--transport" => {
                args.transport = match next("--transport")?.as_str() {
                    "shared" => TransportKind::Shared,
                    "commp" => TransportKind::CommP,
                    "socket" => TransportKind::Socket,
                    "tcp" => TransportKind::Tcp,
                    other => return Err(format!("unknown transport {other}")),
                }
            }
            "--server-shards" => {
                args.server_shards = next("--server-shards")?
                    .parse()
                    .map_err(|e| format!("--server-shards: {e}"))?;
                if args.server_shards == 0 {
                    return Err("--server-shards must be >= 1".into());
                }
            }
            "--net-chaos" => {
                args.net_chaos = Some(
                    next("--net-chaos")?
                        .parse()
                        .map_err(|e| format!("--net-chaos: {e}"))?,
                )
            }
            "--telemetry" => args.telemetry = Some(next("--telemetry")?),
            "--strategy" => {
                args.strategy = match next("--strategy")?.as_str() {
                    "pq" => TransferStrategy::FullPq,
                    "q" => TransferStrategy::QOnly,
                    "halfq" => TransferStrategy::HalfQ,
                    other => return Err(format!("unknown strategy {other}")),
                }
            }
            "--schedule" => args.schedule = next("--schedule")?.parse()?,
            "--partition" => {
                args.partition = match next("--partition")?.as_str() {
                    "auto" => PartitionMode::Auto,
                    "uniform" => PartitionMode::Uniform,
                    "dp0" => PartitionMode::Dp0,
                    "dp1" => PartitionMode::Dp1,
                    "dp2" => PartitionMode::Dp2,
                    other => return Err(format!("unknown partition mode {other}")),
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => path = Some(other.to_string()),
        }
    }
    args.path = path.ok_or("train needs a ratings file")?;
    Ok(args)
}

/// Parses `cpu2,gpu8,cpu4@0.5` — type + threads, optional `@speed`.
pub fn parse_workers(spec: &str) -> Result<Vec<WorkerSpec>, String> {
    spec.split(',')
        .map(|part| {
            let (body, speed) = match part.split_once('@') {
                Some((b, s)) => (
                    b,
                    s.parse::<f64>()
                        .map_err(|e| format!("speed in {part}: {e}"))?,
                ),
                None => (part, 1.0),
            };
            let (kind, threads) = if let Some(t) = body.strip_prefix("cpu") {
                ("cpu", t)
            } else if let Some(t) = body.strip_prefix("gpu") {
                ("gpu", t)
            } else {
                return Err(format!("worker {part} must start with cpu or gpu"));
            };
            let threads: usize = threads
                .parse()
                .map_err(|e| format!("threads in {part}: {e}"))?;
            let base = if kind == "gpu" {
                WorkerSpec::gpu_sim(threads)
            } else {
                WorkerSpec::cpu(threads)
            };
            Ok(base.throttled(speed))
        })
        .collect()
}

/// Executes a parsed command, writing human-readable output to `out`.
pub fn run(cmd: CliCommand, out: &mut dyn Write) -> Result<(), String> {
    match cmd {
        CliCommand::Analyze { path } => {
            let matrix = hcc_sparse::io::read_triples_file(&path).map_err(|e| e.to_string())?;
            let s = MatrixStats::compute(&matrix);
            writeln!(
                out,
                "{path}: {} × {} with {} ratings",
                s.rows, s.cols, s.nnz
            )
            .ok();
            writeln!(out, "density        {:.4}%", s.density * 100.0).ok();
            writeln!(out, "aspect (m/n)   {:.2}", s.aspect_ratio).ok();
            writeln!(out, "nnz/(m+n)      {:.1}", s.nnz_per_dim).ok();
            writeln!(out, "nnz/min(m,n)   {:.1}", s.nnz_per_min_dim).ok();
            writeln!(
                out,
                "rating mean/sd {:.3} / {:.3}",
                s.mean_rating, s.std_rating
            )
            .ok();
            writeln!(out, "row/col gini   {:.2} / {:.2}", s.row_gini, s.col_gini).ok();
            let (p50, p90, p99, max) = row_count_quantiles(&matrix);
            writeln!(
                out,
                "row counts     p50={p50} p90={p90} p99={p99} max={max}"
            )
            .ok();
            writeln!(
                out,
                "verdict        {} for multi-worker HCC-MF (threshold: nnz/min(m,n) >= 1000)",
                if s.collaboration_friendly() {
                    "GOOD"
                } else {
                    "POOR"
                }
            )
            .ok();
            Ok(())
        }
        CliCommand::Recommend {
            model,
            ratings,
            user,
            count,
        } => {
            let (p, q) = crate::checkpoint::load_model(&model).map_err(|e| e.to_string())?;
            let matrix = hcc_sparse::io::read_triples_file(&ratings).map_err(|e| e.to_string())?;
            let model = ServedModel::build(p, q, Some(&matrix), 1).map_err(|e| e.to_string())?;
            let top = ServeEngine::new(model).top_k(user, count);
            for (item, score) in top.map_err(|e| e.to_string())? {
                writeln!(out, "{item}\t{score:.3}").ok();
            }
            Ok(())
        }
        CliCommand::Serve(args) => {
            let matrix =
                hcc_sparse::io::read_triples_file(&args.ratings).map_err(|e| e.to_string())?;
            let model = crate::serving::load_served_model_with(
                &args.model,
                Some(&matrix),
                args.shards,
                args.precision,
            )
            .map_err(|e| e.to_string())?;
            let queries = parse_query_file(
                &std::fs::read_to_string(&args.queries)
                    .map_err(|e| format!("reading {}: {e}", args.queries))?,
            )?;
            if queries.is_empty() {
                return Err(format!("{} contains no queries", args.queries));
            }
            writeln!(
                out,
                "serving {} users × {} items (k={}, {}, shards {:?})",
                model.users(),
                model.items(),
                model.k(),
                model.precision(),
                model.shard_sizes()
            )
            .ok();
            let telemetry = if args.telemetry.is_some() {
                hcc_telemetry::Telemetry::enabled(
                    hcc_telemetry::Header {
                        workers: model.shard_count() as u32,
                        k: model.k() as u32,
                        nnz: matrix.nnz() as u64,
                        strategy: "serve".into(),
                        streams: 1,
                        backend: hcc_sgd::simd::active_backend().name().into(),
                        schedule: "serve".into(),
                    },
                    // One Query span per answered query, including the
                    // warm pass (up to `batch` extra answers).
                    (queries.len() + args.batch + 16).max(hcc_telemetry::DEFAULT_LANE_CAPACITY),
                )
            } else {
                hcc_telemetry::Telemetry::disabled()
            };
            let engine = std::sync::Arc::new(ServeEngine::with_telemetry(model, telemetry));

            // Warm pass: fault any lazy state (page cache, branch
            // predictors) on a prefix so the measured run is steady-state.
            let warm = queries.len().min(args.batch);
            engine
                .top_k_batch(&queries[..warm], args.topk)
                .map_err(|e| e.to_string())?;

            let t0 = std::time::Instant::now();
            let mut answered = 0usize;
            if let Some(capacity) = args.admission_queue {
                // Async path: submit everything through the bounded queue;
                // overload sheds (reported) rather than growing the queue.
                let pipeline = AdmissionPipeline::new(
                    std::sync::Arc::clone(&engine),
                    AdmissionConfig {
                        capacity,
                        max_batch: args.batch,
                    },
                );
                let mut tickets = Vec::with_capacity(queries.len());
                let mut shed = 0u64;
                for &user in &queries {
                    match pipeline.submit(user, args.topk) {
                        Ok(t) => tickets.push(t),
                        Err(ServeError::Overloaded { .. }) => shed += 1,
                        Err(e) => return Err(e.to_string()),
                    }
                }
                for t in tickets {
                    t.wait().map_err(|e| e.to_string())?;
                    answered += 1;
                }
                let a = pipeline.stats();
                drop(pipeline); // joins dispatcher + workers, releasing their Arcs
                writeln!(
                    out,
                    "admission: {} admitted, {} shed (queue capacity {capacity})",
                    a.admitted, shed
                )
                .ok();
            } else {
                for chunk in queries.chunks(args.batch) {
                    let results = engine
                        .top_k_batch(chunk, args.topk)
                        .map_err(|e| e.to_string())?;
                    answered += results.len();
                }
            }
            let wall = t0.elapsed();
            let stats = engine.stats();
            writeln!(
                out,
                "served {answered} queries (top-{}, batch {}) in {:.2?}",
                args.topk, args.batch, wall
            )
            .ok();
            writeln!(
                out,
                "latency p50 {} µs, p99 {} µs, p999 {} µs, {:.0} queries/s, scanned {:.1}% of items",
                stats.p50_us,
                stats.p99_us,
                stats.p999_us,
                answered as f64 / wall.as_secs_f64().max(1e-9),
                stats.scan_frac * 100.0
            )
            .ok();
            if let Some(path) = &args.telemetry {
                let engine = std::sync::Arc::try_unwrap(engine)
                    .map_err(|_| "serving engine still shared after pipeline shutdown")?;
                let timeline = engine
                    .finish_telemetry()
                    .ok_or("telemetry timeline missing despite --telemetry")?;
                std::fs::write(path, hcc_telemetry::jsonl::to_jsonl(&timeline))
                    .map_err(|e| format!("writing telemetry {path}: {e}"))?;
                writeln!(out, "telemetry timeline written to {path}").ok();
            }
            Ok(())
        }
        CliCommand::Train(args) => {
            let matrix =
                hcc_sparse::io::read_triples_file(&args.path).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "loaded {}: {} × {}, {} ratings",
                args.path,
                matrix.rows(),
                matrix.cols(),
                matrix.nnz()
            )
            .ok();
            let (train, test) = if args.test_frac > 0.0 && args.test_frac < 1.0 && matrix.nnz() > 10
            {
                let (a, b) = hcc_sparse::train_test_split(&matrix, args.test_frac, args.seed)
                    .map_err(|e| e.to_string())?;
                (a, Some(b))
            } else {
                (matrix.clone(), None)
            };
            let mut builder = HccConfig::builder()
                .k(args.k)
                .epochs(args.epochs)
                .learning_rate(LearningRate::Constant(args.lr))
                .lambda(args.lambda)
                .workers(parse_workers(&args.workers)?)
                .strategy(args.strategy)
                .streams(args.streams)
                .partition(args.partition)
                .schedule(args.schedule)
                .seed(args.seed)
                .transport(args.transport)
                .server_shards(args.server_shards)
                .track_rmse(true);
            // Network chaos needs the supervisor's bounded collects, so
            // `--net-chaos` implies `--fault-tolerant`.
            if args.fault_tolerant || args.net_chaos.is_some() {
                builder = builder.fault_tolerance(crate::supervisor::SupervisorConfig::default());
            }
            if let Some(seed) = args.net_chaos {
                builder = builder.net_chaos(seed);
            }
            if let Some(path) = &args.telemetry {
                builder = builder.telemetry(path.clone());
            }
            if let Some(every) = args.checkpoint_every {
                let path = args
                    .checkpoint_path
                    .clone()
                    .or_else(|| args.out.as_ref().map(|p| format!("{p}.ckpt.hccmf")))
                    .ok_or("--checkpoint-every needs --checkpoint-path or --out")?;
                builder = builder.checkpoint(path, every);
            }
            if let Some(resume) = &args.resume {
                builder = builder.resume(resume.clone());
            }
            let config = builder.try_build().map_err(|e| e.to_string())?;
            let report = HccMf::new(config)
                .train(&train)
                .map_err(|e| e.to_string())?;
            if report.start_epoch > 0 {
                writeln!(
                    out,
                    "resumed from checkpoint at epoch {}",
                    report.start_epoch
                )
                .ok();
            }
            if report.rollbacks > 0 {
                writeln!(out, "divergence rollbacks: {}", report.rollbacks).ok();
            }
            writeln!(
                out,
                "trained {} epochs in {:.2?} ({:.1}M updates/s, strategy {:?}, wire {:.1} MiB)",
                report.epoch_times.len(),
                report.total_time(),
                report.computing_power() / 1e6,
                report.strategy_used,
                report.wire_bytes as f64 / (1024.0 * 1024.0)
            )
            .ok();
            let first_rmse = report.rmse_history.first().copied().unwrap_or(f64::NAN);
            let last_rmse = report.final_rmse().unwrap_or(f64::NAN);
            writeln!(out, "train RMSE {first_rmse:.4} -> {last_rmse:.4}").ok();
            if let Some(test) = &test {
                let rmse = hcc_sgd::rmse(test.entries(), &report.p, &report.q);
                writeln!(out, "held-out RMSE: {rmse:.4}").ok();
                if args.rank_metrics {
                    let model =
                        ServedModel::build(report.p.clone(), report.q.clone(), Some(&train), 1)
                            .map_err(|e| e.to_string())?;
                    let threshold = matrix.mean_rating() as f32;
                    let m = evaluate_ranking(&ServeEngine::new(model), test, 10, threshold)
                        .map_err(|e| e.to_string())?;
                    writeln!(
                        out,
                        "ranking@10: precision {:.3}, recall {:.3}, NDCG {:.3} ({} users)",
                        m.precision, m.recall, m.ndcg, m.users_evaluated
                    )
                    .ok();
                }
            }
            if let Some(timeline) = &report.timeline {
                writeln!(out).ok();
                write!(out, "{}", crate::observe::epoch_summary(timeline)).ok();
                if let Some(v) = crate::observe::model_validation(&report) {
                    writeln!(out).ok();
                    write!(out, "{}", crate::observe::model_validation_text(&v)).ok();
                }
                writeln!(
                    out,
                    "telemetry timeline written to {}",
                    args.telemetry.as_deref().unwrap_or("?")
                )
                .ok();
            }
            if let Some(prefix) = &args.out {
                let path = format!("{prefix}.hccmf");
                crate::checkpoint::save_model(&path, &report.p, &report.q)
                    .map_err(|e| e.to_string())?;
                writeln!(out, "model written to {path}").ok();
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parse_train_defaults_and_flags() {
        let cmd = parse(&argv("train data.txt --k 64 --epochs 5 --strategy halfq --partition dp2 --schedule tiled --rank-metrics")).unwrap();
        match cmd {
            CliCommand::Train(args) => {
                assert_eq!(args.path, "data.txt");
                assert_eq!(args.k, 64);
                assert_eq!(args.epochs, 5);
                assert_eq!(args.strategy, TransferStrategy::HalfQ);
                assert_eq!(args.partition, PartitionMode::Dp2);
                assert_eq!(args.schedule, Schedule::Tiled);
                assert!(args.rank_metrics);
                assert_eq!(args.lr, 0.005); // default
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_fault_tolerance_flags() {
        let cmd = parse(&argv(
            "train data.txt --checkpoint-every 3 --checkpoint-path c.hccmf --resume r.hccmf --fault-tolerant",
        ))
        .unwrap();
        match cmd {
            CliCommand::Train(args) => {
                assert_eq!(args.checkpoint_every, Some(3));
                assert_eq!(args.checkpoint_path.as_deref(), Some("c.hccmf"));
                assert_eq!(args.resume.as_deref(), Some("r.hccmf"));
                assert!(args.fault_tolerant);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("train d.txt --checkpoint-every zero")).is_err());
    }

    #[test]
    fn parse_transport_and_net_chaos_flags() {
        let cmd = parse(&argv("train data.txt --transport socket --net-chaos 7")).unwrap();
        match cmd {
            CliCommand::Train(args) => {
                assert_eq!(args.transport, TransportKind::Socket);
                assert_eq!(args.net_chaos, Some(7));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("train data.txt")).unwrap() {
            CliCommand::Train(args) => {
                assert_eq!(args.transport, TransportKind::Shared);
                assert_eq!(args.net_chaos, None);
                assert_eq!(args.server_shards, 1);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("train d.txt --transport carrier-pigeon")).is_err());
        assert!(parse(&argv("train d.txt --net-chaos nope")).is_err());
    }

    #[test]
    fn parse_sharded_server_flags() {
        let cmd = parse(&argv("train data.txt --transport tcp --server-shards 4")).unwrap();
        match cmd {
            CliCommand::Train(args) => {
                assert_eq!(args.transport, TransportKind::Tcp);
                assert_eq!(args.server_shards, 4);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("train d.txt --server-shards 0")).is_err());
        assert!(parse(&argv("train d.txt --server-shards many")).is_err());
    }

    #[test]
    fn parse_telemetry_flag() {
        let cmd = parse(&argv("train data.txt --telemetry run.jsonl")).unwrap();
        match cmd {
            CliCommand::Train(args) => assert_eq!(args.telemetry.as_deref(), Some("run.jsonl")),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("train d.txt --telemetry")).is_err());
    }

    #[test]
    fn train_with_telemetry_prints_breakdown_and_writes_jsonl() {
        use hcc_sparse::{GenConfig, SyntheticDataset};
        let dir = std::env::temp_dir().join("hcc_cli_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ratings = dir.join("r.txt");
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 120,
            cols: 60,
            nnz: 2_500,
            ..GenConfig::default()
        });
        hcc_sparse::io::write_triples_file(&ds.matrix, &ratings).unwrap();
        let ratings = ratings.to_string_lossy().into_owned();
        let jsonl = dir.join("run.jsonl").to_string_lossy().into_owned();

        let mut buf = Vec::new();
        let cmd = parse(
            &format!("train {ratings} --k 8 --epochs 4 --telemetry {jsonl}")
                .split_whitespace()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        run(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("epoch breakdown"), "{text}");
        assert!(text.contains("cost-model validation"), "{text}");
        assert!(text.contains("telemetry timeline written"), "{text}");

        let raw = std::fs::read_to_string(&jsonl).unwrap();
        let timeline = hcc_telemetry::jsonl::parse(&raw).unwrap();
        assert_eq!(timeline.header.workers, 2);
        assert!(!timeline.events.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_analyze_and_recommend() {
        assert_eq!(
            parse(&argv("analyze r.txt")).unwrap(),
            CliCommand::Analyze {
                path: "r.txt".into()
            }
        );
        assert_eq!(
            parse(&argv("recommend m.hccmf r.txt --user 7 --count 3")).unwrap(),
            CliCommand::Recommend {
                model: "m.hccmf".into(),
                ratings: "r.txt".into(),
                user: 7,
                count: 3
            }
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&argv("frobnicate x")).is_err());
        assert!(parse(&argv("train")).is_err());
        assert!(parse(&argv("train d.txt --bogus 3")).is_err());
        assert!(parse(&argv("train d.txt --k notanumber")).is_err());
        assert!(parse(&argv("train d.txt --schedule diagonal")).is_err());
        assert!(parse(&argv("recommend m.hccmf r.txt")).is_err()); // no --user
        assert!(parse(&argv("analyze a.txt extra")).is_err());
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        let cmd = parse(&argv(
            "serve m.hccmf r.txt --queries q.txt --topk 5 --shards 8 --batch 64 \
             --precision int8 --admission-queue 512 --telemetry t.jsonl",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            CliCommand::Serve(ServeArgs {
                model: "m.hccmf".into(),
                ratings: "r.txt".into(),
                queries: "q.txt".into(),
                topk: 5,
                shards: 8,
                batch: 64,
                precision: Precision::Int8,
                admission_queue: Some(512),
                telemetry: Some("t.jsonl".into()),
            })
        );
        match parse(&argv("serve m.hccmf r.txt --queries q.txt")).unwrap() {
            CliCommand::Serve(args) => {
                assert_eq!((args.topk, args.shards, args.batch), (10, 4, 32));
                assert_eq!(args.precision, Precision::F32);
                assert_eq!(args.admission_queue, None);
                assert_eq!(args.telemetry, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve m.hccmf r.txt")).is_err()); // no --queries
        assert!(parse(&argv("serve m.hccmf r.txt --queries q.txt --shards 0")).is_err());
        assert!(parse(&argv("serve m.hccmf r.txt --queries q.txt --batch 0")).is_err());
        assert!(parse(&argv("serve m.hccmf r.txt --queries q.txt --precision f64")).is_err());
        assert!(parse(&argv(
            "serve m.hccmf r.txt --queries q.txt --admission-queue 0"
        ))
        .is_err());
        assert!(parse(&argv("serve m.hccmf r.txt --queries q.txt --bogus")).is_err());
    }

    #[test]
    fn query_file_parsing_skips_comments() {
        assert_eq!(
            parse_query_file("# workload\n3\n\n 7 \n0\n").unwrap(),
            vec![3, 7, 0]
        );
        assert!(parse_query_file("3\nnope\n").is_err());
    }

    #[test]
    fn serve_runs_a_scripted_workload_from_a_checkpoint() {
        use hcc_sgd::FactorMatrix;
        use hcc_sparse::{GenConfig, SyntheticDataset};
        let dir = std::env::temp_dir().join("hcc_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 80,
            cols: 50,
            nnz: 1_200,
            ..GenConfig::default()
        });
        let ratings = dir.join("r.txt");
        hcc_sparse::io::write_triples_file(&ds.matrix, &ratings).unwrap();
        let model = dir.join("m.hccmf");
        crate::checkpoint::save_model(
            &model,
            &FactorMatrix::random(80, 8, 1),
            &FactorMatrix::random(50, 8, 2),
        )
        .unwrap();
        let queries = dir.join("q.txt");
        std::fs::write(&queries, "# workload\n0\n17\n42\n5\n").unwrap();
        let jsonl = dir.join("serve.jsonl");

        let mut buf = Vec::new();
        let cmd = parse(&argv(&format!(
            "serve {} {} --queries {} --topk 3 --shards 2 --batch 2 --telemetry {}",
            model.display(),
            ratings.display(),
            queries.display(),
            jsonl.display()
        )))
        .unwrap();
        run(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("served 4 queries"), "{text}");
        assert!(text.contains("latency p50"), "{text}");

        // The timeline holds one `query` span per answered query (warm pass
        // included) under the serving header.
        let timeline =
            hcc_telemetry::jsonl::parse(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
        assert_eq!(timeline.header.strategy, "serve");
        assert_eq!(timeline.header.workers, 2);
        let spans = timeline
            .events
            .iter()
            .filter(|e| {
                matches!(e, hcc_telemetry::Event::Phase { phase, .. }
                    if *phase == hcc_telemetry::Phase::Query)
            })
            .count();
        assert_eq!(spans, 6, "4 measured + 2 warm");

        // The same workload through the quantized async path: answers flow
        // through the admission pipeline and the summary reports it.
        let mut buf = Vec::new();
        let cmd = parse(&argv(&format!(
            "serve {} {} --queries {} --topk 3 --shards 2 --precision fp16 --admission-queue 16",
            model.display(),
            ratings.display(),
            queries.display()
        )))
        .unwrap();
        run(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("fp16"), "{text}");
        assert!(text.contains("admission: 4 admitted, 0 shed"), "{text}");
        assert!(text.contains("served 4 queries"), "{text}");

        // An out-of-range user in the workload is a clean error.
        std::fs::write(&queries, "9999\n").unwrap();
        let cmd = parse(&argv(&format!(
            "serve {} {} --queries {}",
            model.display(),
            ratings.display(),
            queries.display()
        )))
        .unwrap();
        assert!(run(cmd, &mut Vec::new()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_workers_specs() {
        let w = parse_workers("cpu2,gpu8,cpu4@0.5").unwrap();
        assert_eq!(w.len(), 3);
        assert!(!w[0].is_gpu);
        assert!(w[1].is_gpu);
        assert_eq!(w[1].threads, 8);
        assert_eq!(w[2].speed_factor, 0.5);
        assert!(parse_workers("tpu3").is_err());
        assert!(parse_workers("cpu").is_err());
        assert!(parse_workers("cpu2@fast").is_err());
    }

    #[test]
    fn end_to_end_train_analyze_recommend() {
        use hcc_sparse::{GenConfig, SyntheticDataset};
        let dir = std::env::temp_dir().join("hcc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ratings = dir.join("r.txt");
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 120,
            cols: 60,
            nnz: 2_500,
            ..GenConfig::default()
        });
        hcc_sparse::io::write_triples_file(&ds.matrix, &ratings).unwrap();
        let ratings = ratings.to_string_lossy().into_owned();
        let model_prefix = dir.join("model").to_string_lossy().into_owned();

        // analyze
        let mut buf = Vec::new();
        run(
            CliCommand::Analyze {
                path: ratings.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("verdict"), "{text}");

        // train with checkpoint + ranking metrics
        let mut buf = Vec::new();
        let cmd = parse(
            &format!(
                "train {ratings} --k 8 --epochs 8 --lr 0.02 --out {model_prefix} --rank-metrics"
            )
            .split_whitespace()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        run(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("held-out RMSE"), "{text}");
        assert!(text.contains("ranking@10"), "{text}");
        assert!(text.contains("model written"), "{text}");

        // recommend from the checkpoint
        let mut buf = Vec::new();
        run(
            CliCommand::Recommend {
                model: format!("{model_prefix}.hccmf"),
                ratings: ratings.clone(),
                user: 50,
                count: 4,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4, "{text}");

        // out-of-range user errors cleanly
        let err = run(
            CliCommand::Recommend {
                model: format!("{model_prefix}.hccmf"),
                ratings,
                user: 10_000,
                count: 4,
            },
            &mut Vec::new(),
        );
        assert!(err.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
