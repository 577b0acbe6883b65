//! Command-line interface plumbing for the `hcc` binary.
//!
//! Parsing lives here (not in the binary) so it is unit-testable. Each
//! subcommand is one table with a row per flag: the row names the flag,
//! gives its value placeholder and says where the value lands. [`parse`],
//! [`usage`] and the README's usage block all come from the rows, and
//! [`Flags`] is the workspace's one flag tokenizer (`hcc-bench` reads its
//! experiments' flags through it too).

use crate::config::{HccConfig, TransportKind, WorkerSpec};
use crate::metrics::evaluate_ranking;
use crate::supervisor::SupervisorConfig;
use crate::train::HccMf;
use hcc_comm::{FaultPlan, TransferStrategy};
use hcc_partition::PartitionMode;
use hcc_serve::{
    AdmissionConfig, AdmissionPipeline, Precision, ServeEngine, ServeError, ServedModel,
};
use hcc_sgd::{LearningRate, Schedule};
use hcc_sparse::stats::row_count_quantiles;
use hcc_sparse::MatrixStats;
use std::io::Write;
use std::num::NonZeroUsize;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum CliCommand {
    /// Train on a triples file.
    Train(Box<TrainCommand>),
    /// Print dataset statistics and the §4.6 collaboration verdict.
    Analyze {
        /// Ratings file.
        path: String,
    },
    /// Serve top-k recommendations from a checkpoint.
    Recommend(RecommendArgs),
    /// Run a scripted top-k query workload against a checkpoint.
    Serve(ServeArgs),
}

/// The `train` subcommand: a validated training configuration beside the
/// values only the CLI reads.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCommand {
    /// Ratings file.
    pub path: String,
    /// Fraction of the ratings held out for the held-out RMSE, in `[0, 1)`
    /// (0 holds nothing out).
    pub test_frac: f64,
    /// The model is written to `<out>.hccmf`, and periodic checkpoints go
    /// to `<out>.ckpt.hccmf` unless the config names their path.
    pub out: Option<String>,
    /// Evaluate ranking metrics on the held-out split.
    pub rank_metrics: bool,
    /// The training configuration, validated.
    pub config: HccConfig,
}

/// Arguments of the `recommend` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendArgs {
    /// Checkpoint path (written by `train --out`).
    pub model: String,
    /// Training ratings file (for seen-item exclusion).
    pub ratings: String,
    /// User to recommend for.
    pub user: u32,
    /// Recommendations to print.
    pub count: usize,
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

/// `hcc train`: a flag lands on the training config unless only the CLI
/// reads it. One row a flag, laid out by hand.
#[rustfmt::skip]
const TRAIN: Command<TrainCommand, 1> = {
    use LearningRate::Constant;
    use PartitionMode::{Auto, Dp0, Dp1, Dp2, Uniform};
    use Schedule::{Stripe, Tiled};
    use TransferStrategy::{HalfQ, QOnly};
    use TransportKind::{Shared, Socket, Tcp};
    Command {
        name: "train",
        args: ["<ratings.txt>"],
        flags: &[
            opt("--k", "N", |t, v| v.parse().map(|k| t.config.k = k)),
            opt("--epochs", "N", |t, v| v.parse().map(|n| t.config.epochs = n)),
            opt("--lr", "F", |t, v| v.parse().map(|r| t.config.learning_rate = Constant(r))),
            opt("--lambda", "F",
                |t, v| v.parse().map(|l| (t.config.lambda_p, t.config.lambda_q) = (l, l))),
            opt("--workers", "cpu2,gpu4[@0.5]",
                |t, v| parse_workers(v.text).map(|w| t.config.workers = w)),
            opt("--strategy", "q|halfq",
                |t, v| v.pick([QOnly, HalfQ]).map(|s| t.config.strategy = s)),
            opt("--partition", "auto|uniform|dp0|dp1|dp2",
                |t, v| v.pick([Auto, Uniform, Dp0, Dp1, Dp2]).map(|p| t.config.partition = p)),
            opt("--schedule", "stripe|tiled",
                |t, v| v.pick([Stripe, Tiled]).map(|s| t.config.schedule = s)),
            opt("--test-frac", "F", |t, v| v.parse().and_then(held_out).map(|f| t.test_frac = f)),
            opt("--seed", "N", |t, v| v.parse().map(|s| t.config.seed = s)),
            opt("--out", "PREFIX", |t, v| v.parse().map(|p| t.out = Some(p))),
            opt("--rank-metrics", "", |t, _| { t.rank_metrics = true; Ok(()) }),
            opt("--checkpoint-every", "N",
                |t, v| v.parse().map(|n| t.config.checkpoint_every = Some(n))),
            opt("--checkpoint-path", "FILE",
                |t, v| v.parse().map(|p| t.config.checkpoint_path = Some(p))),
            opt("--resume", "FILE", |t, v| v.parse().map(|p| t.config.resume = Some(p))),
            opt("--fault-tolerant", "",
                |t, _| { t.config.fault_tolerance = Some(SupervisorConfig::default()); Ok(()) }),
            opt("--transport", "shared|socket|tcp",
                |t, v| v.pick([Shared, Socket, Tcp]).map(|k| t.config.transport = k)),
            opt("--server-shards", "N", |t, v| v.parse().map(|n| t.config.server_shards = n)),
            // A fault plan needs the supervisor's bounded collects.
            opt("--net-chaos", "SEED", |t, v| {
                t.config.fault_tolerance = Some(SupervisorConfig::default());
                v.parse().map(|seed| t.config.fault_plan = Some(FaultPlan::from_seed(seed)))
            }),
            opt("--telemetry", "FILE.jsonl",
                |t, v| v.parse().map(|p| t.config.telemetry_path = Some(p))),
        ],
        base: train_base,
        finish: train_finish,
    }
};

/// What `hcc train <ratings.txt>` runs: `HccConfig`'s defaults with a
/// fixed seed and per-epoch RMSE (the CLI prints it), holding out 10 %.
fn train_base([path]: [String; 1]) -> TrainCommand {
    TrainCommand {
        path,
        test_frac: 0.1,
        out: None,
        rank_metrics: false,
        config: HccConfig::builder().seed(42).track_rmse(true).build(),
    }
}

/// Puts periodic checkpoints beside the model unless they have a path of
/// their own, and validates the config.
fn train_finish(mut t: TrainCommand) -> Result<CliCommand, String> {
    if t.config.checkpoint_every.is_some() && t.config.checkpoint_path.is_none() {
        t.config.checkpoint_path = t.out.as_ref().map(|p| format!("{p}.ckpt.hccmf").into());
    }
    t.config.validate().map_err(|e| e.to_string())?;
    Ok(CliCommand::Train(Box::new(t)))
}

/// `hcc analyze`: a ratings file and nothing else.
const ANALYZE: Command<CliCommand, 1> = Command {
    name: "analyze",
    args: ["<ratings.txt>"],
    flags: &[],
    base: |[path]| CliCommand::Analyze { path },
    finish: Ok,
};

/// `hcc recommend`.
#[rustfmt::skip]
const RECOMMEND: Command<RecommendArgs, 2> = Command {
    name: "recommend",
    args: ["<model.hccmf>", "<ratings.txt>"],
    flags: &[
        req(opt("--user", "N", |r, v| v.parse().map(|u| r.user = u))),
        opt("--count", "K", |r, v| v.parse().map(|n| r.count = n)),
    ],
    base: |[model, ratings]| RecommendArgs { model, ratings, user: 0, count: 10 },
    finish: |r| Ok(CliCommand::Recommend(r)),
};

/// `hcc serve`.
#[rustfmt::skip]
const SERVE: Command<ServeArgs, 2> = Command {
    name: "serve",
    args: ["<model.hccmf>", "<ratings.txt>"],
    flags: &[
        req(opt("--queries", "FILE", |s, v| v.parse().map(|q| s.queries = q))),
        opt("--topk", "N", |s, v| v.parse().map(|n| s.topk = n)),
        opt("--shards", "N", |s, v| v.parse().map(|n: NonZeroUsize| s.shards = n.get())),
        opt("--batch", "N", |s, v| v.parse().map(|n: NonZeroUsize| s.batch = n.get())),
        opt("--precision", "f32|fp16|int8", |s, v| {
            v.pick([Precision::F32, Precision::Fp16, Precision::Int8]).map(|p| s.precision = p)
        }),
        opt("--admission-queue", "N",
            |s, v| v.parse().map(|n: NonZeroUsize| s.admission_queue = Some(n.get()))),
        opt("--telemetry", "FILE.jsonl", |s, v| v.parse().map(|p| s.telemetry = Some(p))),
    ],
    base: |[model, ratings]| ServeArgs {
        model, ratings, queries: String::new(), topk: 10, shards: 4, batch: 32,
        precision: Precision::default(), admission_queue: None, telemetry: None,
    },
    finish: |s| Ok(CliCommand::Serve(s)),
};

/// Every subcommand, in the order the usage lists them.
const COMMANDS: [&dyn Subcommand; 4] = [&TRAIN, &ANALYZE, &RECOMMEND, &SERVE];

/// Parses raw arguments (excluding the program name).
pub fn parse(args: &[String]) -> Result<CliCommand, String> {
    let (name, rest) = args.split_first().ok_or("missing subcommand")?;
    COMMANDS
        .iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| format!("unknown subcommand {name}"))?
        .parse(rest)
}

/// The usage text, generated from the flag tables.
pub fn usage() -> String {
    COMMANDS
        .iter()
        .fold(String::from("usage:\n"), |text, c| text + &c.usage())
}

/// A held-out fraction: in `[0, 1)`.
fn held_out(frac: f64) -> Result<f64, String> {
    if (0.0..1.0).contains(&frac) {
        Ok(frac)
    } else {
        Err("must be in [0, 1)".into())
    }
}

/// The flags a command line gave, each with its value (a switch with
/// `""`), and its positional arguments.
#[derive(Default)]
pub struct Flags {
    given: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Flags {
    /// Splits `args` by `spec`, a list of `(flag, value placeholder)` in
    /// which a switch has an empty placeholder. An argument that starts
    /// with `--` and is not in `spec` is an error; any other argument that
    /// is not a flag's value is positional.
    pub fn parse(spec: &[(&'static str, &'static str)], args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(&(flag, value)) = spec.iter().find(|(flag, _)| flag == arg) else {
                if arg.starts_with("--") {
                    return Err(format!("unknown flag {arg}"));
                }
                flags.positionals.push(arg.clone());
                continue;
            };
            let value = match value {
                "" => String::new(),
                _ => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value ({value})"))?,
            };
            flags.given.push((flag, value));
        }
        Ok(flags)
    }

    /// The value `flag` was given (the last one, if repeated).
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value `flag` was given, parsed; `default` if it was not given.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{flag} {v}: {e}"))
        })
    }

    /// The arguments that were neither a flag nor a flag's value, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

/// One row of a flag table: the flag, its value placeholder (empty for a
/// switch, `a|b|c` for a choice), whether the command needs it, and how
/// its value lands on the `T` being built.
struct Flag<T> {
    name: &'static str,
    value: &'static str,
    required: bool,
    land: fn(&mut T, Value) -> Result<(), String>,
}

/// A row for an optional flag.
const fn opt<T>(
    name: &'static str,
    value: &'static str,
    land: fn(&mut T, Value) -> Result<(), String>,
) -> Flag<T> {
    Flag {
        name,
        value,
        required: false,
        land,
    }
}

/// The row of a flag the command needs.
const fn req<T>(flag: Flag<T>) -> Flag<T> {
    Flag {
        required: true,
        ..flag
    }
}

/// A flag's value as the command line gave it, beside its row's
/// placeholder.
struct Value<'a> {
    text: &'a str,
    placeholder: &'static str,
}

impl Value<'_> {
    fn parse<T: std::str::FromStr>(self) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.text.parse().map_err(|e: T::Err| e.to_string())
    }

    /// The entry of `values` at the position of the alternative the value
    /// names in an `a|b|c` placeholder.
    fn pick<T, const N: usize>(self, values: [T; N]) -> Result<T, String> {
        self.placeholder
            .split('|')
            .zip(values)
            .find_map(|(name, v)| (name == self.text).then_some(v))
            .ok_or_else(|| format!("expected one of {}", self.placeholder))
    }
}

/// One subcommand: its name, its positional arguments, its flag table,
/// what its positionals alone build, and the check that finishes it once
/// every flag has landed.
struct Command<T: 'static, const N: usize> {
    name: &'static str,
    args: [&'static str; N],
    flags: &'static [Flag<T>],
    base: fn([String; N]) -> T,
    finish: fn(T) -> Result<CliCommand, String>,
}

/// A [`Command`] whatever it builds, so that one list drives both
/// [`parse`] and [`usage`].
trait Subcommand {
    fn name(&self) -> &'static str;
    fn parse(&self, args: &[String]) -> Result<CliCommand, String>;
    fn usage(&self) -> String;
}

impl<T, const N: usize> Subcommand for Command<T, N> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn parse(&self, args: &[String]) -> Result<CliCommand, String> {
        let spec: Vec<_> = self.flags.iter().map(|f| (f.name, f.value)).collect();
        let flags = Flags::parse(&spec, args)?;
        let missing = self
            .flags
            .iter()
            .find(|f| f.required && flags.get(f.name).is_none());
        if let Some(f) = missing {
            return Err(format!("{} requires {}", self.name, f.name));
        }
        let positionals = flags.positionals.try_into().map_err(|got: Vec<String>| {
            let want = self.args.join(" ");
            format!("{} takes {want}, not {} argument(s)", self.name, got.len())
        })?;
        let mut built = (self.base)(positionals);
        for (name, text) in &flags.given {
            if let Some(f) = self.flags.iter().find(|f| f.name == *name) {
                let value = Value {
                    text,
                    placeholder: f.value,
                };
                (f.land)(&mut built, value).map_err(|e| format!("{name} {text}: {e}"))?;
            }
        }
        (self.finish)(built)
    }

    /// `  hcc <name> <args> [--flag VALUE] ...`, wrapped at 80 columns
    /// with continuation lines aligned under the first argument.
    fn usage(&self) -> String {
        let flags = self.flags.iter().map(|f| {
            let word = match f.value {
                "" => f.name.to_string(),
                value => format!("{} {value}", f.name),
            };
            if f.required {
                word
            } else {
                format!("[{word}]")
            }
        });
        let head = format!("  hcc {}", self.name);
        let indent = " ".repeat(head.len());
        let (mut text, mut line) = (String::new(), head);
        for word in self.args.iter().map(|a| a.to_string()).chain(flags) {
            if line.len() > indent.len() && line.len() + 1 + word.len() > 80 {
                text += &line;
                text.push('\n');
                line = indent.clone();
            }
            line.push(' ');
            line += &word;
        }
        text + &line + "\n"
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
        CliCommand::Recommend(RecommendArgs {
            model,
            ratings,
            user,
            count,
        }) => {
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
            let (train, test) = if args.test_frac > 0.0 && matrix.nnz() > 10 {
                let (a, b) =
                    hcc_sparse::train_test_split(&matrix, args.test_frac, args.config.seed)
                        .map_err(|e| e.to_string())?;
                (a, Some(b))
            } else {
                (matrix.clone(), None)
            };
            let telemetry = args.config.telemetry_path.clone();
            let report = HccMf::new(args.config)
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
                let path = telemetry.unwrap_or_default();
                writeln!(out, "telemetry timeline written to {}", path.display()).ok();
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
                assert_eq!(args.config.k, 64);
                assert_eq!(args.config.epochs, 5);
                assert_eq!(args.config.strategy, TransferStrategy::HalfQ);
                assert_eq!(args.config.partition, PartitionMode::Dp2);
                assert_eq!(args.config.schedule, Schedule::Tiled);
                assert!(args.rank_metrics);
                // Defaults: HccConfig's, but for the CLI's seed and RMSE tracking.
                assert_eq!(args.config.learning_rate, LearningRate::Constant(0.005));
                assert_eq!((args.config.seed, args.config.track_rmse), (42, true));
                assert_eq!(args.test_frac, 0.1);
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
                let c = args.config;
                assert_eq!(c.checkpoint_every, Some(3));
                assert_eq!(c.checkpoint_path, Some("c.hccmf".into()));
                assert_eq!(c.resume, Some("r.hccmf".into()));
                assert!(c.fault_tolerance.is_some());
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
                assert_eq!(args.config.transport, TransportKind::Socket);
                assert_eq!(args.config.fault_plan, Some(FaultPlan::from_seed(7)));
                assert!(args.config.fault_tolerance.is_some());
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("train data.txt")).unwrap() {
            CliCommand::Train(args) => {
                assert_eq!(args.config.transport, TransportKind::Shared);
                assert_eq!(args.config.fault_plan, None);
                assert_eq!(args.config.server_shards, 1);
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
                assert_eq!(args.config.transport, TransportKind::Tcp);
                assert_eq!(args.config.server_shards, 4);
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
            CliCommand::Train(args) => {
                assert_eq!(args.config.telemetry_path, Some("run.jsonl".into()))
            }
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
            CliCommand::Recommend(RecommendArgs {
                model: "m.hccmf".into(),
                ratings: "r.txt".into(),
                user: 7,
                count: 3
            })
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
        assert!(error("train d.txt --lr nan").contains("invalid learning rate"));
        // Strategy 3 is the simulator's (`hcc-bench hcc_sim --streams`).
        assert_eq!(error("train r.txt --streams 2"), "unknown flag --streams");
        assert!(parse(&argv("recommend m.hccmf r.txt")).is_err()); // no --user
        assert!(parse(&argv("analyze a.txt extra")).is_err());
    }

    fn error(line: &str) -> String {
        parse(&argv(line)).expect_err(line)
    }

    #[test]
    fn rejects_a_held_out_fraction_outside_zero_to_one() {
        for frac in ["15", "1", "-0.1", "NaN", "inf"] {
            let msg = error(&format!("train d.txt --test-frac {frac}"));
            assert_eq!(msg, format!("--test-frac {frac}: must be in [0, 1)"));
        }
        for frac in ["0", "0.5"] {
            assert!(parse(&argv(&format!("train d.txt --test-frac {frac}"))).is_ok());
        }
    }

    #[test]
    fn rejects_a_second_ratings_file() {
        assert_eq!(
            error("train a.txt b.txt"),
            "train takes <ratings.txt>, not 2 argument(s)"
        );
        assert_eq!(
            error("train --k 8"),
            "train takes <ratings.txt>, not 0 argument(s)"
        );
    }

    #[test]
    fn rejects_a_checkpoint_path_without_an_interval() {
        let msg = error("train d.txt --checkpoint-path c.hccmf");
        assert!(
            msg.contains("checkpoint_path requires checkpoint_every"),
            "{msg}"
        );
        // An interval without a path of its own checkpoints beside the model.
        match parse(&argv("train d.txt --checkpoint-every 2 --out m")).unwrap() {
            CliCommand::Train(args) => {
                assert_eq!(args.config.checkpoint_path, Some("m.ckpt.hccmf".into()))
            }
            other => panic!("{other:?}"),
        }
        assert!(error("train d.txt --checkpoint-every 2").contains("requires checkpoint_path"));
    }

    /// The words of the usage text: flags, placeholders and arguments.
    fn usage_words(text: &str) -> Vec<&str> {
        text.split([' ', '\n', '[', ']'])
            .filter(|w| !w.is_empty())
            .collect()
    }

    /// Each `--flag a|b|c` the usage prints, with a command line of its
    /// subcommand to try the alternatives on.
    fn printed_choices() -> Vec<(String, &'static str, Vec<String>)> {
        let text = usage();
        let mut found = Vec::new();
        for (sub, line) in [
            ("train", "train r.txt"),
            ("serve", "serve m.hccmf r.txt --queries q.txt"),
        ] {
            let section = text.split("  hcc ").find(|s| s.starts_with(sub)).unwrap();
            for pair in usage_words(section).windows(2) {
                if pair[1].contains('|') {
                    let alternatives = pair[1].split('|').map(String::from).collect();
                    found.push((pair[0].to_string(), line, alternatives));
                }
            }
        }
        found
    }

    #[test]
    fn usage_and_parser_agree_on_every_choice() {
        let choices = printed_choices();
        let flags: Vec<&str> = choices.iter().map(|(f, ..)| f.as_str()).collect();
        assert_eq!(
            flags,
            [
                "--strategy",
                "--partition",
                "--schedule",
                "--transport",
                "--precision"
            ]
        );
        for (flag, line, alternatives) in &choices {
            // Every printed alternative is accepted, and each lands on a
            // different value.
            let parsed: std::collections::HashSet<String> = alternatives
                .iter()
                .map(|alt| {
                    format!(
                        "{:?}",
                        parse(&argv(&format!("{line} {flag} {alt}"))).unwrap()
                    )
                })
                .collect();
            assert_eq!(parsed.len(), alternatives.len(), "{flag}");
            assert_eq!(
                error(&format!("{line} {flag} carrier-pigeon")),
                format!(
                    "{flag} carrier-pigeon: expected one of {}",
                    alternatives.join("|")
                )
            );
        }
    }

    #[test]
    fn each_flag_has_one_row() {
        // The flags the hand-written parser accepted, per subcommand.
        let accepted = [
            (
                "train",
                "--k --epochs --lr --lambda --workers --strategy --partition \
                 --schedule --test-frac --seed --out --rank-metrics --checkpoint-every \
                 --checkpoint-path --resume --fault-tolerant --transport --server-shards \
                 --net-chaos --telemetry",
            ),
            ("analyze", ""),
            ("recommend", "--user --count"),
            (
                "serve",
                "--queries --topk --shards --batch --precision --admission-queue --telemetry",
            ),
        ];
        let text = usage();
        let sections: Vec<&str> = text.split("  hcc ").skip(1).collect();
        assert_eq!(sections.len(), accepted.len());
        for ((sub, flags), section) in accepted.into_iter().zip(sections) {
            assert!(section.starts_with(&format!("{sub} ")), "{section}");
            let printed: Vec<&str> = usage_words(section)
                .into_iter()
                .filter(|w| w.starts_with("--"))
                .collect();
            assert_eq!(printed.join(" "), flags, "{sub}");
        }
    }

    #[test]
    fn readme_shows_the_generated_usage() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .unwrap();
        let block = readme
            .split_once("<!-- hcc usage: begin -->\n")
            .and_then(|(_, rest)| rest.split_once("<!-- hcc usage: end -->"))
            .map(|(block, _)| block)
            .unwrap();
        assert_eq!(block, format!("```text\n{}```\n", usage()));
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

    /// What a command line builds, rendered for hashing: a `train` line's
    /// `HccConfig` beside the values only the CLI reads, or the parsed
    /// `serve` / `recommend` command.
    fn rendered(line: &str) -> String {
        match parse(&argv(line)).unwrap() {
            CliCommand::Train(a) => format!(
                "{} {} {:?} {} {:?}",
                a.path, a.test_frac, a.out, a.rank_metrics, a.config
            ),
            CliCommand::Serve(args) => format!("{args:?}"),
            CliCommand::Recommend(RecommendArgs {
                model,
                ratings,
                user,
                count,
            }) => format!("{model} {ratings} {user} {count}"),
            CliCommand::Analyze { path } => path,
        }
    }

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every `hcc train`, `serve` and `recommend` line the README, the
    /// build-and-run recipe and this module's tests show, plus lines that
    /// give every flag at least once (positional among the flags, a
    /// repeated flag, `--checkpoint-every` falling back to `--out`). The
    /// hashes were recorded before the flag table replaced the
    /// hand-written parser; the table must build the same thing. The
    /// `train` hashes were re-pinned once since, when `HccConfig` lost its
    /// `optimizer` field: each is the old rendering without `optimizer:
    /// Sgd, `. One line was re-pinned when `--strategy` lost `pq` (the
    /// engine no longer runs `FullPq`): it gave `--strategy pq` and now
    /// gives `--strategy halfq`. The `train` hashes were re-pinned once
    /// more when `HccConfig` lost its `streams` field: each is the old
    /// rendering without `streams: N, `, and the three lines that gave
    /// `--streams N` dropped that token.
    const PINNED: &[(&str, u64)] = &[
        ("train ratings.txt --k 64 --workers cpu4,gpu8 --out model", 0xeed9220fa5c1e944),
        ("train ratings.txt --k 64 --fault-tolerant --checkpoint-every 5 --checkpoint-path run.hccmf", 0x8314bb9c4d9ddfb2),
        ("train ratings.txt --k 64 --resume run.hccmf", 0xf44836ab1efad9de),
        ("train ratings.txt --k 64 --transport socket --net-chaos 1", 0xe599749050587307),
        ("train ratings.txt --k 64 --transport socket", 0xc75f6597585a05db),
        ("train ratings.txt --k 64 --transport tcp", 0x8def77cc567d5869),
        ("train ratings.txt --k 64 --transport tcp --server-shards 4", 0x55f10b527197f65e),
        ("train ratings.txt --k 64 --workers cpu4,cpu2 --telemetry run.jsonl", 0x756e4dc294e11fcb),
        ("train /tmp/ratings.txt --k 16 --epochs 5 --schedule tiled --seed 3", 0x5b4af0cf481d4ae8),
        ("train /tmp/ratings.txt --k 8 --epochs 5 --workers cpu1,cpu1,cpu1,cpu1 --transport socket --net-chaos 1 --telemetry /tmp/net.jsonl", 0xe7212753d4f1c982),
        ("train /tmp/ratings.txt --k 8 --epochs 5 --workers cpu1,cpu1,cpu1 --transport tcp --server-shards 4 --seed 3", 0x0079f8e28bfb283d),
        ("train /tmp/ratings.txt --k 8 --epochs 5 --workers cpu1,cpu1,cpu1 --transport tcp --seed 3", 0x5fae44e89b9e3bb4),
        ("train data.txt --k 64 --epochs 5 --strategy halfq --partition dp2 --schedule tiled --rank-metrics", 0xfacf3baed4edc420),
        ("train data.txt --checkpoint-every 3 --checkpoint-path c.hccmf --resume r.hccmf --fault-tolerant", 0x4667db9c698d9e7b),
        ("train data.txt --transport socket --net-chaos 7", 0xf016b529935f8280),
        ("train data.txt", 0xec4f4bb732ae9b20),
        ("train data.txt --transport tcp --server-shards 4", 0x8aaa537b3d28164f),
        ("train data.txt --telemetry run.jsonl", 0xf8a9980f3be6f2b6),
        ("train r.txt --k 8 --epochs 4 --telemetry run.jsonl", 0x08ed95e859fcc5f3),
        ("train r.txt --k 8 --epochs 8 --lr 0.02 --out model --rank-metrics", 0xddf42cea957351b1),
        ("train --lr 0.02 --lambda 0.05 r.txt --epochs 3 --k 8 --seed 9", 0x42af8b3d92c04678),
        ("train r.txt --workers cpu2,gpu4@0.5 --strategy halfq --partition uniform --schedule tiled --test-frac 0.25 --out m --rank-metrics", 0x73533c3cc280060d),
        ("train r.txt --strategy q --partition dp0 --transport shared", 0xa157ac00fed285a9),
        ("train r.txt --partition dp1 --checkpoint-every 2 --out m", 0x790d2b0e38ba91d4),
        ("train r.txt --test-frac 0 --telemetry t.jsonl --k 16 --k 24", 0x757212516f93a81f),
        ("train r.txt --fault-tolerant --net-chaos 3 --server-shards 2 --transport tcp", 0x2eeff039cc9c7543),
        ("serve model.hccmf ratings.txt --queries queries.txt --topk 10 --shards 4 --batch 32 --precision int8 --admission-queue 512 --telemetry serve.jsonl", 0xa5fa077b01bde37f),
        ("serve /tmp/model.hccmf /tmp/ratings.txt --queries /tmp/queries.txt --topk 10 --shards 4 --batch 4 --precision int8 --admission-queue 64 --telemetry /tmp/serve.jsonl", 0x844ecd8ba8d1c6da),
        ("serve m.hccmf r.txt --queries q.txt --topk 5 --shards 8 --batch 64 --precision int8 --admission-queue 512 --telemetry t.jsonl", 0xb7b91a09d6813d76),
        ("serve m.hccmf r.txt --queries q.txt", 0x729637b6abddb8f1),
        ("serve m.hccmf r.txt --queries q.txt --topk 3 --shards 2 --batch 2 --telemetry serve.jsonl", 0xb20289fc4f46713c),
        ("serve m.hccmf r.txt --queries q.txt --topk 3 --shards 2 --precision fp16 --admission-queue 16", 0x4222c3a4c013fd03),
        ("serve m.hccmf r.txt --precision f32 --queries q.txt --batch 1", 0x8b2a4f1cd3e1f01b),
        ("recommend model.hccmf ratings.txt --user 7", 0x35666435f0d4dae1),
        ("recommend m.hccmf r.txt --user 7 --count 3", 0xae67c78abc9cf80f),
    ];

    #[test]
    fn documented_command_lines_build_pinned_configs() {
        let mut wrong = String::new();
        for &(line, pinned) in PINNED {
            let got = fnv1a(&rendered(line));
            if got != pinned {
                wrong += &format!("        (\"{line}\", {got:#018x}),\n");
            }
        }
        assert!(wrong.is_empty(), "hashes moved:\n{wrong}");
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
            CliCommand::Recommend(RecommendArgs {
                model: format!("{model_prefix}.hccmf"),
                ratings: ratings.clone(),
                user: 50,
                count: 4,
            }),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4, "{text}");

        // out-of-range user errors cleanly
        let err = run(
            CliCommand::Recommend(RecommendArgs {
                model: format!("{model_prefix}.hccmf"),
                ratings,
                user: 10_000,
                count: 4,
            }),
            &mut Vec::new(),
        );
        assert!(err.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
