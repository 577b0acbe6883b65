//! One run: `ROUNDS` rounds of train → save → load/build → first answer →
//! closed-loop, batch, open-loop nominal and open-loop overload serving,
//! with every output checked.
//!
//! All calls into the program go through public functions of the shipped
//! crates. With tracing on, the run also adds the single-layer measurements
//! and, in its last round only, records harness spans and switches on the
//! program's own telemetry (`HccConfigBuilder::telemetry`,
//! `ServeEngine::with_telemetry`): the other rounds stay clean, so the
//! per-layer timings are untraced numbers and the last round against them
//! is the telemetry overhead.
//!
//! A round reduces each phase to one whole-phase statistic — queries ÷
//! phase time, the phase's median latency, nnz ÷ the median post-adaptation
//! epoch — and the run reports the median over its rounds, so a regression
//! must reach half the samples to go unseen, not three quarters.

use crate::inputs::{Inputs, Phases};
use crate::layers;
use crate::openloop::{self, Observed, Status};
use crate::report::Values;
use crate::stats::{self, median, percentile};
use crate::trace::{QuerySpan, SpanId, Trace};
use crate::workloads::{Workload, BATCH, K, MAX_BATCH, ORACLE_USERS, ROUNDS, TOP_K};
use hcc_mf::{
    load_model, load_served_model_with, reload_from_checkpoint, save_model, HccConfig, HccMf,
    HccReport, TransferStrategy, TransportKind,
};
use hcc_serve::{
    naive_top_k, AdmissionConfig, AdmissionPipeline, Precision, ServeEngine, ServedModel,
};
use hcc_sgd::{dot, FactorMatrix};
use hcc_sparse::CsrMatrix;
use hcc_telemetry::{Header, Telemetry};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `HccConfig`'s default; epochs before it may still repartition and are
/// left out of the per-epoch statistics.
const ADAPT_EPOCHS: usize = 3;
/// Ring capacity per telemetry lane in the traced serve pass.
const SERVE_LANE_CAPACITY: usize = 1 << 16;
/// The rounds of one run do identical work, so the bytes on the wire per
/// epoch may differ between them by at most this factor (retransmissions,
/// deltas that follow the Hogwild races); over `CommShared` they must
/// repeat exactly.
const WIRE_REPEAT_MAX: f64 = 1.01;
/// Share of nominal-rate queries the pipeline may shed before the run is
/// wrong: a pipeline that cannot hold its nominal rate sheds far more. Below
/// it a shed query misses every latency limit but is not a failed
/// operation, because the harness causes it: after a host freeze the
/// generator sends everything that fell due in one go, and a freeze of half
/// a second (one run in fifty on the sizing box) overflows any queue that
/// still drains inside the latency limit.
const NOMINAL_SHED_MAX: f64 = 0.05;
/// The ISSUE's tie rule: a returned item is right when its exact f32 score
/// reaches the oracle's k-th score within this, relative.
const TIE_F32: f64 = 1e-4;

/// Score band inside which a precision tier may legally reorder items: the
/// tie rule at f32, the tier's own rounding below it (fp16 keeps 11 bits;
/// int8 rows share one scale per shard, about 1 % of a top score).
fn tie_band(precision: Precision) -> f64 {
    match precision {
        Precision::F32 => TIE_F32,
        Precision::Fp16 => 2e-3,
        Precision::Int8 => 2e-2,
    }
}

/// Attempted and failed operations of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub phase: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    pub end_to_end: Values,
    pub per_layer: Values,
    pub tallies: Vec<Tally>,
    /// The per-round samples behind each median over rounds, in round order
    /// (open-loop phases: the clean rounds only).
    pub rounds: Vec<(&'static str, Vec<f64>)>,
    /// Named output checks with what they saw; any `false` makes the run
    /// incorrect.
    pub checks: Vec<(&'static str, bool, String)>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Share of `got` that is a correct top-k entry for `user`: not a seen
/// item, and its exact f32 score reaches the oracle's k-th score within
/// `band·(1+|kth|)`. Rank swaps inside the band are legal; a genuinely
/// missing item is not. A wrong length scores 0. Returns the share under
/// the strict f32 tie rule and under `band`.
fn recall(
    p: &FactorMatrix,
    q: &FactorMatrix,
    seen: &CsrMatrix,
    user: u32,
    got: &[(u32, f32)],
    band: f64,
) -> (f64, f64) {
    let oracle = naive_top_k(p, q, Some(seen), user, TOP_K);
    let Some(&(_, kth)) = oracle.last() else {
        let all = if got.is_empty() { 1.0 } else { 0.0 };
        return (all, all);
    };
    if got.len() != oracle.len() {
        return (0.0, 0.0);
    }
    let seen_items = seen.row(user).0;
    let share = |band: f64| {
        let floor = f64::from(kth) - band * (1.0 + f64::from(kth.abs()));
        let hits = got
            .iter()
            .filter(|(item, _)| {
                !seen_items.contains(item)
                    && f64::from(dot(p.row(user as usize), q.row(*item as usize))) >= floor
            })
            .count();
        hits as f64 / oracle.len() as f64
    };
    (share(TIE_F32), share(band))
}

/// `(seconds, epochs)` until the tracked RMSE first reaches `target`:
/// cumulative `epoch_times` and the epoch count, both interpolated linearly
/// inside the crossing epoch so that they move smoothly with the RMSE curve
/// instead of jumping by whole epochs.
fn to_rmse(report: &HccReport, target: f64) -> Option<(f64, f64)> {
    let mut elapsed = 0.0;
    let mut prev: Option<f64> = None;
    for (epoch, (rmse, dt)) in report
        .rmse_history
        .iter()
        .zip(&report.epoch_times)
        .enumerate()
    {
        let dt = secs(*dt);
        if *rmse <= target {
            let frac = match prev {
                Some(p) if p > *rmse => ((p - target) / (p - rmse)).clamp(0.0, 1.0),
                _ => 1.0,
            };
            return Some((elapsed + frac * dt, epoch as f64 + frac));
        }
        elapsed += dt;
        prev = Some(*rmse);
    }
    None
}

/// Bytes on the wire per epoch if every worker pulls and pushes the whole
/// synchronized region once: the closed-form Q-only / FP16 prediction.
fn wire_model_bytes(w: &Workload, workers: usize) -> f64 {
    let region_rows = f64::from(w.rows.min(w.cols));
    let bytes_per = match w.strategy {
        TransferStrategy::HalfQ => 2.0,
        _ => 4.0,
    };
    2.0 * workers as f64 * region_rows * K as f64 * bytes_per
}

/// Epochs `HccReport.wire_bytes` covers. A repartition rebuilds the
/// transport and its byte counters with it, so the count restarts after the
/// last one: it covers the trailing epochs that ran on the final partition.
fn epochs_on_wire(report: &HccReport) -> usize {
    let history = &report.partition_history;
    history
        .iter()
        .rev()
        .take_while(|p| Some(*p) == history.last())
        .count()
        .max(1)
}

/// Epochs of a report that count for per-epoch statistics.
fn scored<T>(per_epoch: &[T]) -> &[T] {
    &per_epoch[ADAPT_EPOCHS.min(per_epoch.len().saturating_sub(1))..]
}

/// One train → first-answer repetition.
struct Rep {
    report: HccReport,
    engine: Arc<ServeEngine>,
    /// The first answer was right within the tier's tie band.
    first_right: bool,
    train_start: Instant,
    train_end: Instant,
    save_end: Instant,
    load_end: Instant,
    first_at: Instant,
}

impl Rep {
    fn train_wall(&self) -> f64 {
        secs(self.train_end - self.train_start)
    }

    fn lifecycle(&self) -> f64 {
        secs(self.first_at - self.train_start)
    }
}

/// The serving model of `w` from the file at `model_path`.
fn load_and_build(w: &Workload, model_path: &Path, inputs: &Inputs) -> Result<ServedModel, String> {
    if w.pruned {
        return load_served_model_with(
            model_path,
            Some(&inputs.matrix),
            w.serve_shards,
            w.precision,
        )
        .map_err(|e| format!("load_served_model_with: {e}"));
    }
    // `load_served_model_with` always prunes; the exhaustive model is its
    // two public halves with `prune = false`.
    let (p, q) = load_model(model_path).map_err(|e| format!("load_model: {e}"))?;
    ServedModel::build_with(
        p,
        q,
        Some(&inputs.matrix),
        w.serve_shards,
        w.precision,
        false,
    )
    .map_err(|e| format!("build_with: {e}"))
}

fn lifecycle_rep(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    tmp: &Path,
    model_path: &Path,
    seen: &CsrMatrix,
    traced: bool,
) -> Result<Rep, String> {
    let matrix = &inputs.matrix;
    let mut builder = HccConfig::builder()
        .k(K)
        .epochs(w.epochs)
        .workers(w.fleet.specs())
        .partition(w.partition)
        .strategy(w.strategy)
        .transport(w.transport)
        .server_shards(w.server_shards)
        .track_rmse(true)
        .seed(seed);
    if let Some(every) = w.checkpoint_every {
        builder = builder.checkpoint(tmp.join("train.ckpt"), every);
    }
    if traced {
        builder = builder.telemetry(tmp.join("train_telemetry.jsonl"));
    }
    let config = builder.try_build().map_err(|e| format!("config: {e}"))?;

    let train_start = Instant::now();
    let report = HccMf::new(config)
        .train(matrix)
        .map_err(|e| format!("train failed: {e}"))?;
    let train_end = Instant::now();
    save_model(model_path, &report.p, &report.q).map_err(|e| format!("save_model: {e}"))?;
    let save_end = Instant::now();
    let model = load_and_build(w, model_path, inputs)?;
    let load_end = Instant::now();
    let engine = Arc::new(if traced {
        ServeEngine::with_telemetry(
            model,
            Telemetry::enabled(
                Header {
                    workers: w.serve_shards as u32,
                    k: K as u32,
                    nnz: matrix.nnz() as u64,
                    strategy: "serve".into(),
                    streams: 1,
                    backend: hcc_sgd::simd::active_backend().name().into(),
                    schedule: "serve".into(),
                },
                SERVE_LANE_CAPACITY,
            ),
        )
    } else {
        ServeEngine::new(model)
    });
    let first_user = inputs.closed_users[0];
    let first = engine
        .top_k(first_user, TOP_K)
        .map_err(|e| format!("first query: {e}"))?;
    let first_at = Instant::now();
    let band = tie_band(w.precision);
    let first_right = recall(&report.p, &report.q, seen, first_user, &first, band).1 == 1.0;
    Ok(Rep {
        report,
        engine,
        first_right,
        train_start,
        train_end,
        save_end,
        load_end,
        first_at,
    })
}

/// Statistics of one open-loop phase. A round's phase is one window: its
/// percentiles are taken over that round's queries, and the run's value is
/// the median over rounds.
struct OpenStats {
    samples: u64,
    /// Each round's median latency, and answers delivered within the limit
    /// ÷ the phase's length.
    round_p50: Vec<f64>,
    round_goodput: Vec<f64>,
    /// Median over rounds of each round's median latency.
    p50: f64,
    /// Median over rounds of each round's 90th percentile.
    p90: f64,
    /// Median over rounds of each round's 99th percentile.
    p99: f64,
    /// 99.9th percentile of all rounds' queries together, raw.
    p999: f64,
    /// Median over rounds of `round_goodput`.
    goodput: f64,
    shed: u64,
    failed: u64,
    late_p99: f64,
}

impl OpenStats {
    fn shed_frac(&self) -> f64 {
        self.shed as f64 / self.samples.max(1) as f64
    }
}

fn open_stats(rounds: &[&Observed], limit_us: f64) -> OpenStats {
    let (mut p50s, mut p90s, mut p99s, mut goodputs) = (vec![], vec![], vec![], vec![]);
    let (mut all, mut late) = (Vec::new(), Vec::new());
    let (mut shed, mut failed) = (0u64, 0u64);
    for obs in rounds {
        let mut lat: Vec<f64> = obs.queries.iter().map(|q| q.latency_us()).collect();
        if lat.is_empty() {
            continue;
        }
        stats::sort(&mut lat);
        p50s.push(percentile(&lat, 0.5));
        p90s.push(percentile(&lat, 0.9));
        p99s.push(percentile(&lat, 0.99));
        goodputs.push(lat.iter().filter(|&&l| l <= limit_us).count() as f64 / secs(obs.span));
        all.extend(lat);
        late.extend(obs.queries.iter().map(|q| (q.submit - q.due) * 1e6));
        for q in &obs.queries {
            shed += u64::from(q.status == Status::Shed);
            failed += u64::from(q.status == Status::Failed);
        }
    }
    assert!(!all.is_empty(), "an open-loop phase sent no query");
    stats::sort(&mut all);
    stats::sort(&mut late);
    OpenStats {
        samples: all.len() as u64,
        round_p50: p50s.clone(),
        round_goodput: goodputs.clone(),
        p50: median(&mut p50s),
        p90: median(&mut p90s),
        p99: median(&mut p99s),
        p999: percentile(&all, 0.999),
        goodput: median(&mut goodputs),
        shed,
        failed,
        late_p99: percentile(&late, 0.99),
    }
}

fn query_spans(trace: &Trace, phase: &'static str, obs: &Observed) -> Vec<QuerySpan> {
    let base = trace.us(obs.start);
    obs.queries
        .iter()
        .enumerate()
        .map(|(i, q)| QuerySpan {
            phase,
            id: i as u32,
            due_us: base + q.due * 1e6,
            submit_us: base + q.submit * 1e6,
            answer_us: (q.status == Status::Answered).then_some(base + q.answer * 1e6),
        })
        .collect()
}

/// Lays the epochs of `report` out under the `train` span. The program
/// reports durations, not instants, so epochs are placed back to back from
/// the start of training: durations are exact, positions approximate.
fn epoch_spans(trace: &mut Trace, train: SpanId, train_start_us: f64, report: &HccReport) {
    let mut at = train_start_us;
    for (e, dt) in report.epoch_times.iter().enumerate() {
        let end = at + secs(*dt) * 1e6;
        let epoch = trace.span_us(&format!("epoch{e}"), train, at, end);
        for (wi, s) in report.worker_stats[e].iter().enumerate() {
            let pull_end = at + secs(s.pull) * 1e6;
            let comp_end = pull_end + secs(s.compute) * 1e6;
            let push_end = comp_end + secs(s.push) * 1e6;
            trace.span_us(&format!("w{wi}.pull"), epoch, at, pull_end);
            trace.span_us(&format!("w{wi}.compute"), epoch, pull_end, comp_end);
            trace.span_us(&format!("w{wi}.push"), epoch, comp_end, push_end);
        }
        let sync = secs(report.sync_times[e]) * 1e6;
        trace.span_us("sync", epoch, end - sync, end);
        at = end;
    }
}

/// What the timed serve phases of one round observed.
struct Served {
    closed_start: Instant,
    /// When the closed loop's caller stopped (a reload may outlast it).
    closed_end: Instant,
    closed_queries: u64,
    closed_failed: u64,
    /// Median and 99th percentile of this round's per-query `top_k` times.
    topk_p50_us: f64,
    topk_p99_us: f64,
    /// `(start, duration, ok)` of every reload.
    reloads: Vec<(Instant, Duration, bool)>,
    batch_start: Instant,
    batch_end: Instant,
    batch_calls: u64,
    batch_failed: u64,
    nominal: Observed,
    overload: Observed,
    /// `(rate, observed)` of the ladder's extra rungs (last traced round).
    ladder: Vec<(f64, Observed)>,
    open_end: Instant,
}

impl Served {
    /// Queries answered ÷ the closed-loop phase's length.
    fn serve_qps(&self) -> f64 {
        self.closed_queries as f64 / secs(self.closed_end - self.closed_start)
    }

    /// Users answered ÷ the batch phase's length.
    fn batch_qps(&self) -> f64 {
        (self.batch_calls * BATCH as u64) as f64 / secs(self.batch_end - self.batch_start)
    }
}

/// Which round this is, and whether it is the traced run's last (the one
/// that also climbs the rate ladder).
#[derive(Clone, Copy)]
struct RoundCtx {
    index: usize,
    seed: u64,
    traced: bool,
}

fn serve_phases(
    w: &Workload,
    inputs: &Inputs,
    phases: &Phases,
    ctx: RoundCtx,
    model_path: &Path,
    engine: &Arc<ServeEngine>,
    answer_len: &[u8],
) -> Served {
    let matrix = &inputs.matrix;
    let right_len = |user: u32, a: &[(u32, f32)]| a.len() == usize::from(answer_len[user as usize]);

    // ------------------------------------------------ closed loop + reloads
    let closed_start = Instant::now();
    let mut closed_us: Vec<f64> = Vec::with_capacity(1 << 18);
    let mut closed_failed = 0u64;
    let mut closed_end = closed_start;
    let reloads: Vec<(Instant, Duration, bool)> = std::thread::scope(|scope| {
        let reloader = scope.spawn(|| {
            let mut out = Vec::new();
            for i in 0..w.reloads {
                let at = phases
                    .closed
                    .mul_f64((i + 1) as f64 / (w.reloads + 1) as f64);
                std::thread::sleep(at.saturating_sub(closed_start.elapsed()));
                let t0 = Instant::now();
                let r = reload_from_checkpoint(engine, model_path, Some(matrix), w.serve_shards);
                out.push((t0, t0.elapsed(), r.is_ok()));
            }
            out
        });
        let users = &inputs.closed_users;
        // Each round starts elsewhere in the user list.
        let mut i = 1 + ctx.index * (users.len() / ROUNDS);
        loop {
            let t0 = Instant::now();
            if t0 - closed_start >= phases.closed {
                closed_end = t0;
                break;
            }
            let user = users[i % users.len()];
            let answer = engine.top_k(user, TOP_K);
            closed_us.push(secs(t0.elapsed()) * 1e6);
            if !matches!(&answer, Ok(a) if right_len(user, a)) {
                closed_failed += 1;
            }
            i += 1;
        }
        reloader.join().expect("reload thread panicked")
    });
    stats::sort(&mut closed_us);

    // ---------------------------------------------------------------- batch
    let batch_start = Instant::now();
    let mut batch_calls = 0u64;
    let mut batch_failed = 0u64;
    let chunks: Vec<&[u32]> = inputs.batch_users.chunks_exact(BATCH).collect();
    let first_chunk = ctx.index * (chunks.len() / ROUNDS);
    while batch_start.elapsed() < phases.batch {
        let users = chunks[(first_chunk + batch_calls as usize) % chunks.len()];
        let answers = engine.top_k_batch(users, TOP_K);
        batch_calls += 1;
        let ok = matches!(&answers, Ok(a) if a.len() == BATCH
            && users.iter().zip(a).all(|(u, x)| right_len(*u, x)));
        batch_failed += u64::from(!ok);
    }
    let batch_end = Instant::now();

    // ------------------------------------------------------------ open loop
    let pipeline = AdmissionPipeline::new(
        Arc::clone(engine),
        AdmissionConfig {
            capacity: w.admission_capacity,
            max_batch: MAX_BATCH,
        },
    );
    let nominal = openloop::run(
        &pipeline,
        &inputs.nominal[ctx.index],
        answer_len,
        phases.nominal,
        ctx.traced,
    );
    let overload = openloop::run(
        &pipeline,
        &inputs.overload[ctx.index],
        answer_len,
        phases.overload,
        ctx.traced,
    );

    // Rate ladder (last round of a traced run): three more fixed rates
    // around the nominal one, which is itself the 1× rung.
    let mut ladder = Vec::new();
    if ctx.traced && ctx.index + 1 == ROUNDS {
        let mut rng = crate::inputs::Rng::new(ctx.seed ^ 0x1add_e400);
        let rung_span = phases.nominal.min(Duration::from_millis(600));
        for factor in [0.5, 2.0, 4.0] {
            let rate = w.nominal_qps * factor;
            let schedule = crate::inputs::poisson(&mut rng, rate, rung_span, w.rows);
            let obs = openloop::run(&pipeline, &schedule, answer_len, rung_span, false);
            ladder.push((rate, obs));
        }
    }
    drop(pipeline); // answers everything admitted, then joins its threads
    Served {
        closed_start,
        closed_end,
        closed_queries: closed_us.len() as u64,
        closed_failed,
        topk_p50_us: percentile(&closed_us, 0.5),
        topk_p99_us: percentile(&closed_us, 0.99),
        reloads,
        batch_start,
        batch_end,
        batch_calls,
        batch_failed,
        nominal,
        overload,
        ladder,
        open_end: Instant::now(),
    }
}

/// Runs the rounds of `w` on `inputs`. `tmp` is a private directory for the
/// model, checkpoint and telemetry files.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    phases: &Phases,
    seed: u64,
    tmp: &Path,
    trace: &mut Trace,
) -> Result<Outcome, String> {
    let traced = trace.enabled();
    let matrix = &inputs.matrix;
    let nnz = matrix.nnz() as f64;
    let mut e2e = Values::default();
    let run_start = Instant::now();
    // The oracle's seen-item filter; harness work, so built before timing.
    let seen = CsrMatrix::from(matrix);
    // A user who has rated nearly every item has fewer than ten left.
    let answer_len: Vec<u8> = (0..w.rows)
        .map(|u| TOP_K.min(w.cols as usize - seen.row(u).0.len()) as u8)
        .collect();
    let model_path = tmp.join("model.hccmf");

    // Per-round samples. In a traced run the last round runs with the
    // program's telemetry on and is left out of every median (`clean`).
    let clean = if traced { ROUNDS - 1 } else { ROUNDS };
    let mut t = Trained::default();
    let mut rmse_eval_s = 0.0;
    let mut rmse_improved = true;
    let mut epochs_missing = 0usize;
    let mut first_wrong = 0u64;
    let mut reloads_ok = 0u64;
    let mut served: Vec<Served> = Vec::with_capacity(ROUNDS);
    let mut last: Option<Rep> = None;
    for index in 0..ROUNDS {
        drop(last.take()); // one model in memory at a time
        let traced_round = traced && index == clean;
        let rep = lifecycle_rep(w, inputs, seed, tmp, &model_path, &seen, traced_round)?;
        if rep.report.epoch_times.is_empty() {
            return Err("train returned without running an epoch".into());
        }
        t.wall_s.push(rep.train_wall());
        t.lifecycle_s.push(rep.lifecycle());
        if let Some((seconds, epochs)) = to_rmse(&rep.report, w.rmse_target) {
            t.to_rmse_s.push(seconds);
            t.to_rmse_epochs.push(epochs);
        }
        let mut epoch_s: Vec<f64> = scored(&rep.report.epoch_times)
            .iter()
            .map(|d| secs(*d))
            .collect();
        t.updates_per_s.push(nnz / median(&mut epoch_s));
        t.wire_per_epoch
            .push(rep.report.wire_bytes as f64 / epochs_on_wire(&rep.report) as f64);
        epochs_missing += w.epochs - rep.report.rmse_history.len().min(w.epochs);
        // Computed by the harness on the returned factors, not taken from
        // the program's own tracking; its cost stands in for the program's
        // per-epoch RMSE pass in `core.session_setup_s`.
        let rmse_start = Instant::now();
        let rmse = hcc_sgd::rmse_parallel(matrix.entries(), &rep.report.p, &rep.report.q);
        rmse_eval_s = secs(rmse_start.elapsed());
        rmse_improved &= rep.report.rmse_history.first().is_some_and(|r0| rmse < *r0);
        t.final_rmse.push(rmse);
        first_wrong += u64::from(!rep.first_right);
        let ctx = RoundCtx {
            index,
            seed,
            traced: traced_round,
        };
        let round = serve_phases(
            w,
            inputs,
            phases,
            ctx,
            &model_path,
            &rep.engine,
            &answer_len,
        );
        let ok = round.reloads.iter().filter(|r| r.2).count() as u64;
        // The engine's own count must agree with what the calls returned.
        reloads_ok += u64::from(rep.engine.stats().reloads == ok) * ok;
        served.push(round);
        last = Some(rep);
    }
    let rep = last.expect("ROUNDS > 0");
    let report = &rep.report;

    // ---------------------------------------------------- median over rounds
    let per_round = |f: fn(&Served) -> f64| served.iter().map(f).collect::<Vec<_>>();
    let phase = |f: fn(&Served) -> &Observed| {
        let rounds: Vec<&Observed> = served[..clean].iter().map(f).collect();
        open_stats(&rounds, w.limit_us)
    };
    let nominal = phase(|s| &s.nominal);
    let overload = phase(|s| &s.overload);
    let rounds = vec![
        ("core.train_updates_per_s", t.updates_per_s.clone()),
        ("core.train_wall_s", t.wall_s.clone()),
        ("core.time_to_rmse_s", t.to_rmse_s.clone()),
        ("epochs_to_rmse", t.to_rmse_epochs.clone()),
        ("core.lifecycle_s", t.lifecycle_s.clone()),
        ("serve.closed_qps", per_round(Served::serve_qps)),
        ("serve.batch_qps", per_round(Served::batch_qps)),
        ("serve.open_p50_us", nominal.round_p50.clone()),
        ("open_goodput_qps", overload.round_goodput.clone()),
    ];
    let reached = t.to_rmse_epochs.len();
    e2e.set(
        "epochs_to_rmse",
        if reached == 0 {
            w.epochs as f64
        } else {
            median(&mut t.to_rmse_epochs.clone())
        },
    );
    e2e.set(
        "wire_bytes_per_epoch",
        median(&mut t.wire_per_epoch[..clean].to_vec()),
    );
    e2e.set("open_goodput_qps", overload.goodput);

    // ------------------------------------------------------- output checks
    let mut recalls = Vec::with_capacity(ORACLE_USERS);
    for &user in inputs.batch_users.iter().take(ORACLE_USERS) {
        let got = rep
            .engine
            .top_k(user, TOP_K)
            .map_err(|e| format!("oracle query: {e}"))?;
        recalls.push(recall(
            &report.p,
            &report.q,
            &seen,
            user,
            &got,
            tie_band(w.precision),
        ));
    }
    let wrong = recalls.iter().filter(|r| r.1 < 1.0).count() as u64;
    e2e.set(
        "recall_at_10",
        recalls.iter().map(|r| r.0).sum::<f64>() / recalls.len() as f64,
    );
    let all_finite = t.final_rmse.iter().all(|r| r.is_finite());
    let (wire_min, wire_max) = t
        .wire_per_epoch
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &b| {
            (lo.min(b), hi.max(b))
        });
    let wire_repeat_max = match w.transport {
        TransportKind::Shared => 1.0,
        _ => WIRE_REPEAT_MAX,
    };
    let reloads_wanted = (ROUNDS * w.reloads) as u64;
    let checks = vec![
        (
            "train.ran_every_epoch",
            epochs_missing == 0,
            format!("{epochs_missing} epochs missing"),
        ),
        (
            "train.reached_rmse_target",
            reached == ROUNDS,
            format!(
                "{reached} of {ROUNDS} rounds reached {}; last round's RMSE per epoch {:.3?}",
                w.rmse_target, report.rmse_history
            ),
        ),
        (
            "train.rmse_finite_and_improved",
            all_finite && rmse_improved,
            format!("final RMSE per round {:.4?}", t.final_rmse),
        ),
        (
            "comm.wire_bytes_repeat",
            wire_min > 0.0 && wire_max <= wire_min * wire_repeat_max,
            format!("{wire_min} to {wire_max} bytes per epoch, may differ by {wire_repeat_max}x"),
        ),
        (
            "serve.first_answer_correct",
            first_wrong == 0,
            format!("{first_wrong} of {ROUNDS} wrong"),
        ),
        (
            "serve.reload_count_matches",
            reloads_ok == reloads_wanted,
            format!("{reloads_ok} of {reloads_wanted} reloads"),
        ),
        (
            "serve.answers_match_oracle",
            wrong == 0,
            format!("{wrong} of {ORACLE_USERS} users wrong"),
        ),
        (
            "serve.nominal_rate_not_shed",
            nominal.shed_frac() <= NOMINAL_SHED_MAX,
            format!(
                "{} of {} shed, at most {NOMINAL_SHED_MAX} allowed",
                nominal.shed, nominal.samples
            ),
        ),
    ];

    let sum = |f: fn(&Served) -> u64| served.iter().map(f).sum::<u64>();
    let tallies = vec![
        Tally {
            phase: "train",
            attempted: (ROUNDS * w.epochs) as u64,
            failed: (epochs_missing + ROUNDS - reached) as u64,
        },
        Tally {
            phase: "serve_closed",
            attempted: sum(|s| s.closed_queries),
            failed: sum(|s| s.closed_failed),
        },
        Tally {
            phase: "reload",
            attempted: reloads_wanted,
            failed: reloads_wanted - reloads_ok,
        },
        Tally {
            phase: "serve_batch",
            attempted: sum(|s| s.batch_calls),
            failed: sum(|s| s.batch_failed),
        },
        Tally {
            phase: "open_nominal",
            attempted: nominal.samples,
            failed: nominal.failed,
        },
        Tally {
            phase: "open_overload",
            attempted: overload.samples,
            failed: overload.failed,
        },
        Tally {
            phase: "oracle",
            attempted: (ORACLE_USERS + ROUNDS) as u64,
            failed: wrong + first_wrong,
        },
    ];
    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    e2e.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    e2e.set("peak_rss_mb", layers::peak_rss_mib()?);

    let per_layer = if traced {
        let measured = Measured {
            rep: &rep,
            trained: &t,
            served: &served,
            rmse_eval_s,
            nominal: &nominal,
            overload: &overload,
        };
        let mut layer = per_layer(w, inputs, seed, &model_path, &measured)?;
        spans(trace, run_start, &rep, served.last().expect("ROUNDS > 0"));
        // Draining the serve engine's telemetry consumes it, so this is last.
        let train_dropped = rep.report.timeline.as_ref().map_or(0, |t| t.dropped);
        let serve_dropped = Arc::try_unwrap(rep.engine)
            .map_err(|_| "serve engine still shared after the pipeline closed".to_string())?
            .finish_telemetry()
            .map_or(0, |t| t.dropped);
        layer.set(
            "telemetry.dropped_events",
            (train_dropped + serve_dropped) as f64,
        );
        layer
    } else {
        Values::default()
    };
    Ok(Outcome {
        end_to_end: e2e,
        per_layer,
        tallies,
        rounds,
        checks,
    })
}

/// Per-round samples of the training half of a round, in round order.
#[derive(Default)]
struct Trained {
    /// nnz ÷ the median post-adaptation epoch.
    updates_per_s: Vec<f64>,
    wall_s: Vec<f64>,
    lifecycle_s: Vec<f64>,
    /// Only the rounds that reached the target.
    to_rmse_s: Vec<f64>,
    to_rmse_epochs: Vec<f64>,
    /// The harness's RMSE of the returned factors.
    final_rmse: Vec<f64>,
    /// `HccReport.wire_bytes` ÷ the epochs it covers.
    wire_per_epoch: Vec<f64>,
}

/// What the rounds of a traced run measured.
struct Measured<'a> {
    /// The last round, the one with the program's telemetry on.
    rep: &'a Rep,
    trained: &'a Trained,
    served: &'a [Served],
    rmse_eval_s: f64,
    /// Open-loop statistics of the clean rounds.
    nominal: &'a OpenStats,
    overload: &'a OpenStats,
}

/// The traced pass's per-layer numbers. Timings are medians over the clean
/// rounds; what only a report holds (per-worker phases, sync, partition)
/// comes from the last round's, the one with telemetry on.
fn per_layer(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    model_path: &Path,
    m: &Measured,
) -> Result<Values, String> {
    let mut layer = Values::default();
    let (rep, served) = (m.rep, m.served);
    let clean = served.len() - 1;
    let over_clean = |samples: &[f64]| median(&mut samples[..clean].to_vec());
    let served_clean =
        |f: fn(&Served) -> f64| median(&mut served[..clean].iter().map(f).collect::<Vec<_>>());
    let updates_per_s = over_clean(&m.trained.updates_per_s);
    let serve_qps = served_clean(Served::serve_qps);
    let serve_batch_qps = served_clean(Served::batch_qps);
    let report = &rep.report;
    let matrix = &inputs.matrix;
    let nnz = matrix.nnz() as f64;
    let workers = report.worker_stats.first().map_or(0, Vec::len);
    let epoch_stats = scored(&report.worker_stats);

    layer.set("sparse.gen_s", secs(inputs.gen_time));
    layer.set("sparse.gen_nnz_per_s", nnz / secs(inputs.gen_time));

    // sgd: updates ÷ compute per worker and epoch, median over epochs,
    // summed over workers (they run side by side).
    let kernel_rate: f64 = (0..workers)
        .map(|wi| {
            let mut rates: Vec<f64> = epoch_stats
                .iter()
                .filter(|e| e[wi].updates > 0)
                .map(|e| e[wi].updates as f64 / secs(e[wi].compute))
                .collect();
            if rates.is_empty() {
                0.0
            } else {
                median(&mut rates)
            }
        })
        .sum();
    let stream = layers::stream_copy_gbps();
    let kernel_gbps = kernel_rate * layers::bytes_per_update(K) / 1e9;
    let standalone = layers::standalone_updates_per_s(matrix, K, seed);
    layer.set("sgd.kernel_updates_per_s", kernel_rate);
    layer.set("sgd.kernel_gbps", kernel_gbps);
    layer.set("sgd.stream_copy_gbps", stream);
    layer.set("sgd.roofline_frac", kernel_gbps / stream);
    layer.set("sgd.standalone_updates_per_s", standalone);

    // partition
    let mut imbalance: Vec<f64> = epoch_stats
        .iter()
        .map(|e| {
            let totals: Vec<f64> = e.iter().map(|s| secs(s.total())).collect();
            let mean = totals.iter().sum::<f64>() / totals.len() as f64;
            totals.iter().fold(0.0f64, |a, &b| a.max(b)) / mean
        })
        .collect();
    let repartitions = report
        .partition_history
        .windows(2)
        .filter(|p| p[0] != p[1])
        .count();
    layer.set("partition.imbalance", median(&mut imbalance));
    layer.set(
        "partition.utilization",
        updates_per_s / (standalone * workers as f64),
    );
    layer.set(
        "partition.final_share_w0",
        report.final_partition().map_or(0.0, |p| p[0]),
    );
    layer.set("partition.repartitions", repartitions as f64);

    // comm: median over epochs of the slowest worker's phase.
    let slowest = |f: fn(&hcc_mf::WorkerEpochStats) -> Duration| {
        let mut v: Vec<f64> = epoch_stats
            .iter()
            .map(|e| e.iter().map(|s| secs(f(s))).fold(0.0, f64::max))
            .collect();
        median(&mut v)
    };
    let (pull_s, push_s, comp_s) = (
        slowest(|s| s.pull),
        slowest(|s| s.push),
        slowest(|s| s.compute),
    );
    let (rpc_shared, rpc_uds, rpc_tcp) = layers::rpc_medians(w.rows.min(w.cols) as usize * K)?;
    layer.set("comm.pull_s", pull_s);
    layer.set("comm.push_s", push_s);
    layer.set(
        "comm.exposed_frac",
        (pull_s + push_s) / (pull_s + push_s + comp_s),
    );
    layer.set(
        "comm.wire_vs_model_ratio",
        over_clean(&m.trained.wire_per_epoch) / wire_model_bytes(w, workers),
    );
    layer.set("comm.shared.rpc_us_p50", rpc_shared);
    layer.set("comm.uds.rpc_us_p50", rpc_uds);
    layer.set("comm.tcp.rpc_us_p50", rpc_tcp);

    // core
    let mut syncs: Vec<f64> = scored(&report.sync_times)
        .iter()
        .map(|d| secs(*d))
        .collect();
    let mut epoch_s: Vec<f64> = scored(&report.epoch_times)
        .iter()
        .map(|d| secs(*d))
        .collect();
    let save_s = secs(rep.save_end - rep.train_end);
    let load_start = Instant::now();
    load_model(model_path).map_err(|e| format!("load_model: {e}"))?;
    let load_s = secs(load_start.elapsed());
    let model_bytes = std::fs::metadata(model_path)
        .map_err(|e| format!("model file: {e}"))?
        .len() as f64;
    let non_epoch = rep.train_wall() - secs(report.total_time());
    // Checkpoints are written between epochs, outside `epoch_times`; their
    // stall is estimated as the harness's own save time per checkpoint.
    let checkpoints = w.checkpoint_every.map_or(0, |n| w.epochs / n);
    let stall = checkpoints as f64 * save_s;
    layer.set("core.train_updates_per_s", updates_per_s);
    layer.set("core.train_wall_s", over_clean(&m.trained.wall_s));
    layer.set(
        "core.time_to_rmse_s",
        match &m.trained.to_rmse_s[..clean.min(m.trained.to_rmse_s.len())] {
            [] => secs(report.total_time()),
            reached => median(&mut reached.to_vec()),
        },
    );
    layer.set("core.lifecycle_s", over_clean(&m.trained.lifecycle_s));
    layer.set("core.final_rmse", over_clean(&m.trained.final_rmse));
    layer.set("core.sync_s", median(&mut syncs));
    layer.set("core.epoch_s_p50", median(&mut epoch_s));
    layer.set(
        "core.epoch_s_max",
        epoch_s.iter().fold(0.0, |a, &b| a.max(b)),
    );
    layer.set("core.non_epoch_s", non_epoch);
    layer.set(
        "core.session_setup_s",
        (non_epoch - stall - w.epochs as f64 * m.rmse_eval_s).max(0.0),
    );
    layer.set("core.checkpoint.save_s", save_s);
    layer.set("core.checkpoint.load_s", load_s);
    layer.set("core.checkpoint.mb_per_s", model_bytes / 1e6 / save_s);
    layer.set("core.checkpoint.stall_s", stall);

    // serve
    let topk_p50 = served_clean(|s| s.topk_p50_us);
    let mut reload_s: Vec<f64> = served
        .iter()
        .flat_map(|s| s.reloads.iter().map(|r| secs(r.1)))
        .collect();
    let last = served.last().expect("ROUNDS > 0");
    // The highest of four fixed rates whose p99 meets the limit with
    // nothing shed; the nominal phase is the 1× rung.
    let mut max_rate_ok = 0.0f64;
    if m.nominal.p99 <= w.limit_us && m.nominal.shed == 0 {
        max_rate_ok = w.nominal_qps;
    }
    for (rate, obs) in &last.ladder {
        let s = open_stats(&[obs], w.limit_us);
        if s.p99 <= w.limit_us && s.shed == 0 && s.failed == 0 {
            max_rate_ok = max_rate_ok.max(*rate);
        }
    }
    layer.set(
        "serve.model_build_s",
        (secs(rep.load_end - rep.save_end) - load_s).max(0.0),
    );
    layer.set(
        "serve.reload_s",
        if reload_s.is_empty() {
            0.0
        } else {
            median(&mut reload_s)
        },
    );
    layer.set("serve.topk_us_p50", topk_p50);
    layer.set("serve.closed_qps", serve_qps);
    layer.set("serve.batch_qps", serve_batch_qps);
    layer.set("serve.topk_us_p99", served_clean(|s| s.topk_p99_us));
    layer.set("serve.scan_frac", rep.engine.stats().scan_frac);
    layer.set("serve.batch_vs_single_ratio", serve_batch_qps / serve_qps);
    layer.set(
        "serve.admission.wait_us_p50",
        (m.nominal.p50 - topk_p50).max(0.0),
    );
    layer.set(
        "serve.admission.wait_us_p99",
        (m.nominal.p99 - topk_p50).max(0.0),
    );
    layer.set("serve.admission.nominal_shed_frac", m.nominal.shed_frac());
    layer.set("serve.admission.shed_frac", m.overload.shed_frac());
    layer.set(
        "serve.admission.depth_max",
        served
            .iter()
            .map(|s| s.nominal.depth_max.max(s.overload.depth_max))
            .max()
            .unwrap_or(0) as f64,
    );
    layer.set("serve.admission.overload_p99_us", m.overload.p99);
    layer.set("serve.open_p50_us", m.nominal.p50);
    layer.set("serve.open_p90_us", m.nominal.p90);
    layer.set("serve.open_p99_us", m.nominal.p99);
    layer.set("serve.max_rate_ok_qps", max_rate_ok);
    layer.set("serve.open_p999_us", m.nominal.p999);

    // telemetry: how much slower the last round, with the program's
    // telemetry on, ran than the clean rounds' median; and the Eq. 2
    // cost-model residual. The caller adds the events the rings dropped.
    let overhead = |clean: f64, on: f64| (clean - on) / clean;
    layer.set(
        "telemetry.train_overhead_frac",
        overhead(updates_per_s, m.trained.updates_per_s[clean]),
    );
    layer.set(
        "telemetry.serve_overhead_frac",
        overhead(serve_qps, served[clean].serve_qps()),
    );
    layer.set(
        "telemetry.model_residual_frac",
        hcc_mf::observe::model_validation(report).map_or(0.0, |v| v.mean_error),
    );

    layer.set("bench.gen_late_us_p99", m.nominal.late_p99);
    layer.set("bench.epochs_scored", (clean * epoch_s.len()) as f64);
    layer.set(
        "bench.closed_samples",
        served[..clean]
            .iter()
            .map(|s| s.closed_queries)
            .sum::<u64>() as f64,
    );
    layer.set("bench.open_samples", m.nominal.samples as f64);
    Ok(layer)
}

/// Records the last round as spans.
fn spans(trace: &mut Trace, run_start: Instant, rep: &Rep, served: &Served) {
    let root = trace.span("workload", SpanId::ROOT, run_start, Instant::now());
    let train = trace.span("train", root, rep.train_start, rep.train_end);
    epoch_spans(trace, train, trace.us(rep.train_start), &rep.report);
    trace.span("save", root, rep.train_end, rep.save_end);
    trace.span("load_build", root, rep.save_end, rep.load_end);
    trace.span("first_answer", root, rep.load_end, rep.first_at);
    let closed = trace.span("serve_closed", root, served.closed_start, served.closed_end);
    for (t0, dur, _) in &served.reloads {
        trace.span("reload", closed, *t0, *t0 + *dur);
    }
    trace.span("serve_batch", root, served.batch_start, served.batch_end);
    let (nominal, overload) = (&served.nominal, &served.overload);
    trace.span(
        "open_nominal",
        root,
        nominal.start,
        nominal.start + nominal.span,
    );
    trace.span(
        "open_overload",
        root,
        overload.start,
        overload.start + overload.span,
    );
    trace.span(
        "open_ladder_and_drain",
        root,
        overload.start + overload.span,
        served.open_end,
    );
    let nominal_spans = query_spans(trace, "open_nominal", nominal);
    let overload_spans = query_spans(trace, "open_overload", overload);
    trace.queries(nominal_spans);
    trace.queries(overload_spans);
}
