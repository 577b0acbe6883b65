//! The training orchestrator: preprocessing, partition planning, and the
//! `pull → compute → push → sync` epoch loop of Fig. 4.
//!
//! `P`'s rows are relabelled once, in a seeded shuffled order, so that the
//! contiguous row range each worker owns mixes popular and rare users.
//! `Q`'s rows are stored in a seeded shuffled order too (`band_order`), so
//! that a band is a contiguous slice of `Q`, and
//! an epoch walks [`RoundPlan::ring`] over those positions: one round
//! per worker, in which worker `w` trains band `(w + r + e·(p − 1)) mod p`
//! of epoch `e` on its own rows, so every band has one holder a round and
//! every worker holds every band once an epoch. A worker hands the band it
//! trained straight to its next holder, over that worker's peer link, and
//! the band's holder in the epoch's last round pushes it to the server,
//! which copies it back over its slice with nothing to merge: `p`
//! transfers a worker an epoch. The server publishes every band's slice
//! every round as the epoch began, for a worker whose hand-off was lost
//! and one that holds no band yet; a worker that holds its band already
//! pulls nothing. Like `P`, `Q` meets user order only at the run's
//! boundaries — warm start, resume, checkpoint, report — where it is moved
//! there and back in place. The schedule is the plan's; this file only
//! enacts it.

use crate::checkpoint::{load_checkpoint, save_checkpoint, ResumeState, TrainingMeta};
use crate::config::{HccConfig, TransportKind, WorkerSpec};
use crate::error::HccError;
use crate::report::{HccReport, WorkerEpochStats};
use crate::server::ShardedServer;
use crate::supervisor::{Supervisor, WorkerHealth};
use crate::worker::{compute, deal, Link, WorkerState};
use hcc_comm::socket::NetEventKind;
use hcc_comm::{
    Backoff, ChaosTransport, CommError, CommShared, CommSocket, Fault, Precision, TransferStrategy,
    Transport,
};
use hcc_partition::{
    dp0, replan_survivors, EpochTimes, PartitionMode, RoundPlan, StrategyChoice, WorkerClass,
};
use hcc_sgd::{rmse, FactorMatrix, HogwildConfig, SharedRows};
use hcc_sparse::{Axis, CooMatrix, GridPartition};
use hcc_telemetry::{Dir, Event, NetCause, Phase, Telemetry};
use parking_lot::Mutex;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an unsupervised server waits on a push before it re-checks
/// that the worker is still running. A push that arrives ends the wait at
/// once; the slice only bounds how late a push that will never arrive is
/// noticed.
const LOST_PUSH_POLL: Duration = Duration::from_millis(50);

/// Mixed into `config.seed` for the shuffle that orders `Q`'s rows into
/// bands, so it does not replay the ratings' shuffle.
const BAND_SEED: u64 = 0x6261_6e64;

/// Mixed into `config.seed` for the shuffle that orders `P`'s rows, so it
/// replays neither the ratings' shuffle nor the bands'.
const ROW_SEED: u64 = 0x726f_7773;

/// The order in which a run with `seed` stores the `rows` rows of its
/// (row-gridded, so possibly transposed) matrix: every row id once,
/// position → id. Row `r` of the session's ratings and `P` is row
/// `row_order(..)[r]` of the input for the whole run, and the partition
/// cuts its contiguous row ranges over these positions, so that each range
/// mixes popular and rare users. `P` is in input order at every boundary
/// of the run — warm start, resume, checkpoint, report — and the order is
/// redrawn from the seed at each, rather than kept beside `P` for the run.
pub fn row_order(seed: u64, rows: usize) -> Vec<u32> {
    seeded_order(rows, seed ^ ROW_SEED)
}

/// The order in which a run with `seed` stores the items of `plan`'s
/// bands, position → id: which band an item falls in comes from a seeded
/// shuffle, so that every band mixes popular and rare items; within a band
/// the ids ascend, so that a worker meets its ratings of a band in item
/// order.
fn band_order(seed: u64, plan: &RoundPlan) -> Vec<u32> {
    let mut order = seeded_order(plan.items(), seed ^ BAND_SEED);
    for band in plan.bands() {
        order[band.clone()].sort_unstable();
    }
    order
}

/// A seeded shuffle of the ids `0..n`.
fn seeded_order(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    order
}

/// The inverse of `order` (position → id): each id's position.
fn positions(order: &[u32]) -> Vec<u32> {
    let mut rank = vec![0u32; order.len()];
    for (at, &id) in order.iter().enumerate() {
        rank[id as usize] = at as u32;
    }
    rank
}

/// The HCC-MF framework entry point.
#[derive(Debug, Clone)]
pub struct HccMf {
    config: HccConfig,
}

impl HccMf {
    /// Wraps a validated configuration.
    pub fn new(config: HccConfig) -> HccMf {
        HccMf { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &HccConfig {
        &self.config
    }

    /// Trains factor matrices for `matrix`, returning the report.
    pub fn train(&self, matrix: &CooMatrix) -> Result<HccReport, HccError> {
        self.config.validate()?;
        if matrix.nnz() == 0 {
            return Err(HccError::BadInput("matrix has no observed entries".into()));
        }
        hcc_sgd::mem::map_model_buffers();
        // Preprocessing (Fig. 4 steps ①–③): pick the grid axis by the longer
        // dimension; internally we always row-grid, transposing when needed
        // (the "Transmit P only" switch of Strategy 1).
        let transposed = Axis::for_matrix(matrix.rows(), matrix.cols()) == Axis::Col;
        let mut work = if transposed {
            matrix.clone().transpose()
        } else {
            matrix.clone()
        };
        if self.config.shuffle {
            let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
            work.shuffle(&mut rng);
        }

        // Resume: restore factors and loop state from a v2 checkpoint.
        let resume = match &self.config.resume {
            Some(path) => Some(validate_resume(
                load_checkpoint(path)?,
                &self.config,
                &work,
                transposed,
            )?),
            None => None,
        };

        let mut session = Session::create(&self.config, work)?;
        if let Some(state) = resume {
            session.apply_resume(state);
        }
        session.run(transposed)?;
        let report = session.into_report(transposed);
        if let (Some(path), Some(timeline)) = (&self.config.telemetry_path, &report.timeline) {
            std::fs::write(path, hcc_telemetry::jsonl::to_jsonl(timeline))
                .map_err(|e| HccError::Io(format!("writing telemetry {}: {e}", path.display())))?;
        }
        Ok(report)
    }
}

/// Stable strategy identifier for telemetry headers (distinct from the
/// paper-table labels of [`TransferStrategy::label`]).
fn strategy_wire_name(s: TransferStrategy) -> &'static str {
    match s {
        TransferStrategy::FullPq => "full-pq",
        TransferStrategy::QOnly => "q-only",
        TransferStrategy::HalfQ => "half-q",
    }
}

/// Checks a loaded checkpoint against the run it is asked to continue.
fn validate_resume(
    state: ResumeState,
    config: &HccConfig,
    work: &CooMatrix,
    transposed: bool,
) -> Result<ResumeState, HccError> {
    let (m, n) = (work.rows() as usize, work.cols() as usize);
    if state.p.rows() != m || state.q.rows() != n || state.p.k() != config.k {
        return Err(HccError::BadConfig(format!(
            "resume checkpoint is {}x{} at k = {}, this run needs {m}x{n} at k = {}",
            state.p.rows(),
            state.q.rows(),
            state.p.k(),
            config.k
        )));
    }
    if state.meta.transposed != transposed {
        return Err(HccError::BadConfig(
            "resume checkpoint orientation does not match this matrix".into(),
        ));
    }
    if state.meta.seed != config.seed {
        return Err(HccError::BadConfig(format!(
            "resume checkpoint was trained with seed {}, config has seed {} \
             (resumed epochs would not reproduce the original run)",
            state.meta.seed, config.seed
        )));
    }
    if state.meta.epoch >= config.epochs {
        return Err(HccError::BadConfig(format!(
            "resume checkpoint already completed epoch {} >= configured epochs {}",
            state.meta.epoch, config.epochs
        )));
    }
    Ok(state)
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

/// Maps a transport error to its telemetry cause tag.
fn net_cause(err: CommError) -> NetCause {
    match err {
        CommError::Timeout => NetCause::Timeout,
        CommError::Corrupt => NetCause::Corrupt,
        CommError::Disconnected => NetCause::Disconnected,
        CommError::PartitionedLink => NetCause::Partitioned,
    }
}

/// Keeps the elements of `items` whose index is flagged alive.
fn filter_alive<T: Clone>(items: &[T], alive: &[bool]) -> Vec<T> {
    items
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(v, _)| v.clone())
        .collect()
}

/// Spans a phase of a worker's round by telemetry start time and duration.
type Span = (u64, Duration);

/// Runs `f`, returning its result and the span it took.
fn timed<T>(telemetry: &Telemetry, f: impl FnOnce() -> T) -> (T, Span) {
    let start = telemetry.now_us();
    let t0 = Instant::now();
    let out = f();
    (out, (start, t0.elapsed()))
}

/// Result of one executed (not yet accepted) epoch.
struct EpochOutcome {
    stats: Vec<WorkerEpochStats>,
    sync_time: Duration,
    /// `missed[w]`: the server got no valid push from worker `w` this epoch.
    missed: Vec<bool>,
}

/// How a worker thread's epoch ended: its stats, or the message of the
/// panic that ended it. `None` in a slot means the thread is still running.
type WorkerExit = Result<WorkerEpochStats, String>;

/// Builds one worker's endpoint to the server for bands of up to `len`
/// floats, pulled and pushed alike. `shards > 1` makes it a node-sharded
/// parameter server: the band is tiled by contiguous row range across
/// that many links of `kind`, always at Fp32 — the delta replaces fp16
/// compression, and its words ride as f32 bit patterns, which only Fp32
/// carries unchanged.
fn build_endpoint(
    kind: TransportKind,
    k: usize,
    len: usize,
    precision: Precision,
    shards: usize,
) -> Result<Arc<dyn Transport>, HccError> {
    if shards == 1 {
        return build_link(kind, len, len, precision);
    }
    let (pull, push) = ShardedServer::link_lens(len / k, k, shards);
    let links = (0..shards)
        .map(|_| build_link(kind, pull, push, Precision::Fp32))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Arc::new(ShardedServer::new(k, len, links)))
}

/// One concrete transport of `kind` for one worker. Fallible because the
/// socket transports bind an OS resource.
fn build_link(
    kind: TransportKind,
    pull_len: usize,
    push_len: usize,
    precision: Precision,
) -> Result<Arc<dyn Transport>, HccError> {
    let bind_err = |e| HccError::Comm(format!("binding {kind:?} transport: {e}"));
    Ok(match kind {
        TransportKind::Shared => Arc::new(CommShared::new(1, pull_len, push_len, precision)),
        TransportKind::Socket => {
            Arc::new(CommSocket::new(1, pull_len, push_len, precision).map_err(bind_err)?)
        }
        TransportKind::Tcp => {
            Arc::new(CommSocket::new_tcp(1, pull_len, push_len, precision).map_err(bind_err)?)
        }
    })
}

/// Fault-tolerance state of a supervised run. The rollback snapshot lives
/// beside the supervisor, so a supervised run always has one.
struct Supervision {
    supervisor: Supervisor,
    /// Last-good `(P, Q)` for divergence rollback.
    snapshot: (FactorMatrix, FactorMatrix),
}

/// What a round writes of the server's state: the factors.
struct ServerSide {
    /// The model's `P`, stored here and nowhere else: a round lends every
    /// worker its own rows of it for as long as the worker threads run.
    p: FactorMatrix,
    /// The model's `Q`, in the session's band order: a round publishes each
    /// band's slice of it and copies each push back over its slice.
    q: FactorMatrix,
}

/// Everything a training run owns.
struct Session<'a> {
    config: &'a HccConfig,
    work: CooMatrix,
    m: usize,
    n: usize,
    k: usize,
    /// Locked by the server side of a round only; the mutex is what lets
    /// the round write it while its workers borrow the session shared.
    server: Mutex<ServerSide>,
    /// Every item id once, position → id ([`band_order`] of `plan`, the
    /// identity before the first plan): row `i` of `Q` and item `i` of
    /// `work`'s ratings are item `band_order[i]` of the input. Kept for the
    /// run's boundaries and for a re-plan that changes the bands.
    band_order: Vec<u32>,
    /// What the rounds walk: who trains which band — the unit a round
    /// publishes, pulls, computes on, pushes and installs, as the band's
    /// one chunk of the plan. Rebuilt with the workers and their links.
    plan: RoundPlan,
    fractions: Vec<f64>,
    classes: Vec<WorkerClass>,
    /// Worker specs currently in the fleet (shrinks when workers die).
    specs: Vec<WorkerSpec>,
    /// Original config index of each current worker — fault plans and
    /// display names keep addressing the machine a worker started as.
    orig_ids: Vec<usize>,
    workers: Vec<WorkerState>,
    start_epoch: usize,
    /// Cumulative learning-rate backoff from divergence rollbacks.
    lr_scale: f64,
    rollbacks: usize,
    health_history: Vec<Vec<WorkerHealth>>,
    // Accumulated report data.
    rmse_history: Vec<f64>,
    epoch_times: Vec<Duration>,
    worker_stats: Vec<Vec<WorkerEpochStats>>,
    sync_times: Vec<Duration>,
    partition_history: Vec<Vec<f64>>,
    strategy_used: StrategyChoice,
    total_updates: u64,
    /// Observability handle; disabled (a no-op behind one branch) unless
    /// `config.telemetry_path` is set. Lanes are indexed by *starting-fleet*
    /// worker id plus the server lane, so a shrinking fleet keeps stable
    /// attribution via `orig_ids`.
    telemetry: Telemetry,
}

impl<'a> Session<'a> {
    fn create(config: &'a HccConfig, mut work: CooMatrix) -> Result<Session<'a>, HccError> {
        let m = work.rows() as usize;
        let n = work.cols() as usize;
        let k = config.k;
        let (mut global_p, global_q) = match &config.warm_start {
            Some((p0, q0)) => {
                // Warm-start factors arrive in input orientation; `work` may
                // be transposed, in which case P and Q swap roles.
                let (p0, q0) = if m == p0.rows() && n == q0.rows() {
                    (p0.clone(), q0.clone())
                } else if m == q0.rows() && n == p0.rows() {
                    (q0.clone(), p0.clone())
                } else {
                    return Err(HccError::BadConfig(format!(
                        "warm-start dimensions {}x{} don't match matrix {m}x{n}",
                        p0.rows(),
                        q0.rows()
                    )));
                };
                (p0, q0)
            }
            None => (
                FactorMatrix::random(m, k, config.seed),
                FactorMatrix::random(n, k, config.seed ^ 0x9e37_79b9),
            ),
        };
        // `work`'s rows are relabelled where they are, so the ratings still
        // have two copies, not three; `P` follows them in place. The order
        // is gone before the fleet is built.
        {
            let order = row_order(config.seed, m);
            let rank = positions(&order);
            for e in work.entries_mut() {
                e.u = rank[e.u as usize];
            }
            global_p.permute_rows(&order);
        }
        let classes: Vec<WorkerClass> = config
            .workers
            .iter()
            .map(|w| {
                if w.is_gpu {
                    WorkerClass::Gpu
                } else {
                    WorkerClass::Cpu
                }
            })
            .collect();

        let fractions = initial_fractions(config, &work)?;
        let worker_count = config.workers.len();
        let telemetry = if config.telemetry_path.is_some() {
            Telemetry::enabled(
                hcc_telemetry::Header {
                    workers: worker_count as u32,
                    k: k as u32,
                    nnz: work.nnz() as u64,
                    strategy: strategy_wire_name(config.strategy).to_string(),
                    streams: 1,
                    backend: hcc_sgd::simd::dispatch_tag().to_string(),
                    schedule: config.schedule.name().to_string(),
                },
                hcc_telemetry::DEFAULT_LANE_CAPACITY,
            )
        } else {
            Telemetry::disabled()
        };

        let mut session = Session {
            config,
            work,
            m,
            n,
            k,
            // `Q` is moved into band order by `rebuild_workers` below,
            // which builds `plan` and `workers`.
            server: Mutex::new(ServerSide {
                p: global_p,
                q: global_q,
            }),
            band_order: (0..n as u32).collect(),
            plan: RoundPlan::ring(0, 0, 1),
            fractions: fractions.clone(),
            classes,
            specs: config.workers.clone(),
            orig_ids: (0..worker_count).collect(),
            workers: Vec::new(),
            start_epoch: 0,
            lr_scale: 1.0,
            rollbacks: 0,
            health_history: Vec::new(),
            rmse_history: Vec::new(),
            epoch_times: Vec::new(),
            worker_stats: Vec::new(),
            sync_times: Vec::new(),
            partition_history: Vec::new(),
            strategy_used: config.partition.initial_strategy(),
            total_updates: 0,
            telemetry,
        };
        session.rebuild_workers(fractions)?;
        Ok(session)
    }

    /// (Re)builds worker states, the bands and each worker's links for a
    /// partition vector. Workers hold no factors of their own — `P` is
    /// trained where the session keeps it and a band's rows are the
    /// server's once installed — so no training progress is lost across
    /// repartitions, and no band depends on the partition either.
    fn rebuild_workers(&mut self, fractions: Vec<f64>) -> Result<(), HccError> {
        // The old fleet's ratings and links go before their successors are
        // built: a repartition must not hold two sets at once.
        let old = self.workers.drain(..);
        let mut old: Vec<_> = old.map(|w| (w.region, w.carried)).collect();
        let (k, p) = (self.k, self.specs.len());
        // One band a worker, equal counts of the band order, each one
        // chunk. Only a new fleet size moves the bands.
        let plan = RoundPlan::ring(p, self.n, 1);
        if plan.bands() != self.plan.bands() {
            self.reorder_items(band_order(self.config.seed, &plan));
        }
        self.plan = plan;
        let ends: Vec<usize> = self.plan.chunks().iter().map(|c| c.end).collect();
        let bounds = GridPartition::boundaries(&self.work, Axis::Row, &fractions);
        let precision = self.wire_precision();
        // A worker's region and links carry whichever band it holds, so
        // they are sized for the longest.
        let len = self
            .plan
            .chunks()
            .iter()
            .map(|c| c.len() * k)
            .max()
            .unwrap_or(0);
        // A worker keeps its regions, and the band it carries in them, while
        // the fleet stays. Otherwise every region-sized buffer of the epoch
        // loop is allocated here, by the thread that builds the links, not
        // by whichever worker or serving thread first needs it.
        if old.len() != p {
            old.clear();
        }
        let mut old = old.into_iter();
        // The shards are the ratings' second copy (`work` is the first),
        // never a third.
        let shards = deal(self.work.entries(), &bounds, &ends);
        let (kind, server_shards) = (self.config.transport, self.config.server_shards);
        let mut workers = Vec::with_capacity(p);
        for (w, (spec, (entries, chunk_entries))) in self.specs.iter().zip(shards).enumerate() {
            let (region, carried) = old
                .next()
                .unwrap_or_else(|| (Mutex::new(vec![0f32; len]), false));
            let endpoint = build_endpoint(kind, k, len, precision, server_shards)?;
            // The worker's own peer link, whose one client hands it bands
            // one way.
            let peer = match self.handed_by(w).map(|from| self.orig_ids[from]) {
                Some(from) => Some(self.link(build_link(kind, 0, len, precision)?, from, true)),
                None => None,
            };
            workers.push(WorkerState {
                spec: spec.clone(),
                entries,
                chunk_entries,
                row_range: bounds[w]..bounds[w + 1],
                region,
                link: self.link(endpoint, self.orig_ids[w], false),
                peer,
                carried,
            });
        }
        self.workers = workers;
        self.fractions = fractions;
        Ok(())
    }

    /// Moves `Q`'s rows and the items of `work`'s ratings from the band
    /// order the session holds to `order`, in place: at the first plan,
    /// from item order, and at a survivor re-plan that changes the bands.
    fn reorder_items(&mut self, order: Vec<u32>) {
        let rank = positions(&order);
        for e in self.work.entries_mut() {
            e.i = rank[self.band_order[e.i as usize] as usize];
        }
        let q = &mut self.server.get_mut().q;
        q.unpermute_rows(&self.band_order);
        q.permute_rows(&order);
        self.band_order = order;
    }

    /// Restores factors and loop state from a validated v2 checkpoint,
    /// moving them from user order into the session's.
    fn apply_resume(&mut self, state: ResumeState) {
        let server = self.server.get_mut();
        (server.p, server.q) = (state.p, state.q);
        server.p.permute_rows(&row_order(self.config.seed, self.m));
        server.q.permute_rows(&self.band_order);
        self.start_epoch = state.meta.epoch;
        self.lr_scale = state.meta.lr_scale as f64;
    }

    /// `endpoint`, wrapped in the wire faults of the worker with
    /// starting-fleet id `id` when the run has a fault plan: the worker that
    /// pushes over it, as the plan addresses workers. A peer link (`peer`)
    /// meets only those that deliver the push: the plan's lost pushes are
    /// the worker's pushes to the server (DESIGN §4.1, "Ring hand-offs").
    fn link(&self, endpoint: Arc<dyn Transport>, id: usize, peer: bool) -> Link {
        let chaos = self.config.fault_plan.as_ref().map(|plan| {
            let chaos = ChaosTransport::new(endpoint.clone(), plan.clone(), id);
            Arc::new(if peer { chaos.sparing_pushes() } else { chaos })
        });
        Link {
            endpoint: match &chaos {
                Some(chaos) => chaos.clone(),
                None => endpoint,
            },
            chaos,
        }
    }

    /// The worker that hands worker `w` its bands: the same in every round
    /// but the first, of every epoch. `None` in a fleet of one.
    fn handed_by(&self, w: usize) -> Option<usize> {
        (1..self.plan.rounds()).find_map(|r| self.plan.step(0, r, w).from)
    }

    /// Every worker's links, to the server and from its peer.
    fn links(&self) -> impl Iterator<Item = &Link> {
        self.workers
            .iter()
            .flat_map(|w| std::iter::once(&w.link).chain(&w.peer))
    }

    /// Wire bytes over all links, split `(pull, push)`.
    fn wire_bytes_by_dir(&self) -> (u64, u64) {
        self.links()
            .map(|link| link.endpoint.wire_bytes_by_dir())
            .fold((0, 0), |(pull, push), (p, q)| (pull + p, push + q))
    }

    fn run(&mut self, transposed: bool) -> Result<(), HccError> {
        self.hand_out_first_bands();
        let mut supervision = self.config.fault_tolerance.clone().map(|cfg| {
            let mut supervisor = Supervisor::new(cfg, self.workers.len());
            supervisor.set_lr_scale(self.lr_scale);
            // Baseline for the divergence guard + rollback snapshot.
            supervisor.observe_baseline(self.evaluate());
            let server = self.server.get_mut();
            Supervision {
                supervisor,
                snapshot: (server.p.clone(), server.q.clone()),
            }
        });

        let mut epoch = self.start_epoch;
        while epoch < self.config.epochs {
            let lr = (f64::from(self.config.learning_rate.at(epoch)) * self.lr_scale) as f32;
            // Wire-byte baseline for this attempt (counters reset whenever
            // the endpoints are rebuilt, e.g. on rollback or repartition).
            let wire_base = self.wire_bytes_by_dir();
            let epoch_start = Instant::now();
            let supervisor = supervision.as_ref().map(|s| &s.supervisor);
            let outcome = self.run_epoch(lr, epoch, supervisor)?;
            let elapsed = epoch_start.elapsed();

            // Divergence guard: NaN or explosion → rollback + LR backoff,
            // bounded by the supervisor's budget.
            let mut loss = None;
            if let Some(sup) = supervision.as_mut() {
                let l = self.evaluate();
                if sup.supervisor.is_diverged(l) {
                    let Some(scale) = sup.supervisor.rollback() else {
                        return Err(HccError::Diverged {
                            epoch,
                            rollbacks: sup.supervisor.rollbacks_used() as usize,
                        });
                    };
                    self.lr_scale = scale;
                    self.telemetry.record(
                        self.telemetry.server_lane(),
                        Event::Rollback {
                            epoch: epoch as u32,
                            lr_scale: scale,
                        },
                    );
                    self.roll_back(&sup.snapshot)?;
                    continue; // retry the same epoch at reduced LR
                }
                sup.supervisor.accept(l);
                loss = Some(l);
            }

            // The epoch is accepted: record it.
            if self.telemetry.is_enabled() {
                let lane = self.telemetry.server_lane();
                let (pull_now, push_now) = self.wire_bytes_by_dir();
                self.telemetry.bytes(
                    epoch as u32,
                    Dir::Pull,
                    pull_now.saturating_sub(wire_base.0),
                );
                self.telemetry.bytes(
                    epoch as u32,
                    Dir::Push,
                    push_now.saturating_sub(wire_base.1),
                );
                self.telemetry.record(
                    lane,
                    Event::EpochEnd {
                        epoch: epoch as u32,
                        wall_us: elapsed.as_micros() as u64,
                    },
                );
            }
            self.record_net_events(epoch);
            self.epoch_times.push(elapsed);
            self.total_updates += outcome.stats.iter().map(|s| s.updates).sum::<u64>();
            self.sync_times.push(outcome.sync_time);
            self.partition_history.push(self.fractions.clone());
            if self.config.track_rmse {
                let rmse = match loss {
                    Some(l) => l,
                    None => self.evaluate(),
                };
                self.rmse_history.push(rmse);
            }

            // Health classification and survivor re-planning, then a fresh
            // rollback snapshot of the accepted state.
            if let Some(sup) = supervision.as_mut() {
                self.handle_health(&mut sup.supervisor, &outcome, epoch)?;
                let (p, q) = &mut sup.snapshot;
                let accepted = self.server.get_mut();
                p.as_mut_slice().copy_from_slice(accepted.p.as_slice());
                q.as_mut_slice().copy_from_slice(accepted.q.as_slice());
            }
            self.worker_stats.push(outcome.stats);

            self.checkpoint_if_due(epoch, transposed)?;
            if self.config.track_rmse && self.should_stop_early() {
                break;
            }
            self.adapt(epoch)?;
            epoch += 1;
        }
        self.rollbacks = supervision.map_or(0, |s| s.supervisor.rollbacks_used() as usize);
        Ok(())
    }

    /// Sets each worker up with the band it starts the session's first
    /// epoch on, as a pull would deliver it, as it is set up with its
    /// ratings and its rows of `P`: none of them crosses the wire.
    fn hand_out_first_bands(&mut self) {
        let (server, epoch) = (self.server.lock(), self.start_epoch);
        for (w, state) in self.workers.iter().enumerate() {
            for c in self.plan.step(epoch, 0, w).chunks {
                let chunk = self.chunk(c);
                let band = &mut state.region.lock()[..chunk.len()];
                band.copy_from_slice(&server.q.as_slice()[chunk]);
                self.wire_precision().round(band);
            }
        }
        drop(server);
        self.workers.iter_mut().for_each(|w| w.carried = true);
    }

    /// Puts the last accepted `(P, Q)` back after a diverged epoch, with
    /// fresh endpoints for the retry. The regions hold the diverged bands,
    /// so nothing is carried.
    fn roll_back(&mut self, (p, q): &(FactorMatrix, FactorMatrix)) -> Result<(), HccError> {
        let diverged = self.server.get_mut();
        diverged.p.as_mut_slice().copy_from_slice(p.as_slice());
        diverged.q.as_mut_slice().copy_from_slice(q.as_slice());
        self.rebuild_workers(self.fractions.clone())?;
        self.workers.iter_mut().for_each(|w| w.carried = false);
        Ok(())
    }

    /// Drains every link's resilience events once per epoch (bounding
    /// their buffers) and attributes them to this epoch on the server lane,
    /// under the starting-fleet id of the worker that pushes over the link.
    fn record_net_events(&self, epoch: usize) {
        let lane = self.telemetry.server_lane();
        for (w, state) in self.workers.iter().enumerate() {
            let from = self.handed_by(w).unwrap_or(w);
            let links =
                std::iter::once((&state.link, w)).chain(state.peer.iter().map(|l| (l, from)));
            for (link, pusher) in links {
                for ev in link.endpoint.drain_net_events() {
                    let worker = self.orig_ids[pusher] as u32;
                    let event = match ev.kind {
                        NetEventKind::Retry { cause, bytes } => Event::NetRetry {
                            epoch: epoch as u32,
                            worker,
                            cause: net_cause(cause),
                            delay_us: ev.delay_us,
                            bytes,
                        },
                        NetEventKind::Reconnect { attempt } => Event::Reconnect {
                            epoch: epoch as u32,
                            worker,
                            attempt,
                            delay_us: ev.delay_us,
                        },
                    };
                    self.telemetry.record(lane, event);
                }
            }
        }
    }

    /// Periodic crash-safe checkpoint (after epoch `epoch` is accepted).
    fn checkpoint_if_due(&mut self, epoch: usize, transposed: bool) -> Result<(), HccError> {
        let (Some(every), Some(path)) = (
            self.config.checkpoint_every,
            self.config.checkpoint_path.as_ref(),
        ) else {
            return Ok(());
        };
        if (epoch + 1) % every != 0 {
            return Ok(());
        }
        let t0 = Instant::now();
        let meta = TrainingMeta {
            epoch: epoch + 1,
            seed: self.config.seed,
            lr_scale: self.lr_scale as f32,
            transposed,
        };
        // Saved in user order: `P` and `Q` are moved there and back in
        // place.
        let order = row_order(self.config.seed, self.m);
        let server = self.server.get_mut();
        server.p.unpermute_rows(&order);
        server.q.unpermute_rows(&self.band_order);
        let result = save_checkpoint(path, &server.p, &server.q, &meta);
        server.p.permute_rows(&order);
        server.q.permute_rows(&self.band_order);
        self.telemetry.record(
            self.telemetry.server_lane(),
            Event::Checkpoint {
                epoch: epoch as u32,
                dur_us: t0.elapsed().as_micros() as u64,
            },
        );
        result
    }

    /// Classifies worker health after an accepted epoch; removes dead
    /// workers and re-plans the partition over the survivors.
    fn handle_health(
        &mut self,
        sup: &mut Supervisor,
        outcome: &EpochOutcome,
        epoch: usize,
    ) -> Result<(), HccError> {
        let compute: Vec<f64> = outcome
            .stats
            .iter()
            .map(|s| s.compute.as_secs_f64())
            .collect();
        let beat: Vec<bool> = (0..self.workers.len())
            .map(|w| sup.board.has_beat(w, epoch))
            .collect();
        let health = sup.classify(&compute, &outcome.missed, &beat);
        if self.telemetry.is_enabled() {
            let lane = self.telemetry.server_lane();
            for (w, h) in health.iter().enumerate() {
                let worker = self.orig_ids[w] as u32;
                match h {
                    WorkerHealth::Straggler => self.telemetry.record(
                        lane,
                        Event::Straggler {
                            epoch: epoch as u32,
                            worker,
                        },
                    ),
                    WorkerHealth::Dead => self.telemetry.record(
                        lane,
                        Event::WorkerLost {
                            epoch: epoch as u32,
                            worker,
                        },
                    ),
                    _ => {}
                }
            }
        }
        self.health_history.push(health.clone());
        let alive: Vec<bool> = health.iter().map(|h| *h != WorkerHealth::Dead).collect();
        if alive.iter().all(|&a| a) {
            return Ok(());
        }
        let survivors = alive.iter().filter(|&&a| a).count();
        if survivors == 0 {
            return Err(HccError::WorkerLost(format!(
                "all {} workers died by epoch {epoch}",
                alive.len()
            )));
        }
        let fractions = replan_survivors(&self.fractions, &compute, &alive);
        self.specs = filter_alive(&self.specs, &alive);
        self.orig_ids = filter_alive(&self.orig_ids, &alive);
        self.classes = filter_alive(&self.classes, &alive);
        self.rebuild_workers(fractions)?;
        sup.board.resize(survivors);
        Ok(())
    }

    /// What a pull delivers of `Q`: fp16 over an unsharded compressed wire;
    /// exact otherwise, since a sharded server's links are always Fp32.
    fn wire_precision(&self) -> Precision {
        if self.config.strategy.is_compressed() && self.config.server_shards == 1 {
            Precision::Fp16
        } else {
            Precision::Fp32
        }
    }

    /// One epoch of Fig. 4, the only epoch loop there is: the plan's rounds,
    /// each a [`run_round`](Self::run_round) in which worker `w` trains the
    /// band of its [`RoundPlan::step`]. Every worker hands every band it
    /// trains to the band's next holder, but in the epoch's last round,
    /// when it pushes it to the server, and pulls none: it holds its first
    /// band already — the one it pushed last (or was set up with), rounded
    /// to the wire's precision, so skipping its pull moves no bits — and is
    /// handed each band after it. An `E`-epoch run of `p` workers moves
    /// `E·p` whole `Q`s. A push not installed, a death, a rollback or a
    /// survivor re-plan ends a worker's carry (DESIGN §4.1, "Carried
    /// bands").
    ///
    /// This departs from the paper's one pull and one push a worker an
    /// epoch: a band goes from holder to holder, each training it from
    /// where the last one left it, and `Q` never needs merging. A
    /// supervisor, when present, is consulted at four points — fault lookup
    /// and heartbeat on the worker side, the bounded collect ladder and the
    /// non-finite-push check on this thread. Fault-plan cells stay keyed by
    /// `(worker, epoch)`: a worker whose own fault loses its push (a crash,
    /// a poison) loses every hand-off of that epoch with it, while the
    /// wire's faults lose its push to the server only; the receiver of a
    /// lost hand-off trains the server's copy of the band from the epoch's
    /// start, pulled, and a band whose last push is lost stays as it was.
    /// With no fault the supervised epoch is bit-identical to the plain one.
    fn run_epoch(
        &mut self,
        lr: f32,
        epoch: usize,
        sup: Option<&Supervisor>,
    ) -> Result<EpochOutcome, HccError> {
        let workers = self.workers.len();
        for chaos in self.links().filter_map(|l| l.chaos.as_ref()) {
            chaos.begin_epoch(epoch);
        }
        let mut outcome = EpochOutcome {
            stats: vec![WorkerEpochStats::default(); workers],
            sync_time: Duration::ZERO,
            missed: vec![false; workers],
        };
        let ran = (0..self.plan.rounds())
            .try_for_each(|round| self.run_round(round, lr, epoch, sup, &mut outcome));
        // What a worker pushed last is the server's only if every push it
        // made this epoch arrived and it is still in the fleet.
        for (w, state) in self.workers.iter_mut().enumerate() {
            let dead = sup.is_some_and(|sup| sup.board.is_dead(w));
            state.carried = ran.is_ok() && !outcome.missed[w] && !dead;
        }
        ran.map(|()| outcome)
    }

    /// One round: publish every band's slice of `Q`, as the epoch began, to
    /// its holder's link (the fallback of a lost hand-off, and a sharded
    /// push's base); [`receive`](Self::receive) the bands the last round's
    /// holders handed on; run every worker's
    /// [`worker_round`](Self::worker_round) on its own thread; and
    /// meanwhile, on this thread, collect each push to the server in worker
    /// order and copy it over its band's slice (the DP2 hiding effect:
    /// installs overlap the still-running workers). Only the last round's
    /// steps push to the server, and a band has one holder a round, so the
    /// order of installs moves no bits.
    ///
    /// A band is its one chunk of the plan, or none when it is empty (fewer
    /// items than workers): every walk over `step.chunks` here and in
    /// [`receive`](Self::receive) runs once, or not at all, and an empty
    /// band moves nothing.
    fn run_round(
        &self,
        round: usize,
        lr: f32,
        epoch: usize,
        sup: Option<&Supervisor>,
        outcome: &mut EpochOutcome,
    ) -> Result<(), HccError> {
        let telemetry = &self.telemetry;
        let exits: Mutex<Vec<Option<WorkerExit>>> = Mutex::new(vec![None; self.workers.len()]);
        let mut server = self.server.lock();
        let ServerSide { p, q } = &mut *server;

        for (w, state) in self.workers.iter().enumerate() {
            for c in self.plan.step(epoch, round, w).chunks {
                state.link.endpoint.publish(&q.as_slice()[self.chunk(c)]);
            }
        }
        let received = self.receive(round, epoch, sup, outcome)?;

        // Until the scope joins, each worker holds its own rows of `P`.
        let p_blocks = p.split_rows_mut(self.workers.iter().map(WorkerState::p_rows));
        std::thread::scope(|scope| -> Result<(), HccError> {
            let mut running = Vec::with_capacity(self.workers.len());
            for ((w, p_rows), received) in p_blocks.into_iter().enumerate().zip(received) {
                // A worker the supervisor has given up on sits out the
                // epoch's remaining rounds; its bands stay as published.
                if sup.is_some_and(|sup| sup.board.is_dead(w)) {
                    continue;
                }
                let exits = &exits;
                running.push(scope.spawn(move || {
                    // A worker panic would otherwise abort the process at
                    // the scope join — contain it.
                    let exit = catch_unwind(AssertUnwindSafe(|| {
                        self.worker_round(w, round, p_rows, lr, epoch, sup, received)
                    }))
                    .map_err(|payload| panic_message(payload.as_ref()));
                    if let (Err(_), Some(sup)) = (&exit, sup) {
                        sup.board.mark_dead(w);
                    }
                    exits.lock()[w] = Some(exit);
                }));
            }

            let server_lane = telemetry.server_lane();
            for (w, state) in self.workers.iter().enumerate() {
                let step = self.plan.step(epoch, round, w);
                // A band handed on reaches the server in a later round. A
                // worker missed already this epoch (a hand-off of it was
                // lost) loses this push with it, as its fault cell is the
                // epoch: no ladder is waited out for it.
                if step.to.is_some() || outcome.missed[w] {
                    continue;
                }
                for c in step.chunks {
                    let endpoint = &*state.link.endpoint;
                    let band = &mut q.as_mut_slice()[self.chunk(c)];
                    let installed = self.take_band(endpoint, w, sup, Some(&exits), epoch, band)?;
                    // A sharded push is decoded inside the collect, before
                    // the install: both are the push's sync.
                    let decoded = endpoint.take_decode_time();
                    let Some((start, took)) = installed else {
                        outcome.missed[w] = true;
                        continue;
                    };
                    let took = took + decoded;
                    outcome.sync_time += took;
                    // Sync spans live on the server lane but carry the
                    // holder's id, so per-worker sums include its share.
                    let worker = self.orig_ids[w] as u32;
                    let start = start.saturating_sub(decoded.as_micros() as u64);
                    telemetry.phase(server_lane, epoch as u32, worker, Phase::Sync, start, took);
                }
            }
            // The scope waits for each closure, not for its OS thread to
            // end: join them, or the next round's threads overlap these.
            // A worker's panic is already in `exits`.
            for worker in running {
                let _ = worker.join();
            }
            Ok(())
        })?;
        drop(server);

        for (w, exit) in exits.into_inner().into_iter().enumerate() {
            match exit {
                Some(Ok(done)) => {
                    let stats = &mut outcome.stats[w];
                    stats.pull += done.pull;
                    stats.compute += done.compute;
                    stats.push += done.push;
                    stats.updates += done.updates;
                }
                Some(Err(panic)) if sup.is_none() => return Err(self.worker_lost(w, epoch, &panic)),
                // Supervised: marked dead above, the epoch stands without it.
                _ => {}
            }
        }
        Ok(())
    }

    /// The start of round `round`, before any worker runs: collects each
    /// band the last round's holder handed on from its receiver's peer link
    /// into the receiver's region, and retires every hand-off nobody
    /// collected, so that none is ever handed out in a later round. A
    /// hand-off is lost when its sender is dead or has missed a push or a
    /// hand-off earlier this epoch, or when it does not arrive whole and
    /// finite: its sender is then missed for the epoch and the receiver
    /// pulls the band from the server instead. Returns, per worker, the
    /// span of the hand-off it received, or `None`.
    fn receive(
        &self,
        round: usize,
        epoch: usize,
        sup: Option<&Supervisor>,
        outcome: &mut EpochOutcome,
    ) -> Result<Vec<Option<Span>>, HccError> {
        let dead = |w| sup.is_some_and(|sup| sup.board.is_dead(w));
        let mut received = vec![None; self.workers.len()];
        for (w, state) in self.workers.iter().enumerate() {
            let step = self.plan.step(epoch, round, w);
            let (Some(from), Some(peer)) = (step.from, &state.peer) else {
                continue;
            };
            if outcome.missed[from] || dead(from) || dead(w) {
                continue;
            }
            let (start, t0) = (self.telemetry.now_us(), Instant::now());
            let mut whole = true;
            for c in step.chunks {
                let band = &mut state.region.lock()[..self.chunk(c).len()];
                whole = self
                    .take_band(&*peer.endpoint, from, sup, None, epoch, band)?
                    .is_some();
            }
            if whole {
                received[w] = Some((start, t0.elapsed()));
            } else {
                outcome.missed[from] = true;
            }
        }
        for peer in self.workers.iter().flat_map(|w| &w.peer) {
            peer.endpoint.publish(&[]);
        }
        Ok(received)
    }

    /// Chunk `c` of the plan: its elements of `Q`, a contiguous slice.
    fn chunk(&self, c: usize) -> Range<usize> {
        let items = &self.plan.chunks()[c];
        items.start * self.k..items.end * self.k
    }

    fn worker_lost(&self, w: usize, epoch: usize, panic: &str) -> HccError {
        HccError::WorkerLost(format!(
            "worker {} panicked during epoch {epoch}: {panic}",
            self.orig_ids[w]
        ))
    }

    /// Worker `w`'s side of a round, on its own thread: pull, compute and
    /// push the band it holds, one after the other, in its region. A band
    /// `received` (the span its hand-off took) or carried is not pulled; a
    /// band with a next holder is pushed to that worker's peer link, one
    /// without to the server. An empty band (fewer items than workers) is
    /// no chunk of the plan, and moves and trains nothing. `p_rows` are the
    /// worker's rows of the session's `P`, its alone for the round.
    #[allow(clippy::too_many_arguments)] // one worker's round, each argument its own
    fn worker_round(
        &self,
        w: usize,
        round: usize,
        p_rows: &mut [f32],
        lr: f32,
        epoch: usize,
        sup: Option<&Supervisor>,
        received: Option<Span>,
    ) -> WorkerEpochStats {
        let state = &self.workers[w];
        let telemetry = &self.telemetry;
        let hogwild = HogwildConfig {
            threads: state.spec.threads,
            learning_rate: lr,
            lambda_p: self.config.lambda_p,
            lambda_q: self.config.lambda_q,
            schedule: self.config.schedule,
        };
        let worker_id = self.orig_ids[w];
        // The worker enacts the three faults that are its own; the wire's
        // are the endpoint's ([`ChaosTransport`]). A plan implies a
        // supervisor to absorb them (`HccConfig::validate`).
        let plan = self.config.fault_plan.as_ref();
        let fault = plan.and_then(|plan| plan.at(worker_id, epoch));
        if let (Some(sup), Some(Fault::Crash)) = (sup, fault) {
            sup.board.mark_dead(w); // no heartbeat, no push: dead
            return WorkerEpochStats::default();
        }
        let lane = worker_id as u32;
        let step = self.plan.step(epoch, round, w);
        let chunk = step.chunks.clone().next();
        // The band is pulled into, trained on and sent from where it is:
        // the region's first floats. A carried band is in the region
        // already, as the pull would deliver it, and so is a band handed
        // over.
        let mut region = state.region.lock();
        let band = &mut region[..chunk.map_or(0, |c| self.chunk(c).len())];
        let pulls = chunk.is_some() && received.is_none() && !(step.carried && state.carried);
        let ((), pulled) = timed(telemetry, || {
            if pulls {
                state.link.endpoint.pull(0, band);
            }
        });
        // An injected stall counts as compute time, so the supervisor's
        // straggler rule sees it; it costs its length once an epoch, in the
        // first round.
        let ((), computed) = timed(telemetry, || {
            if let (0, Some(Fault::Stall(lost))) = (round, fault) {
                std::thread::sleep(lost);
            }
            if let Some(c) = chunk {
                let p = SharedRows::new(p_rows, self.k);
                let q = SharedRows::new(band, self.k).numbered_from(self.plan.chunks()[c].start);
                let entries = &state.entries[state.chunk_entries[c].clone()];
                compute(&state.spec, entries, p, q, &hogwild);
                if let Some(sup) = sup {
                    sup.board.beat(w, epoch);
                }
            }
        });
        let ((), pushed) = timed(telemetry, || {
            if chunk.is_none() {
                return;
            }
            if let (Some(plan), Some(Fault::PoisonPush)) = (plan, fault) {
                plan.poison(worker_id, epoch, band);
            }
            match step.to {
                // A band has a next holder only in a fleet of more than one,
                // where every worker has its peer link.
                Some(next) => {
                    if let Some(peer) = &self.workers[next].peer {
                        peer.endpoint.push(0, band);
                    }
                }
                None => {
                    state.link.endpoint.push(0, band);
                    // The next epoch begins on this band: once installed,
                    // the server holds it as the wire delivers it, and so
                    // does the region.
                    self.wire_precision().round(band);
                }
            }
        });
        // A hand-off received is this worker's pull of the band.
        let pulled = match received {
            Some((start, took)) => (start, took + pulled.1),
            None => pulled,
        };
        let spans = [pulled, computed, pushed];
        for (phase, (start, busy)) in [Phase::Pull, Phase::Comp, Phase::Push]
            .into_iter()
            .zip(spans)
        {
            telemetry.phase(lane, epoch as u32, lane, phase, start, busy);
        }
        WorkerEpochStats {
            pull: spans[0].1,
            compute: spans[1].1,
            push: spans[2].1,
            updates: chunk.map_or(0, |c| state.chunk_entries[c].len() as u64),
        }
    }

    /// The one way a band comes off a link: collects worker `w`'s push on
    /// `endpoint` through [`collect_push`](Self::collect_push) and copies
    /// it over `band` — a receiver's region, or `Q`'s slice. Only a whole
    /// push (exactly `band`'s length) that is, when supervised, finite is
    /// taken; a poisoned or malformed one is lost, as one that never came.
    /// Returns the span of the check and copy, or `None` if nothing was
    /// copied.
    fn take_band(
        &self,
        endpoint: &dyn Transport,
        w: usize,
        sup: Option<&Supervisor>,
        exits: Option<&Mutex<Vec<Option<WorkerExit>>>>,
        epoch: usize,
        band: &mut [f32],
    ) -> Result<Option<Span>, HccError> {
        let mut copied = None;
        self.collect_push(endpoint, w, sup, exits, epoch, &mut |push| {
            let (sound, span) = timed(&self.telemetry, || {
                let sound = push.len() == band.len()
                    && (sup.is_none() || push.iter().all(|v| v.is_finite()));
                if sound {
                    band.copy_from_slice(push);
                }
                sound
            });
            copied = sound.then_some(span);
        })?;
        Ok(copied)
    }

    /// Waits for worker `w`'s push on `endpoint` — to the server, or to
    /// the worker it hands its band — and runs `consume` on it where it
    /// landed. Returning `Ok` without having run `consume` means the
    /// supervisor gave up on the push.
    ///
    /// Supervised, this is the bounded-retry ladder: each timeout or
    /// corrupt frame is a `NetRetry` event, and a worker that exhausts the
    /// ladder is `missed`. Unsupervised there is nobody to classify a
    /// missing worker, so this waits for as long as the worker's thread
    /// runs (`exits`; `None` once its round is over) — silently, a slow
    /// worker is not a fault — and fails typed once the thread has ended
    /// without the push arriving (it panicked, or its transport gave up on
    /// the push).
    fn collect_push(
        &self,
        endpoint: &dyn Transport,
        w: usize,
        sup: Option<&Supervisor>,
        exits: Option<&Mutex<Vec<Option<WorkerExit>>>>,
        epoch: usize,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), HccError> {
        let Some(sup) = sup else {
            loop {
                // Read before the wait: a push precedes its thread's exit,
                // so a wait that starts after the exit cannot miss it.
                let exited = exits.is_none_or(|exits| exits.lock()[w].is_some());
                if endpoint
                    .collect_with(0, Some(LOST_PUSH_POLL), consume)
                    .is_ok()
                {
                    return Ok(());
                }
                if exited {
                    let panic = exits.and_then(|exits| match &exits.lock()[w] {
                        Some(Err(panic)) => Some(panic.clone()),
                        _ => None,
                    });
                    return Err(match panic {
                        Some(panic) => self.worker_lost(w, epoch, &panic),
                        None => HccError::Comm(format!(
                            "worker {}'s push never arrived in epoch {epoch}",
                            self.orig_ids[w]
                        )),
                    });
                }
            }
        };
        // Jitter-free `Backoff` reproduces the historical
        // `timeout → timeout·factor → …` ladder bit-for-bit.
        let mut ladder = Backoff::new(sup.cfg.heartbeat_timeout, sup.cfg.retry_backoff.max(1.0));
        for _attempt in 0..sup.cfg.collect_retries.max(1) {
            if sup.board.is_dead(w) {
                break;
            }
            let timeout = ladder.next_delay();
            match endpoint.collect_with(0, Some(timeout), consume) {
                Ok(()) => break,
                // A corrupt frame degrades to a dropped one: wait out the
                // next ladder step in case a retransmit (or a slow worker)
                // still delivers a clean push.
                Err(err @ (CommError::Timeout | CommError::Corrupt)) => {
                    self.telemetry.record(
                        self.telemetry.server_lane(),
                        Event::NetRetry {
                            epoch: epoch as u32,
                            worker: self.orig_ids[w] as u32,
                            cause: net_cause(err),
                            delay_us: timeout.as_micros() as u64,
                            bytes: 0,
                        },
                    );
                }
                Err(CommError::Disconnected) => break,
                // A partitioned worker keeps computing and beating its
                // heartbeat, so classification alone would call it a
                // straggler forever; declare the link dead so the
                // survivors re-plan.
                Err(CommError::PartitionedLink) => {
                    sup.board.mark_dead(w);
                    break;
                }
            }
        }
        Ok(())
    }

    /// Early-stopping check: the best RMSE of the last `patience` epochs
    /// must beat the best before them by the configured relative margin.
    fn should_stop_early(&self) -> bool {
        let Some(rule) = &self.config.early_stop else {
            return false;
        };
        let h = &self.rmse_history;
        if h.len() <= rule.patience {
            return false;
        }
        let split = h.len() - rule.patience;
        let prev_best = h[..split].iter().cloned().fold(f64::INFINITY, f64::min);
        let recent_best = h[split..].iter().cloned().fold(f64::INFINITY, f64::min);
        recent_best > prev_best * (1.0 - rule.min_rel_improvement)
    }

    /// Training-set RMSE with the current factors.
    fn evaluate(&mut self) -> f64 {
        let server = self.server.get_mut();
        rmse(self.work.entries(), &server.p, &server.q)
    }

    /// Post-epoch partition adaptation: hands the last accepted epoch's
    /// compute and sync times to [`hcc_partition::adapt`] and enacts what it
    /// decides.
    fn adapt(&mut self, epoch: usize) -> Result<(), HccError> {
        let Some(stats) = self.worker_stats.last() else {
            return Ok(());
        };
        let compute: Vec<f64> = stats.iter().map(|s| s.compute.as_secs_f64()).collect();
        let last = EpochTimes {
            compute: &compute,
            sync: self.sync_times.last().map_or(0.0, Duration::as_secs_f64),
        };
        let c = self.config;
        let Some(next) = hcc_partition::adapt(
            c.partition,
            epoch,
            c.epochs,
            c.adapt_epochs,
            &self.fractions,
            &self.classes,
            last,
        ) else {
            return Ok(());
        };
        self.strategy_used = next.strategy;
        next.fractions.map_or(Ok(()), |x| self.rebuild_workers(x))
    }

    fn into_report(mut self, transposed: bool) -> HccReport {
        let timeline = std::mem::replace(&mut self.telemetry, Telemetry::disabled()).finish();
        let wire_bytes = self.wire_bytes_by_dir();
        // The fleet's shards, regions and links go before the row order
        // is drawn to put `P` back in user order; `Q` goes back by the band
        // order.
        self.workers.clear();
        let server = self.server.get_mut();
        let mut q = std::mem::replace(&mut server.q, FactorMatrix::zeros(1, 1));
        let mut p = std::mem::replace(&mut server.p, FactorMatrix::zeros(1, 1));
        p.unpermute_rows(&row_order(self.config.seed, self.m));
        q.unpermute_rows(&self.band_order);
        let (p, q) = if transposed { (q, p) } else { (p, q) };
        HccReport {
            p,
            q,
            rmse_history: self.rmse_history,
            epoch_times: self.epoch_times,
            worker_stats: self.worker_stats,
            sync_times: self.sync_times,
            partition_history: self.partition_history,
            strategy_used: self.strategy_used,
            total_updates: self.total_updates,
            wire_bytes: wire_bytes.0 + wire_bytes.1,
            transposed,
            health_history: self.health_history,
            rollbacks: self.rollbacks,
            start_epoch: self.start_epoch,
            timeline,
        }
    }
}

/// Initial partition: uniform, or DP0 from a calibration run measuring each
/// worker's standalone rate on a sample of the data.
fn initial_fractions(config: &HccConfig, work: &CooMatrix) -> Result<Vec<f64>, HccError> {
    let p = config.workers.len();
    if config.partition == PartitionMode::Uniform {
        return Ok(vec![1.0 / p as f64; p]);
    }
    // Calibration: each worker sweeps the same sample; standalone time per
    // entry × nnz estimates T_i_e (Eq. 6's input).
    let sample_len = work.nnz().min(50_000);
    let sample = &work.entries()[..sample_len];
    let k = config.k;
    let m = work.rows() as usize;
    let n = work.cols() as usize;
    let mut standalone = Vec::with_capacity(p);
    for spec in &config.workers {
        // Fresh zeroed factors for every worker: each pays the same page
        // faults, so none looks faster for coming second.
        let (mut p0, mut q0) = (FactorMatrix::zeros(m, k), FactorMatrix::zeros(n, k));
        let calibration = HogwildConfig {
            threads: spec.threads,
            learning_rate: 0.0,
            lambda_p: 0.0,
            lambda_q: 0.0,
            schedule: config.schedule,
        };
        let mut sweep = |entries| compute(spec, entries, p0.shared(), q0.shared(), &calibration);
        // Warm-up pass (thread spawn, page faults), then the measured pass.
        sweep(&sample[..sample_len.min(4_096)]);
        let elapsed = sweep(sample);
        let per_entry = elapsed.as_secs_f64() / sample_len as f64;
        standalone.push((per_entry * work.nnz() as f64).max(1e-12));
    }
    Ok(dp0(&standalone))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkerSpec;
    use hcc_sgd::LearningRate;
    use hcc_sparse::{GenConfig, SyntheticDataset};

    fn dataset(rows: u32, cols: u32, nnz: usize) -> SyntheticDataset {
        SyntheticDataset::generate(GenConfig {
            rows,
            cols,
            nnz,
            noise: 0.0,
            ..GenConfig::default()
        })
    }

    fn base_config() -> crate::config::HccConfigBuilder {
        HccConfig::builder()
            .k(8)
            .epochs(12)
            .learning_rate(LearningRate::Constant(0.02))
            .lambda(0.01)
            .workers(vec![WorkerSpec::cpu(2), WorkerSpec::cpu(2)])
            .adapt_epochs(2)
            .track_rmse(true)
    }

    /// How far the final RMSE at two to four workers may sit from one
    /// worker's in [`the_final_rmse_barely_depends_on_the_fleet_size`]: it
    /// reads 0.0949 at one worker and 0.0958 / 0.0958 / 0.0955 at two to
    /// four. The damped delta sum read 0.1021 / 0.1084 / 0.1167, off by 7 to
    /// 22 thousandths.
    const FLEET_TOLERANCE: f64 = 0.002;

    #[test]
    fn trains_and_converges_q_only() {
        let ds = dataset(300, 150, 8_000);
        let report = HccMf::new(base_config().build()).train(&ds.matrix).unwrap();
        let hist = &report.rmse_history;
        assert_eq!(hist.len(), 12);
        assert!(
            hist.last().unwrap() < &(hist[0] * 0.6),
            "no convergence: {} -> {}",
            hist[0],
            hist.last().unwrap()
        );
        assert_eq!(report.p.rows(), 300);
        assert_eq!(report.q.rows(), 150);
        assert!(report.wire_bytes > 0);
        assert!(!report.transposed);
    }

    #[test]
    fn trains_half_q() {
        let ds = dataset(200, 100, 5_000);
        let cfg = base_config().strategy(TransferStrategy::HalfQ).build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
        // FP16 wire: fewer bytes than FP32 would use.
        assert!(report.wire_bytes > 0);
    }

    #[test]
    fn wide_matrix_is_transposed_internally() {
        let ds = dataset(100, 400, 5_000);
        let report = HccMf::new(base_config().build()).train(&ds.matrix).unwrap();
        assert!(report.transposed);
        // Factors come back in input orientation.
        assert_eq!(report.p.rows(), 100);
        assert_eq!(report.q.rows(), 400);
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
    }

    #[test]
    fn empty_matrix_rejected() {
        let m = CooMatrix::new(5, 5, vec![]).unwrap();
        assert!(HccMf::new(base_config().build()).train(&m).is_err());
    }

    #[test]
    fn heterogeneous_workers_rebalance() {
        // One thread a worker, so the two do not contend for the cores of a
        // 2-core host, and a 5:1 throttle over epochs of several
        // milliseconds, so scheduling noise on the fast worker cannot make
        // it look the slower.
        let ds = dataset(2_000, 200, 200_000);
        let cfg = base_config()
            .epochs(6)
            .adapt_epochs(3)
            .workers(vec![
                WorkerSpec::cpu(1).throttled(0.2),
                WorkerSpec::gpu_sim(1),
            ])
            .build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        let final_x = report.final_partition().unwrap();
        // The unthrottled "GPU" must hold more data than the throttled CPU.
        assert!(
            final_x[1] > final_x[0],
            "no rebalance: {final_x:?}, history {:?}",
            report.partition_history
        );
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
    }

    #[test]
    fn uniform_mode_never_repartitions() {
        let ds = dataset(200, 100, 4_000);
        let cfg = base_config()
            .partition(PartitionMode::Uniform)
            .epochs(4)
            .build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        for x in &report.partition_history {
            assert!(x.iter().all(|&v| (v - 0.5).abs() < 1e-12));
        }
        assert_eq!(report.strategy_used, StrategyChoice::Dp0);
    }

    #[test]
    fn dp2_mode_staggers_partition() {
        let ds = dataset(300, 150, 10_000);
        let cfg = base_config()
            .partition(PartitionMode::Dp2)
            .epochs(5)
            .adapt_epochs(2)
            .workers(vec![WorkerSpec::cpu(2), WorkerSpec::cpu(2)])
            .build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert_eq!(report.strategy_used, StrategyChoice::Dp2);
        // After the DP2 step, shares should differ (staggered).
        let final_x = report.final_partition().unwrap();
        assert!((final_x[0] - final_x[1]).abs() > 1e-6, "{final_x:?}");
    }

    #[test]
    fn report_accounting_is_consistent() {
        let ds = dataset(150, 80, 3_000);
        let cfg = base_config().epochs(3).build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert_eq!(report.epoch_times.len(), 3);
        assert_eq!(report.worker_stats.len(), 3);
        assert_eq!(report.sync_times.len(), 3);
        assert_eq!(report.partition_history.len(), 3);
        // Every entry is swept once per epoch.
        assert_eq!(report.total_updates, 3_000 * 3);
        assert!(report.computing_power() > 0.0);
    }

    #[test]
    fn the_final_rmse_barely_depends_on_worker_0s_share() {
        // Every worker trains every band once an epoch, so one epoch is one
        // pass over the ratings whatever the partition: the partition
        // changes how long an epoch takes, not what it trains. Final RMSE
        // reads 0.481 / 0.498 / 0.488 here (spread 0.017); the damped delta
        // sum read 0.604 / 0.614 / 0.595, and the share-weighted average
        // before it 0.778 / 0.717 / 0.598, a spread of 0.18.
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 2_000,
            cols: 1_000,
            nnz: 60_000,
            seed: 1,
            ..GenConfig::default()
        });
        let config = HccConfig::builder()
            .k(16)
            .epochs(6)
            .track_rmse(true)
            .workers(vec![WorkerSpec::cpu(1), WorkerSpec::cpu(1)])
            .partition(PartitionMode::Uniform)
            .strategy(TransferStrategy::QOnly)
            .transport(TransportKind::Shared)
            .build();
        let final_rmse = |share: f64| {
            let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
            session.rebuild_workers(vec![share, 1.0 - share]).unwrap();
            session.run(false).unwrap();
            *session.rmse_history.last().unwrap()
        };
        let rmse: Vec<f64> = [0.5, 0.65, 0.8].into_iter().map(final_rmse).collect();
        let spread = rmse.iter().cloned().fold(f64::MIN, f64::max)
            - rmse.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread <= 0.06, "{rmse:?}");
    }

    #[test]
    fn a_survivor_replan_deals_one_band_a_survivor_and_trains_every_rating_once() {
        // A survivor re-plan shrinks the fleet: the session walks the
        // ring of the survivors, one band a survivor of equal counts, and
        // an epoch trains each worker's every rating exactly once — each
        // band once. (The ring itself is `hcc_partition::round`'s.)
        let ds = dataset(200, 90, 3_000);
        let config = base_config()
            .workers(vec![WorkerSpec::cpu(1); 4])
            .partition(PartitionMode::Uniform)
            .build();
        let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
        for survivors in [4, 3, 2, 1] {
            session.specs.truncate(survivors);
            session.orig_ids.truncate(survivors);
            session
                .rebuild_workers(vec![1.0 / survivors as f64; survivors])
                .unwrap();
            assert_eq!(session.plan, RoundPlan::ring(survivors, 90, 1));
            let outcome = session.run_epoch(0.02, 0, None).unwrap();
            for (w, stats) in outcome.stats.iter().enumerate() {
                let rated = session.workers[w].entries.len() as u64;
                assert_eq!(stats.updates, rated, "{survivors} workers, worker {w}");
            }
        }
    }

    #[test]
    fn a_worker_has_one_link_one_peer_link_and_one_region() {
        // Four workers over TCP x 2 shards and over shared memory: `p`
        // links to the server and `p` peer links a band is handed over,
        // each serving one worker, beside one region a worker, sized for
        // the longest band (90 items in bands of 22 and 23). A fleet of one
        // has no peer link.
        let ds = dataset(200, 90, 3_000);
        for (transport, shards) in [(TransportKind::Tcp, 2), (TransportKind::Shared, 1)] {
            for p in [4, 1] {
                let config = base_config()
                    .workers(vec![WorkerSpec::cpu(1); p])
                    .partition(PartitionMode::Uniform)
                    .transport(transport)
                    .server_shards(shards)
                    .build();
                let session = Session::create(&config, ds.matrix.clone()).unwrap();
                let workers: Vec<usize> = session.links().map(|l| l.endpoint.workers()).collect();
                let links = if p == 1 { 1 } else { 2 * p };
                assert_eq!(workers, vec![1; links], "{transport:?}, p = {p}");
                for state in &session.workers {
                    assert_eq!(state.peer.is_some(), p > 1, "{transport:?}, p = {p}");
                    let longest = if p == 1 { 90 } else { 23 };
                    assert_eq!(state.region.lock().len(), longest * 8, "{transport:?}");
                }
            }
        }
    }

    #[test]
    fn the_final_rmse_barely_depends_on_the_fleet_size() {
        // `tests/epoch_golden.rs`'s dataset and recipe on 1 to 4 one-thread
        // workers. Every worker trains every band once an epoch, on its own
        // rows, so an epoch is one pass over the ratings whatever the fleet.
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 300,
            cols: 150,
            nnz: 9_000,
            planted_rank: 6,
            noise: 0.0,
            ..GenConfig::default()
        });
        let final_rmse = |p: usize| {
            let config = base_config()
                .epochs(6)
                .lambda(0.005)
                .workers(vec![WorkerSpec::cpu(1); p])
                .partition(PartitionMode::Uniform)
                .adapt_epochs(0)
                .seed(7)
                .build();
            let hist = HccMf::new(config).train(&ds.matrix).unwrap().rmse_history;
            assert!(hist.iter().all(|r| r.is_finite()), "{p} workers: {hist:?}");
            *hist.last().unwrap()
        };
        let one = final_rmse(1);
        for p in 2..=4 {
            let rmse = final_rmse(p);
            assert!(
                (rmse - one).abs() <= FLEET_TOLERANCE,
                "{p} workers: {rmse} vs {one}"
            );
        }
    }

    #[test]
    fn a_checkpoint_is_the_run_stopped_there_in_user_order_and_resumes_it() {
        // `P` lives in the seeded row order during a run and is moved to
        // user order and back to be saved: the file holds exactly what the
        // report of the same run stopped there holds, the run it was taken
        // from goes on unchanged, and resuming it gives the uninterrupted
        // run's bits. Two one-thread workers, so that every run is
        // deterministic; a tall and a wide (transposed) matrix.
        let dir = std::env::temp_dir().join("hcc_train_checkpoint");
        std::fs::create_dir_all(&dir).unwrap();
        for (rows, cols) in [(300, 150), (150, 300)] {
            let ds = dataset(rows, cols, 6_000);
            let ckpt = dir.join(format!("mid_{rows}x{cols}.hccmf"));
            let run = |epochs| {
                base_config()
                    .epochs(epochs)
                    .workers(vec![WorkerSpec::cpu(1), WorkerSpec::cpu(1)])
                    .partition(PartitionMode::Uniform)
                    .seed(11)
            };
            let train = |config: HccConfig| HccMf::new(config).train(&ds.matrix).unwrap();
            let stopped = train(run(3).build());
            let full = train(run(5).build());
            let checkpointed = train(run(5).checkpoint(&ckpt, 3).build());
            let saved = load_checkpoint(&ckpt).unwrap();
            assert_eq!(saved.meta.epoch, 3);
            let (p, q) = if saved.meta.transposed {
                (saved.q, saved.p)
            } else {
                (saved.p, saved.q)
            };
            assert!(p == stopped.p && q == stopped.q, "{rows}x{cols}");
            assert!(checkpointed.p == full.p && checkpointed.q == full.q);
            let resumed = train(run(5).resume(&ckpt).build());
            std::fs::remove_file(&ckpt).ok();
            assert_eq!(resumed.start_epoch, 3);
            assert!(resumed.p == full.p && resumed.q == full.q, "{rows}x{cols}");
        }
    }

    #[test]
    fn a_checkpoint_after_a_survivor_replan_is_in_user_order_and_resumes_its_run() {
        // Three one-thread workers, the second crashing in epoch 1: the
        // survivor re-plan after it moves `Q` from three bands to two
        // before that epoch's checkpoint is written. The checkpoint holds
        // what the report of the run stopped there holds, in user order,
        // and resumed on the two survivors, with the partition the
        // uninterrupted run re-planned to, it gives that run's bits.
        use crate::supervisor::SupervisorConfig;
        use hcc_comm::FaultPlan;
        let ds = dataset(300, 150, 6_000);
        let ckpt = std::env::temp_dir().join("hcc_train_replanned.hccmf");
        let run = |epochs, workers| {
            base_config()
                .epochs(epochs)
                .workers(vec![WorkerSpec::cpu(1); workers])
                .partition(PartitionMode::Uniform)
                .shuffle(false)
                .seed(5)
                .fault_tolerance(SupervisorConfig {
                    heartbeat_timeout: Duration::from_millis(20),
                    collect_retries: 1,
                    ..SupervisorConfig::default()
                })
        };
        let crashing =
            |epochs| run(epochs, 3).fault_plan(FaultPlan::new(9).with(1, 1, Fault::Crash));
        let train = |config: HccConfig| HccMf::new(config).train(&ds.matrix).unwrap();
        let stopped = train(crashing(2).checkpoint(&ckpt, 1).build());
        let full = train(crashing(3).build());
        assert_eq!(full.partition_history[2].len(), 2, "no survivor re-plan");
        let saved = load_checkpoint(&ckpt).unwrap();
        std::fs::remove_file(&ckpt).ok();
        assert_eq!(saved.meta.epoch, 2);
        assert!(saved.p == stopped.p && saved.q == stopped.q);

        let config = run(3, 2).build();
        let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
        session.apply_resume(saved);
        session
            .rebuild_workers(full.partition_history[2].clone())
            .unwrap();
        session.run(false).unwrap();
        let resumed = session.into_report(false);
        assert!(resumed.p == full.p && resumed.q == full.q);
    }

    #[test]
    fn a_warm_starts_factors_come_back_in_user_order() {
        // A warm start's factors are moved into the session's orders in
        // place — `Q`'s row `i` is item `band_order[i]` — and an epoch at a
        // zero learning rate changes no bit of them, so the report gives
        // back what went in; on a tall and a wide (transposed) matrix.
        for (rows, cols) in [(60, 30), (30, 60)] {
            let ds = dataset(rows, cols, 600);
            let p0 = FactorMatrix::random(rows as usize, 8, 3);
            let q0 = FactorMatrix::random(cols as usize, 8, 4);
            let config = base_config().warm_start(p0.clone(), q0.clone()).build();
            let transposed = rows < cols;
            let work = if transposed {
                ds.matrix.clone().transpose()
            } else {
                ds.matrix.clone()
            };
            let mut session = Session::create(&config, work).unwrap();
            let items = if transposed { &p0 } else { &q0 };
            let q = &session.server.get_mut().q;
            for (at, &item) in session.band_order.iter().enumerate() {
                assert_eq!(q.row(at), items.row(item as usize), "{rows}x{cols}");
            }
            session.run_epoch(0.0, 0, None).unwrap();
            let report = session.into_report(transposed);
            assert!(report.p == p0 && report.q == q0, "{rows}x{cols}");
        }
    }

    #[test]
    fn a_push_delay_is_paid_once_an_epoch_not_once_a_round() {
        // Three workers, so a band is handed on twice before its last
        // holder pushes it to the server. Worker 1's pushes of epoch 0 are
        // late: its one push to the server is delayed and its hand-offs are
        // not, as the twin delays the worker once an epoch.
        use crate::supervisor::SupervisorConfig;
        use hcc_comm::FaultPlan;
        let ds = dataset(60, 30, 600);
        let supervisor = SupervisorConfig {
            heartbeat_timeout: Duration::from_secs(10),
            ..SupervisorConfig::default()
        };
        let late = Fault::DelayPush(Duration::from_millis(1));
        let config = base_config()
            .workers(vec![WorkerSpec::cpu(1); 3])
            .partition(PartitionMode::Uniform)
            .fault_tolerance(supervisor.clone())
            .fault_plan(FaultPlan::new(7).with(1, 0, late))
            .build();
        let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
        let sup = Supervisor::new(supervisor, 3);
        for epoch in 0..2 {
            session.run_epoch(0.02, epoch, Some(&sup)).unwrap();
        }
        let chaos = session.links().filter_map(|link| link.chaos.as_ref());
        let delayed: u64 = chaos.map(|chaos| chaos.stats().delayed).sum();
        assert_eq!(delayed, 1);
    }

    #[test]
    fn a_push_equal_to_its_pull_leaves_q_bit_identical() {
        // With a zero learning rate every push is what its worker pulled.
        // Over an fp16 wire that is `Q` rounded to fp16: installed, it is
        // `Q` rounded once, and from then on every epoch installs the same
        // bits it published.
        let ds = dataset(60, 30, 600);
        for transport in [TransportKind::Shared, TransportKind::Socket] {
            for strategy in [TransferStrategy::QOnly, TransferStrategy::HalfQ] {
                let config = base_config()
                    .partition(PartitionMode::Uniform)
                    .transport(transport)
                    .strategy(strategy)
                    .build();
                let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
                let mut published = session.server.get_mut().q.clone();
                session.wire_precision().round(published.as_mut_slice());
                for epoch in 0..2 {
                    session.run_epoch(0.0, epoch, None).unwrap();
                    assert!(
                        session.server.get_mut().q == published,
                        "{transport:?} x {strategy:?}, epoch {epoch}"
                    );
                }
            }
        }
    }

    /// A session over `ds` whose worker `w` has the link `fake(w, len)` to
    /// the server, for its region of `len` floats.
    fn session_over<'a>(
        config: &'a HccConfig,
        ds: &SyntheticDataset,
        fake: impl Fn(usize, usize) -> crate::server::fake::FakeTransport,
    ) -> Session<'a> {
        let mut session = Session::create(config, ds.matrix.clone()).unwrap();
        for (w, state) in session.workers.iter_mut().enumerate() {
            state.link.endpoint = Arc::new(fake(w, state.region.lock().len()));
        }
        session
    }

    #[test]
    fn endpoint_net_events_reach_telemetry_under_starting_fleet_ids() {
        use crate::server::fake::{retry, FakeTransport};
        let ds = dataset(60, 30, 600);
        let config = base_config()
            .workers(vec![WorkerSpec::cpu(1); 3])
            .telemetry("never-written.jsonl")
            .build();
        // A link serves one worker, as its worker 0, and its events are its
        // owner's.
        let mut session = session_over(&config, &ds, |w, len| match w {
            1 => FakeTransport::new(1, len).with_event(retry(64)),
            _ => FakeTransport::new(1, len),
        });
        // Starting-fleet worker 1 has died: fleet index 1 is now worker 2.
        session.orig_ids = vec![0, 2];
        session.record_net_events(4);
        session.record_net_events(5); // drained: nothing left to attribute
        let retries: Vec<Event> = session
            .into_report(false)
            .timeline
            .unwrap()
            .events
            .into_iter()
            .filter(|e| matches!(e, Event::NetRetry { .. }))
            .collect();
        assert_eq!(
            retries,
            vec![Event::NetRetry {
                epoch: 4,
                worker: 2,
                cause: NetCause::Timeout,
                delay_us: 250,
                bytes: 64,
            }]
        );
    }

    #[test]
    fn a_failed_epoch_leaves_every_buffer_in_place_for_the_next() {
        use crate::server::fake::FakeTransport;
        let ds = dataset(60, 30, 600);
        let config = base_config().build();
        let mut session = session_over(&config, &ds, |w, len| {
            let mut fake = FakeTransport::new(1, len);
            fake.loses_pushes = w == 0;
            fake
        });
        // Where every factor buffer of the session is and how long: `P`,
        // `Q`, and per worker one region, for the band it holds — there is
        // no other copy of `Q` nor any of `P`.
        let buffers = |session: &mut Session| -> Vec<(*const f32, usize)> {
            let server = session.server.get_mut();
            let slices = [server.p.as_slice(), server.q.as_slice()];
            let regions = session.workers.iter().map(|w| &w.region);
            let place = |s: &[f32]| (s.as_ptr(), s.len());
            slices
                .into_iter()
                .map(place)
                .chain(regions.map(|r| place(&r.lock())))
                .collect()
        };
        let built = buffers(&mut session);
        let lens: Vec<usize> = built.iter().map(|b| b.1).collect();
        assert_eq!(lens, [60 * 8, 30 * 8, 15 * 8, 15 * 8]);

        let failed = session.run_epoch(0.02, 0, None);
        assert!(matches!(failed, Err(HccError::Comm(_))));
        assert_eq!(buffers(&mut session), built);

        // Over working links the same session runs its next epoch.
        for state in &mut session.workers {
            state.link.endpoint = Arc::new(FakeTransport::new(1, state.region.lock().len()));
        }
        let q_before = session.server.get_mut().q.clone();
        let outcome = session.run_epoch(0.02, 1, None).unwrap();
        assert_eq!(outcome.missed, vec![false, false]);
        let q = &session.server.get_mut().q;
        assert_ne!(*q, q_before);
        assert!(q.as_slice().iter().all(|v| v.is_finite()));
        // The epoch installed into `Q` where it is; nothing moved.
        assert_eq!(buffers(&mut session), built);
    }

    #[test]
    fn one_epoch_carries_each_region_once_per_worker_and_direction() {
        // Wire bytes are the payload bytes worker links carried: in an
        // epoch no worker carries a band into (here, workers not yet set up
        // with one), each band is pulled once, by its first holder, handed
        // on `p − 1` times and pushed to the server once — a chunk's
        // elements at the wire's bytes per element each time, on every
        // transport — no publish, no collect, no frame header or trailer.
        let ds = dataset(60, 30, 600);
        let one_epoch_of = |ds: &SyntheticDataset, workers, transport, strategy, shards| {
            let config = base_config()
                .workers(vec![WorkerSpec::cpu(1); workers])
                .partition(PartitionMode::Uniform)
                .transport(transport)
                .strategy(strategy)
                .server_shards(shards)
                .build();
            let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
            session.run_epoch(0.02, 0, None).unwrap();
            let chunks = session.plan.chunks().iter().map(|c| c.len() * 8);
            (session.wire_bytes_by_dir(), chunks.collect::<Vec<_>>())
        };
        let one_epoch =
            |transport, strategy, shards| one_epoch_of(&ds, 2, transport, strategy, shards);
        for transport in [
            TransportKind::Shared,
            TransportKind::Socket,
            TransportKind::Tcp,
        ] {
            for (strategy, bpe) in [(TransferStrategy::QOnly, 4), (TransferStrategy::HalfQ, 2)] {
                let (wire, chunks) = one_epoch(transport, strategy, 1);
                let q: usize = chunks.iter().sum();
                let want = ((q * bpe) as u64, (2 * q * bpe) as u64);
                assert_eq!(wire, want, "{transport:?} x {strategy:?}");
                // `Q` is 30 rows of k = 8, in two bands of 15: 960 bytes
                // at fp32 for a pull of it, 1_920 for a hand-off and a
                // push.
                let bytes = if bpe == 4 { (960, 1_920) } else { (480, 960) };
                assert_eq!(wire, bytes, "{transport:?} x {strategy:?}");
            }
        }
        // A sharded server counts payload elements x 4, and its pushes are
        // deltas, whose length follows the trained values; a hand-off
        // crosses a peer link, raw. Each worker pushes one band to the
        // server, as 2 deltas (shards of 8 and 7 rows), 4 in all, each a
        // bitmap word and a stream, against the band as the epoch began:
        // both holders changed all 15 rows of each, which ships in 206
        // words (824 bytes), 14 % under the raw 960.
        for transport in [
            TransportKind::Shared,
            TransportKind::Socket,
            TransportKind::Tcp,
        ] {
            let (wire, _) = one_epoch(transport, TransferStrategy::QOnly, 2);
            assert_eq!(wire, (960, 960 + 824), "{transport:?} x 2 shards");
        }
        // Three workers over 151 items: bands of 50, 50 and 51 rows, so what
        // one link carries changes length from round to round. Each band is
        // pulled once, handed on twice and pushed once: 4_832 bytes a pass
        // of `Q`.
        let uneven = dataset(300, 151, 6_000);
        let wire = |transport, shards| {
            one_epoch_of(&uneven, 3, transport, TransferStrategy::QOnly, shards).0
        };
        assert_eq!(wire(TransportKind::Socket, 1), (4_832, 3 * 4_832));
        // The 6 deltas (3 workers x 2 shards) of the TCP x 2 shards run
        // ship 1_034 words (4_136 bytes), 14 % under the raw 1_208.
        assert_eq!(wire(TransportKind::Tcp, 2), (4_832, 2 * 4_832 + 4_136));
    }

    /// The bits of `session`'s `P` and `Q`.
    fn factor_bits(session: &mut Session) -> Vec<u32> {
        let server = session.server.get_mut();
        let factors = server.p.as_slice().iter().chain(server.q.as_slice());
        factors.map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_epoch_pulls_every_band_but_the_carried_ones() {
        // Each worker starts an epoch on the band it holds — the one it was
        // set up with, then the one it ended the last epoch on — and is
        // handed every band after it, so no epoch pulls anything. Every band
        // is handed on `p − 1` times and pushed to the server once:
        // `E·p·n·k·bpe` in all.
        const EPOCHS: usize = 3;
        let (even, uneven) = (dataset(60, 30, 600), dataset(300, 151, 6_000));
        use {TransferStrategy::*, TransportKind::*};
        let with = |p, transport, strategy| {
            (base_config().workers(vec![WorkerSpec::cpu(1); p]))
                .partition(PartitionMode::Uniform)
                .transport(transport)
                .strategy(strategy)
        };
        let cases = [
            ("shared", &even, with(2, Shared, QOnly).build()),
            ("fp16 socket", &even, with(2, Socket, HalfQ).build()),
            (
                "tcp x2",
                &even,
                with(2, Tcp, QOnly).server_shards(2).build(),
            ),
            ("uneven", &uneven, with(3, Socket, QOnly).build()),
        ];
        for (case, ds, config) in cases {
            let p = config.workers.len();
            let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
            session.hand_out_first_bands();
            for epoch in 0..EPOCHS {
                session.run_epoch(0.02, epoch, None).unwrap();
            }
            let bpe = if config.strategy.is_compressed() {
                2
            } else {
                4
            };
            let q_bytes = (session.n * 8 * bpe) as u64;
            let (pulled, pushed) = session.wire_bytes_by_dir();
            assert_eq!(pulled, 0, "{case}");
            let handed = (EPOCHS * (p - 1)) as u64 * q_bytes;
            if config.server_shards == 1 {
                assert_eq!(pushed, handed + EPOCHS as u64 * q_bytes, "{case}");
            } else {
                // Deltas: every row changed, yet fewer bytes than raw.
                let deltas = pushed - handed;
                assert!(deltas < EPOCHS as u64 * q_bytes, "{case}: {deltas}");
            }
        }
    }

    #[test]
    fn a_carried_band_is_the_servers_as_the_wire_delivers_it() {
        // Before every carried step, the first epoch's too, each worker's
        // region holds the server's band rounded to the wire's precision:
        // the bits a pull would have written there.
        let ds = dataset(60, 30, 600);
        for (transport, strategy) in [
            (TransportKind::Shared, TransferStrategy::QOnly),
            (TransportKind::Shared, TransferStrategy::HalfQ),
            (TransportKind::Socket, TransferStrategy::HalfQ),
        ] {
            let case = format!("{transport:?} x {strategy:?}");
            let config = base_config()
                .partition(PartitionMode::Uniform)
                .transport(transport)
                .strategy(strategy)
                .build();
            let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
            let precision = session.wire_precision();
            session.hand_out_first_bands();
            for epoch in 0..4 {
                if epoch > 0 {
                    session.run_epoch(0.02, epoch - 1, None).unwrap();
                }
                let server = session.server.lock();
                for (w, state) in session.workers.iter().enumerate() {
                    let step = session.plan.step(epoch, 0, w);
                    assert!(step.carried && state.carried, "{case}, epoch {epoch}");
                    for c in step.chunks {
                        let chunk = session.chunk(c);
                        let mut band = server.q.as_slice()[chunk.clone()].to_vec();
                        precision.round(&mut band);
                        let held: Vec<u32> = state.region.lock()[..chunk.len()]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        let band: Vec<u32> = band.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(held, band, "{case}, epoch {epoch}, worker {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_push_not_installed_or_a_rollback_makes_the_next_round_pull() {
        use crate::supervisor::SupervisorConfig;
        use hcc_comm::FaultPlan;
        let ds = dataset(60, 30, 600);
        let supervisor = SupervisorConfig {
            heartbeat_timeout: Duration::from_millis(20),
            collect_retries: 1,
            ..SupervisorConfig::default()
        };
        // Three epochs of two one-thread workers, set up as `run` sets them
        // up: worker 0's pushes of epoch 1 are lost or poisoned, or epoch 1
        // is run once at another rate (finite, so every push of it is
        // installed), rolled back and run again. `pulls` clears every carry
        // before each epoch, so that each epoch's first round pulls: the
        // carry must land on its bits, and pull less only where it holds.
        let run = |plan: FaultPlan, rollback: bool, pulls: bool| {
            let config = base_config()
                .workers(vec![WorkerSpec::cpu(1); 2])
                .partition(PartitionMode::Uniform)
                .fault_tolerance(supervisor.clone())
                .fault_plan(plan)
                .build();
            let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
            session.hand_out_first_bands();
            let sup = Supervisor::new(supervisor.clone(), 2);
            let mut pulled = Vec::new();
            for epoch in 0..3 {
                if pulls {
                    session.workers.iter_mut().for_each(|w| w.carried = false);
                }
                if rollback && epoch == 1 {
                    let server = session.server.get_mut();
                    let snapshot = (server.p.clone(), server.q.clone());
                    session.run_epoch(0.1, epoch, Some(&sup)).unwrap();
                    session.roll_back(&snapshot).unwrap();
                }
                let before = session.wire_bytes_by_dir().0;
                session.run_epoch(0.02, epoch, Some(&sup)).unwrap();
                pulled.push(session.wire_bytes_by_dir().0 - before);
            }
            (pulled, factor_bits(&mut session))
        };
        // `Q` is 30 rows of k = 8 in two bands of 15, 480 bytes a band. A
        // carried or handed band is not pulled. Worker 0's poisoned hand-off
        // of epoch 1 makes worker 1 pull that band in round 1 (a dropped one
        // is the wire's, which loses the push to the server only), its lost
        // push to the server makes it pull its own first band of epoch 2,
        // and a rollback makes both pull their first bands.
        let (band, whole) = (480, 960);
        let lost = |fault| FaultPlan::new(7).with(0, 1, fault);
        for (case, plan, rollback, want, pulling) in [
            ("clean", FaultPlan::new(7), false, [0; 3], [whole; 3]),
            (
                "poisoned",
                lost(Fault::PoisonPush),
                false,
                [0, band, band],
                [whole, whole + band, whole],
            ),
            (
                "dropped",
                lost(Fault::DropPush),
                false,
                [0, 0, band],
                [whole; 3],
            ),
            (
                "rolled back",
                FaultPlan::new(7),
                true,
                [0, whole, 0],
                [whole; 3],
            ),
        ] {
            let (pulled, bits) = run(plan.clone(), rollback, false);
            assert_eq!(pulled, want, "{case}");
            let (pulled, every_epoch) = run(plan, rollback, true);
            assert_eq!(pulled, pulling, "{case}, every epoch pulling");
            assert!(bits == every_epoch, "{case}: the carry moved bits");
        }
    }

    #[test]
    fn a_repartition_keeps_the_carry() {
        // An `Auto` run over an fp16 socket re-planned after each of its
        // first three epochs, as `adapt` re-plans it: no band depends on
        // the partition, so each worker keeps its regions and its carry,
        // and every epoch pulls the same bytes — on the bits of a run whose
        // every epoch pulls its first bands.
        let ds = dataset(60, 30, 600);
        let config = base_config()
            .workers(vec![WorkerSpec::cpu(1); 2])
            .partition(PartitionMode::Auto)
            .transport(TransportKind::Socket)
            .strategy(TransferStrategy::HalfQ)
            .build();
        let run = |pulls: bool| {
            let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
            // Both runs start from the same shares, not from a calibration.
            session.rebuild_workers(vec![0.5, 0.5]).unwrap();
            session.hand_out_first_bands();
            let mut pulled = Vec::new();
            let shares = [[0.7, 0.3], [0.6, 0.4], [0.55, 0.45]];
            for epoch in 0..5 {
                if pulls {
                    session.workers.iter_mut().for_each(|w| w.carried = false);
                }
                let before = session.wire_bytes_by_dir().0;
                session.run_epoch(0.02, epoch, None).unwrap();
                pulled.push(session.wire_bytes_by_dir().0 - before);
                if let Some(x) = shares.get(epoch) {
                    session.rebuild_workers(x.to_vec()).unwrap();
                }
            }
            (pulled, factor_bits(&mut session))
        };
        let (pulled, bits) = run(false);
        // 30 rows of k = 8 at 2 bytes in two bands of 15: each worker
        // carries its first band and is handed its second, so nothing is
        // pulled; without the carry each pulls its first, 240 bytes.
        assert_eq!(pulled, [0; 5]);
        let (pulled, every_epoch) = run(true);
        assert_eq!(pulled, [480; 5]);
        assert!(bits == every_epoch, "the carry moved bits");
    }

    #[test]
    fn a_missing_or_poisoned_push_leaves_its_band_as_published() {
        use crate::supervisor::SupervisorConfig;
        use hcc_comm::FaultPlan;
        let ds = dataset(60, 30, 600);
        let supervisor = SupervisorConfig {
            heartbeat_timeout: Duration::from_millis(20),
            collect_retries: 1,
            ..SupervisorConfig::default()
        };
        // Worker 0's pushes are poisoned, dropped, or fine; one-thread
        // workers make every push the same bits in all three runs.
        let q_after = |plan: FaultPlan| {
            let config = base_config()
                .workers(vec![WorkerSpec::cpu(1), WorkerSpec::cpu(1)])
                .partition(PartitionMode::Uniform)
                .fault_tolerance(supervisor.clone())
                .fault_plan(plan)
                .build();
            let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
            let sup = Supervisor::new(supervisor.clone(), 2);
            // The epoch's two rounds, as `run_epoch` runs them. Worker 1
            // pushes its last band from its region, where the band stays.
            let mut outcome = EpochOutcome {
                stats: vec![WorkerEpochStats::default(); 2],
                sync_time: Duration::ZERO,
                missed: vec![false; 2],
            };
            let mut q1 = session.server.get_mut().q.clone();
            for round in 0..2 {
                let sup = Some(&sup);
                session
                    .run_round(round, 0.02, 0, sup, &mut outcome)
                    .unwrap();
            }
            let chunk = session.chunk(session.plan.step(0, 1, 1).chunks.start);
            let pushed = &session.workers[1].region.lock()[..chunk.len()];
            q1.as_mut_slice()[chunk].copy_from_slice(pushed);
            (outcome.missed, session.server.get_mut().q.clone(), q1)
        };
        // Worker 0's push of band 1 to the server is poisoned or dropped,
        // and either leaves band 1 as the epoch began; band 0 is worker 1's
        // push. `Q` is the epoch's start with worker 1's push in it, bit
        // for bit, and no NaN of the poison in it.
        let (missed, poisoned, q1) = q_after(FaultPlan::new(7).with(0, 0, Fault::PoisonPush));
        assert_eq!(missed, vec![true, false]);
        assert!(poisoned == q1);
        assert!(poisoned.as_slice().iter().all(|v| v.is_finite()));
        let (missed, dropped, q1) = q_after(FaultPlan::new(7).with(0, 0, Fault::DropPush));
        assert_eq!(missed, vec![true, false]);
        assert!(dropped == q1);
        // The poison spoils the band worker 0 handed on too, so worker 1
        // trained band 0 from the server's copy as the epoch began; the
        // wire's drop loses the push to the server only, so worker 1
        // trained it from worker 0's hand-off.
        assert_ne!(poisoned, dropped);
        let (missed, clean, _) = q_after(FaultPlan::new(7));
        assert_eq!(missed, vec![false, false]);
        assert_ne!(poisoned, clean);
        assert_ne!(dropped, clean);
    }

    #[test]
    fn a_hand_off_nobody_collected_is_never_taken_in_a_later_round() {
        use crate::supervisor::SupervisorConfig;
        use hcc_comm::FaultPlan;
        let ds = dataset(60, 30, 600);
        let supervisor = SupervisorConfig {
            heartbeat_timeout: Duration::from_millis(20),
            collect_retries: 1,
            ..SupervisorConfig::default()
        };
        // Three workers: worker 0 hands worker 2 a band in rounds 0 and 1.
        // Its pushes of epoch 0 are poisoned, so worker 2 rejects the first
        // hand-off and worker 0 is missed for the epoch; its second is left
        // on worker 2's peer link, uncollected.
        let config = base_config()
            .workers(vec![WorkerSpec::cpu(1); 3])
            .partition(PartitionMode::Uniform)
            .fault_tolerance(supervisor.clone())
            .fault_plan(FaultPlan::new(7).with(0, 0, Fault::PoisonPush))
            .build();
        let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
        let sup = Supervisor::new(supervisor, 3);
        session.hand_out_first_bands();
        assert_eq!(session.handed_by(2), Some(0));
        let outcome = session.run_epoch(0.02, 0, Some(&sup)).unwrap();
        assert_eq!(outcome.missed, vec![true, false, false]);
        // No peer link holds a hand-off once the epoch is over: a later
        // round's collect waits for one sent in its own round.
        for (w, state) in session.workers.iter().enumerate() {
            if let Some(peer) = &state.peer {
                let mut taken = false;
                let left = peer
                    .endpoint
                    .collect_with(0, Some(Duration::ZERO), &mut |_| {
                        taken = true;
                    });
                assert_eq!(left, Err(CommError::Timeout), "worker {w}'s peer link");
                assert!(!taken, "worker {w} took a hand-off of an earlier round");
            }
        }
        let outcome = session.run_epoch(0.02, 1, Some(&sup)).unwrap();
        assert_eq!(outcome.missed, vec![false; 3]);
    }

    #[test]
    fn unsupervised_run_fails_typed_when_a_push_never_comes() {
        use crate::server::fake::FakeTransport;
        let ds = dataset(60, 30, 600);
        let config = base_config().build();
        let started = Instant::now();

        // Worker 1 panics in its push to the server (no worker pulls in a
        // fault-free epoch: its first band is carried, its second handed).
        let panics = |w, len| {
            let mut fake = FakeTransport::new(1, len);
            fake.push_panics = w == 1;
            fake
        };
        let err = session_over(&config, &ds, panics).run(false).unwrap_err();
        match err {
            HccError::WorkerLost(msg) => {
                assert!(msg.contains("worker 1") && msg.contains("epoch 0"), "{msg}");
                assert!(msg.contains("scripted push panic"), "{msg}");
            }
            other => panic!("expected WorkerLost, got {other:?}"),
        }

        // Worker 0's transport gives up on the push (what a socket whose
        // retry budget ran out does); the thread itself ends normally.
        let loses = |w, len| {
            let mut fake = FakeTransport::new(1, len);
            fake.loses_pushes = w == 0;
            fake
        };
        let err = session_over(&config, &ds, loses).run(false).unwrap_err();
        match err {
            HccError::Comm(msg) => {
                assert!(msg.contains("worker 0") && msg.contains("epoch 0"), "{msg}");
            }
            other => panic!("expected Comm, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
