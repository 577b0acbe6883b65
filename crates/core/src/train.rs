//! The training orchestrator: preprocessing, partition planning, and the
//! `pull → compute → push → sync` epoch loop of Fig. 4.

use crate::checkpoint::{load_checkpoint, save_checkpoint, ResumeState, TrainingMeta};
use crate::config::{HccConfig, Optimizer, PartitionMode, TransportKind, WorkerSpec};
use crate::error::HccError;
use crate::report::{HccReport, WorkerEpochStats};
use crate::server::{merge_weighted, merge_weights, region_layout, RegionLayout, ShardedServer};
use crate::supervisor::{Supervisor, WorkerHealth};
use crate::worker::{chunk_col_ranges, group_by_chunk, rebase_rows, OptimizerState, WorkerState};
use hcc_comm::socket::NetEventKind;
use hcc_comm::{
    run_pipeline, Backoff, ChaosTransport, CommError, CommP, CommShared, CommSocket, Fault,
    Precision, SocketConfig, TransferStrategy, Transport,
};
use hcc_partition::{
    dp0, dp1_step, dp2, replan_survivors, ShardRouter, StrategyChoice, WorkerClass,
};
use hcc_sgd::{rmse, FactorMatrix, HogwildConfig, SharedRows};
use hcc_sparse::{Axis, CooMatrix, GridPartition};
use hcc_telemetry::{Dir, Event, NetCause, Phase, Telemetry};
use parking_lot::Mutex;
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
        // Never a wire retry's cause: like a hung-up peer, the push is gone.
        CommError::Disconnected | CommError::Abandoned => NetCause::Disconnected,
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

/// Spans a pipeline stage by telemetry start time and busy duration.
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

/// A contiguous column range of `Q` with its own transport endpoint — the
/// unit an epoch publishes, pulls, computes on, pushes and merges. A
/// synchronous run has one chunk covering the whole synchronized region
/// (`[P | Q]` under `FullPq`); `streams > 1` tiles `Q`'s columns into that
/// many, which is all the asynchronous computing–transmission pipeline of
/// Strategy 3 needs from the transport layer.
struct Chunk {
    cols: Range<usize>,
    /// Float layout of this chunk's pull and push regions.
    layout: RegionLayout,
    /// Carries this chunk's regions: `chaos`, when there is one.
    endpoint: Arc<dyn Transport>,
    /// The wrapper that enacts the wire faults of `config.fault_plan`;
    /// every epoch tells it its number.
    chaos: Option<Arc<ChaosTransport>>,
}

/// Builds the transport endpoint for regions of `pull_len` / `push_len`
/// floats. `shards > 1` makes it a node-sharded parameter server: the
/// region is tiled by contiguous row range across that many links of
/// `kind`, always at Fp32 — row-delta shipping replaces fp16 compression,
/// and delta framing (count + indices as f32) must stay exact.
fn build_endpoint(
    kind: TransportKind,
    workers: usize,
    k: usize,
    pull_len: usize,
    push_len: usize,
    precision: Precision,
    shards: usize,
) -> Result<Arc<dyn Transport>, HccError> {
    if shards == 1 {
        return build_link(kind, workers, pull_len, push_len, precision, false);
    }
    let router = ShardRouter::uniform(pull_len / k, shards);
    let links = (0..shards)
        .map(|s| {
            let pull = router.range(s).len() * k;
            let push = ShardedServer::shard_push_len(&router, s, k);
            build_link(kind, workers, pull, push, Precision::Fp32, true)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let server = ShardedServer::new(router, k, pull_len, Precision::Fp32, links);
    Ok(Arc::new(server))
}

/// One concrete transport of `kind`; `delta_push` tags a socket's pushes as
/// row deltas (the shards of a sharded server). Fallible because the socket
/// transports bind an OS resource.
fn build_link(
    kind: TransportKind,
    workers: usize,
    pull_len: usize,
    push_len: usize,
    precision: Precision,
    delta_push: bool,
) -> Result<Arc<dyn Transport>, HccError> {
    let cfg = SocketConfig {
        delta_push,
        ..SocketConfig::default()
    };
    let bind_err = |e| HccError::Comm(format!("binding {kind:?} transport: {e}"));
    Ok(match kind {
        TransportKind::Shared => Arc::new(CommShared::new(workers, pull_len, push_len, precision)),
        TransportKind::CommP => Arc::new(CommP::new(workers, precision)),
        TransportKind::Socket => Arc::new(
            CommSocket::with_config(workers, pull_len, push_len, precision, cfg)
                .map_err(bind_err)?,
        ),
        TransportKind::Tcp => Arc::new(
            CommSocket::with_config_tcp(workers, pull_len, push_len, precision, cfg)
                .map_err(bind_err)?,
        ),
    })
}

/// Fault-tolerance state of a supervised run. The rollback snapshot lives
/// beside the supervisor, so a supervised run always has one.
struct Supervision {
    supervisor: Supervisor,
    /// Last-good `(P, Q)` for divergence rollback.
    snapshot: (FactorMatrix, FactorMatrix),
}

/// What an epoch writes of the server's state: `P`, and the region-sized
/// buffers — built with the workers, on the session's thread, and reused by
/// every epoch, so an epoch allocates none.
struct ServerSide {
    /// The model's `P`, stored here and nowhere else: an epoch lends every
    /// worker its own rows of it for as long as the worker threads run.
    p: FactorMatrix,
    /// The merge accumulator `Σ wᵢ·qᵢ`; swapped with `global_q` when the
    /// epoch's merge is complete.
    q_acc: FactorMatrix,
    /// The `[P | Q]` pull region under `FullPq`; empty otherwise, when
    /// `Q`'s column slices are published in place.
    pull_region: Vec<f32>,
}

/// Everything a training run owns.
struct Session<'a> {
    config: &'a HccConfig,
    work: CooMatrix,
    m: usize,
    n: usize,
    k: usize,
    global_q: FactorMatrix,
    /// Locked by the server side of an epoch only; the mutex is what lets
    /// the epoch write it while its workers borrow the session shared.
    server: Mutex<ServerSide>,
    fractions: Vec<f64>,
    classes: Vec<WorkerClass>,
    /// Worker specs currently in the fleet (shrinks when workers die).
    specs: Vec<WorkerSpec>,
    /// Original config index of each current worker — fault plans and
    /// display names keep addressing the machine a worker started as.
    orig_ids: Vec<usize>,
    workers: Vec<WorkerState>,
    /// What an epoch walks: `config.streams` column chunks of `Q` (fewer
    /// when `Q` has fewer columns), rebuilt with the workers.
    chunks: Vec<Chunk>,
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
    fn create(config: &'a HccConfig, work: CooMatrix) -> Result<Session<'a>, HccError> {
        let m = work.rows() as usize;
        let n = work.cols() as usize;
        let k = config.k;
        let (global_p, global_q) = match &config.warm_start {
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
                    streams: config.streams as u32,
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
            global_q,
            // The buffers are sized by `rebuild_workers` below, like
            // `workers` and `chunks`.
            server: Mutex::new(ServerSide {
                p: global_p,
                q_acc: FactorMatrix::zeros(0, k),
                pull_region: Vec::new(),
            }),
            fractions: fractions.clone(),
            classes,
            specs: config.workers.clone(),
            orig_ids: (0..worker_count).collect(),
            workers: Vec::new(),
            chunks: Vec::new(),
            start_epoch: 0,
            lr_scale: 1.0,
            rollbacks: 0,
            health_history: Vec::new(),
            rmse_history: Vec::new(),
            epoch_times: Vec::new(),
            worker_stats: Vec::new(),
            sync_times: Vec::new(),
            partition_history: Vec::new(),
            strategy_used: match config.partition {
                PartitionMode::Uniform | PartitionMode::Dp0 => StrategyChoice::Dp0,
                PartitionMode::Dp1 => StrategyChoice::Dp1,
                PartitionMode::Dp2 => StrategyChoice::Dp2,
                PartitionMode::Auto => StrategyChoice::Dp1, // revised during adaptation
            },
            total_updates: 0,
            telemetry,
        };
        session.rebuild_workers(fractions)?;
        Ok(session)
    }

    /// (Re)builds worker states and the chunk endpoints for a partition
    /// vector. Workers hold no factors of their own — `P` is trained where
    /// the session keeps it and `Q` is pulled every epoch — so no training
    /// progress is lost across repartitions.
    fn rebuild_workers(&mut self, fractions: Vec<f64>) -> Result<(), HccError> {
        // The old fleet's ratings, regions and endpoints go before their
        // successors are built: a repartition must not hold two sets at once.
        self.workers.clear();
        self.chunks.clear();
        let k = self.k;
        let cols = chunk_col_ranges(self.n, self.config.streams);
        // The grid is gone when this loop is: its shards become the
        // workers' entries, so the ratings are held twice (`work` and the
        // fleet's), never three times.
        let grid = GridPartition::build(&self.work, Axis::Row, &fractions);
        let ranges: Vec<Range<u32>> = (0..self.specs.len()).map(|w| grid.range(w)).collect();
        let mut workers = Vec::with_capacity(self.specs.len());
        for ((spec, row_range), mut entries) in
            self.specs.iter().zip(ranges).zip(grid.into_shards())
        {
            rebase_rows(&mut entries, row_range.start);
            let chunk_entries = group_by_chunk(&mut entries, &cols);
            let rows = row_range.len().max(1);
            let optimizer = match self.config.optimizer {
                Optimizer::Sgd => OptimizerState::Sgd,
                Optimizer::AdaGrad { epsilon, .. } => {
                    OptimizerState::AdaGrad(hcc_sgd::AdaGradState::new(rows, self.n, k, epsilon))
                }
                Optimizer::Momentum { beta } => {
                    OptimizerState::Momentum(hcc_sgd::MomentumState::new(rows, self.n, k, beta))
                }
            };
            workers.push(WorkerState {
                spec: spec.clone(),
                entries,
                chunk_entries,
                row_range,
                regions: Vec::new(), // sized below, once `max_rows` is known
                optimizer,
            });
        }
        let max_rows = workers.iter().map(|w| w.p_rows().len()).max().unwrap_or(0);
        let precision = if self.config.strategy.is_compressed() {
            Precision::Fp16
        } else {
            Precision::Fp32
        };
        let layouts: Vec<RegionLayout> = cols
            .iter()
            .map(|cols| region_layout(self.config.strategy, self.m, cols.len(), k, max_rows))
            .collect();
        // Every region-sized buffer of the epoch loop is allocated here, by
        // the thread that builds the endpoints, not by whichever worker or
        // connection thread first needs it.
        for worker in &mut workers {
            worker.regions = layouts
                .iter()
                .map(|l| Mutex::new(vec![0f32; l.pull_len]))
                .collect();
        }
        let full_pq = self.config.strategy == TransferStrategy::FullPq;
        // Sized in place: a repartition that moves no length allocates none.
        let server = self.server.get_mut();
        if server.q_acc.rows() != self.n {
            server.q_acc = FactorMatrix::zeros(self.n, k);
        }
        let pull_region = if full_pq { layouts[0].pull_len } else { 0 };
        server.pull_region.resize(pull_region, 0.0);
        self.chunks = cols
            .into_iter()
            .zip(layouts)
            .map(|(cols, layout)| {
                let endpoint = build_endpoint(
                    self.config.transport,
                    workers.len(),
                    k,
                    layout.pull_len,
                    layout.push_len,
                    precision,
                    self.config.server_shards,
                )?;
                // The plan addresses workers by starting-fleet id.
                let chaos = self.config.fault_plan.as_ref().map(|plan| {
                    let ids = self.orig_ids.clone();
                    Arc::new(ChaosTransport::new(endpoint.clone(), plan.clone(), ids))
                });
                Ok(Chunk {
                    cols,
                    layout,
                    endpoint: match &chaos {
                        Some(chaos) => chaos.clone(),
                        None => endpoint,
                    },
                    chaos,
                })
            })
            .collect::<Result<_, HccError>>()?;
        self.workers = workers;
        self.fractions = fractions;
        Ok(())
    }

    /// Restores factors and loop state from a validated v2 checkpoint.
    fn apply_resume(&mut self, state: ResumeState) {
        self.server.get_mut().p = state.p;
        self.global_q = state.q;
        self.start_epoch = state.meta.epoch;
        self.lr_scale = state.meta.lr_scale as f64;
    }

    /// Wire bytes over all chunk endpoints, split `(pull, push)`.
    fn wire_bytes_by_dir(&self) -> (u64, u64) {
        self.chunks
            .iter()
            .map(|chunk| chunk.endpoint.wire_bytes_by_dir())
            .fold((0, 0), |(pull, push), (p, q)| (pull + p, push + q))
    }

    fn run(&mut self, transposed: bool) -> Result<(), HccError> {
        let mut supervision = self.config.fault_tolerance.clone().map(|cfg| {
            let mut supervisor = Supervisor::new(cfg, self.workers.len());
            supervisor.set_lr_scale(self.lr_scale);
            // Baseline for the divergence guard + rollback snapshot.
            supervisor.observe_baseline(self.evaluate());
            Supervision {
                supervisor,
                snapshot: (self.server.get_mut().p.clone(), self.global_q.clone()),
            }
        });

        let mut epoch = self.start_epoch;
        while epoch < self.config.epochs {
            let lr = match self.config.optimizer {
                // AdaGrad steps from its own base η₀: no schedule, no backoff.
                Optimizer::AdaGrad { eta0, .. } => eta0,
                _ => (f64::from(self.config.learning_rate.at(epoch)) * self.lr_scale) as f32,
            };
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
                    let (p, q) = &sup.snapshot;
                    let diverged_p = self.server.get_mut().p.as_mut_slice();
                    diverged_p.copy_from_slice(p.as_slice());
                    self.global_q.as_mut_slice().copy_from_slice(q.as_slice());
                    // Fresh optimizer state and endpoints for the retry.
                    self.rebuild_workers(self.fractions.clone())?;
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
                p.as_mut_slice()
                    .copy_from_slice(self.server.get_mut().p.as_slice());
                q.as_mut_slice().copy_from_slice(self.global_q.as_slice());
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

    /// Drains every endpoint's resilience events once per epoch (bounding
    /// their buffers) and attributes them to this epoch on the server lane
    /// via the workers' starting-fleet ids.
    fn record_net_events(&self, epoch: usize) {
        let lane = self.telemetry.server_lane();
        for chunk in &self.chunks {
            for ev in chunk.endpoint.drain_net_events() {
                let worker = self.orig_ids.get(ev.worker).copied().unwrap_or(ev.worker) as u32;
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
        let result = save_checkpoint(path, &self.server.get_mut().p, &self.global_q, &meta);
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

    /// One epoch of Fig. 4, the only epoch loop there is: publish every
    /// chunk; every worker walks its chunks `pull → compute → push`
    /// ([`worker_epoch`](Self::worker_epoch)) while this thread, the server,
    /// collects and merges them in fixed `(chunk, worker)` order,
    /// overlapping the still-running workers (the DP2 hiding effect).
    ///
    /// A chunk is merged like any region, `q = Σ wᵢ·qᵢ` over the pushes
    /// that arrived, so the result does not depend on arrival order or on
    /// how `Q` is chunked. A supervisor, when present, is consulted at four
    /// points — fault lookup and heartbeat on the worker side, the bounded
    /// collect ladder and the non-finite-push check here; a missing or
    /// poisoned push is left out of its chunk's merge and the remaining
    /// weights renormalized, and a chunk that lost every push keeps the
    /// previous global `Q`. With no fault the supervised epoch is
    /// bit-identical to the plain one.
    fn run_epoch(
        &mut self,
        lr: f32,
        epoch: usize,
        sup: Option<&Supervisor>,
    ) -> Result<EpochOutcome, HccError> {
        let this = &*self;
        let k = this.k;
        let full_pq = this.config.strategy == TransferStrategy::FullPq;
        let telemetry = &this.telemetry;

        let shard_sizes: Vec<usize> = this.workers.iter().map(|w| w.entries.len()).collect();
        let weights = merge_weights(&shard_sizes);
        let exits: Mutex<Vec<Option<WorkerExit>>> = Mutex::new(vec![None; this.workers.len()]);
        let mut sync_time = Duration::ZERO;
        let mut missed = vec![false; this.workers.len()];

        let mut server = this.server.lock();
        let ServerSide {
            p,
            q_acc,
            pull_region,
        } = &mut *server;
        let q_acc = q_acc.as_mut_slice();
        q_acc.fill(0.0);
        let global_q = this.global_q.as_slice();

        // Publish: the chunk's Q columns in place, [P | Q] under FullPq.
        for chunk in &this.chunks {
            if let Some(chaos) = &chunk.chaos {
                chaos.begin_epoch(epoch);
            }
            let q = &global_q[chunk.cols.start * k..chunk.cols.end * k];
            if full_pq {
                pull_region[..this.m * k].copy_from_slice(p.as_slice());
                pull_region[chunk.layout.pull_q_offset..].copy_from_slice(q);
                chunk.endpoint.publish(pull_region);
            } else {
                chunk.endpoint.publish(q);
            }
        }

        // Until the scope joins, each worker holds its own rows of `P`.
        let p_blocks = p.split_rows_mut(this.workers.iter().map(WorkerState::p_rows));
        std::thread::scope(|scope| -> Result<(), HccError> {
            for (w, p_rows) in p_blocks.into_iter().enumerate() {
                let exits = &exits;
                scope.spawn(move || {
                    // A worker panic would otherwise abort the process at
                    // the scope join — contain it.
                    let exit = catch_unwind(AssertUnwindSafe(|| {
                        this.worker_epoch(w, p_rows, lr, epoch, sup)
                    }))
                    .map_err(|payload| panic_message(payload.as_ref()));
                    if let (Err(_), Some(sup)) = (&exit, sup) {
                        sup.board.mark_dead(w);
                    }
                    exits.lock()[w] = Some(exit);
                });
            }

            let server_lane = telemetry.server_lane();
            for chunk in &this.chunks {
                let q_range = chunk.cols.start * k..chunk.cols.end * k;
                let q_at = chunk.layout.push_q_offset;
                // Weight of the pushes merged into this chunk: all of it
                // (`merge_weights` sums to one) unless some were left out.
                let mut accepted = 0f32;
                let mut left_out = false;
                for w in 0..this.workers.len() {
                    // Runs inside the collect, on the push where it landed.
                    let mut merged = false;
                    let mut merge = |push: &[f32]| {
                        let start = telemetry.now_us();
                        let t0 = Instant::now();
                        // A poisoned (or malformed, short) push is discarded.
                        let sound = push
                            .get(q_at..q_at + q_range.len())
                            .filter(|q| sup.is_none() || q.iter().all(|v| v.is_finite()));
                        if let Some(q_part) = sound {
                            merge_weighted(&mut q_acc[q_range.clone()], q_part, weights[w]);
                            accepted += weights[w];
                            merged = true;
                            // The `P` rows a `FullPq` push carries are read
                            // by nobody: their owner trained them where the
                            // server keeps them.
                        }
                        let took = t0.elapsed();
                        sync_time += took;
                        // Sync spans live on the server lane but carry the merged
                        // worker's id, so per-worker epoch sums include their share.
                        telemetry.phase(
                            server_lane,
                            epoch as u32,
                            this.orig_ids[w] as u32,
                            Phase::Sync,
                            start,
                            took,
                        );
                    };
                    this.collect_push(chunk, w, sup, &exits, epoch, &mut merge)?;
                    if !merged {
                        (missed[w], left_out) = (true, true);
                    }
                }
                if accepted == 0.0 {
                    q_acc[q_range.clone()].copy_from_slice(&global_q[q_range]);
                } else if left_out {
                    // Renormalize over the accepted pushes so missing shards
                    // don't shrink Q toward zero.
                    let inv = 1.0 / accepted;
                    for v in &mut q_acc[q_range] {
                        *v *= inv;
                    }
                }
            }
            Ok(())
        })?;
        drop(server);

        let mut stats = Vec::with_capacity(missed.len());
        for (w, exit) in exits.into_inner().into_iter().enumerate() {
            stats.push(match exit {
                Some(Ok(stats)) => stats,
                Some(Err(panic)) if sup.is_none() => return Err(self.worker_lost(w, epoch, &panic)),
                // Supervised: marked dead above, the epoch stands without it.
                _ => WorkerEpochStats::default(),
            });
        }
        std::mem::swap(&mut self.global_q, &mut self.server.get_mut().q_acc);
        Ok(EpochOutcome {
            stats,
            sync_time,
            missed,
        })
    }

    fn worker_lost(&self, w: usize, epoch: usize, panic: &str) -> HccError {
        HccError::WorkerLost(format!(
            "worker {} panicked during epoch {epoch}: {panic}",
            self.orig_ids[w]
        ))
    }

    /// Worker `w`'s side of an epoch, on its own thread: walk the chunks
    /// `pull → compute → push` — inline for one chunk, through
    /// [`run_pipeline`] for several, so the pull of chunk `c + 1` and the
    /// push of chunk `c − 1` overlap the computation of chunk `c`
    /// (Strategy 3). A chunk has its own region of the worker's `Q`, and
    /// each stage runs its chunks in order, so the overlap moves no bits.
    /// `p_rows` are the worker's rows of the session's `P`, its alone for
    /// the epoch.
    fn worker_epoch(
        &self,
        w: usize,
        p_rows: &mut [f32],
        lr: f32,
        epoch: usize,
        sup: Option<&Supervisor>,
    ) -> WorkerEpochStats {
        let state = &self.workers[w];
        let telemetry = &self.telemetry;
        let k = self.k;
        let full_pq = self.config.strategy == TransferStrategy::FullPq;
        let p = SharedRows::new(p_rows, k);
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

        // Each stage locks chunk `c`'s region for as long as it works on
        // it; the stages of one chunk run in order, so they never contend.
        // The region is pulled into, trained on and pushed from where it
        // is. (The `P` a `FullPq` pull carries is what the worker's rows
        // already hold: they have one owner.)
        let pull = |c: usize| {
            self.chunks[c]
                .endpoint
                .pull(w, &mut state.regions[c].lock());
        };
        let compute = |c: usize, ()| {
            // An injected stall counts as compute time, so the
            // supervisor's straggler rule sees it.
            if let Some(Fault::Stall(lost)) = fault {
                std::thread::sleep(lost);
            }
            let chunk = &self.chunks[c];
            let mut region = state.regions[c].lock();
            let q = SharedRows::new(&mut region[chunk.layout.q_elems()], k)
                .numbered_from(chunk.cols.start);
            let entries = &state.entries[state.chunk_entries[c].clone()];
            state.compute(entries, p, q, &hogwild);
            if let Some(sup) = sup {
                sup.board.beat(w, epoch);
            }
        };
        let push = |c: usize, ()| {
            let chunk = &self.chunks[c];
            let mut region = state.regions[c].lock();
            let push = &mut region[chunk.layout.push_elems()];
            if full_pq {
                p.read_into(&mut push[..p.row_range().len() * k]);
            }
            if let (Some(plan), Some(Fault::PoisonPush)) = (plan, fault) {
                plan.poison(worker_id, epoch, push);
            }
            chunk.endpoint.push(w, push);
        };

        let spans: [Span; 3] = if self.chunks.len() == 1 {
            let ((), pulled) = timed(telemetry, || pull(0));
            let ((), computed) = timed(telemetry, || compute(0, ()));
            let ((), pushed) = timed(telemetry, || push(0, ()));
            [pulled, computed, pushed]
        } else {
            // The stages run on the pipeline's own threads and report only
            // per-stage busy totals, recorded as three spans sharing the
            // pipeline's start time.
            let start = telemetry.now_us();
            let chunks = self.chunks.len();
            let busy = run_pipeline(chunks, chunks, pull, compute, push);
            [busy.pull_busy, busy.compute_busy, busy.push_busy].map(|b| (start, b))
        };
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
            updates: state.entries.len() as u64,
        }
    }

    /// Server side: waits for worker `w`'s push of `chunk` and runs `merge`
    /// on it where it landed. Returning `Ok` without having run `merge`
    /// means the supervisor gave up on the push for this epoch.
    ///
    /// Supervised, this is the bounded-retry ladder: each timeout or
    /// corrupt frame is a `NetRetry` event, and a worker that exhausts the
    /// ladder is `missed`. Unsupervised there is nobody to classify a
    /// missing worker, so the server waits for as long as the worker's
    /// thread runs — silently, a slow worker is not a fault — and fails
    /// typed once the thread has ended without the push arriving (it
    /// panicked, or its transport gave up on the push).
    fn collect_push(
        &self,
        chunk: &Chunk,
        w: usize,
        sup: Option<&Supervisor>,
        exits: &Mutex<Vec<Option<WorkerExit>>>,
        epoch: usize,
        merge: &mut dyn FnMut(&[f32]),
    ) -> Result<(), HccError> {
        let Some(sup) = sup else {
            loop {
                // Read before the wait: a push precedes its thread's exit,
                // so a wait that starts after the exit cannot miss it.
                let exited = exits.lock()[w].is_some();
                let polled = chunk.endpoint.collect_with(w, Some(LOST_PUSH_POLL), merge);
                if polled.is_ok() {
                    return Ok(());
                }
                if exited {
                    return Err(match &exits.lock()[w] {
                        Some(Err(panic)) => self.worker_lost(w, epoch, panic),
                        _ => HccError::Comm(format!(
                            "worker {}'s push never reached the server in epoch {epoch}",
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
            match chunk.endpoint.collect_with(w, Some(timeout), merge) {
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
                Err(CommError::Disconnected | CommError::Abandoned) => break,
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
        rmse(
            self.work.entries(),
            &self.server.get_mut().p,
            &self.global_q,
        )
    }

    /// Post-epoch partition adaptation (Algorithm 1 / Eq. 7).
    fn adapt(&mut self, epoch: usize) -> Result<(), HccError> {
        let mode = self.config.partition;
        if !matches!(
            mode,
            PartitionMode::Dp1 | PartitionMode::Dp2 | PartitionMode::Auto
        ) {
            return Ok(());
        }
        if epoch + 1 >= self.config.epochs || epoch >= self.config.adapt_epochs {
            return Ok(());
        }
        let Some(stats) = self.worker_stats.last() else {
            return Ok(());
        };
        if stats.len() != self.fractions.len() {
            // The fleet shrank this epoch (supervisor removed dead workers);
            // last epoch's timings no longer line up with the partition.
            return Ok(());
        }
        let t: Vec<f64> = stats
            .iter()
            .map(|s| s.compute.as_secs_f64().max(1e-9))
            .collect();

        let last_adapt_epoch = epoch + 1 == self.config.adapt_epochs;
        if last_adapt_epoch && matches!(mode, PartitionMode::Dp2 | PartitionMode::Auto) {
            let sync_total = self
                .sync_times
                .last()
                .copied()
                .unwrap_or_default()
                .as_secs_f64();
            let sync_per_worker = sync_total / self.workers.len() as f64;
            let max_t = t.iter().cloned().fold(0.0f64, f64::max);
            let ratio = if sync_total > 0.0 {
                max_t / sync_total
            } else {
                f64::INFINITY
            };
            let want_dp2 = mode == PartitionMode::Dp2
                || (mode == PartitionMode::Auto && ratio < hcc_partition::CostModel::LAMBDA);
            if want_dp2 {
                let next = dp2(&self.fractions, &t, sync_per_worker);
                self.strategy_used = StrategyChoice::Dp2;
                return self.rebuild_workers(next);
            }
            self.strategy_used = StrategyChoice::Dp1;
        }

        if let Some(next) = dp1_step(&self.fractions, &t, &self.classes, 0.1) {
            self.rebuild_workers(next)?;
        }
        Ok(())
    }

    fn into_report(mut self, transposed: bool) -> HccReport {
        let q = std::mem::replace(&mut self.global_q, FactorMatrix::zeros(1, 1));
        let p = std::mem::replace(&mut self.server.get_mut().p, FactorMatrix::zeros(1, 1));
        let (p, q) = if transposed { (q, p) } else { (p, q) };
        let timeline = std::mem::replace(&mut self.telemetry, Telemetry::disabled()).finish();
        let wire_bytes = self.wire_bytes_by_dir();
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
        let state = WorkerState {
            spec: spec.clone(),
            entries: Vec::new(),
            chunk_entries: Vec::new(),
            row_range: 0..work.rows(),
            regions: Vec::new(),
            optimizer: OptimizerState::Sgd,
        };
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
        let mut sweep = |entries| state.compute(entries, p0.shared(), q0.shared(), &calibration);
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
    fn trains_full_pq() {
        let ds = dataset(200, 100, 5_000);
        let cfg = base_config().strategy(TransferStrategy::FullPq).build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
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
    fn comm_p_transport_trains_too() {
        let ds = dataset(150, 80, 3_000);
        let cfg = base_config().transport(TransportKind::CommP).build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
    }

    #[test]
    fn async_streams_train() {
        let ds = dataset(200, 120, 6_000);
        let cfg = base_config().streams(3).build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert!(
            report.rmse_history.last().unwrap() < &(report.rmse_history[0] * 0.7),
            "async no convergence: {:?}",
            report.rmse_history
        );
    }

    #[test]
    fn async_rejects_full_pq_and_comm_p() {
        let ds = dataset(50, 30, 500);
        // FullPq cannot be chunked; the config says so before train() runs.
        assert!(base_config()
            .streams(2)
            .strategy(TransferStrategy::FullPq)
            .try_build()
            .is_err());
        // COMM-P carries chunks like any other transport.
        let cfg = base_config()
            .streams(2)
            .transport(TransportKind::CommP)
            .build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
    }

    #[test]
    fn empty_matrix_rejected() {
        let m = CooMatrix::new(5, 5, vec![]).unwrap();
        assert!(HccMf::new(base_config().build()).train(&m).is_err());
    }

    #[test]
    fn heterogeneous_workers_rebalance() {
        let ds = dataset(400, 150, 20_000);
        let cfg = base_config()
            .epochs(6)
            .adapt_epochs(3)
            .workers(vec![
                WorkerSpec::cpu(1).throttled(0.5),
                WorkerSpec::gpu_sim(4),
            ])
            .build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        let final_x = report.final_partition().unwrap();
        // The fast 4-thread "GPU" must hold more data than the throttled CPU.
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
    /// A session over `ds` whose single chunk's endpoint is `fake`.
    fn session_over<'a>(
        config: &'a HccConfig,
        ds: &SyntheticDataset,
        fake: crate::server::fake::FakeTransport,
    ) -> Session<'a> {
        let mut session = Session::create(config, ds.matrix.clone()).unwrap();
        assert_eq!(session.chunks.len(), 1);
        session.chunks[0].endpoint = Arc::new(fake);
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
        let fake = FakeTransport::new(3, 30 * 8).with_event(retry(1));
        let mut session = session_over(&config, &ds, fake);
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
        let mut fake = FakeTransport::new(2, 30 * 8);
        fake.loses_pushes_of = Some(0);
        let mut session = session_over(&config, &ds, fake);
        // Where every factor buffer of the session is and how long: `P`,
        // `Q`, the merge accumulator, and per worker one region — its `Q`,
        // and there is no other copy of it nor any of `P`.
        let buffers = |session: &mut Session| -> Vec<(*const f32, usize)> {
            let server = session.server.get_mut();
            let q = session.global_q.as_slice();
            let slices = [server.p.as_slice(), q, server.q_acc.as_slice()];
            let regions = session.workers.iter().flat_map(|w| &w.regions);
            let place = |s: &[f32]| (s.as_ptr(), s.len());
            slices
                .into_iter()
                .map(place)
                .chain(regions.map(|r| place(&r.lock())))
                .collect()
        };
        let built = buffers(&mut session);
        let lens: Vec<usize> = built.iter().map(|b| b.1).collect();
        assert_eq!(lens, [60 * 8, 30 * 8, 30 * 8, 30 * 8, 30 * 8]);

        let failed = session.run_epoch(0.02, 0, None);
        assert!(matches!(failed, Err(HccError::Comm(_))));
        assert_eq!(buffers(&mut session), built);

        // Over a working endpoint the same session runs its next epoch.
        session.chunks[0].endpoint = Arc::new(FakeTransport::new(2, 30 * 8));
        let q_before = session.global_q.clone();
        let outcome = session.run_epoch(0.02, 1, None).unwrap();
        assert_eq!(outcome.missed, vec![false, false]);
        assert_ne!(session.global_q, q_before);
        assert!(session.global_q.as_slice().iter().all(|v| v.is_finite()));
        // The epoch swapped `Q` with its accumulator; nothing else moved.
        let mut after = buffers(&mut session);
        after.swap(1, 2);
        assert_eq!(after, built);
    }

    #[test]
    fn one_epoch_carries_each_region_once_per_worker_and_direction() {
        // Wire bytes are the payload bytes worker links carried: W pulls of
        // `pull_len` and W pushes of `push_len` elements at the wire's bytes
        // per element, on every transport — no publish, no collect, no
        // frame header or trailer.
        let ds = dataset(60, 30, 600);
        let one_epoch = |transport, strategy, shards| {
            let config = base_config()
                .workers(vec![WorkerSpec::cpu(1), WorkerSpec::cpu(1)])
                .partition(PartitionMode::Uniform)
                .transport(transport)
                .strategy(strategy)
                .server_shards(shards)
                .build();
            let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
            session.run_epoch(0.02, 0, None).unwrap();
            (session.wire_bytes_by_dir(), session.chunks[0].layout)
        };
        for transport in [
            TransportKind::Shared,
            TransportKind::CommP,
            TransportKind::Socket,
            TransportKind::Tcp,
        ] {
            for (strategy, bpe) in [
                (TransferStrategy::QOnly, 4),
                (TransferStrategy::HalfQ, 2),
                (TransferStrategy::FullPq, 4),
            ] {
                let (wire, layout) = one_epoch(transport, strategy, 1);
                let want = (2 * layout.pull_len * bpe, 2 * layout.push_len * bpe);
                assert_eq!(
                    wire,
                    (want.0 as u64, want.1 as u64),
                    "{transport:?} x {strategy:?}"
                );
                // `Q` is 30 rows of k = 8. The two socket rows read
                // (1_968, 1_968) while a frame's 24 header and trailer
                // bytes counted: 1_968 - 2 x 24 = 1_920 = 2 x 240 x 4.
                match strategy {
                    TransferStrategy::QOnly => assert_eq!(wire, (1_920, 1_920)),
                    TransferStrategy::HalfQ => assert_eq!(wire, (960, 960)),
                    TransferStrategy::FullPq => assert_eq!(wire.0, 2 * 90 * 8 * 4),
                }
            }
        }
        // A sharded server has always counted payload elements x 4, and its
        // pushes are row deltas: both workers touch all 30 rows of `Q`, so 4
        // deltas of 1 + t + 8t elements with the t summing to 60. Equal to
        // the byte to what the commit before the streaming codec recorded.
        let (wire, _) = one_epoch(TransportKind::Tcp, TransferStrategy::QOnly, 2);
        assert_eq!(wire, (1_920, 2_176));
    }

    #[test]
    fn a_corrupt_push_is_left_out_of_the_merge_and_the_rest_renormalised() {
        use crate::supervisor::SupervisorConfig;
        use hcc_comm::FaultPlan;
        let ds = dataset(60, 30, 600);
        let supervisor = SupervisorConfig {
            heartbeat_timeout: Duration::from_millis(20),
            collect_retries: 1,
            ..SupervisorConfig::default()
        };
        // Worker 0's push is poisoned, dropped, or fine; one-thread workers
        // make worker 1's push the same bits in all three epochs.
        let q_after = |plan: FaultPlan| {
            let config = base_config()
                .workers(vec![WorkerSpec::cpu(1), WorkerSpec::cpu(1)])
                .partition(PartitionMode::Uniform)
                .fault_tolerance(supervisor.clone())
                .fault_plan(plan)
                .build();
            let mut session = Session::create(&config, ds.matrix.clone()).unwrap();
            let sup = Supervisor::new(supervisor.clone(), 2);
            let outcome = session.run_epoch(0.02, 0, Some(&sup)).unwrap();
            (outcome.missed, session.global_q)
        };
        let (missed, poisoned) = q_after(FaultPlan::new(7).with(0, 0, Fault::PoisonPush));
        assert_eq!(missed, vec![true, false]);
        assert!(poisoned.as_slice().iter().all(|v| v.is_finite()));
        // Left out and renormalised exactly as a push that never came.
        let (missed, dropped) = q_after(FaultPlan::new(7).with(0, 0, Fault::DropPush));
        assert_eq!(missed, vec![true, false]);
        assert_eq!(poisoned, dropped);
        let (missed, clean) = q_after(FaultPlan::new(7));
        assert_eq!(missed, vec![false, false]);
        assert_ne!(poisoned, clean);
    }

    #[test]
    fn unsupervised_run_fails_typed_when_a_push_never_comes() {
        use crate::server::fake::FakeTransport;
        let ds = dataset(60, 30, 600);
        let config = base_config().build();
        let started = Instant::now();

        // Worker 1 panics before its push.
        let mut fake = FakeTransport::new(2, 30 * 8);
        fake.pull_panics_for = Some(1);
        let err = session_over(&config, &ds, fake).run(false).unwrap_err();
        match err {
            HccError::WorkerLost(msg) => {
                assert!(msg.contains("worker 1") && msg.contains("epoch 0"), "{msg}");
                assert!(msg.contains("scripted pull panic"), "{msg}");
            }
            other => panic!("expected WorkerLost, got {other:?}"),
        }

        // Worker 0's transport gives up on the push (what a socket whose
        // retry budget ran out does); the thread itself ends normally.
        let mut fake = FakeTransport::new(2, 30 * 8);
        fake.loses_pushes_of = Some(0);
        let err = session_over(&config, &ds, fake).run(false).unwrap_err();
        match err {
            HccError::Comm(msg) => {
                assert!(msg.contains("worker 0") && msg.contains("epoch 0"), "{msg}");
            }
            other => panic!("expected Comm, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
