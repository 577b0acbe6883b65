//! Training configuration.

use crate::error::HccError;
use hcc_comm::TransferStrategy;
use hcc_partition::PartitionMode;
use hcc_sgd::{LearningRate, Schedule};

/// One worker of the collaborative platform.
///
/// On this GPU-less substrate every worker is a thread pool; heterogeneity
/// comes from thread counts and the optional `speed_factor` throttle (used
/// by tests and benches to emulate slower processors deterministically).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// Display name.
    pub name: String,
    /// Hogwild threads inside this worker.
    pub threads: usize,
    /// Artificial speed multiplier in `(0, 1]`: after each compute chunk the
    /// worker sleeps `elapsed·(1−f)/f`, making its effective rate `f` of
    /// nominal. `1.0` = no throttle.
    pub speed_factor: f64,
    /// Treat this worker as a GPU for Algorithm 1's CPU/GPU group split
    /// (e.g. a "simulated GPU" worker with many threads).
    pub is_gpu: bool,
}

impl WorkerSpec {
    /// A CPU worker with `threads` threads.
    pub fn cpu(threads: usize) -> WorkerSpec {
        WorkerSpec {
            name: format!("cpu-{threads}t"),
            threads,
            speed_factor: 1.0,
            is_gpu: false,
        }
    }

    /// A "GPU-class" worker: a wide thread pool playing the CuMF_SGD role.
    pub fn gpu_sim(threads: usize) -> WorkerSpec {
        WorkerSpec {
            name: format!("gpu-sim-{threads}t"),
            threads,
            speed_factor: 1.0,
            is_gpu: true,
        }
    }

    /// Applies a throttle, returning the modified spec.
    pub fn throttled(mut self, speed_factor: f64) -> WorkerSpec {
        self.speed_factor = speed_factor;
        self
    }

    /// Renames the worker.
    pub fn named(mut self, name: &str) -> WorkerSpec {
        self.name = name.to_string();
        self
    }
}

/// Which COMM implementation carries the feature matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Shared-memory single-copy buffers (the paper's COMM).
    Shared,
    /// Framed socket RPC over a Unix domain socket: CRC-32-trailed frames,
    /// per-RPC deadlines, bounded retries with jittered backoff, and
    /// idempotent push dedup ([`hcc_comm::CommSocket`]).
    Socket,
    /// The same framed RPC stack over a loopback TCP listener — the
    /// multi-node wire ([`hcc_comm::CommSocket::new_tcp`]).
    Tcp,
}

/// Early-stopping rule: stop when the best RMSE of the last `patience`
/// epochs fails to improve on the best before them by at least
/// `min_rel_improvement` (relative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    /// Required relative improvement, e.g. `0.001` = 0.1 %.
    pub min_rel_improvement: f64,
    /// Epochs allowed without that improvement.
    pub patience: usize,
}

impl Default for EarlyStop {
    fn default() -> Self {
        EarlyStop {
            min_rel_improvement: 1e-3,
            patience: 3,
        }
    }
}

/// Full training configuration. Build with [`HccConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct HccConfig {
    /// Latent dimension `k`.
    pub k: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning-rate schedule.
    pub learning_rate: LearningRate,
    /// L2 regularization λ1 (on `P`).
    pub lambda_p: f32,
    /// L2 regularization λ2 (on `Q`).
    pub lambda_q: f32,
    /// The worker set.
    pub workers: Vec<WorkerSpec>,
    /// Data-partition mode.
    pub partition: PartitionMode,
    /// Communication strategy (what travels each epoch): `QOnly` or
    /// `HalfQ`. `FullPq` is the paper's unoptimized byte model, priced by
    /// [`TransferStrategy::pull_bytes`] and the twin, not a mode the
    /// engine runs.
    pub strategy: TransferStrategy,
    /// COMM implementation.
    pub transport: TransportKind,
    /// Parameter-server shards. `1` is the classic single endpoint; `N > 1`
    /// splits the synchronized region by contiguous row range across `N`
    /// shard endpoints (each of the configured [`TransportKind`]) with
    /// per-shard row-delta shipping.
    pub server_shards: usize,
    /// Epochs at the start reserved for Algorithm-1 adaptation (partition
    /// may be revised after each of these).
    pub adapt_epochs: usize,
    /// Seed for initialization/shuffling.
    pub seed: u64,
    /// Record training RMSE after every epoch (extra pass).
    pub track_rmse: bool,
    /// Shuffle entries during preprocessing (step ① of Fig. 4).
    pub shuffle: bool,
    /// Optional early stopping (requires `track_rmse`).
    pub early_stop: Option<EarlyStop>,
    /// Hogwild entry-to-thread schedule inside each worker (`stripe` is the
    /// classic interleaving, `tiled` the cache-blocked scheduler).
    pub schedule: Schedule,
    /// Optional warm-start factors `(P, Q)` in the *input* orientation.
    /// Dimensions must match the training matrix and `k`; used instead of
    /// random initialization (e.g. to resume from a checkpoint after new
    /// ratings arrive).
    pub warm_start: Option<(hcc_sgd::FactorMatrix, hcc_sgd::FactorMatrix)>,
    /// Enables the fault-tolerance layer (heartbeats, divergence rollback,
    /// survivor re-planning). `None` runs the same epochs unsupervised.
    pub fault_tolerance: Option<crate::supervisor::SupervisorConfig>,
    /// Deterministic fault injection: scripted worker and network faults
    /// plus seeded drop/corrupt/delay/duplicate rates, addressed by
    /// starting-fleet worker id and training epoch. The worker enacts its
    /// own faults and [`hcc_comm::ChaosTransport`], wrapped around the
    /// transport, the wire's. Requires `fault_tolerance` — an unsupervised
    /// run treats a push that never arrives as fatal.
    pub fault_plan: Option<hcc_comm::FaultPlan>,
    /// Write a crash-safe v2 checkpoint every N epochs (requires
    /// `checkpoint_path`).
    pub checkpoint_every: Option<usize>,
    /// Where periodic checkpoints are written (requires
    /// `checkpoint_every`).
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Resume a previous run from this v2 checkpoint: factors, next epoch,
    /// and learning-rate backoff state are restored. Mutually exclusive
    /// with `warm_start`; the checkpoint's seed must match `seed`.
    pub resume: Option<std::path::PathBuf>,
    /// Record a telemetry timeline and write it as JSONL to this path when
    /// training finishes. `None` (the default) disables recording entirely;
    /// the instrumentation then costs one branch per call site.
    pub telemetry_path: Option<std::path::PathBuf>,
}

impl HccConfig {
    /// Starts a builder with the paper's defaults.
    pub fn builder() -> HccConfigBuilder {
        HccConfigBuilder::default()
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), HccError> {
        if self.k == 0 {
            return Err(HccError::BadConfig("k must be > 0".into()));
        }
        if self.epochs == 0 {
            return Err(HccError::BadConfig("epochs must be > 0".into()));
        }
        if self.workers.is_empty() {
            return Err(HccError::BadConfig("at least one worker required".into()));
        }
        if self.server_shards == 0 {
            return Err(HccError::BadConfig("server_shards must be >= 1".into()));
        }
        // The schedule is every run's step size: γ₀ > 0 and a decay that
        // keeps every later γ finite and positive.
        let lr = self.learning_rate;
        let lr_ok = match lr {
            LearningRate::Constant(gamma0) => positive(gamma0),
            LearningRate::InverseTime { gamma0, decay } => positive(gamma0) && non_negative(decay),
            LearningRate::Exponential { gamma0, ratio } => positive(gamma0) && positive(ratio),
        };
        if !lr_ok {
            return Err(HccError::BadConfig(format!(
                "invalid learning rate {lr:?}: gamma0 and ratio must be finite and > 0, \
                 decay finite and >= 0"
            )));
        }
        for (name, lambda) in [("lambda_p", self.lambda_p), ("lambda_q", self.lambda_q)] {
            if !non_negative(lambda) {
                return Err(HccError::BadConfig(format!(
                    "{name} {lambda} must be finite and >= 0"
                )));
            }
        }
        // A band is a slice of `Q`: no `P` rides along.
        if self.strategy == TransferStrategy::FullPq {
            return Err(HccError::BadConfig(
                "strategy FullPq is a byte model (TransferStrategy::pull_bytes / \
                 push_bytes, the twin, Table 5), not an engine mode: train with QOnly or HalfQ"
                    .into(),
            ));
        }
        if self.early_stop.is_some() && !self.track_rmse {
            return Err(HccError::BadConfig(
                "early stopping requires track_rmse".into(),
            ));
        }
        if let Some(es) = &self.early_stop {
            if es.patience == 0 || !es.min_rel_improvement.is_finite() {
                return Err(HccError::BadConfig("invalid early-stop parameters".into()));
            }
        }
        if let Some((p, q)) = &self.warm_start {
            if p.k() != self.k || q.k() != self.k {
                return Err(HccError::BadConfig(format!(
                    "warm-start factors have k = {}/{}, config k = {}",
                    p.k(),
                    q.k(),
                    self.k
                )));
            }
        }
        if let Some(plan) = &self.fault_plan {
            if self.fault_tolerance.is_none() {
                return Err(HccError::BadConfig(
                    "fault_plan requires fault_tolerance (an unsupervised run \
                     fails on the first lost push)"
                        .into(),
                ));
            }
            plan.check(self.workers.len())
                .map_err(HccError::BadConfig)?;
        }
        if self.checkpoint_every == Some(0) {
            return Err(HccError::BadConfig("checkpoint_every must be >= 1".into()));
        }
        if self.checkpoint_every.is_some() && self.checkpoint_path.is_none() {
            return Err(HccError::BadConfig(
                "checkpoint_every requires checkpoint_path".into(),
            ));
        }
        if self.checkpoint_path.is_some() && self.checkpoint_every.is_none() {
            return Err(HccError::BadConfig(
                "checkpoint_path requires checkpoint_every".into(),
            ));
        }
        if self.resume.is_some() && self.warm_start.is_some() {
            return Err(HccError::BadConfig(
                "resume and warm_start are mutually exclusive".into(),
            ));
        }
        for w in &self.workers {
            if w.threads == 0 {
                return Err(HccError::BadConfig(format!(
                    "worker {} has zero threads",
                    w.name
                )));
            }
            if !(w.speed_factor > 0.0 && w.speed_factor <= 1.0) {
                return Err(HccError::BadConfig(format!(
                    "worker {} speed_factor {} outside (0, 1]",
                    w.name, w.speed_factor
                )));
            }
        }
        Ok(())
    }
}

/// `v` is finite and > 0.
fn positive(v: f32) -> bool {
    v.is_finite() && v > 0.0
}

/// `v` is finite and >= 0.
fn non_negative(v: f32) -> bool {
    v.is_finite() && v >= 0.0
}

/// Builder for [`HccConfig`].
#[derive(Debug, Clone)]
pub struct HccConfigBuilder {
    config: HccConfig,
}

impl Default for HccConfigBuilder {
    fn default() -> Self {
        HccConfigBuilder {
            config: HccConfig {
                k: 32,
                epochs: 20,
                learning_rate: LearningRate::paper_default(),
                lambda_p: 0.01,
                lambda_q: 0.01,
                workers: vec![WorkerSpec::cpu(2), WorkerSpec::cpu(2)],
                partition: PartitionMode::Auto,
                strategy: TransferStrategy::QOnly,
                transport: TransportKind::Shared,
                server_shards: 1,
                adapt_epochs: 3,
                seed: 0x5eed,
                track_rmse: false,
                shuffle: true,
                early_stop: None,
                schedule: Schedule::Stripe,
                warm_start: None,
                fault_tolerance: None,
                fault_plan: None,
                checkpoint_every: None,
                checkpoint_path: None,
                resume: None,
                telemetry_path: None,
            },
        }
    }
}

impl HccConfigBuilder {
    /// Latent dimension.
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Training epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.config.epochs = epochs;
        self
    }

    /// Learning-rate schedule.
    pub fn learning_rate(mut self, lr: LearningRate) -> Self {
        self.config.learning_rate = lr;
        self
    }

    /// Sets both λ1 and λ2.
    pub fn lambda(mut self, lambda: f32) -> Self {
        self.config.lambda_p = lambda;
        self.config.lambda_q = lambda;
        self
    }

    /// The worker set.
    pub fn workers(mut self, workers: Vec<WorkerSpec>) -> Self {
        self.config.workers = workers;
        self
    }

    /// Data-partition mode.
    pub fn partition(mut self, mode: PartitionMode) -> Self {
        self.config.partition = mode;
        self
    }

    /// Communication strategy.
    pub fn strategy(mut self, strategy: TransferStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// COMM implementation.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.config.transport = transport;
        self
    }

    /// Parameter-server shards (1 = single endpoint).
    pub fn server_shards(mut self, shards: usize) -> Self {
        self.config.server_shards = shards;
        self
    }

    /// Adaptation epochs for Algorithm 1.
    pub fn adapt_epochs(mut self, adapt_epochs: usize) -> Self {
        self.config.adapt_epochs = adapt_epochs;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Track per-epoch RMSE.
    pub fn track_rmse(mut self, track: bool) -> Self {
        self.config.track_rmse = track;
        self
    }

    /// Enable/disable the preprocessing shuffle.
    pub fn shuffle(mut self, shuffle: bool) -> Self {
        self.config.shuffle = shuffle;
        self
    }

    /// Enables early stopping (requires `track_rmse`).
    pub fn early_stop(mut self, rule: EarlyStop) -> Self {
        self.config.early_stop = Some(rule);
        self
    }

    /// Selects the worker-internal Hogwild schedule.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Warm-starts training from existing factors (input orientation).
    pub fn warm_start(mut self, p: hcc_sgd::FactorMatrix, q: hcc_sgd::FactorMatrix) -> Self {
        self.config.warm_start = Some((p, q));
        self
    }

    /// Enables the fault-tolerance supervisor.
    pub fn fault_tolerance(mut self, cfg: crate::supervisor::SupervisorConfig) -> Self {
        self.config.fault_tolerance = Some(cfg);
        self
    }

    /// Installs a deterministic fault-injection plan (requires
    /// [`fault_tolerance`](Self::fault_tolerance)).
    pub fn fault_plan(mut self, plan: hcc_comm::FaultPlan) -> Self {
        self.config.fault_plan = Some(plan);
        self
    }

    /// The plan of the CLI's `--net-chaos SEED`: the default
    /// hostile-network rates ([`hcc_comm::FaultPlan::from_seed`]).
    pub fn net_chaos(self, seed: u64) -> Self {
        self.fault_plan(hcc_comm::FaultPlan::from_seed(seed))
    }

    /// Writes a crash-safe checkpoint to `path` every `every` epochs.
    pub fn checkpoint(mut self, path: impl Into<std::path::PathBuf>, every: usize) -> Self {
        self.config.checkpoint_path = Some(path.into());
        self.config.checkpoint_every = Some(every);
        self
    }

    /// Resumes training from a v2 checkpoint file.
    pub fn resume(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.config.resume = Some(path.into());
        self
    }

    /// Records a telemetry timeline, written as JSONL to `path` at the end
    /// of training (also attached to the report as
    /// [`HccReport::timeline`](crate::report::HccReport::timeline)).
    pub fn telemetry(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.config.telemetry_path = Some(path.into());
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid — use
    /// [`try_build`](Self::try_build) for fallible construction.
    pub fn build(self) -> HccConfig {
        self.try_build().expect("invalid HccConfig")
    }

    /// Finalizes, returning an error on inconsistency.
    pub fn try_build(self) -> Result<HccConfig, HccError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = HccConfig::builder().build();
        assert_eq!(cfg.learning_rate, LearningRate::Constant(0.005));
        assert_eq!(cfg.strategy, TransferStrategy::QOnly);
        assert_eq!(cfg.partition, PartitionMode::Auto);
        assert_eq!(cfg.schedule, Schedule::Stripe);
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = HccConfig::builder()
            .k(64)
            .epochs(5)
            .lambda(0.5)
            .partition(PartitionMode::Dp2)
            .transport(TransportKind::Socket)
            .schedule(Schedule::Tiled)
            .build();
        assert_eq!(cfg.k, 64);
        assert_eq!(cfg.lambda_p, 0.5);
        assert_eq!(cfg.lambda_q, 0.5);
        assert_eq!(cfg.transport, TransportKind::Socket);
        assert_eq!(cfg.schedule, Schedule::Tiled);
    }

    #[test]
    fn validation_catches_errors() {
        assert!(HccConfig::builder().k(0).try_build().is_err());
        assert!(HccConfig::builder().epochs(0).try_build().is_err());
        assert!(HccConfig::builder().workers(vec![]).try_build().is_err());
        assert!(HccConfig::builder().server_shards(0).try_build().is_err());
        assert!(HccConfig::builder()
            .workers(vec![WorkerSpec::cpu(0)])
            .try_build()
            .is_err());
        assert!(HccConfig::builder()
            .workers(vec![WorkerSpec::cpu(2).throttled(0.0)])
            .try_build()
            .is_err());
        assert!(HccConfig::builder()
            .workers(vec![WorkerSpec::cpu(2).throttled(1.5)])
            .try_build()
            .is_err());
        // Step sizes and penalties that train to NaN, or the wrong way.
        use LearningRate::{Constant, Exponential, InverseTime};
        let bad_config = |cfg: HccConfig, needle: &str| match cfg.validate() {
            Err(HccError::BadConfig(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected BadConfig naming {needle:?}, got {other:?}"),
        };
        let with_lr = |lr| HccConfig {
            learning_rate: lr,
            ..HccConfig::builder().build()
        };
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let mut rates = Vec::new();
        for v in [nan, inf, -0.5, 0.0] {
            let (gamma0, ratio, decay) = (v, v, 0.1);
            rates.extend([Constant(v), InverseTime { gamma0, decay }]);
            rates.extend([
                Exponential { gamma0, ratio: 0.9 },
                Exponential {
                    gamma0: 0.01,
                    ratio,
                },
            ]);
        }
        for decay in [nan, inf, -1.0] {
            rates.push(InverseTime {
                gamma0: 0.01,
                decay,
            });
        }
        for lr in rates {
            bad_config(with_lr(lr), "learning rate");
        }
        for v in [nan, inf, -1.0] {
            let mut cfg = HccConfig::builder().build();
            cfg.lambda_p = v;
            bad_config(cfg, "lambda_p");
            let mut cfg = HccConfig::builder().build();
            cfg.lambda_q = v;
            bad_config(cfg, "lambda_q");
        }
        // The edges that stay valid: no decay, no penalty.
        assert!(with_lr(InverseTime {
            gamma0: 0.01,
            decay: 0.0
        })
        .validate()
        .is_ok());
        assert!(HccConfig::builder().lambda(0.0).try_build().is_ok());
    }

    #[test]
    fn full_pq_is_a_byte_model_and_fails_typed() {
        // Whatever it is combined with, the engine refuses `FullPq` with
        // one typed error that names the byte model, which still prices it.
        for shards in [1, 2] {
            let built = HccConfig::builder()
                .strategy(TransferStrategy::FullPq)
                .server_shards(shards)
                .try_build();
            match built {
                Err(HccError::BadConfig(msg)) => assert!(msg.contains("byte model"), "{msg}"),
                other => panic!("{shards} shards: {other:?}"),
            }
        }
        let (m, n, k) = (1_000, 100, 8);
        assert!(
            TransferStrategy::FullPq.pull_bytes(m, n, k)
                > TransferStrategy::QOnly.pull_bytes(m, n, k)
        );
    }

    #[test]
    fn validation_catches_fault_tolerance_misuse() {
        use hcc_comm::{Fault, FaultPlan};
        // Fault plan without supervision: even an empty one, and the
        // `--net-chaos` recipe, which would fail on the first dropped push.
        assert!(HccConfig::builder()
            .fault_plan(FaultPlan::new(1))
            .try_build()
            .is_err());
        assert!(HccConfig::builder().net_chaos(7).try_build().is_err());
        assert!(HccConfig::builder()
            .net_chaos(7)
            .fault_tolerance(crate::supervisor::SupervisorConfig::default())
            .try_build()
            .is_ok());
        // Checkpointing needs a path and a positive interval.
        assert!(HccConfig::builder()
            .checkpoint("x.hccmf", 0)
            .try_build()
            .is_err());
        let mut cfg = HccConfig::builder().build();
        cfg.checkpoint_every = Some(2);
        assert!(cfg.validate().is_err());
        // A path alone would write nothing.
        let mut cfg = HccConfig::builder().build();
        cfg.checkpoint_path = Some("x.hccmf".into());
        assert!(cfg.validate().is_err());
        // Resume and warm start conflict.
        assert!(HccConfig::builder()
            .warm_start(
                hcc_sgd::FactorMatrix::zeros(2, 32),
                hcc_sgd::FactorMatrix::zeros(2, 32)
            )
            .resume("x.hccmf")
            .try_build()
            .is_err());
        // Valid combinations pass.
        assert!(HccConfig::builder()
            .fault_tolerance(crate::supervisor::SupervisorConfig::default())
            .fault_plan(FaultPlan::new(1).with(0, 2, Fault::Crash))
            .checkpoint("x.hccmf", 2)
            .try_build()
            .is_ok());
    }

    #[test]
    fn validation_checks_the_fault_plan_against_the_fleet() {
        use hcc_comm::{Fault, FaultPlan};
        // The default fleet is two workers.
        let supervised = |plan: FaultPlan| {
            HccConfig::builder()
                .fault_tolerance(crate::supervisor::SupervisorConfig::default())
                .fault_plan(plan)
                .try_build()
        };
        let bad_config = |plan: FaultPlan, needle: &str| match supervised(plan) {
            Err(HccError::BadConfig(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected BadConfig naming {needle:?}, got {other:?}"),
        };
        // A rate that is not a probability.
        let mut plan = FaultPlan::from_seed(1);
        plan.drop_rate = 7.0;
        bad_config(plan, "drop_rate");
        let mut plan = FaultPlan::from_seed(1);
        plan.duplicate_rate = f64::NAN;
        bad_config(plan, "duplicate_rate");
        // An event for a worker the fleet does not have.
        bad_config(FaultPlan::new(1).with(99, 3, Fault::Crash), "worker 99");
        // Nobody left to train.
        bad_config(
            FaultPlan::new(1)
                .with(0, 1, Fault::Crash)
                .with(1, 2, Fault::Partition),
            "every one of the 2 workers",
        );
        assert!(supervised(FaultPlan::from_seed(1).with(1, 2, Fault::Partition)).is_ok());
    }

    #[test]
    fn validation_gates_sharded_server_combinations() {
        // QOnly/HalfQ shard fine, over any transport kind.
        for t in [
            TransportKind::Shared,
            TransportKind::Socket,
            TransportKind::Tcp,
        ] {
            assert!(HccConfig::builder()
                .server_shards(4)
                .transport(t)
                .try_build()
                .is_ok());
        }
    }

    #[test]
    fn worker_spec_helpers() {
        let w = WorkerSpec::gpu_sim(16).throttled(0.5).named("fake-2080");
        assert!(w.is_gpu);
        assert_eq!(w.threads, 16);
        assert_eq!(w.speed_factor, 0.5);
        assert_eq!(w.name, "fake-2080");
        assert!(!WorkerSpec::cpu(4).is_gpu);
    }
}
