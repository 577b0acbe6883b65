//! The five workloads. Names are final: later issues cite them.
//!
//! Every workload is the same lifecycle — generate → train → save →
//! load/build → closed-loop serve → batch serve → open-loop nominal →
//! open-loop overload — because the runner must print every metric on
//! every workload. What differs is which phase the shapes and settings make
//! expensive; `BENCHMARK.json` says which in a line, and `README.md` has the
//! interaction table.

use hcc_mf::{PartitionMode, TransferStrategy, TransportKind, WorkerSpec};
use hcc_serve::Precision;

/// Latent dimension of every workload.
pub const K: usize = 64;
/// Answers per query.
pub const TOP_K: usize = 10;
/// Users per `top_k_batch` call.
pub const BATCH: usize = 256;
/// `AdmissionConfig::max_batch` of every pipeline.
pub const MAX_BATCH: usize = 64;
/// Rounds per run. A round is one whole lifecycle — train → save →
/// load/build → first answer → closed, batch, nominal and overload serving —
/// so every metric's samples are spread over the whole run. Interference on
/// the sizing box drifts over seconds (a 4 MiB pointer chase wanders
/// 74–140 ms inside 20 s); a phase measured in one contiguous block sees
/// one level of it, a phase measured in five blocks sees the range.
pub const ROUNDS: usize = 6;
/// Users checked against `naive_top_k` per run.
pub const ORACLE_USERS: usize = 100;

/// The two worker fleets in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// `[cpu(1), cpu(1)]`: two identical one-thread workers.
    Twin,
    /// `[cpu(1), gpu_sim(1).throttled(0.5)]`: a deterministic 2:1 speed ratio.
    Hetero,
}

impl Fleet {
    pub fn specs(self) -> Vec<WorkerSpec> {
        match self {
            Fleet::Twin => vec![WorkerSpec::cpu(1), WorkerSpec::cpu(1)],
            Fleet::Hetero => vec![WorkerSpec::cpu(1), WorkerSpec::gpu_sim(1).throttled(0.5)],
        }
    }
}

/// One row of the workload table.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    // ---- data ----
    pub rows: u32,
    pub cols: u32,
    pub nnz: usize,
    // ---- train ----
    pub epochs: usize,
    pub fleet: Fleet,
    pub partition: PartitionMode,
    pub strategy: TransferStrategy,
    pub transport: TransportKind,
    pub server_shards: usize,
    pub checkpoint_every: Option<usize>,
    /// `time_to_rmse_s` target: the seed code's tracked RMSE about 60 % of
    /// the way through the epochs, +1 %. Every round must reach it.
    pub rmse_target: f64,
    // ---- serve ----
    pub precision: Precision,
    pub serve_shards: usize,
    /// `false` builds the exhaustive-scan model (`ServedModel::build_with`
    /// with `prune = false`), so `scan_frac` is 1 by construction.
    pub pruned: bool,
    /// `reload_from_checkpoint` calls issued beside the closed-loop reads of
    /// each round.
    pub reloads: usize,
    /// `AdmissionConfig::capacity`, sized from both sides. A full queue plus
    /// the three micro-batches in flight must drain well inside `limit_us`,
    /// or every admitted query of an overloaded phase misses the limit and
    /// goodput reads 0. And it must hold what the generator sends in one go
    /// after a host freeze (a quarter to half a second of arrivals at the
    /// nominal rate — freezes of 0.1–0.3 s happen on the sizing box), or
    /// the benchmark's own catch-up burst is shed and counted as failures.
    pub admission_capacity: usize,
    pub nominal_qps: f64,
    pub limit_us: f64,
    /// Poisson rate of the overload phase. Only `serve_open_scan` can truly
    /// be overloaded: a pruned query costs ~2 µs, so the pipeline outruns
    /// any generator that does not spin, and a spinning one (four busy
    /// threads on two cores) made goodput read 60 k or 216 k q/s on
    /// identical runs. The other workloads offer three times their nominal
    /// rate, where goodput is a guard rail rather than a capacity.
    pub overload_qps: f64,
    pub shares: Shares,
}

/// Shares of `--seconds` given to the timed serve phases (split evenly over
/// the rounds); training takes what is left at the seed commit on the
/// sizing box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    pub closed: f64,
    pub batch: f64,
    pub nominal: f64,
    pub overload: f64,
}

const TRAIN_HEAVY: Shares = Shares {
    closed: 0.08,
    batch: 0.05,
    nominal: 0.20,
    overload: 0.08,
};
const BALANCED: Shares = Shares {
    closed: 0.15,
    batch: 0.08,
    nominal: 0.25,
    overload: 0.10,
};
const SERVE_HEAVY: Shares = Shares {
    closed: 0.08,
    batch: 0.05,
    nominal: 0.40,
    overload: 0.15,
};

/// The workload table.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "train_dense_shared",
            rows: 50_000,
            cols: 800,
            nnz: 640_000,
            epochs: 12,
            fleet: Fleet::Twin,
            partition: PartitionMode::Uniform,
            strategy: TransferStrategy::QOnly,
            transport: TransportKind::Shared,
            server_shards: 1,
            checkpoint_every: None,
            rmse_target: 0.40,
            precision: Precision::F32,
            serve_shards: 1,
            pruned: true,
            reloads: 0,
            admission_capacity: 4096,
            nominal_qps: 8_000.0,
            limit_us: 20_000.0,
            overload_qps: 24_000.0,
            shares: TRAIN_HEAVY,
        },
        Workload {
            name: "train_sparse_tcp_sharded",
            rows: 16_000,
            cols: 16_000,
            nnz: 480_000,
            epochs: 6,
            fleet: Fleet::Twin,
            partition: PartitionMode::Uniform,
            strategy: TransferStrategy::QOnly,
            transport: TransportKind::Tcp,
            server_shards: 2,
            checkpoint_every: None,
            rmse_target: 1.40,
            precision: Precision::F32,
            serve_shards: 1,
            pruned: true,
            reloads: 0,
            admission_capacity: 4096,
            nominal_qps: 8_000.0,
            limit_us: 20_000.0,
            overload_qps: 24_000.0,
            shares: TRAIN_HEAVY,
        },
        Workload {
            name: "lifecycle_hetero_socket",
            rows: 20_000,
            cols: 10_000,
            nnz: 500_000,
            epochs: 8,
            fleet: Fleet::Hetero,
            partition: PartitionMode::Auto,
            strategy: TransferStrategy::HalfQ,
            transport: TransportKind::Socket,
            server_shards: 1,
            checkpoint_every: Some(4),
            rmse_target: 0.85,
            precision: Precision::Int8,
            serve_shards: 2,
            pruned: true,
            reloads: 1,
            admission_capacity: 4096,
            nominal_qps: 8_000.0,
            limit_us: 20_000.0,
            overload_qps: 24_000.0,
            shares: BALANCED,
        },
        Workload {
            name: "serve_open_scan",
            rows: 8_192,
            cols: 16_384,
            nnz: 600_000,
            epochs: 8,
            fleet: Fleet::Twin,
            partition: PartitionMode::Uniform,
            strategy: TransferStrategy::QOnly,
            transport: TransportKind::Shared,
            server_shards: 1,
            checkpoint_every: None,
            rmse_target: 0.90,
            precision: Precision::F32,
            serve_shards: 1,
            pruned: false,
            reloads: 0,
            admission_capacity: 256,
            nominal_qps: 1_000.0,
            limit_us: 250_000.0,
            overload_qps: 6_000.0,
            shares: SERVE_HEAVY,
        },
        Workload {
            name: "serve_open_pruned",
            rows: 8_192,
            cols: 65_536,
            nnz: 500_000,
            epochs: 10,
            fleet: Fleet::Twin,
            partition: PartitionMode::Uniform,
            strategy: TransferStrategy::QOnly,
            transport: TransportKind::Shared,
            server_shards: 1,
            checkpoint_every: None,
            rmse_target: 1.17,
            precision: Precision::Int8,
            serve_shards: 1,
            pruned: true,
            reloads: 0,
            admission_capacity: 4096,
            nominal_qps: 8_000.0,
            limit_us: 20_000.0,
            overload_qps: 24_000.0,
            shares: SERVE_HEAVY,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--smoke` variant: same settings and code paths on shapes about a
    /// twentieth of the size, for the schema test. Its numbers mean nothing.
    pub fn smoke(mut self) -> Workload {
        self.rows = (self.rows / 16).max(256);
        self.cols = (self.cols / 16).max(256);
        self.nnz = (self.nnz / 32).max(4_000);
        self.epochs = self.epochs.min(8);
        // The full shapes' target is out of reach of a twentieth of the data.
        self.rmse_target = 10.0;
        self.nominal_qps = self.nominal_qps.min(2_000.0);
        self.overload_qps = self.overload_qps.min(4_000.0);
        self
    }
}
