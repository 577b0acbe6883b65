//! # HCC-MF — heterogeneous collaborative computing for SGD-based MF
//!
//! A Rust reproduction of *"A Novel Multi-CPU/GPU Collaborative Computing
//! Framework for SGD-based Matrix Factorization"* (ICPP 2021). HCC-MF
//! trains the factor matrices `P`, `Q` of `R ≈ P·Q` with data-parallel
//! asynchronous SGD across heterogeneous workers coordinated by a parameter
//! server:
//!
//! ```text
//! pull → compute → push → sync      (repeated per epoch, Fig. 4)
//! ```
//!
//! * The **server** owns the global factor matrices, partitions the rating
//!   matrix into a row (or column) grid, and deals `Q`'s rows into one
//!   seeded band a worker. An epoch is one round a worker: in round `r`
//!   worker `w` trains band `(w + r) mod p`, so no two workers ever hold
//!   the same `Q` row and the server installs each push as it is (no WAW
//!   race between workers, nothing to merge).
//! * Each **worker** is a thread pool (standing in for a CPU socket or — on
//!   this GPU-less substrate — a simulated GPU; see `hcc-hetsim` for the
//!   virtual-platform variant) running Hogwild SGD over its shard.
//! * **Data partition** follows the paper's DP0 → DP1 (Algorithm 1
//!   load-balance compensation) → DP2 (hidden synchronization) pipeline,
//!   driven by real measurements during the first epochs.
//! * **Communication** goes through the COMM layer (`hcc-comm`): shared
//!   single-copy buffers, "Transmit Q only" and FP16 compression, over one
//!   link to the server and one peer link a worker. The asynchronous
//!   multi-stream pipeline of Strategy 3 needs a copy engine beside the
//!   kernel, which no worker here has; `hcc-hetsim` prices it.
//!
//! ## Quickstart
//!
//! ```
//! use hcc_mf::{HccConfig, HccMf, WorkerSpec};
//! use hcc_sparse::{GenConfig, SyntheticDataset};
//!
//! let ds = SyntheticDataset::generate(GenConfig {
//!     rows: 300, cols: 200, nnz: 8_000, ..GenConfig::default()
//! });
//! let config = HccConfig::builder()
//!     .k(16)
//!     .epochs(5)
//!     .workers(vec![WorkerSpec::cpu(2), WorkerSpec::cpu(2)])
//!     .track_rmse(true)
//!     .build();
//! let report = HccMf::new(config).train(&ds.matrix).unwrap();
//! assert_eq!(report.rmse_history.len(), 5);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod baseline;
pub mod checkpoint;
pub mod cli;
pub mod config;
pub mod error;
pub mod metrics;
pub mod observe;
pub mod report;
pub mod server;
pub mod serving;
pub mod supervisor;
pub mod train;
pub mod worker;

pub use baseline::{BaselinePredictor, BiasedRecommender};
pub use checkpoint::{
    load_checkpoint, load_model, save_checkpoint, save_model, ResumeState, TrainingMeta,
};
pub use config::{EarlyStop, HccConfig, HccConfigBuilder, TransportKind, WorkerSpec};
pub use error::HccError;
pub use metrics::{evaluate_ranking, RankingMetrics};
pub use report::{HccReport, WorkerEpochStats};
pub use server::{DeltaStats, ShardedServer};
pub use serving::{
    load_served_model, load_served_model_with, reload_from_checkpoint, reload_with_backoff,
};
pub use supervisor::{Supervisor, SupervisorConfig, WorkerHealth};
pub use train::HccMf;

// Re-export the pieces users compose with.
pub use hcc_comm::TransferStrategy;
pub use hcc_partition::{PartitionMode, StrategyChoice};
pub use hcc_serve::{FoldInConfig, ServeEngine, ServeError, ServeStats, ServedModel};
pub use hcc_sgd::{FactorMatrix, LearningRate};
pub use hcc_telemetry::{Telemetry, Timeline};
