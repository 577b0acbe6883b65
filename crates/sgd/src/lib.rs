//! SGD kernels and numeric substrate for HCC-MF.
//!
//! This crate holds everything that touches feature-matrix numbers:
//!
//! * [`FactorMatrix`] — plain row-major `rows × k` factor storage, and
//!   [`SharedFactors`] — the same data owned as relaxed atomics so
//!   Hogwild-style asynchronous SGD (Niu et al., the paper's convergence
//!   basis) can update it from many threads without locks.
//! * [`shared`] — [`SharedRows`], the borrow that lends plain factor rows to
//!   Hogwild threads as atomic cells where they are; the kernels take it.
//! * [`kernel`] — the single-rating SGD update rule with L2 regularization,
//!   exactly the loss in Fig. 1 of the paper.
//! * [`hogwild`] — the one Hogwild driver: multi-threaded asynchronous
//!   sweeps over an entry shard, striped or tiled, under one
//!   [`HogwildConfig`]; the compute engine inside every CPU worker and
//!   under every comparator.
//! * [`loss`] — RMSE evaluation.
//! * [`schedule`] — learning-rate schedules (the paper uses a constant γ).
//! * [`fp16`] — IEEE-754 binary16 conversion implemented from scratch, used
//!   by the "Transmitting FP16 Data" communication strategy.
//! * [`int8`] — symmetric per-shard int8 quantization for the serving tier
//!   (`hcc-serve` stores item factors at reduced precision).
//! * [`baselines`] — the paper's comparators (FPSGD, CuMF_SGD, DSGD, NOMAD,
//!   serial SGD), each a deal over the Hogwild driver under one epoch loop.
//! * [`simd`] — runtime-dispatched SIMD kernels (AVX2+FMA fused SGD step,
//!   F16C half-precision codec) with portable scalar fallbacks.
//! * [`mem`] — the placement rule for model-sized buffers: each is an
//!   anonymous mapping of its own, so it leaves the process when dropped.

//!
//! ```
//! use hcc_sgd::{hogwild_epoch, FactorMatrix, HogwildConfig, SharedFactors, rmse};
//! use hcc_sparse::{GenConfig, SyntheticDataset};
//!
//! let ds = SyntheticDataset::generate(GenConfig {
//!     rows: 50, cols: 30, nnz: 500, noise: 0.0, ..GenConfig::default()
//! });
//! let p = SharedFactors::from_matrix(&FactorMatrix::random(50, 8, 1));
//! let q = SharedFactors::from_matrix(&FactorMatrix::random(30, 8, 2));
//! let cfg = HogwildConfig { learning_rate: 0.02, ..HogwildConfig::with_threads(2, 0.01) };
//! let before = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
//! for _ in 0..10 { hogwild_epoch(ds.matrix.entries(), &p, &q, &cfg); }
//! assert!(rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot()) < before);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod baselines;
pub mod factors;
pub mod fp16;
pub mod hogwild;
pub mod int8;
pub mod kernel;
pub mod loss;
pub mod mem;
pub mod schedule;
pub mod shared;
pub mod simd;

pub use factors::{FactorMatrix, SharedFactors};
pub use hogwild::{hogwild_epoch, HogwildConfig, Schedule};
pub use kernel::sgd_step;
pub use loss::{rmse, rmse_parallel};
pub use schedule::LearningRate;
pub use shared::SharedRows;
pub use simd::dot;
