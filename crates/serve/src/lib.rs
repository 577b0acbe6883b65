//! # hcc-serve — sharded online serving for trained HCC-MF factors
//!
//! Training (the paper's subject) produces the factor matrices `P`, `Q` of
//! `R ≈ P·Q`; this crate is the downstream half the paper motivates in
//! §2.1: answering *"which items should user `u` see next?"* at production
//! rates from those factors. The design mirrors the training side's
//! structure on purpose:
//!
//! * **Item-sharded factor store** ([`ServedModel`]) — `Q` is split into
//!   contiguous item shards planned with the same `hcc_partition` /
//!   `GridPartition` machinery that shards the rating matrix for training,
//!   so a batch query fans out across shards exactly like an epoch fans
//!   out across workers.
//! * **SIMD scoring with a bounded heap** — per-shard scans use the
//!   runtime-dispatched dot kernel from `hcc_sgd::simd` and keep only the
//!   top `k` candidates in a size-`k` heap (`O(items · log k)` per query,
//!   not the `O(items · log items)` full sort of the oracle).
//! * **Hot model reload** ([`ServeEngine::reload`]) — the live model is an
//!   `Arc` snapshot behind a lock held only for the pointer swap; queries
//!   in flight finish on the model they started with, new queries see the
//!   new model, and a failed checkpoint load never swaps at all.
//! * **Online fold-in** ([`ServeEngine::fold_in`]) — an unseen user's `P`
//!   row is trained on the spot with a few SGD passes against the frozen
//!   `Q`, reusing `hcc_sgd::kernel::sgd_step`.
//! * **Precision tiers** ([`Precision`]) — shards store `Q` at `f32`,
//!   `fp16` (F16C codec from `hcc_sgd::fp16`), or `int8` with one scale
//!   per shard, halving or quartering scan bandwidth; every tier is held
//!   to the rank-equivalence oracle under a score tolerance.
//! * **MIPS norm pruning** — pruned shards order items by descending
//!   stored norm with per-block norm maxima, so a full heap ends the scan
//!   at the first block whose Cauchy–Schwarz bound `‖p_u‖·‖q_i‖` cannot
//!   beat the heap floor. Exact, not approximate (see `engine` docs).
//! * **Bounded async admission** ([`AdmissionPipeline`]) — a bounded
//!   queue feeds micro-batches to persistent per-shard scan workers;
//!   overload sheds at the door with [`ServeError::Overloaded`] instead
//!   of letting queue wait destroy tail latency.
//!
//! Correctness is anchored by a differential oracle: the sharded + SIMD +
//! heap pipeline must be rank-identical (score-tie tolerant) to
//! [`oracle::naive_top_k`], the straightforward scalar full scan. The
//! proptest suite in `tests/serving.rs` (of the `hcc-mf` package) holds
//! the two paths together.
//!
//! ```
//! use hcc_serve::{ServeEngine, ServedModel};
//! use hcc_sgd::FactorMatrix;
//!
//! let p = FactorMatrix::random(100, 16, 1);
//! let q = FactorMatrix::random(500, 16, 2);
//! let model = ServedModel::build(p, q, None, 4).unwrap();
//! let engine = ServeEngine::new(model);
//! let top = engine.top_k(7, 5).unwrap();
//! assert_eq!(top.len(), 5);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod admission;
pub mod engine;
pub mod error;
pub mod foldin;
pub mod model;
pub mod oracle;
pub mod precision;
mod topk;

pub use admission::{AdmissionConfig, AdmissionPipeline, AdmissionStats, Ticket};
pub use engine::{ServeEngine, ServeStats};
pub use error::ServeError;
pub use foldin::FoldInConfig;
pub use model::ServedModel;
pub use oracle::naive_top_k;
pub use precision::Precision;
