//! Sparse rating-matrix substrate for HCC-MF.
//!
//! This crate provides the data structures that every other layer of the
//! reproduction is built on:
//!
//! * [`CooMatrix`] — the rating matrix `R` in coordinate form, the working
//!   representation for SGD-based matrix factorization (one `(user, item,
//!   rating)` triple per observed entry).
//! * [`CsrMatrix`] — compressed sparse row form, used where per-row access is
//!   needed (grid construction, per-row statistics, test-set evaluation).
//! * [`grid`] — the row/column grids the HCC-MF server uses to partition data
//!   among workers (§3.3 of the paper).
//! * [`gen`] — synthetic dataset generators (planted low-rank model with
//!   Zipf-skewed user/item popularity), replacing the license-gated Netflix
//!   and Yahoo! Music datasets.
//! * [`profiles`] — named shape profiles (`m`, `n`, `nnz`, rating scale,
//!   regularization) of the five datasets used in the paper's evaluation.
//! * [`split`] — deterministic train/test splitting.
//! * [`io`] — plain-text triple I/O compatible with the common
//!   `user item rating` format.
//! * [`tile`] — regrouping a shard into `u_block × i_block` tiles: L2-sized
//!   for the locality-aware Hogwild scheduler, or an explicit block grid for
//!   FPSGD and DSGD.

//!
//! ```
//! use hcc_sparse::{GenConfig, SyntheticDataset, MatrixStats};
//!
//! let ds = SyntheticDataset::generate(GenConfig {
//!     rows: 100, cols: 50, nnz: 1_000, ..GenConfig::default()
//! });
//! let stats = MatrixStats::compute(&ds.matrix);
//! assert_eq!(stats.nnz, 1_000);
//! assert!(stats.row_gini > 0.0); // Zipf-skewed popularity
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod coo;
pub mod csr;
pub mod error;
pub mod gen;
pub mod grid;
pub mod io;
pub mod profiles;
pub mod split;
pub mod stats;
pub mod tile;

pub use coo::{CooMatrix, Rating};
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use gen::{GenConfig, SyntheticDataset};
pub use grid::{Axis, GridPartition};
pub use profiles::DatasetProfile;
pub use split::train_test_split;
pub use stats::MatrixStats;
pub use tile::TileGrid;
