//! DSGD (Gemulla et al., KDD 2011) — distributed stratified SGD, the
//! MapReduce-era ancestor the paper's related work (§5) positions HCC-MF
//! against.
//!
//! The rating matrix is cut into a `d × d` block grid. A *stratum* is a set
//! of `d` blocks no two of which share a block-row or block-column (a
//! permutation of the diagonal), so the blocks of one stratum touch
//! disjoint `P` and `Q` rows and can be trained fully in parallel with no
//! synchronization. One epoch sweeps `d` strata (every block exactly once),
//! with a barrier between strata — that barrier is precisely the
//! synchronization overhead HCC-MF's asynchronous workers avoid, and the
//! equal-size strata are the "equal division" load-balance weakness §5
//! calls out on heterogeneous hardware.

use crate::report::{TrainConfig, TrainReport};
use hcc_sgd::kernel::sgd_step_shared;
use hcc_sgd::{rmse, FactorMatrix, SharedFactors};
use hcc_sparse::{BlockGrid, CooMatrix};
use std::time::Instant;

/// DSGD solver.
#[derive(Debug, Clone, Default)]
pub struct Dsgd {
    /// Grid side `d`; 0 means "use the worker (thread) count".
    pub grid_side: usize,
}

impl Dsgd {
    /// Trains on `matrix` with stratified parallel sub-epochs.
    pub fn train(&self, matrix: &CooMatrix, config: &TrainConfig) -> TrainReport {
        let threads = config.effective_threads();
        let d = if self.grid_side > 0 {
            self.grid_side
        } else {
            threads.max(2)
        };
        let grid = BlockGrid::build(matrix, d, d);

        let p = SharedFactors::from_matrix(&FactorMatrix::random(
            matrix.rows() as usize,
            config.k,
            config.seed,
        ));
        let q = SharedFactors::from_matrix(&FactorMatrix::random(
            matrix.cols() as usize,
            config.k,
            config.seed ^ 0x9e37,
        ));

        let mut rmse_history = Vec::new();
        let mut epoch_times = Vec::new();

        for epoch in 0..config.epochs {
            let lr = config.learning_rate.at(epoch);
            let start = Instant::now();
            // Stratum s contains blocks (r, (r + s) mod d) for r in 0..d —
            // the canonical diagonal rotation.
            for s in 0..d {
                std::thread::scope(|scope| {
                    for r in 0..d {
                        let c = (r + s) % d;
                        let block = grid.block(r, c);
                        if block.is_empty() {
                            continue;
                        }
                        let p = p.view();
                        let q = q.view();
                        scope.spawn(move || {
                            for e in block {
                                sgd_step_shared(
                                    &p,
                                    &q,
                                    e.u as usize,
                                    e.i as usize,
                                    e.r,
                                    lr,
                                    config.lambda_p,
                                    config.lambda_q,
                                );
                            }
                        });
                    }
                }); // <- the inter-stratum barrier DSGD pays d times per epoch
            }
            epoch_times.push(start.elapsed());
            if config.track_rmse {
                rmse_history.push(rmse(matrix.entries(), &p.snapshot(), &q.snapshot()));
            }
        }

        TrainReport {
            p: p.snapshot(),
            q: q.snapshot(),
            rmse_history,
            epoch_times,
            total_updates: matrix.nnz() as u64 * config.epochs as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_sgd::LearningRate;
    use hcc_sparse::{GenConfig, Rating, SyntheticDataset};

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::generate(GenConfig {
            rows: 200,
            cols: 120,
            nnz: 6_000,
            noise: 0.0,
            ..GenConfig::default()
        })
    }

    #[test]
    fn dsgd_converges() {
        let ds = dataset();
        let cfg = TrainConfig {
            k: 8,
            epochs: 25,
            threads: 4,
            learning_rate: LearningRate::Constant(0.02),
            track_rmse: true,
            ..Default::default()
        };
        let report = Dsgd::default().train(&ds.matrix, &cfg);
        let hist = &report.rmse_history;
        assert!(
            hist.last().unwrap() < &(hist[0] * 0.35),
            "no convergence: {:?} -> {:?}",
            hist.first(),
            hist.last()
        );
    }

    #[test]
    fn explicit_grid_side_works() {
        let ds = dataset();
        let cfg = TrainConfig {
            k: 4,
            epochs: 3,
            threads: 2,
            ..Default::default()
        };
        for side in [2usize, 3, 7] {
            let report = Dsgd { grid_side: side }.train(&ds.matrix, &cfg);
            assert_eq!(report.epoch_times.len(), 3);
            assert!(report.p.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn strata_cover_every_block_once() {
        // Structural check of the rotation schedule: over s in 0..d, each
        // (r, c) pair appears exactly once.
        let d = 5;
        let mut seen = vec![false; d * d];
        for s in 0..d {
            for r in 0..d {
                let c = (r + s) % d;
                assert!(!seen[r * d + c], "block ({r},{c}) scheduled twice");
                seen[r * d + c] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn single_entry_matrix() {
        let m = CooMatrix::new(4, 4, vec![Rating::new(1, 2, 3.0)]).unwrap();
        let cfg = TrainConfig {
            k: 2,
            epochs: 2,
            threads: 2,
            ..Default::default()
        };
        let report = Dsgd::default().train(&m, &cfg);
        assert_eq!(report.total_updates, 2);
    }
}
