//! CuMF_SGD (Xie et al., HPDC 2017), structurally simulated on the CPU.
//!
//! The real CuMF_SGD launches tens of thousands of GPU threads; each *warp*
//! repeatedly grabs a batch of ratings from a global work queue and applies
//! vectorized SGD updates, relying on Hogwild-style tolerance for the rare
//! conflicting rows. We cannot run CUDA kernels from stable Rust on this
//! machine (see DESIGN.md), so this module mimics the kernel's *structure*:
//!
//! * entries are pre-sorted in row blocks (the paper's footnote-1
//!   modification iii, which it adds to CuMF_SGD's `grid_problem` for cache
//!   hit rate) — controlled by [`CumfSgdSim::sort_by_row`];
//! * a global atomic cursor hands out fixed-size batches (the warp work
//!   queue);
//! * worker threads play the role of SMs, applying the k-wide update loop
//!   that the GPU does with warp shuffles.
//!
//! At *paper scale* the throughput of the real GPU is taken from the
//! `hcc-hetsim` processor profiles; this module is what runs when real
//! convergence numbers are needed.

use crate::report::{TrainConfig, TrainReport};
use hcc_sgd::kernel::sgd_step_shared;
use hcc_sgd::{rmse, FactorMatrix, SharedFactors};
use hcc_sparse::CooMatrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// CuMF_SGD structural simulator.
#[derive(Debug, Clone)]
pub struct CumfSgdSim {
    /// Ratings per work-queue batch (a warp's grab). CuMF_SGD uses small
    /// per-warp batches; 128 amortizes the atomic fetch without hurting
    /// the Hogwild mixing.
    pub batch_size: usize,
    /// Apply the block-sort-by-row preprocessing (the paper's cache
    /// optimization; benchmarked by the ablation bench).
    pub sort_by_row: bool,
}

impl Default for CumfSgdSim {
    fn default() -> Self {
        CumfSgdSim {
            batch_size: 128,
            sort_by_row: true,
        }
    }
}

impl CumfSgdSim {
    /// Trains on `matrix` with the batched work-queue sweep.
    ///
    /// Like the original CuMF_SGD, ratings are normalized before training
    /// (here to a ≤ 5-point scale) and the learned `Q` is rescaled on the
    /// way out. The row-sorted sweep makes same-row updates consecutive;
    /// without normalization a 100-point scale compounds those correlated
    /// steps into divergence (empirically reproducible on Yahoo-R1-shaped
    /// data at the paper's γ = 0.005).
    pub fn train(&self, matrix: &CooMatrix, config: &TrainConfig) -> TrainReport {
        assert!(self.batch_size > 0, "batch size must be non-zero");
        let threads = config.effective_threads();

        let scale = matrix
            .rating_range()
            .map(|(lo, hi)| (hi.abs().max(lo.abs()) / 5.0).max(1.0))
            .unwrap_or(1.0);
        let mut entries: Vec<_> = if self.sort_by_row {
            let mut m = matrix.clone();
            m.sort_by_row();
            m.into_entries()
        } else {
            matrix.entries().to_vec()
        };
        if scale != 1.0 {
            for e in &mut entries {
                e.r /= scale;
            }
        }
        // Substituting r = s·r', p = √s·p', q = √s·q' into the loss shows
        // the equivalent normalized-problem regularizer is λ/s; the learning
        // rate is boosted by √s to keep per-epoch progress comparable while
        // retaining a √s stability margin over the raw-scale dynamics.
        let lambda_p = config.lambda_p / scale;
        let lambda_q = config.lambda_q / scale;
        let lr_boost = scale.sqrt();

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
        let batches = entries.len().div_ceil(self.batch_size);

        for epoch in 0..config.epochs {
            let lr = config.learning_rate.at(epoch) * lr_boost;
            let cursor = AtomicUsize::new(0);
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let p = p.view();
                    let q = q.view();
                    let cursor = &cursor;
                    let entries = &entries;
                    scope.spawn(move || loop {
                        // ordering: Relaxed — batch-claim cursor; the RMW's
                        // atomicity alone assigns each batch uniquely, and
                        // batch data is immutable during the epoch.
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= batches {
                            break;
                        }
                        let lo = b * self.batch_size;
                        let hi = (lo + self.batch_size).min(entries.len());
                        for e in &entries[lo..hi] {
                            sgd_step_shared(
                                &p,
                                &q,
                                e.u as usize,
                                e.i as usize,
                                e.r,
                                lr,
                                lambda_p,
                                lambda_q,
                            );
                        }
                    });
                }
            });
            epoch_times.push(start.elapsed());
            if config.track_rmse {
                rmse_history.push(rmse(
                    matrix.entries(),
                    &p.snapshot(),
                    &rescaled(&q.snapshot(), scale),
                ));
            }
        }

        TrainReport {
            p: p.snapshot(),
            q: rescaled(&q.snapshot(), scale),
            rmse_history,
            epoch_times,
            total_updates: matrix.nnz() as u64 * config.epochs as u64,
        }
    }
}

/// Multiplies a factor matrix by `scale` (undoing the rating normalization
/// on the `Q` side so `P·Q` predicts original-scale ratings).
fn rescaled(m: &FactorMatrix, scale: f32) -> FactorMatrix {
    if scale == 1.0 {
        return m.clone();
    }
    let mut out = m.clone();
    for v in out.as_mut_slice() {
        *v *= scale;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_sgd::LearningRate;
    use hcc_sparse::{GenConfig, SyntheticDataset};

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
    fn cumf_sim_converges() {
        let ds = dataset();
        let cfg = TrainConfig {
            k: 8,
            epochs: 25,
            threads: 4,
            learning_rate: LearningRate::Constant(0.02),
            track_rmse: true,
            ..Default::default()
        };
        let report = CumfSgdSim::default().train(&ds.matrix, &cfg);
        let hist = &report.rmse_history;
        assert!(
            hist.last().unwrap() < &(hist[0] * 0.35),
            "no convergence: {:?} -> {:?}",
            hist.first(),
            hist.last()
        );
    }

    #[test]
    fn unsorted_variant_converges_too() {
        let ds = dataset();
        let cfg = TrainConfig {
            k: 8,
            epochs: 15,
            threads: 2,
            learning_rate: LearningRate::Constant(0.02),
            track_rmse: true,
            ..Default::default()
        };
        let solver = CumfSgdSim {
            sort_by_row: false,
            ..Default::default()
        };
        let report = solver.train(&ds.matrix, &cfg);
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
    }

    #[test]
    fn batch_size_one_and_huge_both_work() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 30,
            cols: 30,
            nnz: 300,
            ..GenConfig::default()
        });
        let cfg = TrainConfig {
            k: 4,
            epochs: 2,
            threads: 2,
            ..Default::default()
        };
        for batch_size in [1usize, 1_000_000] {
            let solver = CumfSgdSim {
                batch_size,
                sort_by_row: true,
            };
            let report = solver.train(&ds.matrix, &cfg);
            assert_eq!(report.total_updates, 300 * 2);
        }
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 5,
            cols: 5,
            nnz: 10,
            ..GenConfig::default()
        });
        let solver = CumfSgdSim {
            batch_size: 0,
            sort_by_row: false,
        };
        solver.train(&ds.matrix, &TrainConfig::default());
    }
}
