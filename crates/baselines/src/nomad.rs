//! NOMAD (Yun et al., VLDB 2014) — the non-locking, asynchronous,
//! decentralized MF solver from the paper's related work (§5).
//!
//! Ownership-passing instead of a parameter server: workers own disjoint
//! *row* blocks of `P` permanently, while the columns of `Q` circulate —
//! whichever worker currently holds item `i`'s column has exclusive rights
//! to it, processes all of its local ratings for that item, then passes the
//! column to another worker's queue. No locks, no global sync; but, as the
//! paper notes, the entire training state of `Q` travels continuously
//! (large communication volume), and a skewed rating distribution lets hot
//! columns starve — both reasons HCC-MF centralizes `Q` instead.
//!
//! Column ownership makes `Q` access exclusive by construction; `P` rows
//! are worker-exclusive by the row partition, so the factor updates are
//! genuinely race-free (the shared-atomic storage is used only as plumbing).

use crate::report::{TrainConfig, TrainReport};
use hcc_sgd::kernel::sgd_step_shared;
use hcc_sgd::{rmse, FactorMatrix, SharedFactors};
use hcc_sparse::{CooMatrix, GridPartition};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::time::Instant;

/// NOMAD solver.
#[derive(Debug, Clone, Default)]
pub struct Nomad;

/// A circulating token: ownership of one `Q` column.
struct ColumnToken {
    item: u32,
    /// How many workers have processed this column in the current epoch.
    hops: usize,
}

impl Nomad {
    /// Trains on `matrix`. `config.threads` is the worker count (each an OS
    /// thread owning a row block).
    pub fn train(&self, matrix: &CooMatrix, config: &TrainConfig) -> TrainReport {
        let workers = config.effective_threads().max(1);
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

        // Row partition of P ownership; per worker, entries indexed by item
        // so a column token can be served in O(column entries).
        let grid = GridPartition::build_uniform(matrix, hcc_sparse::Axis::Row, workers);
        let per_worker_by_item: Vec<Vec<Vec<hcc_sparse::Rating>>> = (0..workers)
            .map(|w| {
                let mut by_item: Vec<Vec<hcc_sparse::Rating>> =
                    vec![Vec::new(); matrix.cols() as usize];
                for &e in grid.shard(w) {
                    by_item[e.i as usize].push(e);
                }
                by_item
            })
            .collect();

        let mut rmse_history = Vec::new();
        let mut epoch_times = Vec::new();

        for epoch in 0..config.epochs {
            let lr = config.learning_rate.at(epoch);
            let start = Instant::now();

            // Fresh queues per epoch; columns start at their diagonal-ish
            // home worker (the paper's NOMAD critique notes this diagonal
            // start is no protection when the distribution is skewed).
            let (senders, receivers): (Vec<_>, Vec<_>) =
                (0..workers).map(|_| channel::<ColumnToken>()).unzip();
            for i in 0..matrix.cols() {
                let home = (i as usize) % workers;
                senders[home]
                    .send(ColumnToken { item: i, hops: 0 })
                    .expect("queue open");
            }
            // Each column must visit every worker exactly once per epoch.
            let remaining = AtomicUsize::new(matrix.cols() as usize);

            std::thread::scope(|scope| {
                for (w, rx) in receivers.into_iter().enumerate() {
                    let p = p.view();
                    let q = q.view();
                    let by_item = &per_worker_by_item[w];
                    let senders = senders.clone();
                    let remaining = &remaining;
                    scope.spawn(move || {
                        // ordering: Acquire — pairs with the AcqRel
                        // fetch_sub below so a worker that observes the
                        // epoch finished also observes every column's
                        // final hop (termination, not data, is the point:
                        // factor cells are independently Relaxed-atomic).
                        while remaining.load(Ordering::Acquire) > 0 {
                            let Ok(mut token) =
                                rx.recv_timeout(std::time::Duration::from_millis(5))
                            else {
                                continue;
                            };
                            for e in &by_item[token.item as usize] {
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
                            token.hops += 1;
                            if token.hops >= workers {
                                // ordering: AcqRel — release pairs with the
                                // Acquire loop check above; acquire orders
                                // this decrement after the column's last
                                // SGD pass on this thread.
                                remaining.fetch_sub(1, Ordering::AcqRel);
                            } else {
                                // Pass to the next worker in the ring.
                                let next = (w + 1) % workers;
                                let _ = senders[next].send(token);
                            }
                        }
                    });
                }
            });

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
    fn nomad_converges() {
        let ds = dataset();
        let cfg = TrainConfig {
            k: 8,
            epochs: 25,
            threads: 3,
            learning_rate: LearningRate::Constant(0.02),
            track_rmse: true,
            ..Default::default()
        };
        let report = Nomad.train(&ds.matrix, &cfg);
        let hist = &report.rmse_history;
        assert!(
            hist.last().unwrap() < &(hist[0] * 0.35),
            "no convergence: {:?} -> {:?}",
            hist.first(),
            hist.last()
        );
    }

    #[test]
    fn single_worker_degenerates_to_serial_sweep() {
        let ds = dataset();
        let cfg = TrainConfig {
            k: 4,
            epochs: 5,
            threads: 1,
            learning_rate: LearningRate::Constant(0.02),
            track_rmse: true,
            ..Default::default()
        };
        let report = Nomad.train(&ds.matrix, &cfg);
        assert!(report.rmse_history[4] < report.rmse_history[0]);
    }

    #[test]
    fn every_rating_is_visited_each_epoch() {
        // Each column visits every worker once; each entry lives with
        // exactly one worker; so updates per epoch == nnz. Verify via the
        // returned loss bookkeeping indirectly: factors move for every
        // row/column that has data.
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 30,
            cols: 20,
            nnz: 200,
            noise: 0.0,
            ..GenConfig::default()
        });
        let cfg = TrainConfig {
            k: 4,
            epochs: 1,
            threads: 4,
            learning_rate: LearningRate::Constant(0.05),
            ..Default::default()
        };
        let before_q = FactorMatrix::random(20, 4, cfg.seed ^ 0x9e37);
        let report = Nomad.train(&ds.matrix, &cfg);
        let col_counts = ds.matrix.col_counts();
        for (i, &count) in col_counts.iter().enumerate() {
            if count > 0 {
                assert_ne!(
                    report.q.row(i),
                    before_q.row(i),
                    "rated column {i} untouched"
                );
            } else {
                assert_eq!(report.q.row(i), before_q.row(i), "unrated column {i} moved");
            }
        }
    }
}
