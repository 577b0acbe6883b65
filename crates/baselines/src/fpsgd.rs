//! FPSGD (Chin et al., TIST 2015) — the fast parallel SGD-MF solver for
//! shared-memory multi-core CPUs, used by the paper as the CPU-side baseline
//! and as HCC-MF's CPU worker kernel.
//!
//! Core idea: cut the rating matrix into a block grid with more blocks per
//! side than threads. A scheduler only hands a thread a *free* block — one
//! sharing no block-row and no block-column with any in-flight block — so
//! concurrently processed blocks touch disjoint rows of `P` and disjoint
//! rows of `Q`: lock-free SGD inside blocks without Hogwild races. The
//! scheduler prefers less-processed blocks and breaks ties randomly, which is
//! FPSGD's defense against update-frequency skew.

use crate::report::{TrainConfig, TrainReport};
use hcc_sgd::kernel::sgd_step_shared;
use hcc_sgd::{rmse, FactorMatrix, SharedFactors};
use hcc_sparse::{BlockGrid, CooMatrix};
use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// FPSGD solver.
#[derive(Debug, Clone)]
pub struct Fpsgd {
    /// Blocks per grid side = `grid_factor × threads` (FPSGD recommends at
    /// least threads + 1 per side; 2× is the common setting).
    pub grid_factor: usize,
}

impl Default for Fpsgd {
    fn default() -> Self {
        Fpsgd { grid_factor: 2 }
    }
}

impl Fpsgd {
    /// Trains on `matrix` with the block-scheduled parallel sweep.
    pub fn train(&self, matrix: &CooMatrix, config: &TrainConfig) -> TrainReport {
        let threads = config.effective_threads();
        let side = (self.grid_factor.max(1) * threads).max(2);
        let grid = BlockGrid::build(matrix, side, side);
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
            let scheduler = Scheduler::new(side);
            let start = Instant::now();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let p = p.view();
                    let q = q.view();
                    let grid = &grid;
                    let scheduler = &scheduler;
                    let seed = config
                        .seed
                        .wrapping_add(epoch as u64 * 0x1000)
                        .wrapping_add(t as u64);
                    scope.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed);
                        while let Some((br, bc)) = scheduler.acquire(&mut rng) {
                            for e in grid.block(br, bc) {
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
                            scheduler.release(br, bc);
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

/// The free-block scheduler. One instance per epoch: every block is
/// processed exactly once per epoch.
struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
    side: usize,
}

struct SchedState {
    row_busy: Vec<bool>,
    col_busy: Vec<bool>,
    done: Vec<bool>,
    remaining: usize,
}

impl Scheduler {
    fn new(side: usize) -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                row_busy: vec![false; side],
                col_busy: vec![false; side],
                done: vec![false; side * side],
                remaining: side * side,
            }),
            cv: Condvar::new(),
            side,
        }
    }

    /// Blocks until a free, unprocessed block is available (returning its
    /// coordinates and marking it busy+done) or the epoch is exhausted
    /// (returning `None`).
    fn acquire(&self, rng: &mut impl Rng) -> Option<(usize, usize)> {
        let mut state = self.state.lock();
        loop {
            if state.remaining == 0 {
                return None;
            }
            // Reservoir-sample one candidate among free, unprocessed blocks.
            let mut picked = None;
            let mut seen = 0u32;
            for br in 0..self.side {
                if state.row_busy[br] {
                    continue;
                }
                for bc in 0..self.side {
                    if state.col_busy[bc] || state.done[br * self.side + bc] {
                        continue;
                    }
                    seen += 1;
                    if rng.random_range(0..seen) == 0 {
                        picked = Some((br, bc));
                    }
                }
            }
            if let Some((br, bc)) = picked {
                state.row_busy[br] = true;
                state.col_busy[bc] = true;
                state.done[br * self.side + bc] = true;
                state.remaining -= 1;
                return Some((br, bc));
            }
            // Unprocessed blocks exist but all are blocked by in-flight
            // rows/columns: wait for a release.
            self.cv.wait(&mut state);
        }
    }

    fn release(&self, br: usize, bc: usize) {
        let mut state = self.state.lock();
        state.row_busy[br] = false;
        state.col_busy[bc] = false;
        drop(state);
        self.cv.notify_all();
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
    fn fpsgd_converges_multithreaded() {
        let ds = dataset();
        let cfg = TrainConfig {
            k: 8,
            epochs: 25,
            threads: 4,
            learning_rate: LearningRate::Constant(0.02),
            track_rmse: true,
            ..Default::default()
        };
        let report = Fpsgd::default().train(&ds.matrix, &cfg);
        let hist = &report.rmse_history;
        assert!(
            hist.last().unwrap() < &(hist[0] * 0.35),
            "no convergence: {:?} -> {:?}",
            hist.first(),
            hist.last()
        );
    }

    #[test]
    fn fpsgd_single_thread_works() {
        let ds = dataset();
        let cfg = TrainConfig {
            k: 4,
            epochs: 5,
            threads: 1,
            learning_rate: LearningRate::Constant(0.02),
            track_rmse: true,
            ..Default::default()
        };
        let report = Fpsgd::default().train(&ds.matrix, &cfg);
        assert!(report.rmse_history[4] < report.rmse_history[0]);
    }

    #[test]
    fn scheduler_processes_every_block_once() {
        let side = 6;
        let scheduler = Scheduler::new(side);
        let counts = Mutex::new(vec![0u32; side * side]);
        std::thread::scope(|scope| {
            for t in 0..3 {
                let scheduler = &scheduler;
                let counts = &counts;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t);
                    while let Some((br, bc)) = scheduler.acquire(&mut rng) {
                        counts.lock()[br * side + bc] += 1;
                        scheduler.release(br, bc);
                    }
                });
            }
        });
        assert!(counts.lock().iter().all(|&c| c == 1));
    }

    #[test]
    fn scheduler_never_hands_out_conflicting_blocks() {
        let side = 4;
        let scheduler = Scheduler::new(side);
        let active = Mutex::new(Vec::<(usize, usize)>::new());
        let violation = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let scheduler = &scheduler;
                let active = &active;
                let violation = &violation;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(100 + t);
                    while let Some((br, bc)) = scheduler.acquire(&mut rng) {
                        {
                            let mut act = active.lock();
                            if act.iter().any(|&(r, c)| r == br || c == bc) {
                                violation.store(true, std::sync::atomic::Ordering::SeqCst);
                            }
                            act.push((br, bc));
                        }
                        std::thread::yield_now();
                        active.lock().retain(|&(r, c)| (r, c) != (br, bc));
                        scheduler.release(br, bc);
                    }
                });
            }
        });
        assert!(!violation.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn more_threads_than_blocks_terminates() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 10,
            cols: 10,
            nnz: 50,
            ..GenConfig::default()
        });
        let cfg = TrainConfig {
            k: 4,
            epochs: 2,
            threads: 8,
            ..Default::default()
        };
        // side = 16, 256 blocks — fine; also exercise tiny grid_factor.
        let report = Fpsgd { grid_factor: 1 }.train(&ds.matrix, &cfg);
        assert_eq!(report.epoch_times.len(), 2);
    }
}
