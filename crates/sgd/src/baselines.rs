//! The systems the paper compares HCC-MF against, as deals on the one
//! Hogwild driver.
//!
//! The paper's Figure 7 and Table 4 benchmark HCC-MF against FPSGD and
//! CuMF_SGD (whose modified kernels are HCC-MF's own worker kernels), and
//! its related work (§5) sets it against DSGD and NOMAD. All of them apply
//! the same per-rating step ([`sgd_step_shared`](crate::kernel)); they
//! differ only in which entries a thread takes, and when. So each
//! [`Comparator`] is a [deal](crate::hogwild) over the one driver, and all
//! five share one epoch loop ([`Comparator::train`]):
//!
//! * **FPSGD** (Chin et al., TIST 2015), the multi-core CPU solver. The
//!   matrix is cut into a `2·threads`-square block grid; a thread takes a
//!   *free* block (no block in flight shares its block row or column),
//!   drawn among the unprocessed ones by the thread's own seeded RNG, so
//!   concurrent blocks touch disjoint rows of `P` and of `Q`.
//! * **CuMF_SGD** (Xie et al., HPDC 2017), simulated by its structure. The
//!   ratings are sorted by row (the paper's footnote-1 cache modification
//!   iii) and cut into fixed batches that threads claim from one cursor, as
//!   the GPU kernel's warps claim them from a work queue. Like the original
//!   it trains on ratings normalized to a ≤ 5-point scale and rescales `Q`
//!   on the way out. The real GPU's throughput comes from `hcc-hetsim`'s
//!   processor profiles; this is what runs when convergence is measured.
//! * **DSGD** (Gemulla et al., KDD 2011). A `d × d` grid (`d = max(threads,
//!   2)`) is swept one stratum per driver pass: `d` blocks no two of which
//!   share a block row or column. The join after each pass is the barrier
//!   HCC-MF's asynchronous workers avoid, and the equal strata are the
//!   "equal division" §5 faults on heterogeneous hardware.
//! * **NOMAD** (Yun et al., VLDB 2014). Each thread owns a row block of `P`
//!   while the columns of `Q` circulate round a ring of per-thread queues;
//!   a column's holder has it to itself. No barrier and no lock on a
//!   factor, but all of `Q` travels every epoch, the communication volume
//!   §5 critiques.
//! * **Serial SGD**: one thread over the entries in stored order, the
//!   reference.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::factors::{FactorMatrix, SharedFactors};
use crate::hogwild::{drive, sgd, Claim, Deal, HogwildConfig, Run, Stripe};
use crate::loss::rmse;
use crate::schedule::LearningRate;
use crate::shared::SharedRows;
use hcc_sparse::{Axis, CooMatrix, GridPartition, Rating, TileGrid};
use Comparator::*;

/// Ratings in one CuMF_SGD batch (a warp's grab from the work queue): small
/// enough to keep the Hogwild mixing, large enough to amortize the cursor.
const BATCH: usize = 128;

/// One comparator run. The epoch loop turns it into each epoch's
/// [`HogwildConfig`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Latent dimension `k`.
    pub k: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning-rate schedule (paper: constant 0.005).
    pub learning_rate: LearningRate,
    /// L2 regularization λ1 on `P`.
    pub lambda_p: f32,
    /// L2 regularization λ2 on `Q`.
    pub lambda_q: f32,
    /// Worker threads (0 = every core; NOMAD's ring size, serial SGD
    /// ignores it).
    pub threads: usize,
    /// Seed for the factor initialization and FPSGD's block draws.
    pub seed: u64,
    /// If true, compute RMSE over the training set after each epoch and
    /// record it in the report (costs one extra pass per epoch).
    pub track_rmse: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            k: 32,
            epochs: 20,
            learning_rate: LearningRate::paper_default(),
            lambda_p: 0.01,
            lambda_q: 0.01,
            threads: 0,
            seed: 0x5eed,
            track_rmse: false,
        }
    }
}

impl TrainConfig {
    /// Resolves `threads == 0` to the machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads => threads,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Final user factors.
    pub p: FactorMatrix,
    /// Final item factors.
    pub q: FactorMatrix,
    /// Per-epoch training RMSE (empty unless `track_rmse`).
    pub rmse_history: Vec<f64>,
    /// Per-epoch wall-clock time.
    pub epoch_times: Vec<Duration>,
    /// Total SGD updates performed (= nnz × epochs for full sweeps).
    pub total_updates: u64,
}

impl TrainReport {
    /// Total wall-clock training time.
    pub fn total_time(&self) -> Duration {
        self.epoch_times.iter().sum()
    }

    /// The paper's "computing power" metric (Eq. 8): updates per second.
    pub fn computing_power(&self) -> f64 {
        let secs = self.total_time().as_secs_f64();
        if secs > 0.0 {
            self.total_updates as f64 / secs
        } else {
            0.0
        }
    }
}

/// A solver the paper compares HCC-MF against (see the [module](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparator {
    Serial,
    Fpsgd,
    CumfSgd,
    Dsgd,
    Nomad,
}

impl Comparator {
    /// Every comparator, serial first.
    pub const ALL: [Self; 5] = [Serial, Fpsgd, CumfSgd, Dsgd, Nomad];

    /// The name a results table prints.
    pub fn name(self) -> &'static str {
        match self {
            Comparator::Serial => "serial SGD",
            Comparator::Fpsgd => "FPSGD",
            Comparator::CumfSgd => "CuMF_SGD-sim",
            Comparator::Dsgd => "DSGD",
            Comparator::Nomad => "NOMAD",
        }
    }

    /// Trains on `matrix`: lays its entries out once for this comparator's
    /// deal, then runs one pass of it an epoch.
    pub fn train(self, matrix: &CooMatrix, config: &TrainConfig) -> TrainReport {
        let threads = config.effective_threads();
        let (rows, cols) = (matrix.rows() as usize, matrix.cols() as usize);
        let square = |d| TileGrid::with_grid(matrix.entries(), rows, cols, d, d);
        match self {
            Comparator::Serial => epochs(matrix, config, 1, 1.0, |hogwild, _, p, q| {
                drive(&Stripe(matrix.entries()), 1, sgd(p, q, hogwild))
            }),
            Comparator::Fpsgd => {
                let grid = square(2 * threads);
                epochs(matrix, config, threads, 1.0, |hogwild, seed, p, q| {
                    let blocks = FreeBlocks::new(&grid, threads, seed);
                    drive(&blocks, threads, sgd(p, q, hogwild))
                })
            }
            Comparator::CumfSgd => {
                let scale = matrix
                    .rating_range()
                    .map_or(1.0, |(lo, hi)| (hi.abs().max(lo.abs()) / 5.0).max(1.0));
                let mut sorted = matrix.clone();
                sorted.sort_by_row();
                let mut entries = sorted.into_entries();
                entries.iter_mut().for_each(|e| e.r /= scale);
                let batches: Vec<&[Rating]> = entries.chunks(BATCH).collect();
                epochs(matrix, config, threads, scale, |hogwild, _, p, q| {
                    let claim = Claim::new(batches.len(), |b| batches[b]);
                    drive(&claim, threads, sgd(p, q, hogwild))
                })
            }
            Comparator::Dsgd => {
                let grid = square(threads.max(2));
                epochs(matrix, config, threads, 1.0, |hogwild, _, p, q| {
                    let (step, d) = (sgd(p, q, hogwild), grid.grid_dims().0);
                    (0..d)
                        .map(|s| drive(&stratum(&grid, s), threads, &step))
                        .sum()
                })
            }
            Comparator::Nomad => {
                // Thread `t`'s row block, one tile per column.
                let blocks = GridPartition::build_uniform(matrix, Axis::Row, threads);
                let by_column = |s: &Vec<_>| TileGrid::with_grid(s, rows, cols, 1, cols.max(1));
                let columns: Vec<TileGrid> = blocks.shards().iter().map(by_column).collect();
                epochs(matrix, config, threads, 1.0, |hogwild, _, p, q| {
                    drive(&Ring::new(&columns), threads, sgd(p, q, hogwild))
                })
            }
        }
    }
}

/// The one epoch loop: `P` and `Q` start from `config.seed`, and each epoch
/// is one `pass` (handed the epoch's config, a seed for FPSGD's block draws,
/// and the factors) at the epoch's learning rate, timed, and optionally
/// scored. `scale` is the rating scale the pass trains at (CuMF_SGD's
/// normalization; 1 for the rest).
fn epochs(
    matrix: &CooMatrix,
    config: &TrainConfig,
    threads: usize,
    scale: f32,
    pass: impl Fn(&HogwildConfig, u64, SharedRows<'_>, SharedRows<'_>) -> f64,
) -> TrainReport {
    let factors = |rows: u32, seed| FactorMatrix::random(rows as usize, config.k, seed);
    let p = SharedFactors::from(factors(matrix.rows(), config.seed));
    let q = SharedFactors::from(factors(matrix.cols(), config.seed ^ 0x9e37));
    let (mut rmse_history, mut epoch_times) = (Vec::new(), Vec::new());
    for epoch in 0..config.epochs {
        // Ratings divided by `scale` make the normalized problem's
        // regularizer λ / scale; the learning rate rises by √scale, which
        // keeps a √scale stability margin over the raw dynamics.
        let hogwild = HogwildConfig {
            learning_rate: config.learning_rate.at(epoch) * scale.sqrt(),
            lambda_p: config.lambda_p / scale,
            lambda_q: config.lambda_q / scale,
            ..HogwildConfig::with_threads(threads, 0.0)
        };
        let seed = config.seed.wrapping_add(epoch as u64 * 0x1000);
        let start = Instant::now();
        pass(&hogwild, seed, p.view(), q.view());
        epoch_times.push(start.elapsed());
        if config.track_rmse {
            let q = scaled(q.snapshot(), scale);
            rmse_history.push(rmse(matrix.entries(), &p.snapshot(), &q));
        }
    }
    TrainReport {
        p: p.snapshot(),
        q: scaled(q.snapshot(), scale),
        rmse_history,
        epoch_times,
        total_updates: matrix.nnz() as u64 * config.epochs as u64,
    }
}

/// DSGD's stratum `s` of a `d × d` grid: blocks `(r, (r + s) mod d)`, no two
/// sharing a block row or column. Over `s` in `0..d` every block is in
/// exactly one stratum.
fn stratum<'g>(grid: &'g TileGrid, s: usize) -> Claim<impl Fn(usize) -> &'g [Rating] + Sync> {
    let d = grid.grid_dims().0;
    Claim::new(d, move |r| grid.tile(r * d + (r + s) % d))
}

/// A deal's state behind one lock, and the condition its threads wait on
/// for one another's changes. Nothing under the lock can panic part-way
/// through an update, so a poisoned lock still guards valid state.
struct Locked<S>(Mutex<S>, Condvar);

impl<S> Locked<S> {
    fn new(state: S) -> Self {
        Locked(Mutex::new(state), Condvar::new())
    }

    fn lock(&self) -> MutexGuard<'_, S> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One [`Deal::next`] under the lock: `finish` applies the run handed
    /// back (and wakes the waiters), then `pick` answers `Some(next)`, or
    /// `None` to wait for another thread's change.
    fn settle<'a>(
        &self,
        done: Option<Run<'a>>,
        finish: impl FnOnce(&mut S, Run<'a>),
        mut pick: impl FnMut(&mut S) -> Option<Option<Run<'a>>>,
    ) -> Option<Run<'a>> {
        let mut state = self.lock();
        if let Some(run) = done {
            finish(&mut state, run);
            self.1.notify_all();
        }
        loop {
            if let Some(next) = pick(&mut state) {
                return next;
            }
            state = self.1.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// FPSGD's free-block scheduler over a square grid, fresh each epoch so
/// every block is processed exactly once.
struct FreeBlocks<'a> {
    grid: &'a TileGrid,
    row_busy: Vec<bool>,
    col_busy: Vec<bool>,
    done: Vec<bool>,
    remaining: usize,
    /// Thread `t`'s block draws.
    rngs: Vec<SmallRng>,
}

impl<'a> FreeBlocks<'a> {
    fn new(grid: &'a TileGrid, threads: usize, seed: u64) -> Locked<Self> {
        let side = grid.grid_dims().0;
        let rng = |t: usize| SmallRng::seed_from_u64(seed.wrapping_add(t as u64));
        Locked::new(FreeBlocks {
            grid,
            row_busy: vec![false; side],
            col_busy: vec![false; side],
            done: vec![false; side * side],
            remaining: side * side,
            rngs: (0..threads).map(rng).collect(),
        })
    }
}

impl<'a> Deal<'a> for Locked<FreeBlocks<'a>> {
    fn width(&self) -> usize {
        self.lock().rngs.len()
    }

    /// Frees `done`'s block row and column, then waits until a free,
    /// unprocessed block exists (drawn uniformly, marked busy and done) or
    /// the epoch is exhausted.
    fn next(&self, t: usize, _: usize, done: Option<Run<'a>>) -> Option<Run<'a>> {
        let free = |blocks: &mut FreeBlocks<'a>, run: Run<'a>| {
            let side = blocks.row_busy.len();
            blocks.row_busy[run.id / side] = false;
            blocks.col_busy[run.id % side] = false;
        };
        self.settle(done, free, |blocks| {
            let side = blocks.row_busy.len();
            if blocks.remaining == 0 {
                return Some(None);
            }
            // Reservoir-sample one candidate, row-major.
            let (mut picked, mut seen) = (None, 0u32);
            for b in 0..side * side {
                if blocks.row_busy[b / side] || blocks.col_busy[b % side] || blocks.done[b] {
                    continue;
                }
                seen += 1;
                if blocks.rngs[t].random_range(0..seen) == 0 {
                    picked = Some(b);
                }
            }
            let b = picked?;
            blocks.row_busy[b / side] = true;
            blocks.col_busy[b % side] = true;
            blocks.done[b] = true;
            blocks.remaining -= 1;
            Some(Some(Run::all(b, blocks.grid.tile(b))))
        })
    }
}

/// NOMAD's ring. Column `i` starts in queue `i mod n` and moves on to the
/// next thread's queue after each holder sweeps its ratings of `i`, until it
/// has visited all `n` threads. Each queue has one producer, its
/// predecessor, so every holder sees the same columns in the same order at
/// any timing. Needs exactly `n` threads, all running at once: a column
/// queued for a thread that never runs would never move on, so a pass of
/// any other thread count deals nothing.
struct Ring<'a> {
    /// Thread `t`'s ratings of column `i` are `columns[t].tile(i)`.
    columns: &'a [TileGrid],
    /// Thread `t`'s columns, in arrival order.
    queues: Vec<VecDeque<usize>>,
    /// Columns that have not visited every thread yet.
    travelling: usize,
}

impl<'a> Ring<'a> {
    fn new(columns: &'a [TileGrid]) -> Locked<Self> {
        let cols = columns.first().map_or(0, TileGrid::num_tiles);
        let mut queues = vec![VecDeque::new(); columns.len()];
        (0..cols).for_each(|i| queues[i % columns.len()].push_back(i));
        Locked::new(Ring {
            columns,
            queues,
            travelling: cols,
        })
    }
}

impl<'a> Deal<'a> for Locked<Ring<'a>> {
    fn width(&self) -> usize {
        self.lock().queues.len()
    }

    /// Passes `done`'s column on (or retires it after its last hop), then
    /// waits for a column in `t`'s queue or for every column to retire.
    fn next(&self, t: usize, threads: usize, done: Option<Run<'a>>) -> Option<Run<'a>> {
        let pass = |ring: &mut Ring<'a>, run: Run<'a>| {
            let next = (t + 1) % ring.queues.len();
            if next == run.id % ring.queues.len() {
                ring.travelling -= 1;
            } else {
                ring.queues[next].push_back(run.id);
            }
        };
        self.settle(done, pass, |ring| match ring.queues[t].pop_front() {
            _ if threads != ring.queues.len() => Some(None),
            Some(i) => Some(Some(Run::all(i, ring.columns[t].tile(i)))),
            None => (ring.travelling == 0).then_some(None),
        })
    }
}

/// `m` times `scale`: undoes CuMF_SGD's rating normalization on the `Q`
/// side, so `P·Q` predicts original-scale ratings.
fn scaled(mut m: FactorMatrix, scale: f32) -> FactorMatrix {
    m.as_mut_slice().iter_mut().for_each(|v| *v *= scale);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_sparse::{GenConfig, SyntheticDataset};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::generate(GenConfig {
            rows: 200,
            cols: 120,
            nnz: 6_000,
            noise: 0.0,
            ..GenConfig::default()
        })
    }

    /// `epochs` at `threads` threads, a constant learning rate `lr` and
    /// RMSE tracked.
    fn tracked(k: usize, epochs: usize, threads: usize, lr: f32) -> TrainConfig {
        TrainConfig {
            k,
            epochs,
            learning_rate: LearningRate::Constant(lr),
            threads,
            track_rmse: true,
            ..Default::default()
        }
    }

    fn assert_converges(comparator: Comparator, threads: usize) {
        let report = comparator.train(&dataset().matrix, &tracked(8, 25, threads, 0.02));
        let hist = &report.rmse_history;
        assert!(
            hist.last().unwrap() < &(hist[0] * 0.35),
            "{}: no convergence: {:?} -> {:?}",
            comparator.name(),
            hist.first(),
            hist.last()
        );
    }

    /// Drains `deal` from `threads` scoped threads, calling `visit(t, run)`
    /// on each run before handing it back.
    fn drain<'a>(deal: &impl Deal<'a>, threads: usize, visit: impl Fn(usize, Run<'a>) + Sync) {
        std::thread::scope(|scope| {
            for t in 0..threads {
                let visit = &visit;
                scope.spawn(move || {
                    let mut run = deal.next(t, threads, None);
                    while let Some(done) = run {
                        visit(t, done);
                        run = deal.next(t, threads, Some(done));
                    }
                });
            }
        });
    }

    #[test]
    fn default_matches_paper() {
        let cfg = TrainConfig::default();
        assert_eq!(cfg.learning_rate, LearningRate::Constant(0.005));
        assert_eq!(cfg.lambda_p, 0.01);
        assert!(cfg.effective_threads() >= 1);
    }

    #[test]
    fn explicit_threads_respected() {
        let cfg = TrainConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(cfg.effective_threads(), 3);
    }

    #[test]
    fn computing_power_formula() {
        let report = TrainReport {
            p: FactorMatrix::zeros(1, 1),
            q: FactorMatrix::zeros(1, 1),
            rmse_history: vec![],
            epoch_times: vec![Duration::from_secs(2)],
            total_updates: 10,
        };
        assert_eq!(report.computing_power(), 5.0);
        assert_eq!(report.rmse_history.last(), None);
    }

    #[test]
    fn serial_converges_on_planted_data() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 150,
            cols: 80,
            nnz: 4_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let report = Comparator::Serial.train(&ds.matrix, &tracked(8, 30, 0, 0.02));
        let history = &report.rmse_history;
        assert_eq!(history.len(), 30);
        assert!(
            history.last().unwrap() < &(history[0] * 0.35),
            "no convergence: {:?} -> {:?}",
            history.first(),
            history.last()
        );
        assert_eq!(report.total_updates, 4_000 * 30);
        assert_eq!(report.epoch_times.len(), 30);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 40,
            cols: 30,
            nnz: 500,
            ..GenConfig::default()
        });
        let cfg = TrainConfig {
            k: 4,
            epochs: 3,
            ..Default::default()
        };
        let a = Comparator::Serial.train(&ds.matrix, &cfg);
        let b = Comparator::Serial.train(&ds.matrix, &cfg);
        assert_eq!(a.p, b.p);
        assert_eq!(a.q, b.q);
    }

    #[test]
    fn rmse_not_tracked_by_default() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 20,
            cols: 20,
            nnz: 100,
            ..GenConfig::default()
        });
        let cfg = TrainConfig {
            epochs: 1,
            ..Default::default()
        };
        let report = Comparator::Serial.train(&ds.matrix, &cfg);
        assert!(report.rmse_history.is_empty());
        assert!(report.rmse_history.last().is_none());
    }

    #[test]
    fn fpsgd_converges_multithreaded() {
        assert_converges(Comparator::Fpsgd, 4);
    }

    #[test]
    fn fpsgd_single_thread_works() {
        let report = Comparator::Fpsgd.train(&dataset().matrix, &tracked(4, 5, 1, 0.02));
        assert!(report.rmse_history[4] < report.rmse_history[0]);
    }

    #[test]
    fn scheduler_processes_every_block_once() {
        let side = 6;
        let grid = TileGrid::with_grid(&[], side, side, side, side);
        let scheduler = FreeBlocks::new(&grid, 3, 0);
        let counts = Mutex::new(vec![0u32; side * side]);
        drain(&scheduler, 3, |_, run| counts.lock().unwrap()[run.id] += 1);
        assert!(counts.into_inner().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn scheduler_never_hands_out_conflicting_blocks() {
        let side = 4;
        let grid = TileGrid::with_grid(&[], side, side, side, side);
        let scheduler = FreeBlocks::new(&grid, 4, 100);
        let active = Mutex::new(Vec::<(usize, usize)>::new());
        let violation = AtomicBool::new(false);
        drain(&scheduler, 4, |_, run| {
            let (br, bc) = (run.id / side, run.id % side);
            {
                let mut act = active.lock().unwrap();
                if act.iter().any(|&(r, c)| r == br || c == bc) {
                    violation.store(true, Ordering::Relaxed);
                }
                act.push((br, bc));
            }
            std::thread::yield_now();
            active.lock().unwrap().retain(|&(r, c)| (r, c) != (br, bc));
        });
        assert!(!violation.load(Ordering::Relaxed));
    }

    #[test]
    fn more_threads_than_blocks_terminates() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 10,
            cols: 10,
            nnz: 50,
            ..GenConfig::default()
        });
        // 8 and 16 threads cut 10 rows into 16 and 32 block rows, most of
        // them empty.
        for threads in [8, 16] {
            let cfg = TrainConfig {
                k: 4,
                epochs: 2,
                threads,
                ..Default::default()
            };
            let report = Comparator::Fpsgd.train(&ds.matrix, &cfg);
            assert_eq!(report.epoch_times.len(), 2);
        }
    }

    #[test]
    fn dsgd_converges() {
        assert_converges(Comparator::Dsgd, 4);
    }

    #[test]
    fn strata_cover_every_block_once() {
        // One rating in each cell of a 5 x 5 matrix, so each block of the
        // 5 x 5 grid is one cell and a run names its block by its rating.
        let d = 5;
        let cells: Vec<Rating> = (0..d * d)
            .map(|b| Rating::new((b / d) as u32, (b % d) as u32, 1.0))
            .collect();
        let grid = TileGrid::with_grid(&cells, d, d, d, d);
        let mut seen = vec![false; d * d];
        for s in 0..d {
            let stratum = stratum(&grid, s);
            let (mut rows, mut cols) = (vec![false; d], vec![false; d]);
            let mut run = stratum.next(0, 1, None);
            while let Some(done) = run {
                let (r, c) = (done.entries[0].u as usize, done.entries[0].i as usize);
                assert!(!seen[r * d + c], "block ({r},{c}) scheduled twice");
                assert!(!rows[r] && !cols[c], "stratum {s} shares a row or column");
                (seen[r * d + c], rows[r], cols[c]) = (true, true, true);
                run = stratum.next(0, 1, Some(done));
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
        let report = Comparator::Dsgd.train(&m, &cfg);
        assert_eq!(report.total_updates, 2);
    }

    #[test]
    fn nomad_converges() {
        assert_converges(Comparator::Nomad, 3);
    }

    #[test]
    fn single_worker_degenerates_to_serial_sweep() {
        let report = Comparator::Nomad.train(&dataset().matrix, &tracked(4, 5, 1, 0.02));
        assert!(report.rmse_history[4] < report.rmse_history[0]);
    }

    #[test]
    fn every_rating_is_visited_each_epoch() {
        // Each column visits every worker once and each entry lives with
        // exactly one worker, so every rated column moves and no unrated
        // one does. The ring also hands each column to each worker once.
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
            learning_rate: LearningRate::Constant(0.05),
            threads: 4,
            ..Default::default()
        };
        let before_q = FactorMatrix::random(20, 4, cfg.seed ^ 0x9e37);
        let report = Comparator::Nomad.train(&ds.matrix, &cfg);
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
        let columns: Vec<TileGrid> = (0..4)
            .map(|_| TileGrid::with_grid(&[], 30, 20, 1, 20))
            .collect();
        let visits = Mutex::new(vec![0u32; 4 * 20]);
        drain(&Ring::new(&columns), 4, |t, run| {
            visits.lock().unwrap()[t * 20 + run.id] += 1
        });
        assert!(visits.into_inner().unwrap().iter().all(|&v| v == 1));
        // Fewer threads than queues would strand columns: the ring deals
        // nothing rather than hang.
        assert!(Ring::new(&columns).next(0, 1, None).is_none());
    }

    #[test]
    fn cumf_sim_converges() {
        assert_converges(Comparator::CumfSgd, 4);
    }
}
