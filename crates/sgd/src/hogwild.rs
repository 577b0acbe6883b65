//! Hogwild-style asynchronous parallel SGD over an entry shard.
//!
//! This is the compute engine inside each HCC-MF CPU worker (framework step
//! ⑥): `threads` OS threads sweep the shard, updating the shared local factor
//! matrices without locks. Races on hot rows are benign per Hogwild's
//! analysis (sparse data ⇒ rare conflicts ⇒ convergence holds), which is
//! exactly the argument the paper leans on in §2.1 and §4.2.
//!
//! Two schedules decide *which* entries a thread sweeps:
//!
//! * [`Schedule::Stripe`] — thread `t` handles `entries[t], entries[t +
//!   threads], …` in shuffled arrival order. Maximally decorrelated, but at
//!   `k = 128` every update touches two ~512 B factor rows at effectively
//!   random addresses, so both rows miss L2 almost every step.
//! * [`Schedule::Tiled`] — the shard is pre-bucketed into L2-sized
//!   `u_block × i_block` tiles ([`hcc_sparse::TileGrid`]) and threads claim
//!   whole tiles from a shared atomic cursor. All factor rows a tile touches
//!   fit in cache, so each row is reused for every rating in the tile.
//!   Convergence is unaffected: order within a tile stays shuffled, and
//!   Hogwild tolerates any visiting order.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::kernel::sgd_step_shared;
use crate::shared::SharedRows;
use hcc_sparse::{Rating, TileGrid};

/// Which entry-to-thread assignment [`hogwild_epoch`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Interleaved striping over the shuffled entry list (the classic
    /// Hogwild layout; the seed's only behaviour).
    #[default]
    Stripe,
    /// Cache-tiled: threads claim whole L2-sized tiles of the rating matrix.
    Tiled,
}

impl Schedule {
    /// CLI-facing name (`stripe` | `tiled`).
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Stripe => "stripe",
            Schedule::Tiled => "tiled",
        }
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "stripe" => Ok(Schedule::Stripe),
            "tiled" => Ok(Schedule::Tiled),
            other => Err(format!(
                "unknown schedule '{other}' (expected 'stripe' or 'tiled')"
            )),
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration for one Hogwild epoch.
#[derive(Debug, Clone, Copy)]
pub struct HogwildConfig {
    /// Worker threads to spawn (1 = serial, still through the shared path).
    pub threads: usize,
    /// Learning rate γ for this epoch.
    pub learning_rate: f32,
    /// L2 regularization on `P` (λ1).
    pub lambda_p: f32,
    /// L2 regularization on `Q` (λ2).
    pub lambda_q: f32,
    /// Entry-to-thread assignment.
    pub schedule: Schedule,
}

impl HogwildConfig {
    /// Config with the paper's defaults (γ = 0.005, striped) and a given
    /// thread count.
    pub fn with_threads(threads: usize, lambda: f32) -> Self {
        HogwildConfig {
            threads,
            learning_rate: 0.005,
            lambda_p: lambda,
            lambda_q: lambda,
            schedule: Schedule::Stripe,
        }
    }
}

/// Runs one asynchronous epoch over `entries`, updating `p` and `q` in place.
/// Both are anything that lends [`SharedRows`]: a `&SharedFactors`, or a view
/// of plain rows somebody holds exclusively.
///
/// With [`Schedule::Stripe`], entries are processed in stripes: thread `t`
/// handles `entries[t], entries[t + threads], …`. Striping (rather than
/// chunking) interleaves hot head-of-file rows across threads, which matters
/// after the preprocessing shuffle has already randomized order. With
/// [`Schedule::Tiled`], a [`TileGrid`] is built for the shard (one `O(nnz)`
/// counting sort) and threads claim whole tiles; callers that run many epochs
/// over the same shard should build the grid once and use
/// [`hogwild_epoch_tiled`] instead.
///
/// Returns the summed squared prediction error observed during the sweep
/// (errors are measured *before* each update, so this is a running training
/// loss, not a post-epoch loss).
///
/// # Panics
/// Panics if `config.threads == 0` or if an entry indexes outside `p`/`q`.
pub fn hogwild_epoch<'a>(
    entries: &[Rating],
    p: impl Into<SharedRows<'a>>,
    q: impl Into<SharedRows<'a>>,
    config: &HogwildConfig,
) -> f64 {
    epoch_on(entries, p.into(), q.into(), config)
}

/// [`hogwild_epoch`] on the views: compiled once, here.
fn epoch_on(
    entries: &[Rating],
    p: SharedRows<'_>,
    q: SharedRows<'_>,
    config: &HogwildConfig,
) -> f64 {
    assert!(config.threads > 0, "thread count must be non-zero");
    let k = p.k();
    assert_eq!(q.k(), k, "P and Q must share latent dimension");

    if entries.is_empty() {
        return 0.0;
    }

    match config.schedule {
        Schedule::Stripe => {
            let threads = config.threads.min(entries.len());
            if threads == 1 {
                return sweep_stripe(entries, 0, 1, p, q, config);
            }
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                for t in 0..threads {
                    handles
                        .push(scope.spawn(move || sweep_stripe(entries, t, threads, p, q, config)));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .sum()
            })
        }
        Schedule::Tiled => {
            // Sized by the last row each view answers to, so a view of some
            // rows of a matrix tiles its entries as the whole matrix would.
            let (rows, cols) = (p.row_range().end, q.row_range().end);
            let grid = TileGrid::with_default_budget(entries, rows, cols, k);
            tiled_epoch_on(&grid, p, q, config)
        }
    }
}

/// Tile-scheduled epoch over a pre-built [`TileGrid`]; the fast path when the
/// same shard is swept many times (training loops, benchmarks), since the
/// per-epoch counting sort in [`hogwild_epoch`] is skipped.
///
/// Threads claim tiles from a shared atomic cursor, so tile load imbalance
/// (Zipf-skewed shards concentrate mass in few tiles) self-levels the way
/// work stealing does.
///
/// # Panics
/// Panics if `config.threads == 0` or if a tile entry indexes outside `p`/`q`.
pub fn hogwild_epoch_tiled<'a>(
    grid: &TileGrid,
    p: impl Into<SharedRows<'a>>,
    q: impl Into<SharedRows<'a>>,
    config: &HogwildConfig,
) -> f64 {
    tiled_epoch_on(grid, p.into(), q.into(), config)
}

/// [`hogwild_epoch_tiled`] on the views: compiled once, here.
fn tiled_epoch_on(
    grid: &TileGrid,
    p: SharedRows<'_>,
    q: SharedRows<'_>,
    config: &HogwildConfig,
) -> f64 {
    assert!(config.threads > 0, "thread count must be non-zero");
    let k = p.k();
    assert_eq!(q.k(), k, "P and Q must share latent dimension");

    if grid.is_empty() {
        return 0.0;
    }

    let threads = config.threads.min(grid.num_tiles());
    let cursor = AtomicUsize::new(0);
    if threads == 1 {
        return sweep_tiles(grid, &cursor, p, q, config);
    }

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            handles.push(scope.spawn(move || sweep_tiles(grid, cursor, p, q, config)));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .sum()
    })
}

fn sweep_stripe(
    entries: &[Rating],
    offset: usize,
    stride: usize,
    p: SharedRows<'_>,
    q: SharedRows<'_>,
    config: &HogwildConfig,
) -> f64 {
    let mut sq_err = 0.0f64;
    let mut idx = offset;
    while idx < entries.len() {
        let e = entries[idx];
        let err = sgd_step_shared(
            &p,
            &q,
            e.u as usize,
            e.i as usize,
            e.r,
            config.learning_rate,
            config.lambda_p,
            config.lambda_q,
        );
        sq_err += (err as f64) * (err as f64);
        idx += stride;
    }
    sq_err
}

fn sweep_tiles(
    grid: &TileGrid,
    cursor: &AtomicUsize,
    p: SharedRows<'_>,
    q: SharedRows<'_>,
    config: &HogwildConfig,
) -> f64 {
    let mut sq_err = 0.0f64;
    loop {
        // ordering: Relaxed — work-stealing tile cursor: the RMW's own
        // atomicity already hands each tile index to exactly one worker;
        // tile entries are immutable shared data published by the spawn
        // edge, so no extra ordering is needed.
        let t = cursor.fetch_add(1, Ordering::Relaxed);
        if t >= grid.num_tiles() {
            return sq_err;
        }
        for e in grid.tile(t) {
            let err = sgd_step_shared(
                &p,
                &q,
                e.u as usize,
                e.i as usize,
                e.r,
                config.learning_rate,
                config.lambda_p,
                config.lambda_q,
            );
            sq_err += (err as f64) * (err as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::{FactorMatrix, SharedFactors};
    use crate::loss::rmse;
    use hcc_sparse::{GenConfig, SyntheticDataset};

    fn setup(k: usize) -> (SyntheticDataset, SharedFactors, SharedFactors) {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 200,
            cols: 100,
            nnz: 5_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let p = SharedFactors::from_matrix(&FactorMatrix::random(200, k, 11));
        let q = SharedFactors::from_matrix(&FactorMatrix::random(100, k, 12));
        (ds, p, q)
    }

    fn cfg(threads: usize, schedule: Schedule) -> HogwildConfig {
        HogwildConfig {
            threads,
            learning_rate: 0.02,
            lambda_p: 0.01,
            lambda_q: 0.01,
            schedule,
        }
    }

    #[test]
    fn single_thread_epoch_reduces_rmse() {
        let (ds, p, q) = setup(8);
        let cfg = cfg(1, Schedule::Stripe);
        let before = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        for _ in 0..15 {
            hogwild_epoch(ds.matrix.entries(), &p, &q, &cfg);
        }
        let after = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        assert!(after < before * 0.5, "rmse {before} -> {after}");
    }

    #[test]
    fn multi_thread_epoch_converges_too() {
        let (ds, p, q) = setup(8);
        let cfg = cfg(4, Schedule::Stripe);
        let before = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        for _ in 0..15 {
            hogwild_epoch(ds.matrix.entries(), &p, &q, &cfg);
        }
        let after = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        assert!(after < before * 0.5, "rmse {before} -> {after}");
    }

    #[test]
    fn tiled_schedule_reaches_same_rmse_band_as_striping() {
        // Convergence parity: same data, same inits, 15 epochs each way.
        let (ds, p_s, q_s) = setup(8);
        let (_, p_t, q_t) = setup(8);
        for _ in 0..15 {
            hogwild_epoch(ds.matrix.entries(), &p_s, &q_s, &cfg(4, Schedule::Stripe));
            hogwild_epoch(ds.matrix.entries(), &p_t, &q_t, &cfg(4, Schedule::Tiled));
        }
        let rmse_stripe = rmse(ds.matrix.entries(), &p_s.snapshot(), &q_s.snapshot());
        let rmse_tiled = rmse(ds.matrix.entries(), &p_t.snapshot(), &q_t.snapshot());
        // Both must have converged hard, and land in the same band (±25%).
        assert!(
            rmse_stripe < 0.5,
            "stripe failed to converge: {rmse_stripe}"
        );
        assert!(rmse_tiled < 0.5, "tiled failed to converge: {rmse_tiled}");
        let ratio = rmse_tiled / rmse_stripe;
        assert!(
            (0.75..1.34).contains(&ratio),
            "rmse band mismatch: {rmse_stripe} vs {rmse_tiled}"
        );
    }

    #[test]
    fn tiled_epoch_over_prebuilt_grid_matches_adhoc() {
        // hogwild_epoch(Tiled) and hogwild_epoch_tiled over the same grid
        // must do the same updates (single thread => deterministic order).
        let (ds, p_a, q_a) = setup(8);
        let (_, p_b, q_b) = setup(8);
        let config = cfg(1, Schedule::Tiled);
        let loss_a = hogwild_epoch(ds.matrix.entries(), &p_a, &q_a, &config);
        let grid =
            TileGrid::with_default_budget(ds.matrix.entries(), p_b.rows(), q_b.rows(), p_b.k());
        let loss_b = hogwild_epoch_tiled(&grid, &p_b, &q_b, &config);
        assert_eq!(loss_a, loss_b);
        assert_eq!(p_a.snapshot(), p_b.snapshot());
        assert_eq!(q_a.snapshot(), q_b.snapshot());
    }

    #[test]
    fn a_numbered_chunk_of_q_tiles_and_trains_as_the_whole_matrix_does() {
        // k = 128 makes a tile 256 rows square, so 600 items are three tile
        // columns; the chunk holds items 300..600 and starts mid-tile.
        let _guard = crate::simd::test_lock();
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 700,
            cols: 600,
            nnz: 6_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let entries = ds.matrix.entries().iter();
        let chunk: Vec<Rating> = entries.filter(|e| e.i >= 300).copied().collect();
        for schedule in [Schedule::Stripe, Schedule::Tiled] {
            let config = cfg(1, schedule);
            let mut p_whole = FactorMatrix::random(700, 128, 3);
            let mut q_whole = FactorMatrix::random(600, 128, 4);
            let (mut p, q) = (p_whole.clone(), q_whole.clone());
            let loss_whole = hogwild_epoch(&chunk, p_whole.shared(), q_whole.shared(), &config);
            let mut rows = q.as_slice()[300 * 128..].to_vec();
            let view = SharedRows::new(&mut rows, 128).numbered_from(300);
            let loss = hogwild_epoch(&chunk, p.shared(), view, &config);
            assert_eq!(loss, loss_whole, "{schedule}");
            assert_eq!(p, p_whole, "{schedule}");
            assert_eq!(rows, q_whole.as_slice()[300 * 128..], "{schedule}");
            assert_eq!(q_whole.as_slice()[..300 * 128], q.as_slice()[..300 * 128]);
        }
    }

    #[test]
    fn empty_shard_is_noop() {
        let (_, p, q) = setup(4);
        let snap = p.snapshot();
        let cfg = HogwildConfig::with_threads(4, 0.01);
        let loss = hogwild_epoch(&[], &p, &q, &cfg);
        assert_eq!(loss, 0.0);
        assert_eq!(p.snapshot(), snap);
        let grid = TileGrid::with_default_budget(&[], p.rows(), q.rows(), p.k());
        assert_eq!(hogwild_epoch_tiled(&grid, &p, &q, &cfg), 0.0);
        assert_eq!(p.snapshot(), snap);
    }

    #[test]
    fn more_threads_than_entries_is_fine() {
        let (ds, p, q) = setup(4);
        let few = &ds.matrix.entries()[..3];
        let cfg = HogwildConfig::with_threads(16, 0.01);
        let loss = hogwild_epoch(few, &p, &q, &cfg);
        assert!(loss.is_finite());
        let tiled = HogwildConfig {
            schedule: Schedule::Tiled,
            ..cfg
        };
        let loss = hogwild_epoch(few, &p, &q, &tiled);
        assert!(loss.is_finite());
    }

    #[test]
    fn returned_loss_is_sum_of_squared_errors_single_thread() {
        // Replay must hit the same backend as the epoch for exact equality.
        let _guard = crate::simd::test_lock();
        let (ds, p, q) = setup(4);
        let entries = &ds.matrix.entries()[..10];
        // Compute expected running loss with an independent serial replay.
        let p2 = SharedFactors::from_matrix(&p.snapshot());
        let q2 = SharedFactors::from_matrix(&q.snapshot());
        let cfg = HogwildConfig {
            threads: 1,
            learning_rate: 0.01,
            lambda_p: 0.0,
            lambda_q: 0.0,
            schedule: Schedule::Stripe,
        };
        let got = hogwild_epoch(entries, &p, &q, &cfg);
        let mut want = 0.0f64;
        for e in entries {
            let err = crate::kernel::sgd_step_shared(
                &p2.view(),
                &q2.view(),
                e.u as usize,
                e.i as usize,
                e.r,
                0.01,
                0.0,
                0.0,
            );
            want += (err as f64) * (err as f64);
        }
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn schedule_parses_and_displays() {
        assert_eq!("stripe".parse::<Schedule>().unwrap(), Schedule::Stripe);
        assert_eq!("tiled".parse::<Schedule>().unwrap(), Schedule::Tiled);
        assert!("diagonal".parse::<Schedule>().is_err());
        assert_eq!(Schedule::Tiled.to_string(), "tiled");
        assert_eq!(Schedule::default(), Schedule::Stripe);
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_panics() {
        let (ds, p, q) = setup(4);
        let cfg = HogwildConfig {
            threads: 0,
            learning_rate: 0.01,
            lambda_p: 0.0,
            lambda_q: 0.0,
            schedule: Schedule::Stripe,
        };
        hogwild_epoch(ds.matrix.entries(), &p, &q, &cfg);
    }
}
