//! Hogwild-style asynchronous parallel SGD over an entry shard.
//!
//! This is the compute engine inside each HCC-MF CPU worker (framework step
//! ⑥): `threads` OS threads sweep the shard, updating the shared local factor
//! matrices without locks. Races on hot rows are benign per Hogwild's
//! analysis (sparse data ⇒ rare conflicts ⇒ convergence holds), which is
//! exactly the argument the paper leans on in §2.1 and §4.2.
//!
//! The sweep and its thread fan-out exist once, in this module's driver,
//! and the one update rule it applies is plain SGD ([`hogwild_epoch`])
//! under a [`HogwildConfig`]. What a thread sweeps, and when, is a *deal*:
//! the driver asks it for a thread's next run of entries, handing back the
//! run the thread just finished. The paper's
//! [comparators](crate::baselines) are deals of their own; a worker's epoch
//! uses the two static ones, one per [`Schedule`]:
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

/// Which entry-to-thread assignment a Hogwild epoch uses.
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

/// The one configuration of a Hogwild epoch.
#[derive(Debug, Clone, Copy)]
pub struct HogwildConfig {
    /// Worker threads to spawn (1 = the sweep runs on the caller's thread).
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

/// Entries one thread sweeps in order: `entries[0], entries[step], …`.
/// `id` names the run to the deal that handed it out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run<'a> {
    pub(crate) id: usize,
    pub(crate) entries: &'a [Rating],
    pub(crate) step: usize,
}

impl<'a> Run<'a> {
    /// Every entry of `entries`, as run `id`.
    pub(crate) fn all(id: usize, entries: &'a [Rating]) -> Self {
        Run {
            id,
            entries,
            step: 1,
        }
    }
}

/// Which entries each thread of a [`drive`] pass sweeps, and when.
pub(crate) trait Deal<'a>: Sync {
    /// The most threads the pass can keep busy; [`drive`] starts no more.
    fn width(&self) -> usize;

    /// Thread `t` of `threads` has swept `done` (`None` on its first call):
    /// its next run, or `None` once it has nothing left this pass. May block
    /// until another thread finishes a run, so the pass ends only if all
    /// `threads` sweeps run at once.
    fn next(&self, t: usize, threads: usize, done: Option<Run<'a>>) -> Option<Run<'a>>;
}

/// [`Schedule::Stripe`]: thread `t` of `n` sweeps `entries[t], entries[t +
/// n], …` as one run.
pub(crate) struct Stripe<'a>(pub(crate) &'a [Rating]);

impl<'a> Deal<'a> for Stripe<'a> {
    fn width(&self) -> usize {
        self.0.len()
    }

    fn next(&self, t: usize, threads: usize, done: Option<Run<'a>>) -> Option<Run<'a>> {
        done.is_none().then(|| Run {
            id: t,
            entries: &self.0[t..],
            step: threads,
        })
    }
}

/// Threads claim blocks `0..blocks` (`block(b)` is block `b`'s entries) in
/// turn from one shared cursor, so uneven blocks self-level the way work
/// stealing does: [`Schedule::Tiled`]'s tiles, a DSGD stratum's blocks,
/// CuMF_SGD's batches.
pub(crate) struct Claim<F> {
    blocks: usize,
    block: F,
    cursor: AtomicUsize,
}

impl<F> Claim<F> {
    pub(crate) fn new<'a>(blocks: usize, block: F) -> Self
    where
        F: Fn(usize) -> &'a [Rating],
    {
        Claim {
            blocks,
            block,
            cursor: AtomicUsize::new(0),
        }
    }
}

impl<'a, F: Fn(usize) -> &'a [Rating] + Sync> Deal<'a> for Claim<F> {
    fn width(&self) -> usize {
        self.blocks
    }

    fn next(&self, _: usize, _: usize, _: Option<Run<'a>>) -> Option<Run<'a>> {
        // ordering: Relaxed — work-stealing block cursor: the RMW's own
        // atomicity already hands each block index to exactly one thread;
        // block entries are immutable shared data published by the spawn
        // edge, so no extra ordering is needed.
        let b = self.cursor.fetch_add(1, Ordering::Relaxed);
        (b < self.blocks).then(|| Run::all(b, (self.block)(b)))
    }
}

/// The Hogwild driver every epoch and comparator runs on: `threads`
/// threads (at most `deal.width()`) each sweep the runs `deal` hands them,
/// calling `step` on each entry, and the driver returns the summed squares
/// of the errors `step` returns (measured *before* each update, so a running
/// training loss, not a post-epoch one), summed thread by thread in thread
/// order. One thread runs the sweep on the caller's thread; more run as
/// scoped threads, joined before the driver returns. All `min(threads,
/// deal.width())` sweeps must run concurrently: a blocking deal (FPSGD's
/// free blocks, NOMAD's ring) waits on runs the other threads hold, and
/// NOMAD's ring moves a column on only when its next holder sweeps it.
///
/// # Panics
/// Panics if `threads == 0`; a panic in `step` is resumed on the caller.
pub(crate) fn drive<'a, F>(deal: &impl Deal<'a>, threads: usize, step: F) -> f64
where
    F: Fn(&Rating) -> f32 + Sync,
{
    assert!(threads > 0, "thread count must be non-zero");
    let threads = threads.min(deal.width());
    let sweep = |t: usize| {
        let mut sq_err = 0.0f64;
        let mut run = deal.next(t, threads, None);
        while let Some(done) = run {
            let mut idx = 0;
            while idx < done.entries.len() {
                let err = step(&done.entries[idx]);
                sq_err += (err as f64) * (err as f64);
                idx += done.step;
            }
            run = deal.next(t, threads, Some(done));
        }
        sq_err
    };
    match threads {
        0 => 0.0,
        1 => sweep(0),
        _ => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| scope.spawn(move || sweep(t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .sum()
        }),
    }
}

/// Plain SGD's per-entry step ([`sgd_step_shared`]) at `config`'s learning
/// rate and regularization.
///
/// # Panics
/// Panics if `p` and `q` differ in latent dimension: the step's kernel
/// reads and writes `p.k()` lanes of a `q` row.
pub(crate) fn sgd<'r>(
    p: SharedRows<'r>,
    q: SharedRows<'r>,
    config: &HogwildConfig,
) -> impl Fn(&Rating) -> f32 + Sync + 'r {
    assert_eq!(q.k(), p.k(), "P and Q must share latent dimension");
    let HogwildConfig {
        learning_rate,
        lambda_p,
        lambda_q,
        ..
    } = *config;
    move |e: &Rating| {
        let (u, i) = (e.u as usize, e.i as usize);
        sgd_step_shared(&p, &q, u, i, e.r, learning_rate, lambda_p, lambda_q)
    }
}

/// Runs one asynchronous epoch of plain SGD (the [`sgd_step`](crate::sgd_step)
/// rule on shared rows) over `entries`, updating `p` and `q` in place. Both
/// are anything that lends [`SharedRows`]: a `&SharedFactors`, or a view of
/// plain rows somebody holds exclusively. [`Schedule::Tiled`] builds a
/// [`TileGrid`] for the shard first (one `O(nnz)` counting sort).
///
/// Returns the summed squared prediction error observed during the sweep
/// (errors are measured *before* each update, so this is a running training
/// loss, not a post-epoch loss).
///
/// # Panics
/// Panics if `config.threads == 0`, if `p` and `q` differ in latent
/// dimension, or if an entry indexes outside `p`/`q`.
pub fn hogwild_epoch<'a>(
    entries: &[Rating],
    p: impl Into<SharedRows<'a>>,
    q: impl Into<SharedRows<'a>>,
    config: &HogwildConfig,
) -> f64 {
    sgd_epoch(entries, p.into(), q.into(), config)
}

/// [`hogwild_epoch`] on the views, compiled once: [`drive`] over `entries`
/// dealt by `config.schedule` with `config.threads` threads. Entries are
/// striped rather than chunked, which interleaves hot head-of-file rows
/// across threads after the preprocessing shuffle. A tiled shard is sized by
/// the last row each view answers to, so a view of some rows of a matrix
/// tiles its entries as the whole matrix would.
fn sgd_epoch(
    entries: &[Rating],
    p: SharedRows<'_>,
    q: SharedRows<'_>,
    config: &HogwildConfig,
) -> f64 {
    let step = sgd(p, q, config);
    match config.schedule {
        // An empty shard has nothing to tile.
        Schedule::Tiled if !entries.is_empty() => {
            let (rows, cols) = (p.row_range().end, q.row_range().end);
            let grid = TileGrid::with_default_budget(entries, rows, cols, p.k());
            let tiles = Claim::new(grid.num_tiles(), |t| grid.tile(t));
            drive(&tiles, config.threads, step)
        }
        _ => drive(&Stripe(entries), config.threads, step),
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

    /// Plain SGD's step panics on views of different `k` before it writes
    /// past `q`'s row.
    #[test]
    fn plain_sgd_step_rejects_views_of_different_k() {
        let mut p = [0.5f32; 8];
        let mut buf = [7.0f32; 8];
        let (q, _) = buf.split_at_mut(4);
        q.fill(0.5);
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (p, q) = (SharedRows::new(&mut p, 8), SharedRows::new(q, 4));
            sgd(p, q, &cfg(1, Schedule::Stripe))(&Rating { u: 0, i: 0, r: 4.0 })
        }));
        assert!(hit.is_err(), "a step over k = 8 and k = 4 returned");
        assert_eq!(buf[4..], [7.0; 4], "the step wrote past q's row");
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
        // hogwild_epoch(Tiled) and the driver over a grid built beforehand
        // must do the same updates (single thread => deterministic order).
        let (ds, p_a, q_a) = setup(8);
        let (_, p_b, q_b) = setup(8);
        let config = cfg(1, Schedule::Tiled);
        let loss_a = hogwild_epoch(ds.matrix.entries(), &p_a, &q_a, &config);
        let grid =
            TileGrid::with_default_budget(ds.matrix.entries(), p_b.rows(), q_b.rows(), p_b.k());
        let (p, q) = (p_b.view(), q_b.view());
        let tiles = Claim::new(grid.num_tiles(), |t| grid.tile(t));
        let loss_b = drive(&tiles, 1, |e| {
            sgd_step_shared(&p, &q, e.u as usize, e.i as usize, e.r, 0.02, 0.01, 0.01)
        });
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
        let tiled = HogwildConfig {
            schedule: Schedule::Tiled,
            ..cfg
        };
        assert_eq!(hogwild_epoch(&[], &p, &q, &tiled), 0.0);
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

    /// The bit patterns of `parts`, concatenated.
    fn bits(parts: &[&[f32]]) -> Vec<u32> {
        parts
            .iter()
            .flat_map(|p| p.iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn returned_loss_is_sum_of_squared_errors_single_thread() {
        // An epoch under either schedule, at one thread, is a serial replay
        // of the SGD step: over the entries in order when striped, over the
        // grid's tiles in order when tiled. Loss and factor bits must both
        // match, so the replay must hit the same backend as the epoch.
        let _guard = crate::simd::test_lock();
        const K: usize = 128; // a tile is 256 rows square: 600 x 600 is 3 x 3 tiles
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 600,
            cols: 600,
            nnz: 3_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let entries = ds.matrix.entries();
        let (p0, q0) = (
            FactorMatrix::random(600, K, 11),
            FactorMatrix::random(600, K, 12),
        );
        for schedule in [Schedule::Stripe, Schedule::Tiled] {
            let config = HogwildConfig {
                threads: 1,
                learning_rate: 0.01,
                lambda_p: 0.02,
                lambda_q: 0.03,
                schedule,
            };
            let order: Vec<Rating> = match schedule {
                Schedule::Stripe => entries.to_vec(),
                Schedule::Tiled => {
                    let grid = TileGrid::with_default_budget(entries, 600, 600, K);
                    assert_eq!(grid.num_tiles(), 9);
                    (0..9).flat_map(|t| grid.tile(t).to_vec()).collect()
                }
            };
            let (mut p_epoch, mut q_epoch) = (p0.clone(), q0.clone());
            let got = hogwild_epoch(entries, p_epoch.shared(), q_epoch.shared(), &config);
            let (mut p_replay, mut q_replay) = (p0.clone(), q0.clone());
            let (p, q) = (p_replay.shared(), q_replay.shared());
            let mut want = 0.0f64;
            for e in &order {
                let (u, i) = (e.u as usize, e.i as usize);
                let err = sgd_step_shared(&p, &q, u, i, e.r, 0.01, 0.02, 0.03);
                want += (err as f64) * (err as f64);
            }
            assert_eq!(got.to_bits(), want.to_bits(), "{schedule}: loss");
            let epoch_bits = bits(&[p_epoch.as_slice(), q_epoch.as_slice()]);
            let replay_bits = bits(&[p_replay.as_slice(), q_replay.as_slice()]);
            assert!(epoch_bits == replay_bits, "{schedule}: factor bits");
        }
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
