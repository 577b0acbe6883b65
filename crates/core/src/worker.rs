//! Worker-side state and the per-epoch compute sweep.
//!
//! A worker owns a contiguous row range of `P` outright (row grid, §3.3)
//! and trains on those rows where the session keeps them; of `Q` it keeps
//! its own copy, one region per column chunk, which is pulled into, trained
//! on where it landed and pushed from. Shard entries are stored with row
//! indices already rebased to the worker's range so the hot loop indexes
//! its rows of `P` directly.

use crate::config::WorkerSpec;
use hcc_sgd::{
    adagrad_hogwild_epoch, hogwild_epoch, momentum_hogwild_epoch, AdaGradState, HogwildConfig,
    MomentumState, SharedRows,
};
use hcc_sparse::Rating;
use parking_lot::Mutex;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Entries per throttle slice: small enough that a throttled worker's sleep
/// injection tracks its target rate closely, large enough to amortize the
/// per-call thread spawn.
const THROTTLE_CHUNK: usize = 65_536;

/// One worker's in-memory state.
pub(crate) struct WorkerState {
    /// Static description.
    pub spec: WorkerSpec,
    /// Shard entries; `u` is rebased by `row_range.start`. Stably grouped
    /// by column chunk ([`group_by_chunk`]).
    pub entries: Vec<Rating>,
    /// `entries[chunk_entries[c]]` are the entries whose column falls in
    /// chunk `c` of `Q` — the work of pipeline step `c`.
    pub chunk_entries: Vec<Range<usize>>,
    /// Owned global `P` rows.
    pub row_range: Range<u32>,
    /// `regions[c]`: this worker's copy of column chunk `c` of `Q`, laid out
    /// as the chunk's pull region ([`RegionLayout`]) — the buffer the chunk
    /// is pulled into is the one the kernel trains on and the push leaves
    /// from. Sized when the worker is built — on the session's thread, not
    /// by the first epoch's worker thread — so an epoch allocates none. Only
    /// the stage working on chunk `c` locks it.
    ///
    /// [`RegionLayout`]: crate::server::RegionLayout
    pub regions: Vec<Mutex<Vec<f32>>>,
    /// The per-update rule this worker runs, with its state.
    pub optimizer: OptimizerState,
}

/// A worker's per-update rule together with what that rule keeps between
/// epochs (and the rule's own constant, ε or β), so a rule cannot run
/// without its state. Reset on repartition, which re-creates worker states.
pub(crate) enum OptimizerState {
    /// Plain SGD.
    Sgd,
    /// AdaGrad with its accumulators.
    AdaGrad(AdaGradState),
    /// Heavy-ball momentum with its velocity buffers.
    Momentum(MomentumState),
}

impl WorkerState {
    /// Runs one Hogwild epoch of this worker's rule over the shard (or one
    /// chunk of it) on this worker's rows of `P` and the rows of `Q` the
    /// entries name, honouring the throttle. Returns elapsed compute time.
    pub fn compute(
        &self,
        entries: &[Rating],
        p: SharedRows<'_>,
        q: SharedRows<'_>,
        config: &HogwildConfig,
    ) -> Duration {
        let start = Instant::now();
        let run = |chunk: &[Rating]| match &self.optimizer {
            OptimizerState::Sgd => hogwild_epoch(chunk, p, q, config),
            OptimizerState::AdaGrad(state) => adagrad_hogwild_epoch(chunk, p, q, state, config),
            OptimizerState::Momentum(state) => momentum_hogwild_epoch(chunk, p, q, state, config),
        };
        if self.spec.speed_factor >= 1.0 {
            run(entries);
        } else {
            for chunk in entries.chunks(THROTTLE_CHUNK) {
                let t0 = Instant::now();
                run(chunk);
                let elapsed = t0.elapsed();
                let penalty =
                    elapsed.mul_f64((1.0 - self.spec.speed_factor) / self.spec.speed_factor);
                std::thread::sleep(penalty);
            }
        }
        start.elapsed()
    }

    /// The rows of the global `P` this worker owns.
    pub fn p_rows(&self) -> Range<usize> {
        self.row_range.start as usize..self.row_range.end as usize
    }
}

/// Rebases shard entries, in place, to a worker-local row origin.
pub(crate) fn rebase_rows(entries: &mut [Rating], row_lo: u32) {
    for e in entries {
        debug_assert!(e.u >= row_lo, "entry row below shard range");
        e.u -= row_lo;
    }
}

/// Tiles `n` columns of `Q` into at most `chunks` contiguous, non-empty
/// ranges of equal width (the last may be short) — the same range tiling
/// the sharded server uses for rows.
pub(crate) fn chunk_col_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    let width = n.div_ceil(chunks).max(1);
    (0..n)
        .step_by(width)
        .map(|lo| lo..(lo + width).min(n))
        .collect()
}

/// Stably groups `entries` by the column range of `cols` (as tiled by
/// [`chunk_col_ranges`]) they fall in; returns each range's slice of
/// `entries`. One range leaves the order untouched.
pub(crate) fn group_by_chunk(entries: &mut [Rating], cols: &[Range<usize>]) -> Vec<Range<usize>> {
    let width = cols.first().map_or(1, |r| r.len());
    // One range is in order as it is; a stable sort would still allocate
    // its scratch buffer, a third copy of the shard.
    if cols.len() > 1 {
        entries.sort_by_key(|e| e.i as usize / width);
    }
    let mut lo = 0;
    (0..cols.len())
        .map(|c| {
            let hi = lo + entries[lo..].partition_point(|e| e.i as usize / width <= c);
            std::mem::replace(&mut lo, hi)..hi
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_sgd::FactorMatrix;

    fn make_state(speed: f64, entries: Vec<Rating>) -> WorkerState {
        WorkerState {
            spec: WorkerSpec::cpu(2).throttled(speed),
            entries,
            chunk_entries: Vec::new(),
            row_range: 0..10,
            regions: Vec::new(),
            optimizer: OptimizerState::Sgd,
        }
    }

    /// Unregularized steps of `lr` on the two threads the spec names.
    fn config(lr: f32) -> HogwildConfig {
        HogwildConfig {
            learning_rate: lr,
            ..HogwildConfig::with_threads(2, 0.0)
        }
    }

    /// The `P` (10 rows) and `Q` (8 rows) that [`entries`] index.
    fn factors() -> (FactorMatrix, FactorMatrix) {
        (
            FactorMatrix::random(10, 4, 1),
            FactorMatrix::random(8, 4, 2),
        )
    }

    fn entries(count: usize) -> Vec<Rating> {
        (0..count)
            .map(|j| Rating::new((j % 10) as u32, (j % 8) as u32, 3.0))
            .collect()
    }

    #[test]
    fn compute_updates_factors() {
        let state = make_state(1.0, entries(500));
        let (mut p, mut q) = factors();
        let before = (p.clone(), q.clone());
        let elapsed = state.compute(&state.entries, p.shared(), q.shared(), &config(0.05));
        assert!(elapsed > Duration::ZERO);
        assert_ne!(p, before.0);
        assert_ne!(q, before.1);
    }

    #[test]
    fn throttled_worker_is_slower() {
        let work = entries(200_000);
        let fast = make_state(1.0, work.clone());
        let slow = make_state(0.25, work);
        let (mut p, mut q) = factors();
        let t_fast = fast.compute(&fast.entries, p.shared(), q.shared(), &config(0.01));
        let t_slow = slow.compute(&slow.entries, p.shared(), q.shared(), &config(0.01));
        // Target is 4×; accept ≥ 2× to keep the test robust on loaded CI.
        assert!(
            t_slow > t_fast * 2,
            "throttle ineffective: fast {t_fast:?} slow {t_slow:?}"
        );
    }

    #[test]
    fn rebase_shifts_rows() {
        let mut shard = vec![Rating::new(5, 1, 1.0), Rating::new(9, 2, 2.0)];
        rebase_rows(&mut shard, 5);
        assert_eq!(shard[0].u, 0);
        assert_eq!(shard[1].u, 4);
        assert_eq!(shard[1].i, 2);
    }

    #[test]
    fn chunk_groups_partition_by_column_and_keep_order() {
        let mut all = entries(100);
        let original = all.clone();
        let cols = chunk_col_ranges(8, 3);
        let groups = group_by_chunk(&mut all, &cols);
        assert_eq!(groups.len(), cols.len());
        assert_eq!(groups.last().unwrap().end, 100);
        for (range, group) in cols.iter().zip(&groups) {
            let want: Vec<Rating> = original
                .iter()
                .filter(|e| range.contains(&(e.i as usize)))
                .copied()
                .collect();
            assert_eq!(all[group.clone()], want[..], "columns {range:?}");
        }
    }

    #[test]
    fn chunk_ranges_tile_the_columns_without_empties() {
        for (n, chunks) in [(8usize, 3usize), (10, 4), (5, 5), (3, 8), (100, 1)] {
            let ranges = chunk_col_ranges(n, chunks);
            assert!(ranges.len() <= chunks, "n={n} chunks={chunks}");
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered);
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, n, "n={n} chunks={chunks}");
        }
    }

    #[test]
    fn rows_counts_range() {
        let state = make_state(1.0, vec![]);
        assert_eq!(state.p_rows(), 0..10);
    }
}
