//! Worker-side state and the per-epoch compute sweep.
//!
//! A worker owns a contiguous row range of `P` outright (row grid, §3.3),
//! keeps a private copy of `Q`, and sweeps its shard with Hogwild SGD. Shard
//! entries are stored with row indices already rebased to the worker's range
//! so the hot loop indexes `local_p` directly.

use crate::config::WorkerSpec;
use crate::server::RegionLayout;
use hcc_comm::TransferStrategy;
use hcc_sgd::adagrad::{adagrad_hogwild_epoch, AdaGradConfig, AdaGradState};
use hcc_sgd::momentum::{momentum_hogwild_epoch, MomentumConfig, MomentumState};
use hcc_sgd::{hogwild_epoch, HogwildConfig, Schedule, SharedFactors};
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
    /// Local `P` slice, `row_range.len() × k`.
    pub local_p: SharedFactors,
    /// Local `Q` copy, `n × k`.
    pub local_q: SharedFactors,
    /// `regions[c]`: the staging region chunk `c` is pulled into and pushed
    /// from, sized for the larger of the two when the worker is built — on
    /// the session's thread, not by the first epoch's worker thread — so an
    /// epoch allocates none. Only the stage working on chunk `c` locks it.
    pub regions: Vec<Mutex<Vec<f32>>>,
    /// The per-update rule this worker runs, with its state.
    pub optimizer: OptimizerState,
}

/// A worker's per-update rule together with what that rule keeps between
/// epochs, so a rule cannot run without its state. Reset on repartition,
/// which re-creates worker states.
pub(crate) enum OptimizerState {
    /// Plain SGD; `schedule` maps entries to Hogwild threads (the other
    /// kernels keep their own striped sweeps).
    Sgd { schedule: Schedule },
    /// AdaGrad with its accumulators.
    AdaGrad {
        eta0: f32,
        epsilon: f32,
        state: AdaGradState,
    },
    /// Heavy-ball momentum with its velocity buffers.
    Momentum { beta: f32, state: MomentumState },
}

impl WorkerState {
    /// Runs one epoch of Hogwild SGD over the shard (or one chunk of it),
    /// honouring the throttle. Returns elapsed compute time.
    pub fn compute(&self, entries: &[Rating], lr: f32, lambda_p: f32, lambda_q: f32) -> Duration {
        let start = Instant::now();
        let run = |chunk: &[Rating]| match &self.optimizer {
            OptimizerState::AdaGrad {
                eta0,
                epsilon,
                state,
            } => {
                let cfg = AdaGradConfig {
                    threads: self.spec.threads,
                    eta0: *eta0,
                    lambda_p,
                    lambda_q,
                    epsilon: *epsilon,
                };
                adagrad_hogwild_epoch(chunk, &self.local_p, &self.local_q, state, &cfg);
            }
            OptimizerState::Momentum { beta, state } => {
                let cfg = MomentumConfig {
                    threads: self.spec.threads,
                    learning_rate: lr,
                    beta: *beta,
                    lambda_p,
                    lambda_q,
                };
                momentum_hogwild_epoch(chunk, &self.local_p, &self.local_q, state, &cfg);
            }
            OptimizerState::Sgd { schedule } => {
                let cfg = HogwildConfig {
                    threads: self.spec.threads,
                    learning_rate: lr,
                    lambda_p,
                    lambda_q,
                    schedule: *schedule,
                };
                hogwild_epoch(chunk, &self.local_p, &self.local_q, &cfg);
            }
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

    /// Number of rows this worker owns.
    pub fn rows(&self) -> usize {
        (self.row_range.end - self.row_range.start) as usize
    }

    /// The element range of this worker's rows within the global `P`.
    pub fn p_elems(&self) -> Range<usize> {
        let k = self.local_p.k();
        self.row_range.start as usize * k..self.row_range.end as usize * k
    }

    /// Unpacks a pulled region into the local factors: `Q` rows `cols`,
    /// and under `FullPq` this worker's own rows of the shipped `P`.
    pub fn load_region(
        &self,
        region: &[f32],
        layout: &RegionLayout,
        cols: &Range<usize>,
        strategy: TransferStrategy,
    ) {
        let k = self.local_q.k();
        self.local_q.copy_rows_from_slice(
            cols.start,
            cols.end,
            &region[layout.pull_q_offset..layout.pull_q_offset + cols.len() * k],
        );
        if strategy == TransferStrategy::FullPq && self.rows() > 0 {
            let lo = self.row_range.start as usize;
            self.local_p.copy_rows_from_slice(
                0,
                self.rows(),
                &region[lo * k..(lo + self.rows()) * k],
            );
        }
    }

    /// Packs the region this worker pushes — `Q` rows `cols`, preceded
    /// under `FullPq` by its `P` rows — into `region`; returns its length.
    pub fn store_region(
        &self,
        region: &mut [f32],
        layout: &RegionLayout,
        cols: &Range<usize>,
        strategy: TransferStrategy,
    ) -> usize {
        let k = self.local_q.k();
        if strategy == TransferStrategy::FullPq {
            self.local_p
                .read_rows_into(0, self.rows(), &mut region[..self.rows() * k]);
        }
        let end = layout.push_q_offset + cols.len() * k;
        self.local_q
            .read_rows_into(cols.start, cols.end, &mut region[layout.push_q_offset..end]);
        end
    }
}

/// Rebases shard entries to a worker-local row origin.
pub(crate) fn rebase_entries(entries: &[Rating], row_lo: u32) -> Vec<Rating> {
    entries
        .iter()
        .map(|e| {
            debug_assert!(e.u >= row_lo, "entry row below shard range");
            Rating::new(e.u - row_lo, e.i, e.r)
        })
        .collect()
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
    entries.sort_by_key(|e| e.i as usize / width);
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
            local_p: SharedFactors::from_matrix(&FactorMatrix::random(10, 4, 1)),
            local_q: SharedFactors::from_matrix(&FactorMatrix::random(8, 4, 2)),
            regions: Vec::new(),
            optimizer: OptimizerState::Sgd {
                schedule: Schedule::Stripe,
            },
        }
    }

    fn entries(count: usize) -> Vec<Rating> {
        (0..count)
            .map(|j| Rating::new((j % 10) as u32, (j % 8) as u32, 3.0))
            .collect()
    }

    #[test]
    fn compute_updates_factors() {
        let state = make_state(1.0, entries(500));
        let before = state.local_q.snapshot();
        let elapsed = state.compute(&state.entries, 0.05, 0.0, 0.0);
        assert!(elapsed > Duration::ZERO);
        assert_ne!(state.local_q.snapshot(), before);
    }

    #[test]
    fn throttled_worker_is_slower() {
        let work = entries(200_000);
        let fast = make_state(1.0, work.clone());
        let slow = make_state(0.25, work);
        let t_fast = fast.compute(&fast.entries, 0.01, 0.0, 0.0);
        let t_slow = slow.compute(&slow.entries, 0.01, 0.0, 0.0);
        // Target is 4×; accept ≥ 2× to keep the test robust on loaded CI.
        assert!(
            t_slow > t_fast * 2,
            "throttle ineffective: fast {t_fast:?} slow {t_slow:?}"
        );
    }

    #[test]
    fn rebase_shifts_rows() {
        let shard = vec![Rating::new(5, 1, 1.0), Rating::new(9, 2, 2.0)];
        let rebased = rebase_entries(&shard, 5);
        assert_eq!(rebased[0].u, 0);
        assert_eq!(rebased[1].u, 4);
        assert_eq!(rebased[1].i, 2);
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
    fn region_helpers_round_trip_q_only_and_full_pq() {
        use crate::server::region_layout;
        let state = make_state(1.0, vec![]);
        let (m, n, k) = (30, 8, 4);
        let before = (state.local_p.snapshot(), state.local_q.snapshot());
        // Q-only, a middle chunk: the region is exactly those Q rows.
        let cols = 2..5;
        let layout = region_layout(TransferStrategy::QOnly, m, cols.len(), k, 10);
        let mut region = vec![0f32; layout.push_len];
        let len = state.store_region(&mut region, &layout, &cols, TransferStrategy::QOnly);
        assert_eq!(len, 3 * k);
        assert_eq!(region, state.local_q.snapshot_rows(2, 5));
        // FullPq: [P rows | Q] out, and back in from a [P | Q] pull region
        // in which this worker's rows sit at its row range.
        let cols = 0..n;
        let layout = region_layout(TransferStrategy::FullPq, m, n, k, 12);
        let mut pushed = vec![0f32; layout.push_len];
        let len = state.store_region(&mut pushed, &layout, &cols, TransferStrategy::FullPq);
        assert_eq!(len, layout.push_q_offset + n * k);
        assert_eq!(pushed[..10 * k], state.local_p.snapshot_rows(0, 10)[..]);
        let mut pulled = vec![0f32; layout.pull_len];
        pulled[..10 * k].copy_from_slice(&pushed[..10 * k]);
        pulled[layout.pull_q_offset..].copy_from_slice(&pushed[layout.push_q_offset..len]);
        state.local_p.copy_from(&FactorMatrix::zeros(10, k));
        state.local_q.copy_from(&FactorMatrix::zeros(n, k));
        state.load_region(&pulled, &layout, &cols, TransferStrategy::FullPq);
        assert_eq!((state.local_p.snapshot(), state.local_q.snapshot()), before);
    }

    #[test]
    fn rows_counts_range() {
        let state = make_state(1.0, vec![]);
        assert_eq!(state.rows(), 10);
    }
}
