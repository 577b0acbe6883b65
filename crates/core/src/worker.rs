//! Worker-side state and the per-round compute sweep.
//!
//! A worker owns a contiguous row range of `P` outright (row grid, §3.3)
//! and trains on those rows where the session keeps them. Of `Q` it holds
//! one region, with one link to the server and one peer link the worker
//! before it in the ring hands it bands over: in every round the region
//! receives the band the worker holds, is trained on where it landed, and
//! is sent on from there — to the next holder, or in the epoch's last round
//! to the server. Shard entries are stored rebased, once, when the shards
//! are dealt (`deal`): the row to the worker's range, so the hot loop
//! indexes its rows of `P` directly. Their items are positions in the band
//! order already, as the session's ratings and `Q` store them, so a band is
//! a contiguous range of them.

use crate::config::WorkerSpec;
use hcc_comm::{ChaosTransport, Transport};
use hcc_sgd::{hogwild_epoch, HogwildConfig, SharedRows};
use hcc_sparse::{GridPartition, Rating};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Entries per throttle slice: small enough that a throttled worker's sleep
/// injection tracks its target rate closely, large enough to amortize the
/// per-call thread spawn.
const THROTTLE_CHUNK: usize = 65_536;

/// One worker's in-memory state.
pub(crate) struct WorkerState {
    /// Static description.
    pub spec: WorkerSpec,
    /// Shard entries as [`deal`] left them: `u` relative to `row_range`,
    /// `i` the item's position in the band order, stably grouped by chunk.
    pub entries: Vec<Rating>,
    /// `entries[chunk_entries[c]]` are the entries whose item falls in
    /// chunk `c` of the round plan, a band's one chunk.
    pub chunk_entries: Vec<Range<usize>>,
    /// Owned global `P` rows.
    pub row_range: Range<u32>,
    /// This worker's copy of the band it holds, in its first
    /// `band.len() · k` floats — the buffer the band is pulled into is the
    /// one the kernel trains on and the push leaves from. Sized for the
    /// longest band when the worker is built — on the session's thread, not
    /// by the first epoch's worker thread — so an epoch allocates none.
    pub region: Mutex<Vec<f32>>,
    /// The wire to the server `region` is pulled into and pushed from.
    pub link: Link,
    /// The wire a band is handed to this worker over. It is this worker's,
    /// and its one client the worker that hands it bands; it carries a
    /// band's `Q` rows, one way. None for a fleet of one.
    pub peer: Option<Link>,
    /// `region` holds the band of a carried step as a pull would deliver it.
    pub carried: bool,
}

/// One end of the wire: to the server, or from the worker that hands this
/// one its bands. It serves one pushing worker, as worker 0, and carries
/// whichever band the worker holds in a round.
pub(crate) struct Link {
    /// Carries the worker's region: `chaos`, when there is one.
    pub endpoint: Arc<dyn Transport>,
    /// The wrapper that enacts the wire faults of `config.fault_plan`;
    /// every epoch tells it its number.
    pub chaos: Option<Arc<ChaosTransport>>,
}

impl WorkerState {
    /// The rows of the global `P` this worker owns.
    pub fn p_rows(&self) -> Range<usize> {
        self.row_range.start as usize..self.row_range.end as usize
    }
}

/// Runs one Hogwild SGD epoch of a worker of `spec` over `entries` on the
/// rows of `P` and `Q` they name, honouring the throttle. Returns elapsed
/// compute time.
pub(crate) fn compute(
    spec: &WorkerSpec,
    entries: &[Rating],
    p: SharedRows<'_>,
    q: SharedRows<'_>,
    config: &HogwildConfig,
) -> Duration {
    let start = Instant::now();
    if spec.speed_factor >= 1.0 {
        hogwild_epoch(entries, p, q, config);
    } else {
        for chunk in entries.chunks(THROTTLE_CHUNK) {
            let t0 = Instant::now();
            hogwild_epoch(chunk, p, q, config);
            std::thread::sleep(throttle_penalty(t0.elapsed(), spec.speed_factor));
        }
    }
    start.elapsed()
}

/// The sleep that makes a slice that computed for `elapsed` take
/// `elapsed / speed` in all, as a worker of `speed` (in `(0, 1)`) would.
fn throttle_penalty(elapsed: Duration, speed: f64) -> Duration {
    elapsed.mul_f64((1.0 - speed) / speed)
}

/// A worker's dealt share of the ratings: its entries, grouped by chunk,
/// and each chunk's slice of them.
pub(crate) type Shard = (Vec<Rating>, Vec<Range<usize>>);

/// Deals `entries` to the workers whose row ranges `bounds` delimits (as
/// [`GridPartition::owner`] assigns them) and groups each worker's
/// share by the chunk its item position `i` falls in — chunk `c` ends at
/// `ends[c]` — keeping the order of `entries` within a chunk. Each entry's
/// `u` is rebased to the worker's first row on the way. A counting sort:
/// two passes over `entries`, and no buffer but the shards.
pub(crate) fn deal(entries: &[Rating], bounds: &[u32], ends: &[usize]) -> Vec<Shard> {
    let (workers, chunks) = (bounds.len() - 1, ends.len());
    let slot = |e: &Rating| {
        let w = GridPartition::owner(bounds, e.u);
        w * chunks + ends.partition_point(|&end| end <= e.i as usize)
    };
    let mut next = vec![0usize; workers * chunks];
    for e in entries {
        next[slot(e)] += 1;
    }
    // Each count becomes its chunk's first slot in the worker's shard.
    let mut shards: Vec<Shard> = next
        .chunks_mut(chunks)
        .map(|counts| {
            let mut len = 0;
            let ranges = counts
                .iter_mut()
                .map(|n| {
                    let start = len;
                    len += *n;
                    *n = start;
                    start..len
                })
                .collect();
            (vec![Rating::new(0, 0, 0.0); len], ranges)
        })
        .collect();
    for e in entries {
        let s = slot(e);
        let w = s / chunks;
        shards[w].0[next[s]] = Rating::new(e.u - bounds[w], e.i, e.r);
        next[s] += 1;
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_comm::{CommShared, Precision};
    use hcc_sgd::FactorMatrix;

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
        let (mut p, mut q) = factors();
        let before = (p.clone(), q.clone());
        let spec = WorkerSpec::cpu(2);
        let elapsed = compute(&spec, &entries(500), p.shared(), q.shared(), &config(0.05));
        assert!(elapsed > Duration::ZERO);
        assert_ne!(p, before.0);
        assert_ne!(q, before.1);
    }

    #[test]
    fn throttled_worker_is_slower() {
        // A slice that computed for `t` sleeps so that it takes `t / speed`
        // in all; an unthrottled worker never sleeps. Clock-free: `compute`
        // sleeps exactly this after each slice of `THROTTLE_CHUNK` entries.
        let t = Duration::from_millis(12);
        for (speed, total) in [(0.25, 48), (0.5, 24), (0.2, 60), (1.0, 12)] {
            let slice = t + throttle_penalty(t, speed);
            let want = Duration::from_millis(total);
            assert!(
                slice.abs_diff(want) < Duration::from_micros(1),
                "speed {speed}: {slice:?}"
            );
        }
    }

    /// Three workers' row ranges over 9 rows, and 6 item positions dealt
    /// into chunks ending at positions 2, 3 and 6.
    fn dealt(all: &[Rating]) -> Vec<Shard> {
        deal(all, &[0, 3, 3, 9], &[2, 3, 6])
    }

    #[test]
    fn rebase_shifts_rows() {
        // Rows to the worker's first row; item positions stay.
        let shards = dealt(&[Rating::new(5, 1, 1.0), Rating::new(1, 5, 2.0)]);
        assert_eq!(shards[0].0, [Rating::new(1, 5, 2.0)]);
        assert!(shards[1].0.is_empty(), "rows 3..3 hold nothing");
        assert_eq!(shards[2].0, [Rating::new(2, 1, 1.0)]);
    }

    #[test]
    fn chunk_groups_partition_by_column_and_keep_order() {
        let all: Vec<Rating> = (0..100u32)
            .map(|j| Rating::new(j * 7 % 9, j * 5 % 6, j as f32))
            .collect();
        let shards = dealt(&all);
        let (bounds, ends) = ([0u32, 3, 3, 9], [0usize, 2, 3, 6]);
        let mut dealt_total = 0;
        for (w, (entries, chunks)) in shards.iter().enumerate() {
            assert_eq!(chunks.len(), 3);
            assert_eq!(chunks.last().unwrap().end, entries.len());
            for (c, range) in chunks.iter().enumerate() {
                // Exactly the worker's ratings of the chunk's items, in the
                // order `all` has them, rebased.
                let want: Vec<Rating> = all
                    .iter()
                    .filter(|e| (bounds[w]..bounds[w + 1]).contains(&e.u))
                    .map(|e| Rating::new(e.u - bounds[w], e.i, e.r))
                    .filter(|e| (ends[c]..ends[c + 1]).contains(&(e.i as usize)))
                    .collect();
                assert_eq!(entries[range.clone()], want[..], "worker {w} chunk {c}");
            }
            dealt_total += entries.len();
        }
        assert_eq!(dealt_total, all.len());
    }

    #[test]
    fn rows_counts_range() {
        let link = Link {
            endpoint: Arc::new(CommShared::new(1, 0, 0, Precision::Fp32)),
            chaos: None,
        };
        let state = WorkerState {
            spec: WorkerSpec::cpu(2),
            entries: Vec::new(),
            chunk_entries: Vec::new(),
            row_range: 0..10,
            region: Mutex::new(Vec::new()),
            link,
            peer: None,
            carried: false,
        };
        assert_eq!(state.p_rows(), 0..10);
    }
}
