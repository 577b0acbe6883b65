//! Contiguous row-range sharding for the node-sharded parameter server.
//!
//! A sharded server splits the parameter matrix *by row* across N shard
//! endpoints, each owning one contiguous range — the same shape CuMF_SGD
//! uses for its scale-out parameter layout. Ranges are sized by fractional
//! shares, so a heterogeneous server fleet can be balanced by the shares
//! that balance workers (e.g. [`crate::dp0`]'s throughput split).
//!
//! The router guarantees a *partition*: every row in `[0, n_rows)` maps to
//! exactly one shard, and the ranges tile the row space with no gaps or
//! overlaps. When `n_rows >= shards` every shard owns at least one row.

use std::ops::Range;

/// Routes parameter rows to server shards by contiguous range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    /// Range boundaries: shard `s` owns rows `starts[s]..starts[s + 1]`.
    /// Invariants: `starts[0] == 0`, `starts[last] == n_rows`, and the
    /// sequence is non-decreasing.
    starts: Vec<usize>,
}

impl ShardRouter {
    /// An equal split: every shard gets `n_rows / shards` rows, the first
    /// `n_rows % shards` shards one extra.
    pub fn uniform(n_rows: usize, shards: usize) -> ShardRouter {
        assert!(shards > 0, "need at least one shard");
        ShardRouter::from_shares(n_rows, &vec![1.0 / shards as f64; shards])
    }

    /// Ranges from explicit fractional shares (which must be non-negative;
    /// they are normalized internally). Rows are assigned by cumulative
    /// rounding so the ranges always tile `[0, n_rows)` exactly, and every
    /// shard is non-empty whenever `n_rows >= shards`.
    pub fn from_shares(n_rows: usize, shares: &[f64]) -> ShardRouter {
        assert!(!shares.is_empty(), "need at least one shard");
        assert!(
            shares.iter().all(|&s| s >= 0.0 && s.is_finite()),
            "shares must be non-negative and finite"
        );
        let shards = shares.len();
        let total: f64 = shares.iter().sum();
        let mut starts = Vec::with_capacity(shards + 1);
        starts.push(0);
        let mut cum = 0.0;
        let mut prev = 0usize;
        for (i, &s) in shares.iter().enumerate().take(shards - 1) {
            cum += if total > 0.0 {
                s / total
            } else {
                1.0 / shards as f64
            };
            let mut at = (cum * n_rows as f64).round() as usize;
            // Clamp so each shard keeps >= 1 row when there are enough
            // rows to go around: strictly above the previous boundary, low
            // enough to leave one row per remaining shard. (prev + 1 never
            // exceeds the upper bound: prev is at most one below it.)
            if n_rows >= shards {
                at = at.clamp(prev + 1, n_rows - (shards - 1 - i));
            } else {
                at = at.max(prev).min(n_rows);
            }
            starts.push(at);
            prev = at;
        }
        starts.push(n_rows);
        ShardRouter { starts }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total rows routed.
    pub fn n_rows(&self) -> usize {
        *self.starts.last().unwrap_or(&0)
    }

    /// The contiguous row range shard `s` owns.
    pub fn range(&self, shard: usize) -> Range<usize> {
        self.starts[shard]..self.starts[shard + 1]
    }

    /// All shard ranges in order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.shards()).map(|s| self.range(s))
    }

    /// The shard owning `row`, or `None` if `row >= n_rows`. Binary search
    /// over the boundaries: O(log shards).
    pub fn shard_of(&self, row: usize) -> Option<usize> {
        if row >= self.n_rows() {
            return None;
        }
        // partition_point finds the first boundary strictly above `row`;
        // subtracting one yields the owning shard. Zero-width ranges can
        // never win because their start equals their end.
        let idx = self.starts.partition_point(|&b| b <= row);
        Some(idx - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_split_tiles_exactly() {
        let r = ShardRouter::uniform(10, 4);
        let ranges: Vec<_> = r.ranges().collect();
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[3].end, 10);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
    }

    #[test]
    fn single_shard_owns_everything() {
        let r = ShardRouter::uniform(7, 1);
        assert_eq!(r.range(0), 0..7);
        assert_eq!(r.shard_of(0), Some(0));
        assert_eq!(r.shard_of(6), Some(0));
        assert_eq!(r.shard_of(7), None);
    }

    #[test]
    fn throughput_shares_follow_dp0() {
        // Shard 1 is twice as fast: it gets ~2/3 of the rows.
        let r = ShardRouter::from_shares(90, &crate::dp0(&[2.0, 1.0]));
        assert_eq!(r.range(0).len(), 30);
        assert_eq!(r.range(1).len(), 60);
    }

    #[test]
    fn every_shard_nonempty_when_rows_suffice() {
        // An extreme share vector must not starve any shard.
        let r = ShardRouter::from_shares(8, &[1000.0, 0.0, 0.0, 1.0]);
        for s in 0..4 {
            assert!(!r.range(s).is_empty(), "shard {s} starved: {:?}", r);
        }
    }

    #[test]
    fn fewer_rows_than_shards_still_tiles() {
        let r = ShardRouter::uniform(2, 4);
        let covered: usize = r.ranges().map(|g| g.len()).sum();
        assert_eq!(covered, 2);
        assert!(r.shard_of(0).is_some());
        assert!(r.shard_of(1).is_some());
        assert_eq!(r.shard_of(2), None);
    }

    #[test]
    fn zero_total_share_falls_back_to_uniform() {
        let r = ShardRouter::from_shares(9, &[0.0, 0.0, 0.0]);
        let sizes: Vec<usize> = r.ranges().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![3, 3, 3]);
    }

    /// 256-case property suite mirroring the frame codec's: random row
    /// counts and share vectors, asserting the partition invariants — every
    /// row maps to exactly one shard and the ranges cover [0, n_rows).
    #[test]
    fn prop_ranges_partition_row_space() {
        for case in 0u64..256 {
            let mut rng = splitmix(0x5AAD_0001 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let shards = 1 + (rng() % 8) as usize;
            let n_rows = (rng() % 2000) as usize;
            let shares: Vec<f64> = (0..shards).map(|_| (rng() % 1000) as f64).collect();
            let r = ShardRouter::from_shares(n_rows, &shares);
            assert_eq!(r.shards(), shards);
            assert_eq!(r.n_rows(), n_rows);

            // Coverage + disjointness via the range walk.
            let mut next = 0;
            for g in r.ranges() {
                assert_eq!(g.start, next, "gap or overlap at shard boundary");
                assert!(g.end >= g.start);
                next = g.end;
            }
            assert_eq!(next, n_rows, "ranges must cover [0, n_rows)");
            if n_rows >= shards {
                assert!(r.ranges().all(|g| !g.is_empty()), "starved shard");
            }

            // Routing agrees with the ranges for every row (sampled walk
            // for large n to keep the suite fast).
            let step = 1 + n_rows / 64;
            for row in (0..n_rows).step_by(step) {
                let s = r.shard_of(row).expect("in-range row must route");
                assert!(r.range(s).contains(&row), "row {row} routed to wrong shard");
            }
            assert_eq!(r.shard_of(n_rows), None);
        }
    }

    /// Tiny deterministic generator for the property suite (splitmix64).
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}
