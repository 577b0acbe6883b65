//! The server-side row/column grid of HCC-MF (§3.3).
//!
//! The HCC-MF server divides the rating matrix into *groups of rows* (or
//! columns, when `n > m`), one group per worker, such that the number of
//! entries per group matches a prescribed partition vector `x` (produced by
//! DP0/DP1/DP2 in `hcc-partition`). Groups are contiguous in index space,
//! which is what makes "Transmit Q only" sound: with a row grid each worker
//! owns a disjoint slice of `P`.

use crate::coo::{CooMatrix, Rating};

/// Which dimension the grid slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Slice by rows (users). Chosen when `m >= n`.
    Row,
    /// Slice by columns (items). Chosen when `n > m`.
    Col,
}

impl Axis {
    /// The axis HCC-MF picks for a matrix: the *longer* dimension, so the
    /// transmitted (shared) factor matrix is the smaller one.
    pub fn for_matrix(rows: u32, cols: u32) -> Axis {
        if rows >= cols {
            Axis::Row
        } else {
            Axis::Col
        }
    }
}

/// A partition of the rating matrix into per-worker shards along one axis.
#[derive(Debug, Clone)]
pub struct GridPartition {
    axis: Axis,
    /// `boundaries[w]..boundaries[w+1]` is worker `w`'s index range along the
    /// sliced axis. Length `workers + 1`; first 0, last = axis length.
    boundaries: Vec<u32>,
    /// Per-worker entry shards. Entries keep their original global indices.
    shards: Vec<Vec<Rating>>,
}

impl GridPartition {
    /// Builds a grid assigning each worker a contiguous index range whose
    /// total entry count tracks `fractions` (which should be non-negative and
    /// sum to ~1; it is renormalized defensively), at the split points of
    /// [`boundaries`](Self::boundaries).
    ///
    /// # Panics
    /// Panics if `fractions` is empty (a grid needs at least one worker).
    pub fn build(matrix: &CooMatrix, axis: Axis, fractions: &[f64]) -> GridPartition {
        let (boundaries, prefix) = split_points(matrix, axis, fractions);
        let workers = fractions.len();

        // Scatter entries into shards.
        let mut shards: Vec<Vec<Rating>> = (0..workers)
            .map(|w| {
                let expect = prefix[boundaries[w + 1] as usize] - prefix[boundaries[w] as usize];
                Vec::with_capacity(expect as usize)
            })
            .collect();
        for &e in matrix.entries() {
            let key = match axis {
                Axis::Row => e.u,
                Axis::Col => e.i,
            };
            shards[GridPartition::owner(&boundaries, key)].push(e);
        }
        GridPartition {
            axis,
            boundaries,
            shards,
        }
    }

    /// The `fractions.len() + 1` split points [`build`](Self::build) cuts
    /// `matrix` at along `axis` (first 0, last the axis length), for a caller
    /// that wants the index ranges and not a copy of the entries.
    ///
    /// The split points are chosen greedily on the prefix sums of per-index
    /// entry counts, so a worker's actual share can deviate from its target
    /// by at most the heaviest single row (column).
    ///
    /// # Panics
    /// Panics if `fractions` is empty.
    pub fn boundaries(matrix: &CooMatrix, axis: Axis, fractions: &[f64]) -> Vec<u32> {
        split_points(matrix, axis, fractions).0
    }

    /// The worker whose range of `boundaries` (as [`boundaries`](Self::boundaries)
    /// returns them) holds index `key`. The split points are sorted, with
    /// duplicates for empty ranges; the owner is the last worker whose start
    /// is <= `key`.
    pub fn owner(boundaries: &[u32], key: u32) -> usize {
        (boundaries.partition_point(|&b| b <= key) - 1).min(boundaries.len() - 2)
    }

    /// Builds an equal-fraction grid over `workers` workers.
    pub fn build_uniform(matrix: &CooMatrix, axis: Axis, workers: usize) -> GridPartition {
        let fractions = vec![1.0 / workers as f64; workers];
        GridPartition::build(matrix, axis, &fractions)
    }

    /// The sliced axis.
    #[inline]
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// Number of workers.
    #[inline]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Worker `w`'s index range along the sliced axis.
    #[inline]
    pub fn range(&self, w: usize) -> std::ops::Range<u32> {
        self.boundaries[w]..self.boundaries[w + 1]
    }

    /// Worker `w`'s entries.
    #[inline]
    pub fn shard(&self, w: usize) -> &[Rating] {
        &self.shards[w]
    }

    /// All shards.
    #[inline]
    pub fn shards(&self) -> &[Vec<Rating>] {
        &self.shards
    }

    /// Per-worker entry counts.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(Vec::len).collect()
    }
}

/// The split points of `matrix` along `axis` for `fractions`, and the prefix
/// sums of per-index entry counts they were read from.
fn split_points(matrix: &CooMatrix, axis: Axis, fractions: &[f64]) -> (Vec<u32>, Vec<u64>) {
    assert!(!fractions.is_empty(), "grid needs at least one worker");
    let total: f64 = fractions.iter().sum();
    let norm: Vec<f64> = if total > 0.0 {
        fractions.iter().map(|f| f.max(0.0) / total).collect()
    } else {
        vec![1.0 / fractions.len() as f64; fractions.len()]
    };

    let axis_len = match axis {
        Axis::Row => matrix.rows(),
        Axis::Col => matrix.cols(),
    };
    let counts = match axis {
        Axis::Row => matrix.row_counts(),
        Axis::Col => matrix.col_counts(),
    };
    let nnz = matrix.nnz() as f64;

    // Prefix sums of entry counts along the axis.
    let mut prefix = Vec::with_capacity(counts.len() + 1);
    prefix.push(0u64);
    let mut acc = 0u64;
    for &c in &counts {
        acc += c as u64;
        prefix.push(acc);
    }

    let workers = norm.len();
    let mut boundaries = Vec::with_capacity(workers + 1);
    boundaries.push(0u32);
    let mut target = 0.0f64;
    for w in 0..workers - 1 {
        target += norm[w] * nnz;
        let want = target.round() as u64;
        // First index whose prefix reaches the cumulative target; never
        // before the previous boundary so boundaries stay sorted.
        let lo = boundaries[w] as usize;
        let pos = prefix[lo..].partition_point(|&p| p < want);
        boundaries.push(((lo + pos) as u32).min(axis_len));
    }
    boundaries.push(axis_len);
    (boundaries, prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Rating;

    fn matrix() -> CooMatrix {
        // 6 rows, entry counts per row: [4, 1, 1, 1, 1, 4]
        let mut entries = Vec::new();
        for i in 0..4 {
            entries.push(Rating::new(0, i, 1.0));
            entries.push(Rating::new(5, i, 1.0));
        }
        for u in 1..5 {
            entries.push(Rating::new(u, 0, 1.0));
        }
        CooMatrix::new(6, 4, entries).unwrap()
    }

    #[test]
    fn axis_picks_longer_dimension() {
        assert_eq!(Axis::for_matrix(10, 5), Axis::Row);
        assert_eq!(Axis::for_matrix(5, 10), Axis::Col);
        assert_eq!(Axis::for_matrix(5, 5), Axis::Row);
    }

    #[test]
    fn uniform_grid_balances_entries() {
        let m = matrix();
        let g = GridPartition::build_uniform(&m, Axis::Row, 2);
        assert_eq!(g.workers(), 2);
        let sizes = g.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), m.nnz());
        // 12 entries; perfect split is 6/6. Heaviest row is 4 entries, so the
        // greedy split is within that of the target.
        assert!((sizes[0] as i64 - 6).unsigned_abs() <= 4);
    }

    #[test]
    fn shards_are_contiguous_and_disjoint() {
        let m = matrix();
        let g = GridPartition::build_uniform(&m, Axis::Row, 3);
        for w in 0..3 {
            let range = g.range(w);
            for e in g.shard(w) {
                assert!(
                    range.contains(&e.u),
                    "entry row {} outside {:?}",
                    e.u,
                    range
                );
            }
        }
        assert_eq!(g.range(0).start, 0);
        assert_eq!(g.range(2).end, 6);
        for w in 0..2 {
            assert_eq!(g.range(w).end, g.range(w + 1).start);
        }
    }

    #[test]
    fn skewed_fractions_shift_boundaries() {
        let m = matrix();
        let g = GridPartition::build(&m, Axis::Row, &[0.9, 0.1]);
        let sizes = g.shard_sizes();
        assert!(sizes[0] > sizes[1], "sizes {:?}", sizes);
    }

    #[test]
    fn col_axis_grids_by_column() {
        let m = matrix();
        let g = GridPartition::build_uniform(&m, Axis::Col, 2);
        for w in 0..2 {
            let range = g.range(w);
            for e in g.shard(w) {
                assert!(range.contains(&e.i));
            }
        }
    }

    #[test]
    fn zero_fraction_worker_gets_nothing_or_little() {
        let m = matrix();
        let g = GridPartition::build(&m, Axis::Row, &[0.0, 1.0]);
        assert_eq!(g.shard_sizes()[0], 0);
        assert_eq!(g.shard_sizes()[1], m.nnz());
    }

    #[test]
    fn degenerate_all_zero_fractions_fall_back_to_uniform() {
        let m = matrix();
        let g = GridPartition::build(&m, Axis::Row, &[0.0, 0.0]);
        assert_eq!(g.shard_sizes().iter().sum::<usize>(), m.nnz());
    }

    #[test]
    fn single_worker_owns_everything() {
        let m = matrix();
        let g = GridPartition::build_uniform(&m, Axis::Row, 1);
        assert_eq!(g.shard_sizes(), vec![m.nnz()]);
        assert_eq!(g.range(0), 0..6);
    }

    #[test]
    fn boundaries_are_the_grids_on_zipf_data() {
        let data = crate::SyntheticDataset::generate(crate::GenConfig {
            rows: 300,
            cols: 700,
            nnz: 9_000,
            user_skew: 1.1,
            item_skew: 1.3,
            ..crate::GenConfig::default()
        });
        for axis in [Axis::Row, Axis::Col] {
            for workers in 1..=5usize {
                // Uneven shares: a hot first shard and a cold last one.
                let fractions: Vec<f64> = (1..=workers).map(|w| 1.0 / w as f64).collect();
                let grid = GridPartition::build(&data.matrix, axis, &fractions);
                let mut want: Vec<u32> = (0..workers).map(|w| grid.range(w).start).collect();
                want.push(grid.range(workers - 1).end);
                assert_eq!(
                    GridPartition::boundaries(&data.matrix, axis, &fractions),
                    want,
                    "{axis:?} x {workers}"
                );
            }
        }
    }
}
