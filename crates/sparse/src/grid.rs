//! Data grids: the server-side row/column grid of HCC-MF (§3.3) and the 2-D
//! block grid used by the FPSGD baseline.
//!
//! The HCC-MF server divides the rating matrix into *groups of rows* (or
//! columns, when `n > m`), one group per worker, such that the number of
//! entries per group matches a prescribed partition vector `x` (produced by
//! DP0/DP1/DP2 in `hcc-partition`). Groups are contiguous in index space,
//! which is what makes "Transmit Q only" sound: with a row grid each worker
//! owns a disjoint slice of `P`.

use crate::coo::{CooMatrix, Rating};
use crate::csr::CsrMatrix;

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
            // boundaries is sorted (with possible duplicates for empty
            // shards); the shard containing `key` is the last one whose
            // start is <= key.
            let w = (boundaries.partition_point(|&b| b <= key) - 1).min(workers - 1);
            shards[w].push(e);
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

    /// Consumes the grid, yielding owned shards (for handing to workers).
    pub fn into_shards(self) -> Vec<Vec<Rating>> {
        self.shards
    }

    /// Per-worker entry counts.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(Vec::len).collect()
    }

    /// Actual fraction of entries per worker.
    pub fn actual_fractions(&self) -> Vec<f64> {
        let total: usize = self.shards.iter().map(Vec::len).sum();
        if total == 0 {
            return vec![0.0; self.shards.len()];
        }
        self.shards
            .iter()
            .map(|s| s.len() as f64 / total as f64)
            .collect()
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

/// A 2-D block grid over the rating matrix, as used by FPSGD: the matrix is
/// cut into `grid_rows × grid_cols` rectangular blocks; two blocks sharing no
/// row-bin and no column-bin touch disjoint parameters and can be trained
/// concurrently without locks.
#[derive(Debug, Clone)]
pub struct BlockGrid {
    grid_rows: usize,
    grid_cols: usize,
    row_bin_size: u32,
    col_bin_size: u32,
    /// Row-major `grid_rows × grid_cols` blocks of entries.
    blocks: Vec<Vec<Rating>>,
}

impl BlockGrid {
    /// Builds the block grid with equal-width index bins.
    ///
    /// # Panics
    /// Panics if `grid_rows` or `grid_cols` is zero.
    pub fn build(matrix: &CooMatrix, grid_rows: usize, grid_cols: usize) -> BlockGrid {
        assert!(
            grid_rows > 0 && grid_cols > 0,
            "grid dimensions must be non-zero"
        );
        let row_bin_size = matrix.rows().div_ceil(grid_rows as u32).max(1);
        let col_bin_size = matrix.cols().div_ceil(grid_cols as u32).max(1);
        let mut blocks: Vec<Vec<Rating>> = vec![Vec::new(); grid_rows * grid_cols];
        for &e in matrix.entries() {
            let br = ((e.u / row_bin_size) as usize).min(grid_rows - 1);
            let bc = ((e.i / col_bin_size) as usize).min(grid_cols - 1);
            blocks[br * grid_cols + bc].push(e);
        }
        BlockGrid {
            grid_rows,
            grid_cols,
            row_bin_size,
            col_bin_size,
            blocks,
        }
    }

    /// Grid height in blocks.
    #[inline]
    pub fn grid_rows(&self) -> usize {
        self.grid_rows
    }

    /// Grid width in blocks.
    #[inline]
    pub fn grid_cols(&self) -> usize {
        self.grid_cols
    }

    /// Entries of block `(br, bc)`.
    #[inline]
    pub fn block(&self, br: usize, bc: usize) -> &[Rating] {
        &self.blocks[br * self.grid_cols + bc]
    }

    /// Row-index bin width.
    #[inline]
    pub fn row_bin_size(&self) -> u32 {
        self.row_bin_size
    }

    /// Column-index bin width.
    #[inline]
    pub fn col_bin_size(&self) -> u32 {
        self.col_bin_size
    }

    /// Total entries across all blocks.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }
}

/// Builds a grid whose per-worker *row* weights come from a CSR view; exposed
/// for callers that already hold a CSR (avoids recomputing row counts).
pub fn balanced_row_boundaries(csr: &CsrMatrix, workers: usize) -> Vec<u32> {
    assert!(workers > 0);
    let nnz = csr.nnz() as f64;
    let mut boundaries = Vec::with_capacity(workers + 1);
    boundaries.push(0u32);
    let ptr = csr.row_ptr();
    let mut lo = 0usize;
    for w in 1..workers {
        let target = (nnz * w as f64 / workers as f64).round() as usize;
        lo = match ptr[lo..].binary_search(&target) {
            Ok(pos) | Err(pos) => (lo + pos).min(csr.rows() as usize),
        };
        boundaries.push(lo as u32);
    }
    boundaries.push(csr.rows());
    boundaries
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

    #[test]
    fn block_grid_covers_all_entries_disjointly() {
        let m = matrix();
        let g = BlockGrid::build(&m, 3, 2);
        assert_eq!(g.nnz(), m.nnz());
        for br in 0..3 {
            for bc in 0..2 {
                for e in g.block(br, bc) {
                    assert_eq!(((e.u / g.row_bin_size()) as usize).min(2), br);
                    assert_eq!(((e.i / g.col_bin_size()) as usize).min(1), bc);
                }
            }
        }
    }

    #[test]
    fn block_grid_larger_than_matrix_yields_empty_tail_blocks() {
        let m = CooMatrix::new(2, 2, vec![Rating::new(0, 0, 1.0)]).unwrap();
        let g = BlockGrid::build(&m, 5, 5);
        assert_eq!(g.nnz(), 1);
        assert_eq!(g.block(0, 0).len(), 1);
    }

    #[test]
    fn csr_boundaries_cover_rows() {
        let m = matrix();
        let csr = CsrMatrix::from(&m);
        let b = balanced_row_boundaries(&csr, 3);
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&6));
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
    }
}
