//! Factor-matrix storage.
//!
//! One layout — `rows × k` floats, row-major — and two owners of it:
//!
//! * [`FactorMatrix`] — plain `f32`s. Used wherever one thread holds the
//!   data (the server's `P`/`Q`, evaluation, checkpoints); it lends its rows
//!   to Hogwild threads as [`SharedRows`] without copying them
//!   ([`FactorMatrix::shared`], [`FactorMatrix::split_rows_mut`]).
//! * [`SharedFactors`] — the same allocation owned as `Relaxed` atomic
//!   bit-cells, for callers that keep factors shared for their whole life
//!   (the baselines, optimizer state, a standalone [`hogwild_epoch`]).
//!
//! [`hogwild_epoch`]: crate::hogwild_epoch

use crate::shared::{into_cells, SharedRows};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Dense row-major factor matrix (`rows × k`).
#[derive(Debug, Clone, PartialEq)]
pub struct FactorMatrix {
    rows: usize,
    k: usize,
    data: Vec<f32>,
}

impl FactorMatrix {
    /// Allocates a zeroed matrix.
    pub fn zeros(rows: usize, k: usize) -> Self {
        assert!(k > 0, "latent dimension must be non-zero");
        FactorMatrix {
            rows,
            k,
            data: vec![0.0; rows * k],
        }
    }

    /// Random initialization: uniform in `[0, 1/sqrt(k))`, the scheme used by
    /// FPSGD/CuMF_SGD so initial predictions land near the rating mean.
    pub fn random(rows: usize, k: usize, seed: u64) -> Self {
        assert!(k > 0, "latent dimension must be non-zero");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let scale = 1.0 / (k as f32).sqrt();
        let data = (0..rows * k).map(|_| rng.random::<f32>() * scale).collect();
        FactorMatrix { rows, k, data }
    }

    /// Builds from an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * k`.
    pub fn from_vec(rows: usize, k: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * k, "buffer length must equal rows*k");
        FactorMatrix { rows, k, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Latent dimension `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.k..(r + 1) * self.k]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.k..(r + 1) * self.k]
    }

    /// Whole buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Whole buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Lends every row to the Hogwild threads of a compute phase; the
    /// matrix is plain again when the last copy of the view is gone.
    pub fn shared(&mut self) -> SharedRows<'_> {
        SharedRows::new(&mut self.data, self.k)
    }

    /// Splits the matrix into the row blocks `ranges`, each held
    /// exclusively by whoever gets it — how workers that own disjoint row
    /// ranges of `P` train on it where it is. The ranges must ascend without
    /// overlap; rows none of them names are lent to nobody.
    ///
    /// # Panics
    /// Panics if a range starts before its predecessor ends or ends past
    /// the last row.
    pub fn split_rows_mut(
        &mut self,
        ranges: impl IntoIterator<Item = Range<usize>>,
    ) -> Vec<&mut [f32]> {
        let k = self.k;
        let mut rest = self.data.as_mut_slice();
        let mut at = 0;
        ranges
            .into_iter()
            .map(|range| {
                assert!(at <= range.start, "row ranges must ascend without overlap");
                let len = range.end.saturating_sub(range.start);
                let (block, tail) =
                    std::mem::take(&mut rest)[(range.start - at) * k..].split_at_mut(len * k);
                rest = tail;
                at = range.start + len;
                block
            })
            .collect()
    }
}

/// Factor matrix owned as shared cells: every method takes `&self`, so
/// scoped threads borrow it (or copy its [`view`](Self::view)) freely.
#[derive(Debug)]
pub struct SharedFactors {
    rows: usize,
    k: usize,
    data: Box<[AtomicU32]>,
}

impl From<FactorMatrix> for SharedFactors {
    /// Takes the matrix's allocation over as it is.
    fn from(m: FactorMatrix) -> Self {
        SharedFactors {
            rows: m.rows,
            k: m.k,
            data: into_cells(m.data),
        }
    }
}

impl<'a> From<&'a SharedFactors> for SharedRows<'a> {
    fn from(m: &'a SharedFactors) -> Self {
        m.view()
    }
}

impl SharedFactors {
    /// Allocates zeroed shared storage.
    pub fn zeros(rows: usize, k: usize) -> Self {
        FactorMatrix::zeros(rows, k).into()
    }

    /// Copies a plain matrix into shared storage.
    pub fn from_matrix(m: &FactorMatrix) -> Self {
        m.clone().into()
    }

    /// The rows as the Hogwild kernels take them.
    pub fn view(&self) -> SharedRows<'_> {
        SharedRows::over(&self.data, self.k)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Latent dimension.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Loads element `(row, j)`.
    #[inline]
    pub fn load(&self, row: usize, j: usize) -> f32 {
        // ordering: Relaxed — Hogwild cells carry no cross-cell ordering;
        // each load only needs the cell's own atomicity (no torn reads).
        // Cross-thread publication happens at epoch boundaries via the
        // training scope's join, not through these accesses.
        f32::from_bits(self.data[row * self.k + j].load(Ordering::Relaxed))
    }

    /// Stores element `(row, j)`.
    #[inline]
    pub fn store(&self, row: usize, j: usize, v: f32) {
        // ordering: Relaxed — see `load`; stores publish nothing beyond the
        // cell itself, staleness is tolerated by the Hogwild convergence
        // argument (Niu et al.).
        self.data[row * self.k + j].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Copies row `row` into `buf` (length `k`).
    #[inline]
    pub fn load_row_into(&self, row: usize, buf: &mut [f32]) {
        debug_assert_eq!(buf.len(), self.k);
        let base = row * self.k;
        for (j, slot) in buf.iter_mut().enumerate() {
            // ordering: Relaxed — per-cell atomicity only (see `load`).
            *slot = f32::from_bits(self.data[base + j].load(Ordering::Relaxed));
        }
    }

    /// Stores `buf` (length `k`) into row `row`.
    #[inline]
    pub fn store_row(&self, row: usize, buf: &[f32]) {
        debug_assert_eq!(buf.len(), self.k);
        let base = row * self.k;
        for (j, &v) in buf.iter().enumerate() {
            // ordering: Relaxed — per-cell atomicity only (see `store`).
            self.data[base + j].store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The raw atomic cells of row `row` (used by the hot SGD kernel).
    #[inline]
    pub fn row_cells(&self, row: usize) -> &[AtomicU32] {
        &self.data[row * self.k..(row + 1) * self.k]
    }

    /// Snapshots the whole matrix into a plain `FactorMatrix`.
    pub fn snapshot(&self) -> FactorMatrix {
        // Callers snapshot after the writing scope has joined; a mid-epoch
        // snapshot is by-design fuzzy.
        let mut m = FactorMatrix::zeros(self.rows, self.k);
        self.view().read_into(&mut m.data);
        m
    }

    /// Overwrites the whole matrix from a plain one (dimensions must match).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn copy_from(&self, m: &FactorMatrix) {
        assert_eq!(m.rows(), self.rows, "row mismatch");
        assert_eq!(m.k(), self.k, "k mismatch");
        for (cell, &v) in self.data.iter().zip(m.as_slice()) {
            // ordering: Relaxed — bulk overwrite runs outside the worker
            // scope; the next scope's spawn edge publishes it.
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_dims() {
        let m = FactorMatrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.k(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn random_is_deterministic_and_scaled() {
        let a = FactorMatrix::random(10, 16, 7);
        let b = FactorMatrix::random(10, 16, 7);
        assert_eq!(a, b);
        let bound = 1.0 / 4.0; // 1/sqrt(16)
        assert!(a.as_slice().iter().all(|&v| (0.0..bound).contains(&v)));
        let c = FactorMatrix::random(10, 16, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn row_access() {
        let mut m = FactorMatrix::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn shared_roundtrip() {
        let m = FactorMatrix::random(4, 3, 1);
        let s = SharedFactors::from_matrix(&m);
        assert_eq!(s.snapshot(), m);
        s.store(2, 1, 42.0);
        assert_eq!(s.load(2, 1), 42.0);
        assert_ne!(s.snapshot(), m);
    }

    #[test]
    fn shared_row_io() {
        let s = SharedFactors::zeros(3, 4);
        s.store_row(1, &[1.0, 2.0, 3.0, 4.0]);
        let mut buf = [0f32; 4];
        s.load_row_into(1, &mut buf);
        assert_eq!(buf, [1.0, 2.0, 3.0, 4.0]);
        s.load_row_into(0, &mut buf);
        assert_eq!(buf, [0.0; 4]);
    }

    #[test]
    fn shared_clones_alias() {
        // Copies of a view are the same cells, and the owner's.
        let s = SharedFactors::zeros(1, 1);
        let view = s.view();
        let copy = view;
        s.store(0, 0, 5.0);
        for cells in [view.row_cells(0), copy.row_cells(0), s.row_cells(0)] {
            // ordering: Relaxed — single-threaded test.
            assert_eq!(cells[0].load(Ordering::Relaxed), 5f32.to_bits());
        }
    }

    #[test]
    fn shared_factors_are_built_from_a_matrix_by_copy_or_by_move() {
        let z = SharedFactors::zeros(3, 4);
        assert_eq!((z.rows(), z.k()), (3, 4));
        assert_eq!(z.snapshot(), FactorMatrix::zeros(3, 4));
        let m = FactorMatrix::random(5, 3, 9);
        assert_eq!(SharedFactors::from_matrix(&m).snapshot(), m);
        assert_eq!(SharedFactors::from(m.clone()).snapshot(), m);
    }

    #[test]
    fn split_rows_hands_out_the_named_blocks() {
        let mut m = FactorMatrix::from_vec(5, 2, (0..10).map(|v| v as f32).collect());
        // A gap (row 2) and an empty range are both fine.
        let blocks = m.split_rows_mut([0..2, 3..3, 3..5]);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0], [0.0, 1.0, 2.0, 3.0]);
        assert!(blocks[1].is_empty());
        assert_eq!(blocks[2], [6.0, 7.0, 8.0, 9.0]);
        for block in blocks {
            block.fill(-1.0);
        }
        assert_eq!(m.row(2), &[4.0, 5.0]);
        assert_eq!(m.row(4), &[-1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "ascend without overlap")]
    fn split_rows_rejects_overlap() {
        let mut m = FactorMatrix::zeros(4, 2);
        let _ = m.split_rows_mut([0..3, 2..4]);
    }

    #[test]
    #[should_panic]
    fn split_rows_rejects_a_range_past_the_end() {
        let mut m = FactorMatrix::zeros(4, 2);
        let _ = m.split_rows_mut([0..2, 2..5]);
    }

    proptest::proptest! {
        #[test]
        fn split_rows_is_disjoint_and_exhaustive(
            cuts in proptest::collection::vec(0usize..40, 0..6),
            k in 1usize..4,
        ) {
            // Workers' ranges: sorted boundaries over all 40 rows, empty
            // ranges included. Every row gets stamped by exactly one block.
            let mut bounds = cuts;
            bounds.extend([0, 40]);
            bounds.sort_unstable();
            let mut m = FactorMatrix::zeros(40, k);
            let blocks = m.split_rows_mut(bounds.windows(2).map(|w| w[0]..w[1]));
            for (w, (block, range)) in blocks.into_iter().zip(bounds.windows(2)).enumerate() {
                assert_eq!(block.len(), (range[1] - range[0]) * k);
                for v in block {
                    *v += (w + 1) as f32;
                }
            }
            for (w, range) in bounds.windows(2).enumerate() {
                for row in range[0]..range[1] {
                    assert_eq!(m.row(row), &vec![(w + 1) as f32; k][..]);
                }
            }
        }
    }

    #[test]
    fn copy_from_overwrites() {
        let s = SharedFactors::zeros(2, 2);
        let m = FactorMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        s.copy_from(&m);
        assert_eq!(s.snapshot(), m);
    }
}
