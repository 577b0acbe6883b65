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
//!   (the baselines, a standalone [`hogwild_epoch`]).
//!
//! [`hogwild_epoch`]: crate::hogwild_epoch

use crate::shared::{into_cells, SharedRows};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use std::sync::atomic::AtomicU32;

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

    /// Moves row `order[r]` to row `r`, for every `r`: `order` lists, by
    /// position, the row that lands there. [`unpermute_rows`] undoes it.
    ///
    /// In place, like [`unpermute_rows`]: each cycle of `order` is followed
    /// by row swaps, and the only allocation is a bitmap of the rows
    /// already placed.
    ///
    /// # Panics
    /// Panics if `order` does not name every row exactly once.
    ///
    /// [`unpermute_rows`]: Self::unpermute_rows
    pub fn permute_rows(&mut self, order: &[u32]) {
        self.reorder_rows(order, true);
    }

    /// Moves row `r` to row `order[r]`, for every `r`: the inverse of
    /// [`permute_rows`](Self::permute_rows) over the same `order`.
    ///
    /// # Panics
    /// Panics if `order` does not name every row exactly once.
    pub fn unpermute_rows(&mut self, order: &[u32]) {
        self.reorder_rows(order, false);
    }

    /// Walks each cycle `c0, order[c0], order[order[c0]], …` of `order` once.
    /// Swapping each row with the next along the cycle gathers (`row r ←
    /// row order[r]`); swapping the cycle's first row with each in turn
    /// scatters (`row order[r] ← row r`).
    fn reorder_rows(&mut self, order: &[u32], gather: bool) {
        assert_eq!(order.len(), self.rows, "an order names every row once");
        let mut placed = vec![0u64; self.rows.div_ceil(64)];
        let mut place = |row: usize| {
            let (word, bit) = (row / 64, 1u64 << (row % 64));
            let fresh = placed[word] & bit == 0;
            placed[word] |= bit;
            fresh
        };
        for start in 0..self.rows {
            if !place(start) {
                continue;
            }
            let (mut prev, mut at) = (start, order[start] as usize);
            while at != start {
                assert!(place(at), "an order names every row once");
                self.swap_rows(if gather { prev } else { start }, at);
                (prev, at) = (at, order[at] as usize);
            }
        }
    }

    /// Swaps rows `a` and `b`, which differ.
    fn swap_rows(&mut self, a: usize, b: usize) {
        let (k, lo, hi) = (self.k, a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * k);
        head[lo * k..(lo + 1) * k].swap_with_slice(&mut tail[..k]);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use std::sync::atomic::Ordering;

    /// `m` with row `r` replaced by row `order[r]`, built out of place.
    fn gathered(m: &FactorMatrix, order: &[u32]) -> FactorMatrix {
        let data = order.iter().flat_map(|&r| m.row(r as usize)).copied();
        FactorMatrix::from_vec(m.rows(), m.k(), data.collect())
    }

    /// Permutes a copy of `m` by `order` and checks it against the
    /// out-of-place gather, then unpermutes it and checks it is `m`.
    fn check_round_trip(m: &FactorMatrix, order: &[u32]) {
        let mut moved = m.clone();
        moved.permute_rows(order);
        assert_eq!(moved, gathered(m, order), "{order:?}");
        moved.unpermute_rows(order);
        assert_eq!(&moved, m, "{order:?}");
    }

    #[test]
    fn permuting_rows_in_place_gathers_and_unpermuting_scatters() {
        let m = FactorMatrix::random(6, 3, 5);
        // The identity, one cycle through all six rows, and fixed points
        // (rows 1 and 4) between a 2-cycle and a 2-cycle.
        for order in [[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0], [2, 1, 0, 5, 4, 3]] {
            check_round_trip(&m, &order);
        }
        // Row r lands at order[r] when scattering.
        let mut scattered = m.clone();
        scattered.unpermute_rows(&[1, 2, 3, 4, 5, 0]);
        assert_eq!(scattered.row(1), m.row(0));
        assert_eq!(scattered.row(0), m.row(5));
        // Zero rows and one row.
        check_round_trip(&FactorMatrix::zeros(0, 2), &[]);
        check_round_trip(&FactorMatrix::random(1, 2, 3), &[0]);
    }

    #[test]
    fn seeded_permutations_round_trip_in_place() {
        // Past a 64-row word of the bitmap, as a session's shuffles are.
        for (rows, seed) in [(2, 1), (63, 2), (64, 3), (65, 4), (300, 5), (1_000, 6)] {
            let m = FactorMatrix::random(rows, 4, seed);
            let mut order: Vec<u32> = (0..rows as u32).collect();
            order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
            check_round_trip(&m, &order);
        }
    }

    #[test]
    #[should_panic(expected = "every row once")]
    fn an_order_that_names_a_row_twice_is_refused() {
        FactorMatrix::zeros(3, 2).permute_rows(&[0, 2, 2]);
    }

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
        m.as_mut_slice()[3..].copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn shared_roundtrip() {
        let m = FactorMatrix::random(4, 3, 1);
        let s = SharedFactors::from_matrix(&m);
        assert_eq!(s.snapshot(), m);
        // ordering: Relaxed — single-threaded test.
        s.row_cells(2)[1].store(42f32.to_bits(), Ordering::Relaxed);
        assert_eq!(s.snapshot().row(2)[1], 42.0);
        assert_ne!(s.snapshot(), m);
    }

    #[test]
    fn shared_clones_alias() {
        // Copies of a view are the same cells, and the owner's.
        let s = SharedFactors::zeros(1, 1);
        let view = s.view();
        let copy = view;
        // ordering: Relaxed — single-threaded test.
        copy.row_cells(0)[0].store(5f32.to_bits(), Ordering::Relaxed);
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
}
