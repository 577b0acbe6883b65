//! Factor-matrix storage.
//!
//! Two representations:
//!
//! * [`FactorMatrix`] — a plain `Vec<f32>` in row-major order. Used wherever
//!   a single thread owns the data (server-side global `P`/`Q`, pull/push
//!   staging, evaluation).
//! * [`SharedFactors`] — the same layout behind `AtomicU32` bit-cells with
//!   `Relaxed` ordering. Hogwild updates read and write rows concurrently
//!   without synchronization; relaxed atomics make that defined behaviour at
//!   zero cost on x86 (a relaxed atomic load/store compiles to a plain move).
//!   Tearing is impossible per element, and the Hogwild convergence argument
//!   tolerates stale element values.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

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

    /// Two distinct rows mutably at once (for the SGD step on `P` and `Q`
    /// held in one matrix — not used by HCC-MF but handy for tests).
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn rows_mut_pair(&mut self, a: usize, b: usize) -> (&mut [f32], &mut [f32]) {
        assert_ne!(a, b, "rows must be distinct");
        let k = self.k;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * k);
            (&mut lo[a * k..(a + 1) * k], &mut hi[..k])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * k);
            let b_row = &mut lo[b * k..(b + 1) * k];
            (&mut hi[..k], b_row)
        }
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

    /// Frobenius norm (for regularization diagnostics).
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }
}

/// Factor matrix shared across Hogwild threads.
///
/// Cloning is cheap (`Arc`); all clones view the same cells.
#[derive(Debug, Clone)]
pub struct SharedFactors {
    rows: usize,
    k: usize,
    data: Arc<[AtomicU32]>,
}

impl SharedFactors {
    /// Allocates zeroed shared storage.
    pub fn zeros(rows: usize, k: usize) -> Self {
        assert!(k > 0, "latent dimension must be non-zero");
        let data: Arc<[AtomicU32]> = (0..rows * k)
            .map(|_| AtomicU32::new(0f32.to_bits()))
            .collect();
        SharedFactors { rows, k, data }
    }

    /// Copies a plain matrix into shared storage.
    pub fn from_matrix(m: &FactorMatrix) -> Self {
        let data: Arc<[AtomicU32]> = m
            .as_slice()
            .iter()
            .map(|&v| AtomicU32::new(v.to_bits()))
            .collect();
        SharedFactors {
            rows: m.rows(),
            k: m.k(),
            data,
        }
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
        // ordering: Relaxed — callers snapshot after the writing scope has
        // joined (a happens-before edge), so Relaxed already observes the
        // final values; mid-epoch snapshots are by-design fuzzy.
        let data: Vec<f32> = self
            .data
            .iter()
            .map(|c| f32::from_bits(c.load(Ordering::Relaxed)))
            .collect();
        FactorMatrix::from_vec(self.rows, self.k, data)
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

    /// Overwrites rows `lo..hi` from a packed slice of `(hi-lo)*k` floats.
    pub fn copy_rows_from_slice(&self, lo: usize, hi: usize, src: &[f32]) {
        assert!(lo <= hi && hi <= self.rows, "row range out of bounds");
        assert_eq!(src.len(), (hi - lo) * self.k, "source length mismatch");
        let base = lo * self.k;
        for (off, &v) in src.iter().enumerate() {
            // ordering: Relaxed — single-writer row range during pull; the
            // scope join publishes the rows to the merging thread.
            self.data[base + off].store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Reads rows `lo..hi` into `dst`, a packed slice of `(hi-lo)*k` floats.
    pub fn read_rows_into(&self, lo: usize, hi: usize, dst: &mut [f32]) {
        assert!(lo <= hi && hi <= self.rows, "row range out of bounds");
        assert_eq!(dst.len(), (hi - lo) * self.k, "destination length mismatch");
        let cells = &self.data[lo * self.k..hi * self.k];
        for (v, cell) in dst.iter_mut().zip(cells) {
            // ordering: Relaxed — see `snapshot`; row reads need no ordering
            // beyond per-cell atomicity.
            *v = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    /// Reads rows `lo..hi` into a packed vector of `(hi-lo)*k` floats.
    pub fn snapshot_rows(&self, lo: usize, hi: usize) -> Vec<f32> {
        let mut out = vec![0f32; hi.saturating_sub(lo) * self.k];
        self.read_rows_into(lo, hi, &mut out);
        out
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
    fn rows_mut_pair_disjoint() {
        let mut m = FactorMatrix::zeros(3, 2);
        {
            let (a, b) = m.rows_mut_pair(0, 2);
            a[0] = 1.0;
            b[1] = 2.0;
        }
        assert_eq!(m.row(0), &[1.0, 0.0]);
        assert_eq!(m.row(2), &[0.0, 2.0]);
        // Reversed order works too.
        let (a, b) = m.rows_mut_pair(2, 0);
        assert_eq!(b[0], 1.0);
        assert_eq!(a[1], 2.0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rows_mut_pair_same_row_panics() {
        let mut m = FactorMatrix::zeros(2, 2);
        let _ = m.rows_mut_pair(1, 1);
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
    fn shared_region_io() {
        let s = SharedFactors::zeros(4, 2);
        s.copy_rows_from_slice(1, 3, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.snapshot_rows(1, 3), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.snapshot_rows(0, 1), vec![0.0, 0.0]);
        assert_eq!(s.snapshot_rows(2, 2), Vec::<f32>::new());
        let mut rows = [9.0f32; 4];
        s.read_rows_into(1, 3, &mut rows);
        assert_eq!(rows, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn shared_clones_alias() {
        let s = SharedFactors::zeros(1, 1);
        let t = s.clone();
        s.store(0, 0, 5.0);
        assert_eq!(t.load(0, 0), 5.0);
    }

    #[test]
    fn copy_from_overwrites() {
        let s = SharedFactors::zeros(2, 2);
        let m = FactorMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        s.copy_from(&m);
        assert_eq!(s.snapshot(), m);
    }

    #[test]
    fn frobenius_norm() {
        let m = FactorMatrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
