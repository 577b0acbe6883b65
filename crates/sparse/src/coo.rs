//! Coordinate-form sparse rating matrix.
//!
//! The SGD training loop streams over observed ratings, so coordinate form is
//! the working representation throughout HCC-MF. Entries are 12 bytes each
//! (`u32` row, `u32` column, `f32` rating), matching the compact layout used
//! by FPSGD and CuMF_SGD.

use crate::error::SparseError;
use rand::seq::SliceRandom;
use rand::Rng;

/// One observed rating: user `u` gave item `i` the value `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// Row (user) index.
    pub u: u32,
    /// Column (item) index.
    pub i: u32,
    /// Observed rating value.
    pub r: f32,
}

impl Rating {
    /// Convenience constructor.
    #[inline]
    pub fn new(u: u32, i: u32, r: f32) -> Self {
        Rating { u, i, r }
    }
}

/// Sparse rating matrix in coordinate (triple) form.
///
/// Invariants: every entry satisfies `u < rows` and `i < cols`. Duplicate
/// `(u, i)` pairs are permitted (SGD treats them as repeated observations),
/// though the generators never produce them.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: u32,
    cols: u32,
    entries: Vec<Rating>,
}

impl CooMatrix {
    /// Builds a matrix from triples, validating index bounds.
    pub fn new(rows: u32, cols: u32, entries: Vec<Rating>) -> Result<Self, SparseError> {
        if rows == 0 {
            return Err(SparseError::EmptyDimension { what: "rows" });
        }
        if cols == 0 {
            return Err(SparseError::EmptyDimension { what: "cols" });
        }
        for e in &entries {
            if e.u >= rows {
                return Err(SparseError::RowOutOfBounds { row: e.u, rows });
            }
            if e.i >= cols {
                return Err(SparseError::ColOutOfBounds { col: e.i, cols });
            }
        }
        Ok(CooMatrix {
            rows,
            cols,
            entries,
        })
    }

    /// Builds without bound checks. Caller must guarantee the invariants;
    /// used by generators that construct indices in-range by construction.
    pub(crate) fn from_parts_unchecked(rows: u32, cols: u32, entries: Vec<Rating>) -> Self {
        debug_assert!(entries.iter().all(|e| e.u < rows && e.i < cols));
        CooMatrix {
            rows,
            cols,
            entries,
        }
    }

    /// Number of rows (`m` in the paper: users).
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns (`n` in the paper: items).
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of observed entries (`nnz` in the paper).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Density `nnz / (m·n)`.
    pub fn density(&self) -> f64 {
        self.entries.len() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Immutable view of the triples.
    #[inline]
    pub fn entries(&self) -> &[Rating] {
        &self.entries
    }

    /// Mutable view of the triples (indices must stay in-bounds).
    #[inline]
    pub fn entries_mut(&mut self) -> &mut [Rating] {
        &mut self.entries
    }

    /// Consumes the matrix, returning its triples.
    pub fn into_entries(self) -> Vec<Rating> {
        self.entries
    }

    /// Mean rating over all observed entries (0 if empty).
    pub fn mean_rating(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.entries.iter().map(|e| e.r as f64).sum();
        sum / self.entries.len() as f64
    }

    /// Shuffles the entry order in place (framework step ① preprocessing).
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.entries.shuffle(rng);
    }

    /// Sorts entries by row, then column. This is the "block sorting by row"
    /// the paper adds to CuMF_SGD's `grid_problem` to improve cache hit rate.
    pub fn sort_by_row(&mut self) {
        self.entries.sort_unstable_by_key(|e| (e.u, e.i));
    }

    /// Per-row entry counts; length `rows`.
    pub fn row_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.rows as usize];
        for e in &self.entries {
            counts[e.u as usize] += 1;
        }
        counts
    }

    /// Per-column entry counts; length `cols`.
    pub fn col_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.cols as usize];
        for e in &self.entries {
            counts[e.i as usize] += 1;
        }
        counts
    }

    /// Transposes the matrix: swaps rows/columns and every entry's indices.
    /// Used to switch between "transmit Q only" and "transmit P only" framing.
    pub fn transpose(mut self) -> CooMatrix {
        for e in &mut self.entries {
            std::mem::swap(&mut e.u, &mut e.i);
        }
        CooMatrix {
            rows: self.cols,
            cols: self.rows,
            entries: self.entries,
        }
    }

    /// Minimum and maximum observed rating, or `None` when empty.
    pub fn rating_range(&self) -> Option<(f32, f32)> {
        let mut it = self.entries.iter();
        let first = it.next()?.r;
        let mut lo = first;
        let mut hi = first;
        for e in it {
            if e.r < lo {
                lo = e.r;
            }
            if e.r > hi {
                hi = e.r;
            }
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample() -> CooMatrix {
        CooMatrix::new(
            3,
            4,
            vec![
                Rating::new(0, 1, 5.0),
                Rating::new(2, 3, 1.0),
                Rating::new(1, 0, 3.0),
                Rating::new(0, 0, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_bounds() {
        let err = CooMatrix::new(2, 2, vec![Rating::new(2, 0, 1.0)]).unwrap_err();
        assert_eq!(err, SparseError::RowOutOfBounds { row: 2, rows: 2 });
        let err = CooMatrix::new(2, 2, vec![Rating::new(0, 5, 1.0)]).unwrap_err();
        assert_eq!(err, SparseError::ColOutOfBounds { col: 5, cols: 2 });
        assert!(CooMatrix::new(0, 2, vec![]).is_err());
        assert!(CooMatrix::new(2, 0, vec![]).is_err());
    }

    #[test]
    fn basic_stats() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 4);
        assert!((m.density() - 4.0 / 12.0).abs() < 1e-12);
        assert!((m.mean_rating() - 3.25).abs() < 1e-12);
        assert_eq!(m.rating_range(), Some((1.0, 5.0)));
    }

    #[test]
    fn empty_matrix_stats() {
        let m = CooMatrix::new(2, 2, vec![]).unwrap();
        assert_eq!(m.mean_rating(), 0.0);
        assert_eq!(m.rating_range(), None);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn sort_by_row_orders_lexicographically() {
        let mut m = sample();
        m.sort_by_row();
        let keys: Vec<(u32, u32)> = m.entries().iter().map(|e| (e.u, e.i)).collect();
        assert_eq!(keys, vec![(0, 0), (0, 1), (1, 0), (2, 3)]);
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut m = sample();
        let mut before: Vec<_> = m.entries().iter().map(|e| (e.u, e.i)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        m.shuffle(&mut rng);
        let mut after: Vec<_> = m.entries().iter().map(|e| (e.u, e.i)).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn counts_match_entries() {
        let m = sample();
        assert_eq!(m.row_counts(), vec![2, 1, 1]);
        assert_eq!(m.col_counts(), vec![2, 1, 0, 1]);
    }

    #[test]
    fn transpose_swaps_dims_and_indices() {
        let t = sample().transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert!(t
            .entries()
            .iter()
            .any(|e| e.u == 1 && e.i == 0 && e.r == 5.0));
        // Double transpose is identity.
        let m = sample();
        assert_eq!(m.clone().transpose().transpose(), m);
    }
}
