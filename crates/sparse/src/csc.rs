//! Compressed sparse column form.
//!
//! The column-major sibling of [`CsrMatrix`](crate::CsrMatrix): O(1) access
//! to an item's ratings. Used wherever per-*column* walks are needed —
//! column-grid weighting, per-item statistics, and NOMAD-style
//! column-ownership scheduling.

use crate::coo::{CooMatrix, Rating};

/// Sparse matrix in CSC layout: `col_ptr` has `cols + 1` entries and column
/// `i`'s entries live at `row_idx[col_ptr[i]..col_ptr[i+1]]` / the same
/// range of `values`.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: u32,
    cols: u32,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CscMatrix {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The column-pointer array (length `cols + 1`).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices and values of column `i`.
    ///
    /// # Panics
    /// Panics if `i >= cols` (programmer error).
    #[inline]
    pub fn col(&self, i: u32) -> (&[u32], &[f32]) {
        let lo = self.col_ptr[i as usize];
        let hi = self.col_ptr[i as usize + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of entries in column `i`.
    #[inline]
    pub fn col_len(&self, i: u32) -> usize {
        self.col_ptr[i as usize + 1] - self.col_ptr[i as usize]
    }

    /// Iterates all `(row, col, value)` triples in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.cols).flat_map(move |i| {
            let (rows, vals) = self.col(i);
            rows.iter().zip(vals.iter()).map(move |(&u, &r)| (u, i, r))
        })
    }

    /// Converts back to coordinate form (column-major order).
    pub fn to_coo(&self) -> CooMatrix {
        let entries: Vec<Rating> = self.iter().map(|(u, i, r)| Rating::new(u, i, r)).collect();
        CooMatrix::from_parts_unchecked(self.rows, self.cols, entries)
    }
}

impl From<&CooMatrix> for CscMatrix {
    /// Builds CSC via counting sort over columns: O(nnz + cols), stable
    /// within a column with respect to the COO entry order.
    fn from(coo: &CooMatrix) -> Self {
        let rows = coo.rows();
        let cols = coo.cols();
        let nnz = coo.nnz();
        let mut col_ptr = vec![0usize; cols as usize + 1];
        for e in coo.entries() {
            col_ptr[e.i as usize + 1] += 1;
        }
        for i in 0..cols as usize {
            col_ptr[i + 1] += col_ptr[i];
        }
        let mut row_idx = vec![0u32; nnz];
        let mut values = vec![0f32; nnz];
        let mut cursor = col_ptr.clone();
        for e in coo.entries() {
            let pos = cursor[e.i as usize];
            row_idx[pos] = e.u;
            values[pos] = e.r;
            cursor[e.i as usize] += 1;
        }
        CscMatrix {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;

    fn sample() -> CooMatrix {
        CooMatrix::new(
            3,
            4,
            vec![
                Rating::new(2, 3, 1.0),
                Rating::new(0, 1, 5.0),
                Rating::new(0, 0, 4.0),
                Rating::new(1, 1, 3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn csc_column_access() {
        let csc = CscMatrix::from(&sample());
        assert_eq!(csc.rows(), 3);
        assert_eq!(csc.cols(), 4);
        assert_eq!(csc.nnz(), 4);
        assert_eq!(csc.col_ptr(), &[0, 1, 3, 3, 4]);
        let (rows, vals) = csc.col(1);
        assert_eq!(rows, &[0, 1]);
        assert_eq!(vals, &[5.0, 3.0]);
        assert_eq!(csc.col_len(2), 0);
        assert_eq!(csc.col_len(3), 1);
    }

    #[test]
    fn roundtrip_preserves_entries() {
        let coo = sample();
        let back = CscMatrix::from(&coo).to_coo();
        let mut a: Vec<_> = coo
            .entries()
            .iter()
            .map(|e| (e.u, e.i, e.r.to_bits()))
            .collect();
        let mut b: Vec<_> = back
            .entries()
            .iter()
            .map(|e| (e.u, e.i, e.r.to_bits()))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn csc_of_transpose_equals_csr_swapped() {
        // Structural duality: CSC(A) column i == CSR(Aᵀ) row i.
        let coo = sample();
        let csc = CscMatrix::from(&coo);
        let csr_t = CsrMatrix::from(&coo.clone().transpose());
        for i in 0..coo.cols() {
            let (csc_rows, csc_vals) = csc.col(i);
            let (csr_cols, csr_vals) = csr_t.row(i);
            assert_eq!(csc_rows, csr_cols, "col {i}");
            assert_eq!(csc_vals, csr_vals, "col {i}");
        }
    }

    #[test]
    fn iter_is_column_major() {
        let csc = CscMatrix::from(&sample());
        let cols: Vec<u32> = csc.iter().map(|(_, i, _)| i).collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        assert_eq!(cols, sorted);
    }
}
