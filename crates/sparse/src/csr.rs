//! Compressed sparse row form.
//!
//! CSR gives O(1) access to a row's entries, which the server's `DataManager`
//! needs when building row grids whose groups contain roughly equal numbers
//! of *entries* (not rows), and which evaluation uses to walk held-out
//! ratings per user.

use crate::coo::{CooMatrix, Rating};

/// Sparse matrix in CSR layout: `row_ptr` has `rows + 1` entries and row `u`'s
/// entries live at `col_idx[row_ptr[u]..row_ptr[u+1]]` / same range of `values`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: u32,
    cols: u32,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
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
        self.col_idx.len()
    }

    /// The row-pointer array (length `rows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices and values of row `u`.
    ///
    /// # Panics
    /// Panics if `u >= rows` (programmer error).
    #[inline]
    pub fn row(&self, u: u32) -> (&[u32], &[f32]) {
        let lo = self.row_ptr[u as usize];
        let hi = self.row_ptr[u as usize + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Iterates all `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.rows).flat_map(move |u| {
            let (cols, vals) = self.row(u);
            cols.iter().zip(vals.iter()).map(move |(&i, &r)| (u, i, r))
        })
    }

    /// Converts back to coordinate form (row-major order).
    pub fn to_coo(&self) -> CooMatrix {
        let entries: Vec<Rating> = self.iter().map(|(u, i, r)| Rating::new(u, i, r)).collect();
        CooMatrix::from_parts_unchecked(self.rows, self.cols, entries)
    }
}

impl From<&CooMatrix> for CsrMatrix {
    /// Builds CSR via counting sort over rows: O(nnz + rows), stable within a
    /// row with respect to the COO entry order.
    fn from(coo: &CooMatrix) -> Self {
        let rows = coo.rows();
        let cols = coo.cols();
        let nnz = coo.nnz();
        let mut row_ptr = vec![0usize; rows as usize + 1];
        for e in coo.entries() {
            row_ptr[e.u as usize + 1] += 1;
        }
        for u in 0..rows as usize {
            row_ptr[u + 1] += row_ptr[u];
        }
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0f32; nnz];
        let mut cursor = row_ptr.clone();
        for e in coo.entries() {
            let pos = cursor[e.u as usize];
            col_idx[pos] = e.i;
            values[pos] = e.r;
            cursor[e.u as usize] += 1;
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Rating;

    fn sample() -> CooMatrix {
        CooMatrix::new(
            3,
            4,
            vec![
                Rating::new(2, 3, 1.0),
                Rating::new(0, 1, 5.0),
                Rating::new(0, 0, 4.0),
                Rating::new(1, 2, 3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn csr_row_access() {
        let csr = CsrMatrix::from(&sample());
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.cols(), 4);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.row_ptr(), &[0, 2, 3, 4]);
        let (cols, vals) = csr.row(0);
        // Stable with respect to COO order: (0,1) came before (0,0).
        assert_eq!(cols, &[1, 0]);
        assert_eq!(vals, &[5.0, 4.0]);
        assert_eq!(csr.row(1).0.len(), 1);
        let (cols, _) = csr.row(1);
        assert_eq!(cols, &[2]);
    }

    #[test]
    fn empty_rows_have_zero_len() {
        let coo = CooMatrix::new(3, 2, vec![Rating::new(2, 0, 1.0)]).unwrap();
        let csr = CsrMatrix::from(&coo);
        let lens: Vec<usize> = (0..3).map(|u| csr.row(u).0.len()).collect();
        assert_eq!(lens, [0, 0, 1]);
    }

    #[test]
    fn roundtrip_through_coo_preserves_entries() {
        let coo = sample();
        let csr = CsrMatrix::from(&coo);
        let back = csr.to_coo();
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
    fn iter_visits_row_major() {
        let csr = CsrMatrix::from(&sample());
        let rows: Vec<u32> = csr.iter().map(|(u, _, _)| u).collect();
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        assert_eq!(rows, sorted);
        assert_eq!(rows.len(), 4);
    }
}
