//! The shared borrow of factor storage.
//!
//! Factor rows are stored once, as plain `f32`s: a [`FactorMatrix`], a
//! worker's pulled region, any `&mut [f32]`. Whoever holds them exclusively
//! — the server's merge, evaluation, a checkpoint, a transport's
//! `pull(&mut [f32])` / `push(&[f32])` — reads and writes them as such. The
//! Hogwild threads of one compute phase instead *share* the rows and race on
//! them by design, which plain `f32`s do not allow; for the length of that
//! phase the exclusive borrow is lent out as [`SharedRows`], the same memory
//! seen as `Relaxed` atomic bit-cells. Tearing is impossible per element, a
//! relaxed load/store compiles to a plain move, and the Hogwild convergence
//! argument tolerates stale element values. When the last copy of the view
//! is gone the borrow checker hands the plain rows back: the conversion costs
//! nothing in either direction and nothing is ever stored twice.
//!
//! This module holds the only casts between the two forms.
//!
//! [`FactorMatrix`]: crate::FactorMatrix

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Factor rows of width `k`, shared by the Hogwild threads of one compute
/// phase. `Copy`: every copy views the same cells.
///
/// Rows are addressed `first..first + rows` — `first` is 0 unless
/// [`numbered_from`](Self::numbered_from) says otherwise, which is how a
/// worker's buffer for one column chunk of `Q` is indexed by the item ids of
/// the ratings, with no re-labelling of either.
#[derive(Debug, Clone, Copy)]
pub struct SharedRows<'a> {
    k: usize,
    first: usize,
    cells: &'a [AtomicU32],
}

impl<'a> SharedRows<'a> {
    /// Lends exclusively held rows (`rows.len() / k` of them) out as shared
    /// cells for `'a`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `rows.len()` is not a multiple of `k`.
    pub fn new(rows: &'a mut [f32], k: usize) -> Self {
        // SHARED: cells — the rows as `AtomicU32`s, raced on by the Hogwild
        // threads that hold a copy of the view.
        let raw = rows as *mut [f32] as *const [AtomicU32];
        // SAFETY: `AtomicU32` has the size, alignment and bit validity of
        // `u32` (std guarantee), and so of `f32`: every `f32` bit pattern,
        // NaN payloads included, is a valid cell and the slice covers the
        // same bytes. `rows` is an exclusive borrow for `'a` that this call
        // consumes, so for `'a` the memory is reached only through the
        // returned cells, whose interior mutability makes shared writes
        // defined.
        Self::over(unsafe { &*raw }, k)
    }

    /// A view of `cells` as rows of width `k`.
    pub(crate) fn over(cells: &'a [AtomicU32], k: usize) -> Self {
        assert!(k > 0, "latent dimension must be non-zero");
        assert_eq!(cells.len() % k, 0, "buffer must hold whole rows");
        SharedRows { k, first: 0, cells }
    }

    /// The same rows, addressed `first..first + rows`.
    pub fn numbered_from(self, first: usize) -> Self {
        SharedRows { first, ..self }
    }

    /// Latent dimension.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The row numbers this view answers to.
    #[inline]
    pub fn row_range(&self) -> Range<usize> {
        self.first..self.first + self.cells.len() / self.k
    }

    /// The cells of row `row` (the hot kernels work on these).
    ///
    /// # Panics
    /// Panics if `row` is outside [`row_range`](Self::row_range).
    #[inline]
    pub fn row_cells(&self, row: usize) -> &'a [AtomicU32] {
        // A row below `first` wraps to an offset no buffer is long enough
        // for, so the index rejects it like a row past the end.
        let at = row.wrapping_sub(self.first).wrapping_mul(self.k);
        &self.cells[at..][..self.k]
    }

    /// Copies every row into `dst`, packed.
    ///
    /// # Panics
    /// Panics if `dst` is not exactly the view's length.
    pub fn read_into(&self, dst: &mut [f32]) {
        assert_eq!(dst.len(), self.cells.len(), "destination length mismatch");
        for (v, cell) in dst.iter_mut().zip(self.cells) {
            // ordering: Relaxed — per-cell atomicity only; callers read after
            // the writing threads joined, and that join is the
            // happens-before edge.
            *v = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }
}

/// Turns an owned buffer of plain factors into owned cells, in place.
pub(crate) fn into_cells(values: Vec<f32>) -> Box<[AtomicU32]> {
    let raw = Box::into_raw(values.into_boxed_slice()) as *mut [AtomicU32];
    // SAFETY: `raw` came from `Box::into_raw` one line up, and `f32` and
    // `AtomicU32` agree in size and alignment, so the allocation's layout is
    // the one `Box<[AtomicU32]>` will free; every `f32` bit pattern is a
    // valid `AtomicU32` (see `SharedRows::new`).
    unsafe { Box::from_raw(raw) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FactorMatrix;
    use proptest::prelude::*;

    #[test]
    fn a_view_addresses_rows_from_its_first() {
        let mut m = FactorMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let view = m.shared().numbered_from(10);
        assert_eq!(view.row_range(), 10..13);
        assert_eq!(view.k(), 2);
        // ordering: Relaxed — single-threaded test.
        view.row_cells(11)[1].store(9f32.to_bits(), Ordering::Relaxed);
        let copy = view;
        assert_eq!(
            copy.row_cells(11)[1].load(Ordering::Relaxed),
            9f32.to_bits()
        );
        let mut packed = [0f32; 6];
        view.read_into(&mut packed);
        assert_eq!(packed, [1.0, 2.0, 3.0, 9.0, 5.0, 6.0]);
        // The exclusive holder sees what the shared phase wrote.
        assert_eq!(m.row(1), &[3.0, 9.0]);
    }

    #[test]
    #[should_panic]
    fn a_row_below_the_first_panics() {
        let mut rows = [0f32; 4];
        SharedRows::new(&mut rows, 2).numbered_from(5).row_cells(4);
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn a_ragged_buffer_is_rejected() {
        let mut rows = [0f32; 5];
        SharedRows::new(&mut rows, 2);
    }

    #[test]
    fn threads_share_one_view_and_the_owner_reads_it_back() {
        // Two writers on disjoint rows, racing on nothing, through copies
        // of one view; the scope's join hands the plain rows back.
        let mut m = FactorMatrix::zeros(64, 4);
        let view = m.shared();
        std::thread::scope(|scope| {
            for t in 0..2usize {
                scope.spawn(move || {
                    for row in (t..64).step_by(2) {
                        for cell in view.row_cells(row) {
                            // ordering: Relaxed — the cell's own atomicity.
                            cell.store((row as f32).to_bits(), Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        for row in 0..64 {
            assert_eq!(m.row(row), &[row as f32; 4]);
        }
    }

    proptest! {
        #[test]
        fn exclusive_shared_exclusive_keeps_every_bit_pattern(
            random in proptest::collection::vec(0u64..(1u64 << 32), 0..96),
            k in 1usize..5,
        ) {
            // Arbitrary bits, and always the ones a float round trip would
            // lose: signalling and quiet NaNs with payloads, both zeros,
            // infinities, a subnormal.
            let special = [
                0x7fa0_0001u32, 0xffc1_2345, 0x7fff_ffff, 0x8000_0000, 0, 0x7f80_0000,
                0xff80_0000, 1,
            ];
            let bits: Vec<u32> = special.into_iter().chain(random.iter().map(|&b| b as u32)).collect();
            let bits = &bits[..bits.len() / k * k];
            let mut rows: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let view = SharedRows::new(&mut rows, k);
            for (cell, &b) in view.row_range().flat_map(|r| view.row_cells(r)).zip(bits) {
                // ordering: Relaxed — single-threaded test.
                prop_assert_eq!(cell.load(Ordering::Relaxed), b);
            }
            let mut read = vec![0f32; bits.len()];
            view.read_into(&mut read);
            let to_bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(to_bits(&read), bits);
            prop_assert_eq!(to_bits(&rows), bits);
            // And through the owning form.
            let owned = crate::SharedFactors::from(FactorMatrix::from_vec(bits.len() / k, k, rows));
            prop_assert_eq!(to_bits(owned.snapshot().as_slice()), bits);
        }
    }
}
