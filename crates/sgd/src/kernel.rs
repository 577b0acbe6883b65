//! The single-rating SGD update rule.
//!
//! Loss (Fig. 1 of the paper):
//! `L = Σ (r_ui − p_u·q_i)² + λ1‖P‖² + λ2‖Q‖²`, minimized by per-observation
//! updates:
//!
//! ```text
//! e    = r_ui − p_u·q_i
//! p_u += γ (e·q_i − λ1·p_u)
//! q_i += γ (e·p_u_old − λ2·q_i)
//! ```
//!
//! The rule is written over plain slices ([`sgd_step`], the public one) and
//! over [`SharedRows`] (the crate's Hogwild sweeps, through
//! [`crate::hogwild`]). Both use the *old* `p_u` in the `q_i` update,
//! matching FPSGD/CuMF_SGD, and both route through the same
//! runtime-dispatched fused kernel in [`crate::simd`], whose `p·q` is
//! [`crate::dot`]'s, so within one process they produce bit-identical
//! results.

use crate::shared::SharedRows;
use crate::simd;

/// One SGD update on plain factor rows. Returns the prediction error
/// `e = r − p·q` *before* the update.
///
/// # Panics
/// Panics if `p` and `q` differ in length.
#[inline]
pub fn sgd_step(
    p: &mut [f32],
    q: &mut [f32],
    r: f32,
    lr: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f32 {
    assert_eq!(p.len(), q.len(), "p and q rows must have the same length");
    let k = p.len();
    // SAFETY: `p` and `q` are exclusive borrows of `k` f32s each (checked
    // above), so the pointers are valid and writable for the whole call,
    // and two distinct `&mut` slices can never overlap.
    unsafe { simd::fused_step_ptr(p.as_mut_ptr(), q.as_mut_ptr(), k, r, lr, lambda_p, lambda_q) }
}

/// One SGD update on shared (Hogwild) factor rows; same math as [`sgd_step`]
/// but operating directly inside the `AtomicU32` bit-cells of `p` row `u` and
/// `q` row `i` — no scratch copy, no per-element atomic loop, so the fused
/// SIMD kernel runs at full speed on the shared rows.
///
/// `p` and `q` must be *different* matrices (they always are in MF: `P` is
/// users, `Q` is items), otherwise the two rows could alias, and must share
/// `k`: [`crate::hogwild`]'s plain-SGD step, which builds every call,
/// asserts it once per pass.
// Out of line: inlined into a sweep loop it drags the scalar fallback along,
// whose constants then spill around every update's dispatch (−3 % at k = 64).
#[inline(never)]
#[allow(clippy::too_many_arguments)] // hot kernel: flat scalars beat a params struct
pub(crate) fn sgd_step_shared(
    p: &SharedRows<'_>,
    q: &SharedRows<'_>,
    u: usize,
    i: usize,
    r: f32,
    lr: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f32 {
    let k = p.k();
    debug_assert_eq!(q.k(), k);
    let p_cells = p.row_cells(u);
    let q_cells = q.row_cells(i);
    // SAFETY: this reads and writes the shared rows through plain (and SIMD)
    // loads/stores derived from the `AtomicU32` cells. The argument:
    //
    // * Validity/layout — `AtomicU32` has the same size, alignment and bit
    //   validity as `u32` (std guarantee), which has the same layout as
    //   `f32`, so `p_cells.as_ptr() as *mut f32` points to `k` valid,
    //   4-byte-aligned f32 lanes inside one live allocation for the whole
    //   call (the `&[AtomicU32]` borrows keep the rows alive); so does
    //   `q_cells`, because `q.k() == p.k()` — `hogwild::sgd` asserts it
    //   before it hands out the step that calls this.
    // * Mutability — the cells' interior is an `UnsafeCell`, so writing
    //   through a pointer derived from a shared reference is permitted.
    // * No aliasing between rows — `p` and `q` are distinct matrices per the
    //   contract above, so the two rows occupy disjoint memory.
    // * Tearing-freedom — every access the kernel performs is a 4-byte
    //   element load/store or an 8-lane vector load/store of such elements;
    //   on x86-64 (and every target Rust supports) aligned 4-byte accesses
    //   are single-copy atomic, so a racing reader observes some previously
    //   stored lane value, never a torn one. This is exactly the guarantee
    //   the seed's per-element `Relaxed` atomic loop provided: Hogwild
    //   tolerates stale lane values (sparse conflicts, §2.1/§4.2), it only
    //   needs them untorn. Concurrent access is confined to Hogwild threads
    //   running this same kernel on rows of the same `SharedRows`, and
    //   no ordering beyond per-lane atomicity is required or implied.
    unsafe {
        simd::fused_step_ptr(
            p_cells.as_ptr() as *mut f32,
            q_cells.as_ptr() as *mut f32,
            k,
            r,
            lr,
            lambda_p,
            lambda_q,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::{FactorMatrix, SharedFactors};
    use crate::simd::dot;

    #[test]
    fn dot_matches_manual() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    /// `sgd_step` panics on rows of different lengths before it writes past
    /// the shorter one.
    #[test]
    fn sgd_step_rejects_rows_of_different_lengths() {
        let mut p = [0.5f32; 8];
        let mut buf = [7.0f32; 8];
        let (q, _) = buf.split_at_mut(4);
        q.fill(0.5);
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sgd_step(&mut p, q, 4.0, 0.1, 0.0, 0.0)
        }));
        assert!(hit.is_err(), "a step over rows of 8 and 4 returned");
        assert_eq!(buf[4..], [7.0; 4], "the step wrote past q");
    }

    #[test]
    fn sgd_step_matches_hand_computed_gradient() {
        // k=2, p=[1,2], q=[3,4], r=12, lr=0.1, λp=0.01, λq=0.02.
        // e = 12 - 11 = 1.
        // p0' = 1 + .1(1·3 - .01·1) = 1.299
        // p1' = 2 + .1(1·4 - .01·2) = 2.398
        // q0' = 3 + .1(1·1 - .02·3) = 3.094
        // q1' = 4 + .1(1·2 - .02·4) = 4.192
        let mut p = [1.0f32, 2.0];
        let mut q = [3.0f32, 4.0];
        let e = sgd_step(&mut p, &mut q, 12.0, 0.1, 0.01, 0.02);
        assert!((e - 1.0).abs() < 1e-6);
        assert!((p[0] - 1.299).abs() < 1e-6, "p0 {}", p[0]);
        assert!((p[1] - 2.398).abs() < 1e-6);
        assert!((q[0] - 3.094).abs() < 1e-6);
        assert!((q[1] - 4.192).abs() < 1e-6);
    }

    #[test]
    fn sgd_step_reduces_error_on_repeat() {
        let mut p = [0.5f32; 8];
        let mut q = [0.5f32; 8];
        let r = 4.0;
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let e = sgd_step(&mut p, &mut q, r, 0.05, 0.0, 0.0).abs();
            assert!(e <= last + 1e-4, "error increased: {e} > {last}");
            last = e;
        }
        assert!(last < 0.05, "did not converge: {last}");
    }

    #[test]
    fn shared_step_matches_plain_step() {
        // Exact equality relies on both paths hitting the same backend, so
        // hold the dispatch lock against backend-forcing tests.
        let _guard = crate::simd::test_lock();
        for k in [4usize, 8, 13, 128] {
            let pm = FactorMatrix::random(2, k, 1);
            let qm = FactorMatrix::random(3, k, 2);
            // Plain version.
            let mut p_plain = pm.row(1).to_vec();
            let mut q_plain = qm.row(2).to_vec();
            let e_plain = sgd_step(&mut p_plain, &mut q_plain, 3.5, 0.01, 0.02, 0.03);
            // Shared version.
            let ps = SharedFactors::from_matrix(&pm);
            let qs = SharedFactors::from_matrix(&qm);
            let e_shared = sgd_step_shared(&ps.view(), &qs.view(), 1, 2, 3.5, 0.01, 0.02, 0.03);
            assert_eq!(e_plain, e_shared, "k {k}");
            let (p, q) = (ps.snapshot(), qs.snapshot());
            assert_eq!(p.row(1), p_plain, "k {k}");
            assert_eq!(q.row(2), q_plain, "k {k}");
            // Untouched rows stay untouched.
            assert_eq!(p.row(0), pm.row(0), "k {k}");
        }
    }

    #[test]
    fn regularization_shrinks_factors_without_signal() {
        // r == p·q means e == 0, so only the λ terms act: norms must shrink.
        let mut p = [1.0f32, 1.0];
        let mut q = [1.0f32, 1.0];
        let r = dot(&p, &q);
        for _ in 0..10 {
            sgd_step(&mut p, &mut q, r, 0.1, 0.5, 0.5);
        }
        assert!(p.iter().all(|&v| v < 1.0));
        assert!(q.iter().all(|&v| v < 1.0));
    }
}
