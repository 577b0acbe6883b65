//! RMSE evaluation.
//!
//! The paper's convergence plots (Fig. 7) report RMSE of `P·Q` against the
//! observed ratings. Accumulation is in `f64` so 100M-entry sums don't lose
//! precision. Evaluation runs on the caller's thread.

use crate::factors::FactorMatrix;
use crate::simd::dot;
use hcc_sparse::Rating;

/// Root-mean-square error of predictions `p_u · q_i` over `entries`.
/// Returns 0 for an empty slice.
pub fn rmse(entries: &[Rating], p: &FactorMatrix, q: &FactorMatrix) -> f64 {
    if entries.is_empty() {
        return 0.0;
    }
    let sum: f64 = entries
        .iter()
        .map(|e| {
            let err = e.r as f64 - dot(p.row(e.u as usize), q.row(e.i as usize)) as f64;
            err * err
        })
        .sum();
    (sum / entries.len() as f64).sqrt()
}

/// [`rmse`] under its former name, kept for callers that still use it.
pub fn rmse_parallel(entries: &[Rating], p: &FactorMatrix, q: &FactorMatrix) -> f64 {
    rmse(entries, p, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Vec<Rating>, FactorMatrix, FactorMatrix) {
        let p = FactorMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let q = FactorMatrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 3.0]);
        // Predictions: (0,0)->2, (0,1)->0, (1,1)->3.
        let entries = vec![
            Rating::new(0, 0, 3.0), // err 1
            Rating::new(0, 1, 2.0), // err 2
            Rating::new(1, 1, 3.0), // err 0
        ];
        (entries, p, q)
    }

    #[test]
    fn rmse_matches_hand_computed() {
        let (entries, p, q) = tiny();
        let expect = ((1.0 + 4.0 + 0.0) / 3.0f64).sqrt();
        assert!((rmse(&entries, &p, &q) - expect).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_serial() {
        let (entries, p, q) = tiny();
        let a = rmse(&entries, &p, &q);
        let b = rmse_parallel(&entries, &p, &q);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn empty_entries_give_zero() {
        let (_, p, q) = tiny();
        assert_eq!(rmse(&[], &p, &q), 0.0);
        assert_eq!(rmse_parallel(&[], &p, &q), 0.0);
    }

    #[test]
    fn perfect_predictions_give_zero_rmse() {
        let (mut entries, p, q) = tiny();
        for e in &mut entries {
            e.r = dot(p.row(e.u as usize), q.row(e.i as usize));
        }
        assert_eq!(rmse(&entries, &p, &q), 0.0);
    }
}
