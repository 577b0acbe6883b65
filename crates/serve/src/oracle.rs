//! The differential test oracle: a deliberately naive top-k.
//!
//! This is the specification the optimized serving path is tested against:
//! one dispatched dot product per item ([`hcc_sgd::dot`], the same kernel
//! the engine's f32 scan runs), a full score vector, a full
//! `O(items log items)` sort, then truncation. It is kept simple enough to
//! be obviously correct. Because it and the engine share the kernel, what
//! `tests/serving.rs` checks against it is everything around the
//! arithmetic — sharding, norm pruning, the seen filter and the bounded
//! heaps; the kernel's arithmetic is checked against the scalar path in
//! `hcc_sgd::simd`'s tests. `benchmark/` scores `recall_at_10` with it.

use hcc_sgd::dot;
use hcc_sgd::FactorMatrix;
use hcc_sparse::CsrMatrix;

/// Scores every unseen item for `user` with one dot each, sorts the full
/// vector (score descending, item ascending on ties), and truncates to
/// `count`.
///
/// # Panics
/// Panics if `user` is out of range or `p`/`q` disagree on `k` — it is a
/// test oracle, not a serving surface; the engine is the one that must
/// return typed errors.
pub fn naive_top_k(
    p: &FactorMatrix,
    q: &FactorMatrix,
    seen: Option<&CsrMatrix>,
    user: u32,
    count: usize,
) -> Vec<(u32, f32)> {
    let user_row = p.row(user as usize);
    let mut seen_sorted: Vec<u32> = match seen {
        Some(csr) if user < csr.rows() => csr.row(user).0.to_vec(),
        _ => Vec::new(),
    };
    seen_sorted.sort_unstable();
    let mut scored: Vec<(u32, f32)> = (0..q.rows() as u32)
        .filter(|i| seen_sorted.binary_search(i).is_err())
        .map(|i| (i, dot(user_row, q.row(i as usize))))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(count);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_sparse::{CooMatrix, Rating};

    #[test]
    fn matches_hand_computed_scores() {
        // 2 users, 3 items, k=1: scores are products of scalars.
        let p = FactorMatrix::from_vec(2, 1, vec![1.0, 2.0]);
        let q = FactorMatrix::from_vec(3, 1, vec![3.0, 1.0, 2.0]);
        let train =
            CooMatrix::new(2, 3, vec![Rating::new(0, 0, 5.0), Rating::new(1, 2, 4.0)]).unwrap();
        let seen = CsrMatrix::from(&train);
        assert_eq!(
            naive_top_k(&p, &q, Some(&seen), 0, 2),
            vec![(2, 2.0), (1, 1.0)]
        );
        assert_eq!(naive_top_k(&p, &q, Some(&seen), 1, 1), vec![(0, 6.0)]);
        assert_eq!(naive_top_k(&p, &q, None, 0, 1), vec![(0, 3.0)]);
    }
}
