//! Theorem 1: the min-max partition.
//!
//! For `T(x) = max_i (a_i·x_i + b_i)` subject to `Σ x_i = 1`, `x_i ≥ 0`, the
//! minimum is attained exactly when every *active* worker's cost is equal.
//! Solving `a_i·x_i + b_i = C` for all active workers and `Σ x_i = 1` gives
//!
//! ```text
//! C = (1 + Σ b_i/a_i) / Σ (1/a_i)
//! x_i = (C − b_i) / a_i
//! ```
//!
//! A worker whose fixed cost `b_i` already exceeds `C` can't take negative
//! data; it is deactivated (`x_i = 0`) and the system re-solved over the
//! rest — the classic water-filling step (the paper doesn't hit this case
//! because its bus costs are near-equal, but a robust library must).

/// Equal-cost solution of `min max(a_i·x_i + b_i)` with `Σx = 1`, `x ≥ 0`.
///
/// Returns the partition vector. `a_i` must be positive (a worker with zero
/// per-unit cost would absorb everything).
///
/// # Panics
/// Panics if inputs are empty, lengths differ, or any `a_i ≤ 0` /
/// non-finite input appears.
pub fn equalize(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert!(!a.is_empty(), "need at least one worker");
    assert_eq!(a.len(), b.len(), "coefficient lengths differ");
    assert!(
        a.iter().all(|&v| v > 0.0 && v.is_finite()),
        "per-unit costs must be positive and finite"
    );
    assert!(
        b.iter().all(|&v| v >= 0.0 && v.is_finite()),
        "fixed costs must be non-negative"
    );

    let n = a.len();
    let mut active = vec![true; n];
    loop {
        let mut inv_sum = 0.0;
        let mut ratio_sum = 0.0;
        for i in 0..n {
            if active[i] {
                inv_sum += 1.0 / a[i];
                ratio_sum += b[i] / a[i];
            }
        }
        debug_assert!(inv_sum > 0.0, "all workers deactivated");
        let c = (1.0 + ratio_sum) / inv_sum;

        // Deactivate any worker whose fixed cost alone exceeds the common
        // cost; if none, we're done.
        let mut changed = false;
        for i in 0..n {
            if active[i] && b[i] > c {
                active[i] = false;
                changed = true;
            }
        }
        if !changed {
            return (0..n)
                .map(|i| if active[i] { (c - b[i]) / a[i] } else { 0.0 })
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_workers_get_uniform_split() {
        let x = equalize(&[2.0, 2.0, 2.0], &[0.1, 0.1, 0.1]);
        for &v in &x {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn faster_worker_gets_more_data() {
        // a_i = per-unit cost; worker 1 is 4× faster.
        let x = equalize(&[4.0, 1.0], &[0.0, 0.0]);
        assert!((x[0] - 0.2).abs() < 1e-12);
        assert!((x[1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn costs_are_equal_at_solution() {
        let a = [3.0, 1.5, 7.0];
        let b = [0.2, 0.4, 0.1];
        let x = equalize(&a, &b);
        let costs: Vec<f64> = (0..3).map(|i| a[i] * x[i] + b[i]).collect();
        for w in costs.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "{costs:?}");
        }
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn huge_fixed_cost_deactivates_worker() {
        // Worker 1's fixed cost dwarfs anything worker 0 can reach.
        let x = equalize(&[1.0, 1.0], &[0.0, 100.0]);
        assert_eq!(x[1], 0.0);
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_worker_takes_all() {
        let x = equalize(&[5.0], &[1.0]);
        assert_eq!(x.len(), 1);
        assert!((x[0] - 1.0).abs() < 1e-12, "{x:?}");
    }

    #[test]
    fn equalized_cost_is_minimal_against_perturbations() {
        let a = [2.0, 3.0, 5.0];
        let b = [0.1, 0.2, 0.05];
        let x = equalize(&a, &b);
        let best = (0..3).map(|w| a[w] * x[w] + b[w]).fold(0.0f64, f64::max);
        // Move mass between pairs; max cost must not decrease.
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let eps = 0.01;
                if x[i] < eps {
                    continue;
                }
                let mut y = x.clone();
                y[i] -= eps;
                y[j] += eps;
                let cost = (0..3).map(|w| a[w] * y[w] + b[w]).fold(0.0f64, f64::max);
                assert!(
                    cost >= best - 1e-12,
                    "perturbation improved: {cost} < {best}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_partition_sums_to_one_and_nonneg(
            a in proptest::collection::vec(0.01f64..100.0, 1..8),
            b in proptest::collection::vec(0.0f64..10.0, 1..8),
        ) {
            let len = a.len().min(b.len());
            let a = &a[..len];
            let b = &b[..len];
            let x = equalize(a, b);
            prop_assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(x.iter().all(|&v| v >= 0.0));
        }

        #[test]
        fn prop_active_costs_equal(
            a in proptest::collection::vec(0.01f64..100.0, 2..8),
        ) {
            let b = vec![0.0; a.len()];
            let x = equalize(&a, &b);
            let costs: Vec<f64> = (0..a.len()).map(|i| a[i]*x[i]).collect();
            let max = costs.iter().cloned().fold(0.0f64, f64::max);
            for &c in &costs {
                prop_assert!((c - max).abs() < 1e-6 * max.max(1.0));
            }
        }
    }
}
