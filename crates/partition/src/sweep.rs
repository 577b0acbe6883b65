//! Sensitivity analysis for the planner's design choices.
//!
//! DESIGN.md calls out two knobs worth ablating: the λ threshold of Eq. 5
//! (the paper sets 10 with one sentence of justification) and the
//! robustness of the equal-cost partition to measurement noise (DP1 works
//! from timing measurements that jitter in practice).

use crate::dp::WorkerClass;
use crate::model::CostModel;
use crate::planner::{plan, StrategyChoice};
use crate::round::RoundPlan;

/// Plans once per λ value, reporting the chosen strategy and the
/// model-predicted epoch time of `rounds`. Used by the `ablation_lambda`
/// bench to show where the DP1/DP2 switchover sits for a given
/// platform/workload.
pub fn sweep_lambda(
    model: &CostModel,
    rounds: &RoundPlan,
    standalone_times: &[f64],
    classes: &[WorkerClass],
    mut measure: impl FnMut(&[f64]) -> Vec<f64>,
    lambdas: &[f64],
) -> Vec<(f64, StrategyChoice, f64)> {
    lambdas
        .iter()
        .map(|&lambda| {
            let measure = &mut measure;
            let p = plan(model, rounds, lambda, standalone_times, classes, measure);
            (lambda, p.strategy, p.predicted_epoch)
        })
        .collect()
}

/// Worst-case relative increase of `max(a_i·x_i + b_i)` when the partition
/// is perturbed by ±`eps` (mass moved pairwise). Quantifies how much a
/// timing error of `eps` in the balanced partition can cost — small values
/// mean DP1's 10 % tolerance is safe.
pub fn perturbation_cost(a: &[f64], b: &[f64], x: &[f64], eps: f64) -> f64 {
    assert_eq!(a.len(), x.len());
    assert_eq!(b.len(), x.len());
    let base = worst(a, b, x);
    let mut worst_case = base;
    for i in 0..x.len() {
        for j in 0..x.len() {
            if i == j || x[i] < eps {
                continue;
            }
            let mut y = x.to_vec();
            y[i] -= eps;
            y[j] += eps;
            worst_case = worst_case.max(worst(a, b, &y));
        }
    }
    (worst_case - base) / base.max(f64::MIN_POSITIVE)
}

fn worst(a: &[f64], b: &[f64], x: &[f64]) -> f64 {
    x.iter()
        .enumerate()
        .map(|(i, &xi)| a[i] * xi + b[i])
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem::equalize;

    fn toy_model(sync_bytes: u64) -> CostModel {
        CostModel {
            nnz: 10_000_000,
            m: 100_000,
            n: 10_000,
            k: 32,
            worker_bandwidth: vec![50e9, 200e9],
            bus_bandwidth: vec![16e9, 16e9],
            server_bandwidth: 60e9,
            transfer_bytes: 4 * 32 * 10_000,
            sync_bytes,
        }
    }

    fn measure_for(model: CostModel) -> impl FnMut(&[f64]) -> Vec<f64> {
        move |x: &[f64]| {
            (0..model.workers())
                .map(|i| model.compute_time(i, x[i]))
                .collect()
        }
    }

    #[test]
    fn lambda_sweep_crosses_from_dp1_to_dp2() {
        // Make sync comparable to compute so the choice flips with λ.
        let model = toy_model(40 * 1024 * 1024);
        let standalone: Vec<f64> = (0..2).map(|i| model.compute_time(i, 1.0)).collect();
        let classes = [WorkerClass::Cpu, WorkerClass::Gpu];
        let results = sweep_lambda(
            &model,
            &RoundPlan::paper(model.workers(), model.n as usize, 1),
            &standalone,
            &classes,
            measure_for(model.clone()),
            &[0.1, 1.0, 10.0, 100.0, 1000.0],
        );
        assert_eq!(results.len(), 5);
        // Low λ: sync "negligible" → DP1; high λ: → DP2. Monotone flip.
        assert_eq!(results[0].1, StrategyChoice::Dp1);
        assert_eq!(results.last().unwrap().1, StrategyChoice::Dp2);
        let mut seen_dp2 = false;
        for (_, choice, _) in &results {
            if *choice == StrategyChoice::Dp2 {
                seen_dp2 = true;
            } else {
                assert!(!seen_dp2, "choice flipped back to DP1 after DP2");
            }
        }
    }

    #[test]
    fn perturbation_cost_is_zero_at_zero_eps() {
        let a = [2.0, 3.0];
        let b = [0.1, 0.1];
        let x = equalize(&a, &b);
        assert_eq!(perturbation_cost(&a, &b, &x, 0.0), 0.0);
    }

    #[test]
    fn perturbation_cost_grows_with_eps() {
        let a = [2.0, 3.0, 5.0];
        let b = [0.0, 0.0, 0.0];
        let x = equalize(&a, &b);
        let small = perturbation_cost(&a, &b, &x, 0.01);
        let large = perturbation_cost(&a, &b, &x, 0.1);
        assert!(small >= 0.0);
        assert!(large > small, "{large} !> {small}");
        // Moving 1% of the data costs only a few percent — the DP1 tolerance
        // is safe.
        assert!(small < 0.1, "1% perturbation cost {small}");
    }
}
