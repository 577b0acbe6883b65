//! The simulator's planning sequence (Eq. 5 dispatch).
//!
//! Eq. 5 makes the epoch model piecewise: when `max{T_i}/T_sync ≥ λ` the
//! synchronization tail is negligible and HCC-MF balances loads with DP1;
//! otherwise it staggers them with DP2 to hide the syncs. [`plan`] runs the
//! pieces to completion against a measurement callback: DP0 seed → DP1 to
//! convergence → Theorem-1 refinement → (if sync matters) one DP2 stagger,
//! reporting which path was taken. The threaded engine interleaves the same
//! steps with training instead ([`crate::policy`]); the formulas and
//! constants are shared, the sequence is not.

use crate::dp::{dp0, dp1, dp2, WorkerClass};
use crate::model::{choose, CostModel};
use crate::round::RoundPlan;

/// Which partition strategy the planner settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyChoice {
    /// Basic proportional split only (planner forced, or no refinement).
    Dp0,
    /// Heterogeneous load balance (sync negligible).
    Dp1,
    /// Hidden synchronization (sync significant).
    Dp2,
}

/// The planner's output.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// The chosen strategy.
    pub strategy: StrategyChoice,
    /// The data partition (sums to 1).
    pub fractions: Vec<f64>,
    /// The model's `max{T_i}/T_sync` ratio used for the λ decision.
    pub sync_ratio: f64,
    /// Measured (or simulated) per-worker compute times under `fractions`.
    pub compute_times: Vec<f64>,
    /// Model-predicted epoch time under `fractions`.
    pub predicted_epoch: f64,
}

/// Full planning pipeline for a worker set described by a [`CostModel`]
/// running the epochs of `rounds`, with `lambda` the Eq. 5 threshold (the
/// paper uses [`CostModel::LAMBDA`]).
///
/// `standalone_times` are each worker's independent full-data execution
/// times (`T_i_e`, the DP0 input); `classes` mark CPU/GPU group membership
/// for Algorithm 1; `measure` runs one (real or simulated) epoch for a
/// candidate partition and returns per-worker compute times.
pub fn plan(
    model: &CostModel,
    rounds: &RoundPlan,
    lambda: f64,
    standalone_times: &[f64],
    classes: &[WorkerClass],
    mut measure: impl FnMut(&[f64]) -> Vec<f64>,
) -> PartitionPlan {
    assert_eq!(
        standalone_times.len(),
        model.workers(),
        "worker count mismatch"
    );
    assert_eq!(classes.len(), model.workers(), "class count mismatch");

    let x0 = dp0(standalone_times);
    let mut x1 = dp1(&x0, classes, &mut measure);
    let mut t1 = measure(&x1);

    // Theorem-1 refinement: Algorithm 1 balances the CPU and GPU *group
    // means*, which leaves intra-group imbalance untouched (e.g. a
    // time-sharing server worker whose standalone profile overstates
    // it). Theorem 1 requires every worker's cost equal, so finish with
    // a short per-worker fixed-point: rescale each share toward the
    // median measured time (dp2 with zero stagger) and re-measure.
    for _ in 0..3 {
        let next = dp2(&x1, &t1, 0.0);
        let t_next = measure(&next);
        let spread = |t: &[f64]| {
            let max = t.iter().cloned().fold(0.0f64, f64::max);
            let min = t.iter().cloned().fold(f64::INFINITY, f64::min);
            (max - min) / max.max(f64::MIN_POSITIVE)
        };
        if spread(&t_next) >= spread(&t1) {
            break; // no further improvement (e.g. fixed comm dominates)
        }
        x1 = next;
        t1 = t_next;
    }

    let sync_ratio = model.sync_ratio(&x1);
    let strategy = choose(sync_ratio, lambda);
    // Balanced loads finish together, so all `p` merges trail; DP2 hides all
    // but the last worker's merge.
    let (fractions, compute_times, trailing_syncs) = match strategy {
        StrategyChoice::Dp2 => {
            let x2 = dp2(&x1, &t1, model.sync_time_per_worker());
            let t2 = measure(&x2);
            (x2, t2, 1)
        }
        _ => (x1, t1, model.workers()),
    };
    PartitionPlan {
        strategy,
        predicted_epoch: model.epoch_time(rounds, &fractions, trailing_syncs),
        fractions,
        sync_ratio,
        compute_times,
    }
}

/// Re-plans a partition over the survivors of a worker failure.
///
/// `x` is the current partition (sums to 1 over *all* workers), `t` the last
/// measured per-worker compute times, and `alive[i]` whether worker `i`
/// survives. Dead workers' shares are redistributed over the survivors in
/// proportion to their observed throughput `x_i / t_i` — the same
/// speed-proportional principle as DP0, but seeded from live measurements
/// instead of standalone profiles. Returns the survivors' fractions indexed
/// by the *compacted* survivor order (dead entries removed), summing to 1.
/// Falls back to a uniform split when no throughput signal is usable.
/// Returns an empty vector when no worker survives.
pub fn replan_survivors(x: &[f64], t: &[f64], alive: &[bool]) -> Vec<f64> {
    assert_eq!(x.len(), t.len(), "fraction/time length mismatch");
    assert_eq!(x.len(), alive.len(), "fraction/alive length mismatch");
    let survivors: Vec<usize> = (0..x.len()).filter(|&i| alive[i]).collect();
    if survivors.is_empty() {
        return Vec::new();
    }
    let rates: Vec<f64> = survivors
        .iter()
        .map(|&i| {
            if t[i] > 0.0 && x[i] > 0.0 && t[i].is_finite() {
                x[i] / t[i]
            } else {
                0.0
            }
        })
        .collect();
    let total: f64 = rates.iter().sum();
    if total > 0.0 && total.is_finite() {
        rates.iter().map(|r| r / total).collect()
    } else {
        vec![1.0 / survivors.len() as f64; survivors.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(sync_bytes: u64) -> CostModel {
        CostModel {
            nnz: 100_000_000,
            m: 480_190,
            n: 17_771,
            k: 128,
            worker_bandwidth: vec![70e9, 40e9, 390e9, 410e9],
            bus_bandwidth: vec![20e9, 20e9, 16e9, 16e9],
            server_bandwidth: 67e9,
            transfer_bytes: 4 * 128 * 17_771,
            sync_bytes,
        }
    }

    /// The paper's one-round epoch for `m`'s workers.
    fn paper(m: &CostModel) -> RoundPlan {
        RoundPlan::paper(m.workers(), m.n as usize, 1)
    }

    fn model_measure(m: CostModel) -> impl FnMut(&[f64]) -> Vec<f64> {
        move |x: &[f64]| (0..m.workers()).map(|i| m.compute_time(i, x[i])).collect()
    }

    #[test]
    fn small_sync_chooses_dp1() {
        let m = model(4 * 128 * 17_771); // Q-only payload: tiny vs compute
        let standalone: Vec<f64> = (0..4).map(|i| m.compute_time(i, 1.0)).collect();
        let classes = [
            WorkerClass::Cpu,
            WorkerClass::Cpu,
            WorkerClass::Gpu,
            WorkerClass::Gpu,
        ];
        let plan = plan(
            &m,
            &paper(&m),
            CostModel::LAMBDA,
            &standalone,
            &classes,
            model_measure(m.clone()),
        );
        assert_eq!(plan.strategy, StrategyChoice::Dp1);
        assert!(plan.sync_ratio >= 10.0, "ratio {}", plan.sync_ratio);
        assert!((plan.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dp1_prediction_trails_every_merge() {
        // Under DP1 every worker finishes together, so all p merges trail:
        // predicted epoch = max T_i + p·T_sync.
        let m = model(4 * 128 * 17_771);
        let standalone: Vec<f64> = (0..4).map(|i| m.compute_time(i, 1.0)).collect();
        let classes = [
            WorkerClass::Cpu,
            WorkerClass::Cpu,
            WorkerClass::Gpu,
            WorkerClass::Gpu,
        ];
        let plan = plan(
            &m,
            &paper(&m),
            CostModel::LAMBDA,
            &standalone,
            &classes,
            model_measure(m.clone()),
        );
        assert_eq!(plan.strategy, StrategyChoice::Dp1);
        let max_t = (0..4)
            .map(|i| m.worker_time(i, plan.fractions[i]))
            .fold(0.0f64, f64::max);
        let want = max_t + 4.0 * m.sync_time_per_worker();
        assert!(m.sync_time_per_worker() > 0.0);
        assert!(
            (plan.predicted_epoch - want).abs() <= 1e-12 * want,
            "predicted {} want {want}",
            plan.predicted_epoch
        );
    }

    #[test]
    fn huge_sync_chooses_dp2() {
        // R1-like: payload ~ k·(n≈1.1M) floats → sync dominates.
        let m = CostModel {
            nnz: 115_000_000,
            m: 1_948_883,
            n: 1_101_750,
            k: 128,
            worker_bandwidth: vec![70e9, 390e9, 410e9],
            bus_bandwidth: vec![20e9, 16e9, 16e9],
            server_bandwidth: 67e9,
            transfer_bytes: 4 * 128 * 1_101_750,
            sync_bytes: 4 * 128 * 1_101_750,
        };
        let standalone: Vec<f64> = (0..3).map(|i| m.compute_time(i, 1.0)).collect();
        let classes = [WorkerClass::Cpu, WorkerClass::Gpu, WorkerClass::Gpu];
        let plan = plan(
            &m,
            &paper(&m),
            CostModel::LAMBDA,
            &standalone,
            &classes,
            model_measure(m.clone()),
        );
        assert_eq!(plan.strategy, StrategyChoice::Dp2);
        assert!(plan.sync_ratio < 10.0, "ratio {}", plan.sync_ratio);
        // DP2 staggers: fractions strictly increasing in worker order when
        // rates are comparable per group — at minimum, not all equal.
        let all_equal = plan
            .fractions
            .windows(2)
            .all(|w| (w[0] - w[1]).abs() < 1e-12);
        assert!(!all_equal, "{:?}", plan.fractions);
    }

    #[test]
    fn replan_redistributes_by_throughput() {
        // Worker 1 dies; workers 0 and 2 had equal throughput (x/t), so the
        // survivor split is 50/50.
        let x = [0.25, 0.5, 0.25];
        let t = [1.0, 2.0, 1.0];
        let alive = [true, false, true];
        let replanned = replan_survivors(&x, &t, &alive);
        assert_eq!(replanned.len(), 2);
        assert!((replanned[0] - 0.5).abs() < 1e-12);
        assert!((replanned[1] - 0.5).abs() < 1e-12);

        // Faster survivor gets proportionally more.
        let x = [0.4, 0.4, 0.2];
        let t = [1.0, 2.0, 1.0];
        let alive = [true, true, false];
        let replanned = replan_survivors(&x, &t, &alive);
        assert!((replanned.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(replanned[0] > replanned[1]);
    }

    #[test]
    fn replan_falls_back_to_uniform_and_handles_extinction() {
        // No usable timing signal → uniform over survivors.
        let replanned = replan_survivors(&[0.5, 0.5], &[0.0, 0.0], &[true, true]);
        assert_eq!(replanned, vec![0.5, 0.5]);
        // Everyone dead → empty.
        assert!(replan_survivors(&[1.0], &[1.0], &[false]).is_empty());
    }

    #[test]
    fn plan_reports_compute_times_for_final_partition() {
        let m = model(4 * 128 * 17_771);
        let standalone: Vec<f64> = (0..4).map(|i| m.compute_time(i, 1.0)).collect();
        let classes = [
            WorkerClass::Cpu,
            WorkerClass::Cpu,
            WorkerClass::Gpu,
            WorkerClass::Gpu,
        ];
        let plan = plan(
            &m,
            &paper(&m),
            CostModel::LAMBDA,
            &standalone,
            &classes,
            model_measure(m.clone()),
        );
        assert_eq!(plan.compute_times.len(), 4);
        for (i, &t) in plan.compute_times.iter().enumerate() {
            let expect = m.compute_time(i, plan.fractions[i]);
            assert!((t - expect).abs() < 1e-12, "worker {i}");
        }
        assert!(plan.predicted_epoch > 0.0);
    }
}
