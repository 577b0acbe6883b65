//! The three data-partition strategies.
//!
//! * **DP0** (Eq. 6): split proportionally to measured standalone speed —
//!   `x_i = (1/T_i_e) / Σ_j (1/T_j_e)` where `T_i_e` is worker `i`'s
//!   independent full-data execution time.
//! * **DP1** (Algorithm 1): iterative compensation. DP0 leaves a small
//!   CPU-vs-GPU imbalance (GPU memory bandwidth shifts with input size and
//!   the model drops the `P_i` terms), so DP1 re-measures and shifts data
//!   between the CPU group and the GPU group until the group means agree
//!   within 10 %.
//! * **DP2** (Eq. 7): starting from DP1, *deliberately unbalance* the
//!   workers in steps of `T_sync` so worker `i`'s server-side merge hides
//!   under worker `i+1`'s still-running computation.

/// Whether a worker sits in the CPU group or the GPU group (Algorithm 1
/// moves data between the two groups as wholes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerClass {
    /// A CPU worker.
    Cpu,
    /// A GPU worker.
    Gpu,
}

/// DP0: proportional split from standalone execution times (Eq. 6).
///
/// # Panics
/// Panics if `standalone_times` is empty or contains non-positive values.
pub fn dp0(standalone_times: &[f64]) -> Vec<f64> {
    assert!(!standalone_times.is_empty(), "need at least one worker");
    assert!(
        standalone_times.iter().all(|&t| t > 0.0 && t.is_finite()),
        "standalone times must be positive and finite"
    );
    let inv_sum: f64 = standalone_times.iter().map(|&t| 1.0 / t).sum();
    standalone_times
        .iter()
        .map(|&t| (1.0 / t) / inv_sum)
        .collect()
}

/// Options for the DP1 compensation loop.
#[derive(Debug, Clone, Copy)]
pub struct Dp1Options {
    /// Relative CPU/GPU group-mean gap below which the loop stops
    /// (Algorithm 1 uses 0.1).
    pub tolerance: f64,
    /// Safety bound on iterations ("usually only once" in practice).
    pub max_iterations: usize,
}

impl Default for Dp1Options {
    fn default() -> Self {
        Dp1Options {
            tolerance: 0.1,
            max_iterations: 16,
        }
    }
}

/// DP1: Algorithm 1's compensation loop.
///
/// `initial` is the DP0 partition; `classes[i]` says which group worker `i`
/// belongs to; `measure` runs (or simulates) one epoch with a candidate
/// partition and returns per-worker *compute* times — the paper's
/// `sgd_update` step on line 12.
///
/// If either group is empty the loop is skipped (nothing to balance between
/// groups) and the initial partition is returned unchanged.
///
/// Returns the refined partition (renormalized to sum to 1; Algorithm 1's
/// scaling steps conserve the total only approximately).
pub fn dp1(
    initial: &[f64],
    classes: &[WorkerClass],
    options: Dp1Options,
    mut measure: impl FnMut(&[f64]) -> Vec<f64>,
) -> Vec<f64> {
    assert_eq!(initial.len(), classes.len(), "length mismatch");
    let c = classes.iter().filter(|&&w| w == WorkerClass::Cpu).count();
    let g = classes.len() - c;
    if c == 0 || g == 0 {
        return initial.to_vec();
    }

    let mut x = initial.to_vec();
    let mut t = measure(&x);
    assert_eq!(t.len(), x.len(), "measure returned wrong length");

    for _ in 0..options.max_iterations {
        match dp1_step(&x, &t, classes, options.tolerance) {
            None => break,
            Some(next) => {
                x = next;
                t = measure(&x); // line 12: re-run sgd_update with the new x
            }
        }
    }
    x
}

/// One iteration of Algorithm 1's loop body (lines 3–11): given the current
/// partition `x` and its measured compute times `t`, returns the adjusted
/// partition, or `None` when the CPU/GPU group means already agree within
/// `tolerance` (the loop's exit test on line 2).
///
/// Exposed separately so the real engine can interleave one adjustment per
/// *training* epoch — the measurement on line 12 is then simply the next
/// epoch itself.
pub fn dp1_step(x: &[f64], t: &[f64], classes: &[WorkerClass], tolerance: f64) -> Option<Vec<f64>> {
    assert_eq!(x.len(), classes.len(), "length mismatch");
    assert_eq!(t.len(), classes.len(), "length mismatch");
    let c = classes.iter().filter(|&&w| w == WorkerClass::Cpu).count();
    let g = classes.len() - c;
    if c == 0 || g == 0 {
        return None;
    }
    let (avg_cpu, avg_gpu) = group_means(t, classes);
    let gap = (avg_cpu - avg_gpu).abs() / avg_cpu.min(avg_gpu).max(f64::MIN_POSITIVE);
    if gap <= tolerance {
        return None;
    }
    // l = +1 when CPUs are slower (shed CPU data toward GPUs).
    let l = if avg_cpu > avg_gpu { 1.0 } else { -1.0 };
    let delta_t = l * (avg_cpu - avg_gpu) / (c + g) as f64; // ≥ 0
    let mut next = x.to_vec();
    for i in 0..next.len() {
        if t[i] <= 0.0 {
            continue; // idle worker: nothing measurable to scale
        }
        match classes[i] {
            WorkerClass::Cpu => {
                // x_i ← x_i·(t_i − l·g·ΔT)/t_i  (lines 5–7)
                next[i] = (next[i] * (t[i] - l * g as f64 * delta_t) / t[i]).max(0.0);
            }
            WorkerClass::Gpu => {
                // x_j ← x_j·(t_j + l·c·ΔT)/t_j  (lines 8–10)
                next[i] = (next[i] * (t[i] + l * c as f64 * delta_t) / t[i]).max(0.0);
            }
        }
    }
    normalize(&mut next);
    Some(next)
}

/// DP2: hidden-synchronization staggering (Eq. 7).
///
/// Starting from a balanced partition `x` whose measured compute times are
/// `t` (≈ equal; their median is the anchor), target compute times are set
/// to `T_med + offset_i·T_sync` with offsets `…,−1, 0, +1,…` centred on the
/// median, so the server's merge of worker `i` overlaps worker `i+1`'s tail
/// of computation. Each `x_i` is then rescaled by `target_i / t_i` (the same
/// move as Algorithm 1's line 6).
///
/// Workers are staggered in index order: lower-index workers finish earlier.
pub fn dp2(x: &[f64], t: &[f64], sync_time: f64) -> Vec<f64> {
    assert_eq!(x.len(), t.len(), "length mismatch");
    assert!(!x.is_empty(), "need at least one worker");
    assert!(
        sync_time >= 0.0 && sync_time.is_finite(),
        "sync time must be non-negative"
    );
    assert!(
        t.iter().all(|&v| v > 0.0 && v.is_finite()),
        "compute times must be positive"
    );

    let median = median_of(t);
    let p = x.len();
    let mut out = Vec::with_capacity(p);
    for i in 0..p {
        // Offsets symmetric around the median position: for p=4 →
        // -1.5, -0.5, +0.5, +1.5; for p=3 → -1, 0, +1.
        let offset = i as f64 - (p - 1) as f64 / 2.0;
        let target = (median + offset * sync_time).max(f64::MIN_POSITIVE);
        out.push((x[i] * target / t[i]).max(0.0));
    }
    normalize(&mut out);
    out
}

fn group_means(t: &[f64], classes: &[WorkerClass]) -> (f64, f64) {
    let mut cpu_sum = 0.0;
    let mut cpu_n = 0usize;
    let mut gpu_sum = 0.0;
    let mut gpu_n = 0usize;
    for (ti, class) in t.iter().zip(classes) {
        match class {
            WorkerClass::Cpu => {
                cpu_sum += ti;
                cpu_n += 1;
            }
            WorkerClass::Gpu => {
                gpu_sum += ti;
                gpu_n += 1;
            }
        }
    }
    (cpu_sum / cpu_n.max(1) as f64, gpu_sum / gpu_n.max(1) as f64)
}

fn median_of(t: &[f64]) -> f64 {
    let mut sorted = t.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

fn normalize(x: &mut [f64]) {
    let sum: f64 = x.iter().sum();
    if sum > 0.0 {
        for v in x.iter_mut() {
            *v /= sum;
        }
    } else {
        let uniform = 1.0 / x.len() as f64;
        for v in x.iter_mut() {
            *v = uniform;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dp0_inverts_times() {
        // Worker 0 takes 2s standalone, worker 1 takes 1s → 1/3 vs 2/3.
        let x = dp0(&[2.0, 1.0]);
        assert!((x[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dp0_equal_times_equal_split() {
        let x = dp0(&[5.0; 4]);
        assert!(x.iter().all(|&v| (v - 0.25).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn dp0_rejects_zero_time() {
        dp0(&[1.0, 0.0]);
    }

    /// A toy measurement model: worker i's compute time = x_i * nnz / rate_i,
    /// where GPU rates additionally *increase* slightly as their share
    /// shrinks — the Table 2 effect DP1 exists to correct.
    fn toy_measure(rates: Vec<f64>, classes: Vec<WorkerClass>) -> impl FnMut(&[f64]) -> Vec<f64> {
        move |x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, &xi)| {
                    let boost = match classes[i] {
                        WorkerClass::Gpu => 1.0 + 0.08 * (1.0 - xi),
                        WorkerClass::Cpu => 1.0,
                    };
                    xi * 1e6 / (rates[i] * boost)
                })
                .collect()
        }
    }

    #[test]
    fn dp1_closes_the_cpu_gpu_gap() {
        let classes = vec![
            WorkerClass::Cpu,
            WorkerClass::Cpu,
            WorkerClass::Gpu,
            WorkerClass::Gpu,
        ];
        let rates = vec![1e5, 1.2e5, 9e5, 1e6];
        // DP0 from standalone times (x = 1 → full data each).
        let standalone: Vec<f64> = rates.iter().map(|r| 1e6 / r).collect();
        let x0 = dp0(&standalone);
        let mut measure = toy_measure(rates.clone(), classes.clone());
        let t0 = measure(&x0);
        let (c0, g0) = group_means(&t0, &classes);
        let gap0 = (c0 - g0).abs() / c0.min(g0);

        let x1 = dp1(&x0, &classes, Dp1Options::default(), measure);
        let mut measure2 = toy_measure(rates, classes.clone());
        let t1 = measure2(&x1);
        let (c1, g1) = group_means(&t1, &classes);
        let gap1 = (c1 - g1).abs() / c1.min(g1);
        assert!(gap1 <= 0.1 + 1e-9, "gap after DP1: {gap1}");
        assert!(
            gap1 <= gap0 + 1e-12,
            "DP1 worsened the gap: {gap0} -> {gap1}"
        );
        assert!((x1.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dp1_with_single_class_is_identity() {
        let classes = vec![WorkerClass::Cpu; 3];
        let x0 = vec![0.2, 0.3, 0.5];
        let x1 = dp1(&x0, &classes, Dp1Options::default(), |_| {
            vec![1.0, 1.0, 1.0]
        });
        assert_eq!(x0, x1);
    }

    #[test]
    fn dp1_balanced_input_converges_immediately() {
        let classes = vec![WorkerClass::Cpu, WorkerClass::Gpu];
        let mut calls = 0;
        let x = dp1(&[0.5, 0.5], &classes, Dp1Options::default(), |x| {
            calls += 1;
            vec![x[0], x[1]] // identical rates → already balanced
        });
        assert_eq!(calls, 1, "should measure once and stop");
        assert_eq!(x, vec![0.5, 0.5]);
    }

    #[test]
    fn dp2_staggers_compute_times_by_sync_steps() {
        // 4 balanced workers at 1.0s, sync = 0.1s.
        let x = vec![0.25; 4];
        let t = vec![1.0; 4];
        let out = dp2(&x, &t, 0.1);
        // Targets: 0.85, 0.95, 1.05, 1.15 → fractions proportional.
        let total: f64 = [0.85, 0.95, 1.05, 1.15].iter().sum();
        for (i, want) in [0.85, 0.95, 1.05, 1.15].iter().enumerate() {
            assert!((out[i] - 0.25 * want / total * 4.0).abs() < 1e-9, "{out:?}");
        }
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Monotone increasing: later workers get more data.
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn dp2_zero_sync_is_identity_for_balanced_input() {
        let x = vec![0.25; 4];
        let t = vec![2.0; 4];
        let out = dp2(&x, &t, 0.0);
        for v in &out {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn dp2_odd_worker_count_centers_on_median() {
        let x = vec![1.0 / 3.0; 3];
        let t = vec![1.0; 3];
        let out = dp2(&x, &t, 0.2);
        // Middle worker keeps the median share.
        assert!(out[0] < out[1] && out[1] < out[2]);
        let mid_target = 1.0;
        let total = 0.8 + 1.0 + 1.2;
        assert!((out[1] - (1.0 / 3.0) * mid_target / (total / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn dp2_huge_sync_clamps_to_nonnegative() {
        let x = vec![0.5, 0.5];
        let t = vec![1.0, 1.0];
        let out = dp2(&x, &t, 10.0);
        assert!(out.iter().all(|&v| v >= 0.0));
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_dp0_sums_to_one(times in proptest::collection::vec(0.01f64..100.0, 1..10)) {
            let x = dp0(&times);
            prop_assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(x.iter().all(|&v| v > 0.0));
        }

        #[test]
        fn prop_dp0_order_inverse_to_time(times in proptest::collection::vec(0.01f64..100.0, 2..10)) {
            let x = dp0(&times);
            for i in 0..times.len() {
                for j in 0..times.len() {
                    if times[i] < times[j] {
                        prop_assert!(x[i] >= x[j]);
                    }
                }
            }
        }

        #[test]
        fn prop_dp2_sums_to_one(
            t in proptest::collection::vec(0.1f64..10.0, 2..8),
            sync in 0.0f64..1.0,
        ) {
            let x = vec![1.0 / t.len() as f64; t.len()];
            let out = dp2(&x, &t, sync);
            prop_assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(out.iter().all(|&v| v >= 0.0));
        }
    }
}
