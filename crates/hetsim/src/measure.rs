//! Virtual profiling: the measurement hooks the partition planner needs,
//! implemented against the simulator.
//!
//! The real engine measures with wall clocks; here the same quantities come
//! from the calibrated profiles, so DP0/DP1/DP2 planning runs identically on
//! hardware we don't have.

use crate::engine::{
    compute_rate, compute_time, standalone_rate, SimConfig, WorkerCosts, Workload,
};
use crate::platform::Platform;
use hcc_partition::{CostModel, RoundPlan, WorkerClass};

/// Per-worker standalone full-data execution time (`T_i_e`, the DP0 input):
/// each worker processes the *entire* dataset independently with no
/// communication and no server activity. The time-sharing penalty of the
/// server's worker deliberately does NOT appear here — during independent
/// profiling the server has nothing to synchronize — which is exactly why
/// DP0 misjudges that worker during real training and Algorithm 1 (DP1)
/// exists to compensate (the paper's Fig. 8 narrative).
pub fn standalone_times(platform: &Platform, workload: &Workload) -> Vec<f64> {
    let alone = |slot| workload.nnz as f64 / standalone_rate(slot, workload, 1.0);
    platform.workers.iter().map(alone).collect()
}

/// The `measure` callback for DP1's Algorithm-1 loop: per-worker *compute*
/// times for a candidate partition, in virtual time — the simulator's
/// analog of line 12's `sgd_update` run.
pub fn virtual_measure<'a>(
    platform: &'a Platform,
    workload: &'a Workload,
) -> impl FnMut(&[f64]) -> Vec<f64> + 'a {
    move |x: &[f64]| {
        assert_eq!(x.len(), platform.workers.len(), "partition length mismatch");
        (0..x.len())
            .map(|w| compute_time(platform, workload, w, x[w]))
            .collect()
    }
}

/// Like [`virtual_measure`], but returns each worker's compute time **plus
/// its exposed communication time** over the rounds of `plan` (each step's
/// pull + push divided by its effective stream count, a carried step's
/// pull being none). With one stream and
/// near-equal buses this reduces to compute balancing — the paper's
/// equal-`b` assumption in Theorem 1 — but under Strategy 3 the GPUs hide
/// most of their transfers while plain CPUs cannot, and partition planning
/// must see that asymmetry or the CPU becomes the straggler.
pub fn virtual_measure_total<'a>(
    platform: &'a Platform,
    workload: &'a Workload,
    config: &'a SimConfig,
    plan: &'a RoundPlan,
) -> impl FnMut(&[f64]) -> Vec<f64> + 'a {
    move |x: &[f64]| {
        assert_eq!(x.len(), platform.workers.len(), "partition length mismatch");
        (0..x.len())
            .map(|w| {
                // Fair share, not the simulator's full link speed: a formula
                // cannot queue a contended transfer. With S streams, roughly
                // one chunk's transfer each side stays exposed at the
                // pipeline's ends.
                let link = platform.effective_bus_bandwidth(w);
                let exposed = |step| {
                    let c = WorkerCosts::derive(platform, workload, config, w, x[w], link, &step);
                    c.phases.compute + (c.phases.pull + c.phases.push) / c.streams as f64
                };
                (0..plan.rounds())
                    .map(|r| exposed(plan.step(0, r, w)))
                    .sum()
            })
            .collect()
    }
}

/// CPU/GPU class of each worker (Algorithm 1 balances the two groups).
pub fn worker_classes(platform: &Platform) -> Vec<WorkerClass> {
    platform
        .workers
        .iter()
        .map(|slot| {
            if slot.profile.kind.is_gpu() {
                WorkerClass::Gpu
            } else {
                WorkerClass::Cpu
            }
        })
        .collect()
}

/// Builds the closed-form [`CostModel`] (Eqs. 1–5) for a platform/workload/
/// config triple running the epochs of `plan`. Worker "bandwidth" is the
/// *effective* `B_i` implied by the calibrated rate — `rate × (16k+4)`
/// bytes/s — which is how the model and the calibration stay consistent.
pub fn cost_model_for(
    platform: &Platform,
    workload: &Workload,
    config: &SimConfig,
    plan: &RoundPlan,
) -> CostModel {
    let bytes_per_update = 16.0 * config.k as f64 + 4.0;
    let workers = platform.workers.len();
    let worker_bandwidth = (0..workers)
        .map(|w| compute_rate(platform, workload, w, 1.0) * bytes_per_update)
        .collect();
    // Fair share, as in `virtual_measure_total`: Eq. 2 cannot queue either.
    let bus_bandwidth = (0..workers)
        .map(|w| platform.effective_bus_bandwidth(w) * config.transport_efficiency)
        .collect();
    // Sync merges the decompressed payload of an average worker's push.
    // Under Strategy 3 pushes arrive in the plan's chunks, so the unit of
    // synchronization (and the tail Eq. 5 cares about) shrinks accordingly.
    let m_avg = workload.m / workers.max(1) as u64;
    let effective_streams = platform
        .workers
        .iter()
        .map(|slot| slot.streams(plan.slots()))
        .max()
        .unwrap_or(1) as u64;
    // A sharded server merges each push's slices on N concurrent shard
    // queues, so the serialized unit the model (and DP2's stagger) sees is
    // the per-shard slice.
    let sync_bytes = config.strategy.push_elements(m_avg, workload.n, config.k) * 4
        / effective_streams
        / config.server_shards.max(1) as u64;

    CostModel {
        nnz: workload.nnz,
        m: workload.m,
        n: workload.n,
        k: config.k,
        worker_bandwidth,
        bus_bandwidth,
        server_bandwidth: platform.server_bandwidth,
        transfer_bytes: config.strategy.pull_bytes(workload.m, workload.n, config.k),
        sync_bytes,
    }
}

/// Table 2 reproduction: per-worker runtime memory bandwidth when running
/// independently ("IW", full data) vs. under a DP0 partition. Returns
/// `(name, iw_gbps, dp0_gbps)` rows.
pub fn bandwidth_table(platform: &Platform, dp0_fractions: &[f64]) -> Vec<(String, f64, f64)> {
    assert_eq!(
        dp0_fractions.len(),
        platform.workers.len(),
        "partition length mismatch"
    );
    platform
        .workers
        .iter()
        .zip(dp0_fractions)
        .map(|(slot, &x)| {
            (
                slot.profile.name.clone(),
                slot.profile.bandwidth_at(1.0) / 1e9,
                slot.profile.bandwidth_at(x) / 1e9,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_partition::{dp0, dp1, CostModel, StrategyChoice};
    use hcc_sparse::DatasetProfile;

    fn netflix() -> Workload {
        Workload::from_profile(&DatasetProfile::netflix())
    }

    /// The paper's one-round, one-stream epoch.
    fn paper(platform: &Platform, workload: &Workload) -> RoundPlan {
        RoundPlan::paper(platform.worker_count(), workload.n as usize, 1)
    }

    fn r1() -> Workload {
        Workload::from_profile(&DatasetProfile::yahoo_r1())
    }

    #[test]
    fn standalone_times_invert_rates() {
        let p = Platform::paper_testbed_3workers();
        let times = standalone_times(&p, &netflix());
        // 2080S is the fastest on Netflix → smallest time.
        assert!(times[2] < times[1] && times[1] < times[0], "{times:?}");
        let expect = netflix().nnz as f64 / 1_052_866_849.0;
        assert!((times[2] - expect).abs() < 1e-9);
    }

    #[test]
    fn dp0_from_virtual_standalone_matches_rate_shares() {
        let p = Platform::paper_testbed_3workers();
        let wl = netflix();
        let x = dp0(&standalone_times(&p, &wl));
        let rates = [348_790_567.0, 918_333_483.0, 1_052_866_849.0];
        let total: f64 = rates.iter().sum();
        for i in 0..3 {
            assert!((x[i] - rates[i] / total).abs() < 1e-9, "{x:?}");
        }
    }

    #[test]
    fn dp1_on_simulator_balances_cpu_gpu_groups() {
        let p = Platform::paper_testbed_4workers();
        let wl = netflix();
        let x0 = dp0(&standalone_times(&p, &wl));
        let classes = worker_classes(&p);
        let x1 = dp1(&x0, &classes, virtual_measure(&p, &wl));
        let mut measure = virtual_measure(&p, &wl);
        let t1 = measure(&x1);
        let cpu_mean = (t1[0] + t1[1]) / 2.0;
        let gpu_mean = (t1[2] + t1[3]) / 2.0;
        let gap = (cpu_mean - gpu_mean).abs() / cpu_mean.min(gpu_mean);
        assert!(gap <= 0.1 + 1e-9, "gap {gap}");
        assert!((x1.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn planner_picks_dp1_for_netflix_and_dp2_for_r1() {
        // This is the paper's §4.3 observation reproduced end-to-end on the
        // virtual platform.
        let p = Platform::paper_testbed_4workers();
        let cfg = SimConfig::default();

        let wl = netflix();
        let rounds = paper(&p, &wl);
        let model = cost_model_for(&p, &wl, &cfg, &rounds);
        let plan = hcc_partition::plan(
            &model,
            &rounds,
            CostModel::LAMBDA,
            &standalone_times(&p, &wl),
            &worker_classes(&p),
            virtual_measure(&p, &wl),
        );
        assert_eq!(
            plan.strategy,
            StrategyChoice::Dp1,
            "netflix ratio {}",
            plan.sync_ratio
        );

        let wl = r1();
        let rounds = paper(&p, &wl);
        let model = cost_model_for(&p, &wl, &cfg, &rounds);
        let plan = hcc_partition::plan(
            &model,
            &rounds,
            CostModel::LAMBDA,
            &standalone_times(&p, &wl),
            &worker_classes(&p),
            virtual_measure(&p, &wl),
        );
        assert_eq!(
            plan.strategy,
            StrategyChoice::Dp2,
            "r1 ratio {}",
            plan.sync_ratio
        );
    }

    #[test]
    fn classes_match_profiles() {
        let p = Platform::paper_testbed_4workers();
        assert_eq!(
            worker_classes(&p),
            vec![
                WorkerClass::Cpu,
                WorkerClass::Cpu,
                WorkerClass::Gpu,
                WorkerClass::Gpu
            ]
        );
    }

    #[test]
    fn bandwidth_table_matches_table2_shape() {
        let p = Platform::paper_testbed_4workers();
        let wl = netflix();
        let x = dp0(&standalone_times(&p, &wl));
        let rows = bandwidth_table(&p, &x);
        assert_eq!(rows.len(), 4);
        for (name, iw, dp0_bw) in &rows {
            assert!(dp0_bw >= iw, "{name}: DP0 bandwidth should not drop");
        }
        // GPUs gain visibly, CPUs barely.
        let gpu_gain = rows[3].2 - rows[3].1;
        let cpu_gain = rows[1].2 - rows[1].1;
        assert!(gpu_gain > cpu_gain);
    }

    #[test]
    fn cost_model_consistent_with_simulator_compute() {
        let p = Platform::paper_testbed_3workers();
        let wl = netflix();
        let cfg = SimConfig::default();
        let model = cost_model_for(&p, &wl, &cfg, &paper(&p, &wl));
        // At x = 1 the model compute time equals nnz/rate (by construction).
        let t_model = model.compute_time(1, 1.0);
        let t_direct = wl.nnz as f64 / 918_333_483.0;
        assert!((t_model - t_direct).abs() / t_direct < 1e-12);

        // Four server shards merge a quarter of the push each; nothing
        // else in the model moves.
        let sharded = cost_model_for(
            &p,
            &wl,
            &SimConfig {
                server_shards: 4,
                ..cfg
            },
            &paper(&p, &wl),
        );
        assert_eq!(sharded.sync_bytes * 4, model.sync_bytes);
        assert_eq!(
            CostModel {
                sync_bytes: model.sync_bytes,
                ..sharded
            },
            model
        );
    }
}
