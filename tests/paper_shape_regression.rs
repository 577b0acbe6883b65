//! Shape-regression suite: the qualitative results recorded in
//! EXPERIMENTS.md, pinned as assertions so refactors of the simulator,
//! planner, or profiles can't silently drift the reproduction away from
//! the paper. Every tolerance here is deliberately loose — these are
//! *shape* checks, not golden floats.

use hcc_comm::TransferStrategy;
use hcc_hetsim::{
    cost_model_for, ideal_computing_power, simulate_training, standalone_times, virtual_measure,
    virtual_measure_total, worker_classes, Platform, ProcessorProfile, SimConfig, Workload,
};
use hcc_partition::{dp0, dp1, dp2, CostModel, RoundPlan, StrategyChoice};
use hcc_sparse::DatasetProfile;

/// The paper's one-round epoch of `platform` on `workload`.
fn paper_plan(platform: &Platform, workload: &Workload, streams: usize) -> RoundPlan {
    RoundPlan::paper(platform.worker_count(), workload.n as usize, streams)
}

fn plan_with(
    platform: &Platform,
    wl: &Workload,
    cfg: &SimConfig,
    rounds: &RoundPlan,
) -> hcc_partition::PartitionPlan {
    hcc_partition::plan(
        &cost_model_for(platform, wl, cfg, rounds),
        rounds,
        CostModel::LAMBDA,
        &standalone_times(platform, wl),
        &worker_classes(platform),
        virtual_measure_total(platform, wl, cfg, rounds),
    )
}

/// Fig 3(a): single-processor 20-epoch Netflix times sit near the paper's
/// bars, and every good collaboration beats its best member.
#[test]
fn fig3_platform_ordering() {
    let wl = Workload::from_profile(&DatasetProfile::netflix());
    let time = |rate: f64| wl.nnz as f64 * 20.0 / rate;
    let cpu = time(ProcessorProfile::xeon_6242_24t().rates.netflix);
    let gpu2080 = time(ProcessorProfile::rtx_2080().rates.netflix);
    let gpu2080s = time(ProcessorProfile::rtx_2080_super().rates.netflix);
    assert!((cpu - 5.68).abs() < 0.1, "cpu {cpu}");
    assert!((gpu2080 - 2.16).abs() < 0.1, "2080 {gpu2080}");
    assert!(gpu2080s < gpu2080 && gpu2080 < cpu);

    let cfg = SimConfig::default();
    let pair = Platform::pair(
        ProcessorProfile::xeon_6242_16t(),
        ProcessorProfile::rtx_2080_super(),
    );
    let rounds = paper_plan(&pair, &wl, 1);
    let p = plan_with(&pair, &wl, &cfg, &rounds);
    let collab = simulate_training(&pair, &wl, &cfg, &rounds, &p.fractions, 20).total_time;
    assert!(
        collab < gpu2080s,
        "collab {collab} !< best member {gpu2080s}"
    );
}

/// Fig 8: DP1 improves on DP0 by ~10% on the 4-worker testbed for Netflix
/// and R2 (paper: 12.2% / 10%).
#[test]
fn fig8_dp1_improvement_band() {
    let cfg = SimConfig::default();
    for (profile, lo, hi) in [
        (DatasetProfile::netflix(), 0.05, 0.20),
        (DatasetProfile::yahoo_r2(), 0.04, 0.20),
    ] {
        let platform = Platform::paper_testbed_4workers();
        let wl = Workload::from_profile(&profile);
        let rounds = paper_plan(&platform, &wl, 1);
        let x0 = dp0(&standalone_times(&platform, &wl));
        let x1 = dp1(
            &x0,
            &worker_classes(&platform),
            virtual_measure(&platform, &wl),
        );
        let t0 = simulate_training(&platform, &wl, &cfg, &rounds, &x0, 20).total_time;
        let t1 = simulate_training(&platform, &wl, &cfg, &rounds, &x1, 20).total_time;
        let gain = (t0 - t1) / t0;
        assert!(
            (lo..hi).contains(&gain),
            "{}: DP1 gain {:.1}% outside [{}%, {}%]",
            profile.name,
            gain * 100.0,
            lo * 100.0,
            hi * 100.0
        );
    }
}

/// Fig 8 (R1*): DP2 improves on DP1 by 5–15% (paper: 12.1% at 4 workers).
#[test]
fn fig8_dp2_improvement_band() {
    let cfg = SimConfig::default();
    let platform = Platform::paper_testbed_4workers();
    let wl = Workload::from_profile(&DatasetProfile::r1_star());
    let rounds = paper_plan(&platform, &wl, 1);
    let x0 = dp0(&standalone_times(&platform, &wl));
    let x1 = dp1(
        &x0,
        &worker_classes(&platform),
        virtual_measure(&platform, &wl),
    );
    let mut measure = virtual_measure(&platform, &wl);
    let t = measure(&x1);
    let model = cost_model_for(&platform, &wl, &cfg, &rounds);
    let x2 = dp2(&x1, &t, model.sync_time_per_worker());
    let t1 = simulate_training(&platform, &wl, &cfg, &rounds, &x1, 20).total_time;
    let t2 = simulate_training(&platform, &wl, &cfg, &rounds, &x2, 20).total_time;
    let gain = (t1 - t2) / t1;
    assert!(
        (0.03..0.20).contains(&gain),
        "DP2 gain {:.1}%",
        gain * 100.0
    );
}

/// Table 4: utilization bands — Netflix/R2 high, R1 middle, MovieLens low.
#[test]
fn table4_utilization_bands() {
    let expect: [(DatasetProfile, f64, f64); 4] = [
        (DatasetProfile::netflix(), 0.80, 1.0),
        (DatasetProfile::yahoo_r2(), 0.80, 1.0),
        (DatasetProfile::yahoo_r1(), 0.35, 0.75),
        (DatasetProfile::movielens_20m(), 0.20, 0.55),
    ];
    for (profile, lo, hi) in expect {
        let (platform, streams) = if profile.name.contains("R1") {
            (Platform::paper_testbed_3workers(), 4)
        } else {
            (Platform::paper_testbed_overall(), 1)
        };
        let (cfg, wl) = (SimConfig::default(), Workload::from_profile(&profile));
        let rounds = paper_plan(&platform, &wl, streams);
        let p = plan_with(&platform, &wl, &cfg, &rounds);
        let sim = simulate_training(&platform, &wl, &cfg, &rounds, &p.fractions, 20);
        let util = sim.computing_power / ideal_computing_power(&platform, &wl);
        assert!(
            (lo..hi).contains(&util),
            "{}: utilization {:.0}% outside [{:.0}%, {:.0}%]",
            profile.name,
            util * 100.0,
            lo * 100.0,
            hi * 100.0
        );
    }
}

/// Fig 7(d–f): simulated paper-scale speedup of HCC over CuMF_SGD lands
/// near the paper's 2.3× (Netflix) and 2.9× (R2).
#[test]
fn fig7_speedup_bands() {
    let cfg = SimConfig::default();
    for (profile, paper, tol) in [
        (DatasetProfile::netflix(), 2.3, 0.5),
        (DatasetProfile::yahoo_r2(), 2.9, 0.7),
    ] {
        let platform = Platform::paper_testbed_overall();
        let wl = Workload::from_profile(&profile);
        let rounds = paper_plan(&platform, &wl, 1);
        let p = plan_with(&platform, &wl, &cfg, &rounds);
        let hcc = simulate_training(&platform, &wl, &cfg, &rounds, &p.fractions, 20).total_time;
        let cumf = wl.nnz as f64 * 20.0
            / ProcessorProfile::rtx_2080_super()
                .rates
                .rate(&wl.name, wl.m, wl.n, wl.nnz);
        let speedup = cumf / hcc;
        assert!(
            (speedup - paper).abs() < tol,
            "{}: speedup {speedup:.2} vs paper {paper}",
            profile.name
        );
    }
}

/// Table 5: Q-only communication speedup equals the volume law, ~18.6× on
/// Netflix (paper measures 18.3×).
#[test]
fn table5_q_only_speedup() {
    let cfg_full = SimConfig {
        strategy: TransferStrategy::FullPq,
        ..Default::default()
    };
    let cfg_q = SimConfig::default();
    let platform = Platform::paper_testbed_4workers();
    let wl = Workload::from_profile(&DatasetProfile::netflix());
    let x = dp0(&standalone_times(&platform, &wl));
    let rounds = paper_plan(&platform, &wl, 1);
    let comm = |cfg: &SimConfig| -> f64 {
        let sim = simulate_training(&platform, &wl, cfg, &rounds, &x, 20);
        sim.epoch
            .totals
            .iter()
            .map(|t| (t.pull + t.push) * 20.0)
            .sum()
    };
    let speedup = comm(&cfg_full) / comm(&cfg_q);
    assert!((speedup - 18.6).abs() < 1.0, "Q-only speedup {speedup}");
}

/// Table 6: the second GPU on MovieLens buys only ~1.2–1.6× (paper 1.24×).
#[test]
fn table6_limitation_band() {
    let cfg = SimConfig::default();
    let wl = Workload::from_profile(&DatasetProfile::movielens_20m());
    let single = Platform::single(ProcessorProfile::rtx_2080_super());
    let pair = Platform::pair(
        ProcessorProfile::rtx_2080_super(),
        ProcessorProfile::rtx_2080(),
    );
    let (one, two) = (paper_plan(&single, &wl, 1), paper_plan(&pair, &wl, 1));
    let p1 = plan_with(&single, &wl, &cfg, &one);
    let p2 = plan_with(&pair, &wl, &cfg, &two);
    let t1 = simulate_training(&single, &wl, &cfg, &one, &p1.fractions, 20).total_time;
    let t2 = simulate_training(&pair, &wl, &cfg, &two, &p2.fractions, 20).total_time;
    let speedup = t1 / t2;
    assert!(
        (1.1..1.7).contains(&speedup),
        "MovieLens 2nd-GPU speedup {speedup:.2} outside the limitation band"
    );
}

/// λ dispatch: the planner's choices per dataset are stable.
#[test]
fn lambda_dispatch_choices() {
    let cfg = SimConfig::default();
    let expect = [
        (DatasetProfile::netflix(), StrategyChoice::Dp1),
        (DatasetProfile::yahoo_r2(), StrategyChoice::Dp1),
        (DatasetProfile::yahoo_r1(), StrategyChoice::Dp2),
        (DatasetProfile::r1_star(), StrategyChoice::Dp2),
        (DatasetProfile::movielens_20m(), StrategyChoice::Dp2),
    ];
    for (profile, want) in expect {
        let platform = Platform::paper_testbed_4workers();
        let wl = Workload::from_profile(&profile);
        let plan = plan_with(&platform, &wl, &cfg, &paper_plan(&platform, &wl, 1));
        assert_eq!(
            plan.strategy, want,
            "{} (ratio {:.1})",
            profile.name, plan.sync_ratio
        );
    }
}
