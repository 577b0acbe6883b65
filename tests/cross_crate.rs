//! Cross-crate integration: the simulator, the cost model, and the planner
//! agree with each other and with the paper's qualitative results — and the
//! trainer's wire implementations agree with one another.

use hcc_comm::TransferStrategy;
use hcc_hetsim::{
    cost_model_for, ideal_computing_power, simulate_epoch, simulate_training, standalone_times,
    virtual_measure, worker_classes, Phase, Platform, ProcessorProfile, SimConfig, Workload,
};
use hcc_partition::{dp0, dp2, CostModel, RoundPlan, StrategyChoice};
use hcc_sparse::DatasetProfile;

/// The paper's one-round epoch of `platform` on `workload`.
fn paper(platform: &Platform, workload: &Workload, streams: usize) -> RoundPlan {
    RoundPlan::paper(platform.worker_count(), workload.n as usize, streams)
}

fn netflix() -> Workload {
    Workload::from_profile(&DatasetProfile::netflix())
}

#[test]
fn simulator_matches_cost_model_epoch_time() {
    // With one stream the simulator must equal the closed form wherever
    // nothing queues: one worker on the paper's one round (pull + compute
    // + push + sync), and two identical workers on dedicated buses in the
    // band rotation (two rounds of half of that, each ending in both
    // installs) and in the ring (two rounds of a hand-off each, the second
    // ending in both installs). Netflix's 17 771 columns would make the two
    // bands a row apart, so both run on one column fewer.
    let even = Workload {
        n: 17_770,
        ..netflix()
    };
    let cpu = ProcessorProfile::custom_cpu("cpu", 24, 3.5e8, 50e9);
    for (platform, wl, rounds, x, trailing) in [
        (
            Platform::single(ProcessorProfile::rtx_2080()),
            netflix(),
            RoundPlan::paper(1, 17_771, 1),
            vec![1.0],
            1,
        ),
        (
            Platform::pair(cpu.clone(), cpu.clone()),
            even.clone(),
            RoundPlan::rotation(2, 17_770, 1),
            vec![0.5, 0.5],
            2,
        ),
        (
            Platform::pair(cpu.clone(), cpu),
            even,
            RoundPlan::ring(2, 17_770, 1),
            vec![0.5, 0.5],
            2,
        ),
    ] {
        let cfg = SimConfig::default();
        let model = cost_model_for(&platform, &wl, &cfg, &rounds);
        let trace = simulate_epoch(&platform, &wl, &cfg, &rounds, &x);
        let expect = model.epoch_time(&rounds, &x, trailing);
        assert!(
            (trace.epoch_time - expect).abs() / expect < 1e-9,
            "{} rounds: sim {} vs model {}",
            rounds.rounds(),
            trace.epoch_time,
            expect
        );
    }
    // On the paper's plan the model's epoch is Eq. 4 to the bit.
    let (platform, wl) = (Platform::single(ProcessorProfile::rtx_2080()), netflix());
    let rounds = paper(&platform, &wl, 1);
    let model = cost_model_for(&platform, &wl, &SimConfig::default(), &rounds);
    let eq4 = model.worker_time(0, 1.0) + model.sync_time_per_worker();
    assert_eq!(model.epoch_time(&rounds, &[1.0], 1), eq4);
}

#[test]
fn dp1_beats_uniform_and_dp0_beats_nothing_on_heterogeneous_platform() {
    let platform = Platform::paper_testbed_4workers();
    let wl = netflix();
    let (cfg, rounds) = (SimConfig::default(), paper(&platform, &wl, 1));
    let uniform = vec![0.25; 4];
    let x0 = dp0(&standalone_times(&platform, &wl));
    let plan = hcc_partition::plan(
        &cost_model_for(&platform, &wl, &cfg, &rounds),
        &rounds,
        CostModel::LAMBDA,
        &standalone_times(&platform, &wl),
        &worker_classes(&platform),
        virtual_measure(&platform, &wl),
    );
    let t_uniform = simulate_epoch(&platform, &wl, &cfg, &rounds, &uniform).epoch_time;
    let t_dp0 = simulate_epoch(&platform, &wl, &cfg, &rounds, &x0).epoch_time;
    let t_planned = simulate_epoch(&platform, &wl, &cfg, &rounds, &plan.fractions).epoch_time;
    assert!(t_dp0 < t_uniform, "dp0 {t_dp0} !< uniform {t_uniform}");
    assert!(
        t_planned <= t_dp0 * 1.001,
        "planned {t_planned} > dp0 {t_dp0}"
    );
}

#[test]
fn dp2_hides_sync_on_r1_class_workload() {
    // On R1 the sync tail matters; DP2's stagger should cut the epoch
    // makespan relative to the balanced DP1 partition.
    let platform = Platform::paper_testbed_3workers();
    let wl = Workload::from_profile(&DatasetProfile::yahoo_r1());
    let (cfg, rounds) = (SimConfig::default(), paper(&platform, &wl, 1));
    let x0 = dp0(&standalone_times(&platform, &wl));
    let model = cost_model_for(&platform, &wl, &cfg, &rounds);
    let mut measure = virtual_measure(&platform, &wl);
    let t1 = measure(&x0);
    let x2 = dp2(&x0, &t1, model.sync_time_per_worker());
    let epoch_dp1 = simulate_epoch(&platform, &wl, &cfg, &rounds, &x0);
    let epoch_dp2 = simulate_epoch(&platform, &wl, &cfg, &rounds, &x2);
    assert!(
        epoch_dp2.epoch_time < epoch_dp1.epoch_time,
        "dp2 {} !< dp1 {}",
        epoch_dp2.epoch_time,
        epoch_dp1.epoch_time
    );
}

#[test]
fn q_only_strategy_shrinks_simulated_comm() {
    let platform = Platform::paper_testbed_4workers();
    let wl = netflix();
    let x = vec![0.25; 4];
    let full = simulate_epoch(
        &platform,
        &wl,
        &SimConfig {
            strategy: TransferStrategy::FullPq,
            ..Default::default()
        },
        &paper(&platform, &wl, 1),
        &x,
    );
    let qonly = simulate_epoch(
        &platform,
        &wl,
        &SimConfig {
            strategy: TransferStrategy::QOnly,
            ..Default::default()
        },
        &paper(&platform, &wl, 1),
        &x,
    );
    let half = simulate_epoch(
        &platform,
        &wl,
        &SimConfig {
            strategy: TransferStrategy::HalfQ,
            ..Default::default()
        },
        &paper(&platform, &wl, 1),
        &x,
    );
    let comm = |t: &hcc_hetsim::EpochTrace| t.totals.iter().map(|w| w.pull + w.push).sum::<f64>();
    assert!(
        comm(&qonly) < comm(&full) / 10.0,
        "Netflix Q-only must slash comm"
    );
    assert!((comm(&half) - comm(&qonly) / 2.0).abs() / comm(&qonly) < 0.01);
    // Compute is untouched by the strategy.
    assert!((full.totals[2].compute - qonly.totals[2].compute).abs() < 1e-12);
}

#[test]
fn utilization_shape_matches_table4() {
    // Netflix and R2 land high (>75%), R1 lands low — the Table 4 ordering.
    let cfg = SimConfig::default();
    let mut utils = Vec::new();
    for profile in [
        DatasetProfile::netflix(),
        DatasetProfile::yahoo_r2(),
        DatasetProfile::yahoo_r1(),
    ] {
        let platform = Platform::paper_testbed_4workers();
        let wl = Workload::from_profile(&profile);
        let rounds = paper(&platform, &wl, 1);
        let plan = hcc_partition::plan(
            &cost_model_for(&platform, &wl, &cfg, &rounds),
            &rounds,
            CostModel::LAMBDA,
            &standalone_times(&platform, &wl),
            &worker_classes(&platform),
            virtual_measure(&platform, &wl),
        );
        let sim = simulate_training(&platform, &wl, &cfg, &rounds, &plan.fractions, 20);
        utils.push(sim.computing_power / ideal_computing_power(&platform, &wl));
    }
    assert!(utils[0] > 0.75, "netflix {utils:?}");
    assert!(utils[1] > 0.75, "r2 {utils:?}");
    assert!(
        utils[2] < utils[0] && utils[2] < utils[1],
        "r1 should be lowest {utils:?}"
    );
}

#[test]
fn planner_strategy_choices_match_paper() {
    let cfg = SimConfig::default();
    let expect = [
        (DatasetProfile::netflix(), StrategyChoice::Dp1),
        (DatasetProfile::yahoo_r2(), StrategyChoice::Dp1),
        (DatasetProfile::yahoo_r1(), StrategyChoice::Dp2),
        (DatasetProfile::r1_star(), StrategyChoice::Dp2),
    ];
    for (profile, want) in expect {
        let platform = Platform::paper_testbed_4workers();
        let wl = Workload::from_profile(&profile);
        let rounds = paper(&platform, &wl, 1);
        let plan = hcc_partition::plan(
            &cost_model_for(&platform, &wl, &cfg, &rounds),
            &rounds,
            CostModel::LAMBDA,
            &standalone_times(&platform, &wl),
            &worker_classes(&platform),
            virtual_measure(&platform, &wl),
        );
        assert_eq!(
            plan.strategy, want,
            "{} (ratio {})",
            profile.name, plan.sync_ratio
        );
    }
}

#[test]
fn multi_stream_simulation_reduces_exposed_comm_on_r1() {
    let platform = Platform::paper_testbed_3workers();
    let wl = Workload::from_profile(&DatasetProfile::yahoo_r1());
    let x = dp0(&standalone_times(&platform, &wl));
    let cfg = SimConfig::default();
    let t_sync = simulate_epoch(&platform, &wl, &cfg, &paper(&platform, &wl, 1), &x).epoch_time;
    let t_async = simulate_epoch(&platform, &wl, &cfg, &paper(&platform, &wl, 4), &x).epoch_time;
    assert!(t_async < t_sync, "async {t_async} !< sync {t_sync}");
}

#[test]
fn trainer_is_transport_invariant_across_wires() {
    // The same deterministic run over every wire the trainer supports:
    // in-process shared memory, Unix sockets, and TCP. Fp32 frames round-trip exactly and merges happen in the
    // same worker order, so the factors must agree bit-for-bit.
    use hcc_mf::{HccConfig, HccMf, TransportKind, WorkerSpec};
    let ds = hcc_sparse::SyntheticDataset::generate(hcc_sparse::GenConfig {
        rows: 200,
        cols: 100,
        nnz: 5_000,
        planted_rank: 4,
        noise: 0.0,
        ..hcc_sparse::GenConfig::default()
    });
    let cfg = |transport: TransportKind| {
        HccConfig::builder()
            .k(8)
            .epochs(6)
            .learning_rate(hcc_mf::LearningRate::Constant(0.02))
            .lambda(0.01)
            .workers(vec![WorkerSpec::cpu(1), WorkerSpec::cpu(1)])
            .partition(hcc_mf::PartitionMode::Uniform)
            .adapt_epochs(0)
            .track_rmse(true)
            .transport(transport)
            .build()
    };
    let reference = HccMf::new(cfg(TransportKind::Shared))
        .train(&ds.matrix)
        .unwrap();
    for transport in [TransportKind::Socket, TransportKind::Tcp] {
        let report = HccMf::new(cfg(transport)).train(&ds.matrix).unwrap();
        assert_eq!(reference.p, report.p, "{transport:?}: P diverged");
        assert_eq!(reference.q, report.q, "{transport:?}: Q diverged");
        assert_eq!(
            reference.rmse_history, report.rmse_history,
            "{transport:?}: RMSE diverged"
        );
    }
}

#[test]
fn timeline_phases_are_complete_and_ordered() {
    let platform = Platform::paper_testbed_4workers();
    let wl = netflix();
    let (cfg, rounds) = (SimConfig::default(), paper(&platform, &wl, 1));
    let trace = simulate_epoch(&platform, &wl, &cfg, &rounds, &[0.25; 4]);
    for w in 0..4 {
        let spans = trace.worker_spans(w);
        let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
        assert!(phases.contains(&Phase::Pull));
        assert!(phases.contains(&Phase::Compute));
        assert!(phases.contains(&Phase::Push));
        assert!(phases.contains(&Phase::Sync));
        for s in &spans {
            assert!(s.end >= s.start);
        }
    }
}
