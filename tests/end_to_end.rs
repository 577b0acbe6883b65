//! End-to-end integration tests: every solver trains to convergence on the
//! same planted-factor data, across partition modes, strategies, and
//! transports.

use hcc_mf::{
    HccConfig, HccMf, LearningRate, PartitionMode, ServeEngine, ServedModel, TransferStrategy,
    TransportKind, WorkerSpec,
};
use hcc_sgd::baselines::{Comparator::*, TrainConfig};
use hcc_sparse::{train_test_split, GenConfig, SyntheticDataset};

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(GenConfig {
        rows: 400,
        cols: 200,
        nnz: 12_000,
        planted_rank: 6,
        noise: 0.0,
        ..GenConfig::default()
    })
}

fn hcc_base() -> hcc_mf::HccConfigBuilder {
    HccConfig::builder()
        .k(8)
        .epochs(15)
        .learning_rate(LearningRate::Constant(0.02))
        .lambda(0.005)
        .workers(vec![WorkerSpec::cpu(2), WorkerSpec::cpu(2)])
        .track_rmse(true)
}

/// RMSE must drop below 40% of its initial value to count as converged.
fn assert_converged(history: &[f64], label: &str) {
    assert!(
        history.last().unwrap() < &(history[0] * 0.4),
        "{label} did not converge: {} -> {}",
        history[0],
        history.last().unwrap()
    );
}

#[test]
fn all_solvers_converge_on_the_same_data() {
    let ds = dataset();
    let cfg = TrainConfig {
        k: 8,
        epochs: 15,
        learning_rate: LearningRate::Constant(0.02),
        lambda_p: 0.005,
        lambda_q: 0.005,
        threads: 4,
        seed: 1,
        track_rmse: true,
    };
    assert_converged(&Serial.train(&ds.matrix, &cfg).rmse_history, "serial");
    assert_converged(&Fpsgd.train(&ds.matrix, &cfg).rmse_history, "fpsgd");
    assert_converged(&CumfSgd.train(&ds.matrix, &cfg).rmse_history, "cumf-sim");
    let report = HccMf::new(hcc_base().build()).train(&ds.matrix).unwrap();
    assert_converged(&report.rmse_history, "hcc-mf");
}

#[test]
fn every_partition_mode_converges() {
    let ds = dataset();
    for mode in [
        PartitionMode::Uniform,
        PartitionMode::Dp0,
        PartitionMode::Dp1,
        PartitionMode::Dp2,
        PartitionMode::Auto,
    ] {
        let report = HccMf::new(hcc_base().partition(mode).build())
            .train(&ds.matrix)
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert_converged(&report.rmse_history, &format!("{mode:?}"));
    }
}

#[test]
fn every_strategy_and_transport_converges() {
    // Every strategy the engine trains (`FullPq` is a byte model).
    let ds = dataset();
    for strategy in [TransferStrategy::QOnly, TransferStrategy::HalfQ] {
        for transport in [
            TransportKind::Shared,
            TransportKind::Socket,
            TransportKind::Tcp,
        ] {
            let report = HccMf::new(hcc_base().strategy(strategy).transport(transport).build())
                .train(&ds.matrix)
                .unwrap();
            assert_converged(&report.rmse_history, &format!("{strategy:?}/{transport:?}"));
        }
    }
}

#[test]
fn sharded_server_converges_on_every_wire() {
    // The row-aligned strategies behind 2 server shards, across all three
    // wire implementations (in-process, Unix socket, TCP).
    let ds = dataset();
    for strategy in [TransferStrategy::QOnly, TransferStrategy::HalfQ] {
        for transport in [
            TransportKind::Shared,
            TransportKind::Socket,
            TransportKind::Tcp,
        ] {
            let report = HccMf::new(
                hcc_base()
                    .strategy(strategy)
                    .transport(transport)
                    .server_shards(2)
                    .build(),
            )
            .train(&ds.matrix)
            .unwrap();
            assert_converged(
                &report.rmse_history,
                &format!("sharded {strategy:?}/{transport:?}"),
            );
        }
    }
}

#[test]
fn hcc_matches_serial_quality_on_held_out_data() {
    let ds = dataset();
    let (train, test) = train_test_split(&ds.matrix, 0.15, 3).unwrap();
    let serial_cfg = TrainConfig {
        k: 8,
        epochs: 20,
        learning_rate: LearningRate::Constant(0.02),
        lambda_p: 0.005,
        lambda_q: 0.005,
        threads: 1,
        seed: 1,
        track_rmse: false,
    };
    let serial = Serial.train(&train, &serial_cfg);
    let serial_test = hcc_sgd::rmse(test.entries(), &serial.p, &serial.q);

    let hcc = HccMf::new(hcc_base().epochs(20).build())
        .train(&train)
        .unwrap();
    let hcc_test = hcc_sgd::rmse(test.entries(), &hcc.p, &hcc.q);

    // Collaborative training must be within 30% of serial's held-out RMSE —
    // the paper's "equivalent convergence rate" claim (§4.2), loosely.
    assert!(
        hcc_test < serial_test * 1.3,
        "hcc {hcc_test} much worse than serial {serial_test}"
    );
}

#[test]
fn single_worker_hcc_behaves_like_centralized() {
    let ds = dataset();
    let report = HccMf::new(
        hcc_base()
            .workers(vec![WorkerSpec::cpu(2)])
            .epochs(10)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert_converged(&report.rmse_history, "single-worker");
    // All data on the one worker.
    assert_eq!(report.final_partition().unwrap(), &[1.0]);
}

#[test]
fn many_workers_with_tiny_dataset() {
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 20,
        cols: 10,
        nnz: 80,
        noise: 0.0,
        ..GenConfig::default()
    });
    // More workers than is sensible; some shards may be near-empty.
    let report = HccMf::new(
        hcc_base()
            .workers((0..6).map(|_| WorkerSpec::cpu(1)).collect())
            .epochs(5)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert_eq!(report.epoch_times.len(), 5);
    assert_eq!(report.total_updates, 80 * 5);
}

#[test]
fn wire_volume_ordering_matches_strategies() {
    let ds = dataset();
    let trained = |strategy| {
        let config = hcc_base().strategy(strategy).epochs(5).adapt_epochs(0);
        let report = HccMf::new(config.build()).train(&ds.matrix).unwrap();
        report.wire_bytes
    };
    // HalfQ is exactly half of QOnly (same elements, 2 bytes each).
    let (q_only, half_q) = (
        trained(TransferStrategy::QOnly),
        trained(TransferStrategy::HalfQ),
    );
    assert_eq!(q_only, half_q * 2, "{q_only} vs {half_q}");
    // FullPq > QOnly: the engine does not run it; the byte model prices it.
    let (m, n, k) = (u64::from(ds.matrix.rows()), u64::from(ds.matrix.cols()), 8);
    for (full, q) in [
        (TransferStrategy::FullPq, TransferStrategy::QOnly),
        (TransferStrategy::QOnly, TransferStrategy::HalfQ),
    ] {
        assert!(full.pull_bytes(m, n, k) > q.pull_bytes(m, n, k), "{full:?}");
        assert!(
            full.push_bytes(m / 2, n, k) > q.push_bytes(m / 2, n, k),
            "{full:?}"
        );
    }
}

#[test]
fn early_stopping_halts_on_plateau() {
    let ds = dataset();
    let report = HccMf::new(
        hcc_base()
            .epochs(60)
            .early_stop(hcc_mf::EarlyStop {
                min_rel_improvement: 0.01,
                patience: 2,
            })
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert!(
        report.rmse_history.len() < 60,
        "never stopped: {} epochs",
        report.rmse_history.len()
    );
    // It must have converged meaningfully before giving up.
    assert_converged(&report.rmse_history, "early-stopped");
    // Report vectors stay consistent with the actual epoch count.
    assert_eq!(report.epoch_times.len(), report.rmse_history.len());
    assert_eq!(report.worker_stats.len(), report.rmse_history.len());
}

#[test]
fn early_stop_requires_rmse_tracking() {
    let err = HccConfig::builder()
        .track_rmse(false)
        .early_stop(hcc_mf::EarlyStop::default())
        .try_build();
    assert!(err.is_err());
}

#[test]
fn checkpoint_roundtrips_trained_model() {
    let ds = dataset();
    let report = HccMf::new(hcc_base().epochs(5).build())
        .train(&ds.matrix)
        .unwrap();
    let dir = std::env::temp_dir().join("hcc_e2e_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.hccmf");
    hcc_mf::save_model(&path, &report.p, &report.q).unwrap();
    let (p, q) = hcc_mf::load_model(&path).unwrap();
    assert_eq!(p, report.p);
    assert_eq!(q, report.q);
    // An engine built from the loaded model serves identical scores.
    let serve = |p, q| ServeEngine::new(ServedModel::build(p, q, Some(&ds.matrix), 1).unwrap());
    let (a, b) = (serve(report.p, report.q), serve(p, q));
    assert_eq!(a.top_k(0, 5).unwrap(), b.top_k(0, 5).unwrap());
    std::fs::remove_file(path).ok();
}

#[test]
fn related_work_solvers_converge_too() {
    let ds = dataset();
    let cfg = TrainConfig {
        k: 8,
        epochs: 15,
        learning_rate: LearningRate::Constant(0.02),
        lambda_p: 0.005,
        lambda_q: 0.005,
        threads: 3,
        seed: 1,
        track_rmse: true,
    };
    assert_converged(&Dsgd.train(&ds.matrix, &cfg).rmse_history, "dsgd");
    assert_converged(&Nomad.train(&ds.matrix, &cfg).rmse_history, "nomad");
}

#[test]
fn repartitioning_preserves_training_progress() {
    // Force a repartition every adaptation epoch with strongly heterogeneous
    // workers; RMSE must keep (weakly) improving through the repartitions —
    // i.e. no P rows are lost when shards move between workers.
    let ds = dataset();
    let report = HccMf::new(
        hcc_base()
            .epochs(10)
            .adapt_epochs(6)
            .workers(vec![
                WorkerSpec::cpu(1).throttled(0.4),
                WorkerSpec::gpu_sim(3),
            ])
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    // At least one repartition actually happened.
    let changed = report.partition_history.windows(2).any(|w| w[0] != w[1]);
    assert!(
        changed,
        "no repartition occurred: {:?}",
        report.partition_history
    );
    // RMSE after each adaptation epoch is no worse than 1.2x the previous
    // (progress is preserved; small Hogwild noise allowed).
    for pair in report.rmse_history.windows(2) {
        assert!(
            pair[1] < pair[0] * 1.2,
            "regression: {:?}",
            report.rmse_history
        );
    }
    assert_converged(&report.rmse_history, "repartitioned");
}

#[test]
fn biased_pipeline_improves_ranking_on_test_set() {
    let ds = dataset();
    let (train, test) = train_test_split(&ds.matrix, 0.2, 11).unwrap();
    let trainer = HccMf::new(hcc_base().epochs(20).build());
    let (baseline, _, biased) = trainer.train_biased(&train, 10.0).unwrap();
    // The baseline alone already explains part of the test set; the full
    // model must beat the baseline alone.
    let baseline_rmse = baseline.rmse(test.entries());
    let full_rmse = biased.rmse(test.entries()).unwrap();
    assert!(
        full_rmse < baseline_rmse,
        "factors added nothing: full {full_rmse} vs baseline {baseline_rmse}"
    );
}

#[test]
fn ranking_metrics_work_end_to_end() {
    let ds = dataset();
    let (train, test) = train_test_split(&ds.matrix, 0.2, 5).unwrap();
    let report = HccMf::new(hcc_base().epochs(20).build())
        .train(&train)
        .unwrap();
    let engine = ServeEngine::new(ServedModel::build(report.p, report.q, Some(&train), 1).unwrap());
    let threshold = ds.matrix.mean_rating() as f32;
    let metrics = hcc_mf::evaluate_ranking(&engine, &test, 10, threshold).unwrap();
    assert!(metrics.users_evaluated > 10);
    assert!(metrics.ndcg > 0.0 && metrics.ndcg <= 1.0);
    assert!(metrics.precision <= 1.0 && metrics.recall <= 1.0);
}

#[test]
fn warm_start_resumes_from_checkpoint() {
    let ds = dataset();
    // Phase 1: train 10 epochs, checkpoint.
    let first = HccMf::new(hcc_base().epochs(10).build())
        .train(&ds.matrix)
        .unwrap();
    let resumed_rmse0 = {
        // Phase 2: resume from the phase-1 factors for 1 epoch; its first
        // tracked RMSE must start near phase 1's end, far below a cold
        // start's first epoch.
        let report = HccMf::new(
            hcc_base()
                .epochs(1)
                .adapt_epochs(0)
                .warm_start(first.p.clone(), first.q.clone())
                .build(),
        )
        .train(&ds.matrix)
        .unwrap();
        report.rmse_history[0]
    };
    let cold_rmse0 = HccMf::new(hcc_base().epochs(1).build())
        .train(&ds.matrix)
        .unwrap()
        .rmse_history[0];
    assert!(
        resumed_rmse0 < cold_rmse0 * 0.6,
        "warm {resumed_rmse0} not better than cold {cold_rmse0}"
    );
}

#[test]
fn warm_start_dimension_mismatch_rejected() {
    let ds = dataset();
    let bad = hcc_mf::FactorMatrix::zeros(7, 8);
    let good_q = hcc_mf::FactorMatrix::zeros(200, 8);
    let cfg = hcc_base().warm_start(bad, good_q).build();
    assert!(HccMf::new(cfg).train(&ds.matrix).is_err());
    // k mismatch is caught at build time.
    let err = HccConfig::builder()
        .k(16)
        .warm_start(
            hcc_mf::FactorMatrix::zeros(4, 8),
            hcc_mf::FactorMatrix::zeros(4, 8),
        )
        .try_build();
    assert!(err.is_err());
}
