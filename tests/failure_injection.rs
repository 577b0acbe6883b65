//! Failure-injection and degenerate-input tests: stragglers, empty shards,
//! pathological matrices, NaN guards.

use hcc_comm::{Fault, FaultPlan};
use hcc_mf::{
    HccConfig, HccMf, LearningRate, PartitionMode, SupervisorConfig, TransportKind, WorkerSpec,
};
use hcc_sparse::{CooMatrix, GenConfig, Rating, SyntheticDataset};
use std::time::Duration;

fn base() -> hcc_mf::HccConfigBuilder {
    HccConfig::builder()
        .k(4)
        .epochs(6)
        .learning_rate(LearningRate::Constant(0.02))
        .lambda(0.01)
        .track_rmse(true)
}

#[test]
fn straggler_worker_does_not_break_training() {
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 300,
        cols: 150,
        nnz: 9_000,
        noise: 0.0,
        ..GenConfig::default()
    });
    // One worker runs at 20% speed — the bucket-effect scenario of §1.
    let report = HccMf::new(
        base()
            .workers(vec![WorkerSpec::cpu(2), WorkerSpec::cpu(2).throttled(0.2)])
            .adapt_epochs(3)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
    // Adaptation must shift data away from the straggler.
    let x = report.final_partition().unwrap();
    assert!(x[0] > x[1], "straggler kept too much data: {x:?}");
}

#[test]
fn a_stall_costs_its_length_once_an_epoch_not_once_a_round() {
    // Four workers, so an epoch is four rounds. Worker 2 stalls in epoch 1:
    // slept in every round it would cost four times its length.
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 200,
        cols: 100,
        nnz: 4_000,
        ..GenConfig::default()
    });
    let stall = Duration::from_millis(250);
    let report = HccMf::new(
        base()
            .epochs(3)
            .workers(vec![WorkerSpec::cpu(1); 4])
            .partition(PartitionMode::Uniform)
            .fault_tolerance(SupervisorConfig {
                heartbeat_timeout: Duration::from_secs(10),
                ..SupervisorConfig::default()
            })
            .fault_plan(FaultPlan::new(1).with(2, 1, Fault::Stall(stall)))
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    let compute = report.worker_stats[1][2].compute;
    assert!(compute >= stall && compute < 2 * stall, "{compute:?}");
    for epoch in [0, 2] {
        let compute = report.worker_stats[epoch][2].compute;
        assert!(compute < stall, "epoch {epoch}: {compute:?}");
    }
}

#[test]
fn a_dropped_push_costs_one_collect_ladder_an_epoch_not_one_a_round() {
    // Four workers, so an epoch is four rounds. Worker 2's pushes are lost
    // in epoch 1; the server waits out its ladder (100 + 200 + 400 ms)
    // once, not in each of the four rounds.
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 200,
        cols: 100,
        nnz: 4_000,
        ..GenConfig::default()
    });
    let ladder = Duration::from_millis(700);
    let report = HccMf::new(
        base()
            .epochs(3)
            .workers(vec![WorkerSpec::cpu(1); 4])
            .partition(PartitionMode::Uniform)
            .fault_tolerance(SupervisorConfig {
                heartbeat_timeout: Duration::from_millis(100),
                collect_retries: 3,
                retry_backoff: 2.0,
                ..SupervisorConfig::default()
            })
            .fault_plan(FaultPlan::new(1).with(2, 1, Fault::DropPush))
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    let wall = report.epoch_times[1];
    assert!(wall >= ladder && wall < 2 * ladder, "{wall:?}");
}

#[test]
fn single_column_matrix_trains() {
    let entries: Vec<Rating> = (0..50).map(|u| Rating::new(u, 0, 3.0)).collect();
    let m = CooMatrix::new(50, 1, entries).unwrap();
    let report = HccMf::new(base().build()).train(&m).unwrap();
    assert!(report.rmse_history.last().unwrap().is_finite());
}

#[test]
fn single_row_matrix_trains_via_transpose() {
    let entries: Vec<Rating> = (0..50).map(|i| Rating::new(0, i, 2.0)).collect();
    let m = CooMatrix::new(1, 50, entries).unwrap();
    let report = HccMf::new(base().build()).train(&m).unwrap();
    assert!(report.transposed);
    assert_eq!(report.p.rows(), 1);
    assert_eq!(report.q.rows(), 50);
}

#[test]
fn rows_with_no_entries_are_harmless() {
    // Only rows 0 and 99 are rated; the 98 empty rows must not disturb
    // the grid or the factors (their P rows just stay at initialization).
    let entries = vec![
        Rating::new(0, 0, 5.0),
        Rating::new(99, 1, 1.0),
        Rating::new(0, 1, 4.0),
    ];
    let m = CooMatrix::new(100, 2, entries).unwrap();
    let report = HccMf::new(base().epochs(3).build()).train(&m).unwrap();
    assert!(report.p.as_slice().iter().all(|v| v.is_finite()));
    assert!(report.q.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn constant_ratings_converge_to_constant_predictor() {
    let entries: Vec<Rating> = (0..200)
        .map(|j| Rating::new(j % 20, (j * 7) % 10, 3.0))
        .collect();
    let m = CooMatrix::new(20, 10, entries).unwrap();
    let report = HccMf::new(base().epochs(30).build()).train(&m).unwrap();
    assert!(
        report.final_rmse().unwrap() < 0.2,
        "constant data should be easy: {:?}",
        report.final_rmse()
    );
}

#[test]
fn extreme_learning_rate_produces_finite_failure_not_panic() {
    // γ = 5 diverges; factors may blow up but must not panic and RMSE must
    // be reported (possibly huge or NaN — we only require the run finishes).
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 50,
        cols: 30,
        nnz: 500,
        ..GenConfig::default()
    });
    let report = HccMf::new(
        base()
            .learning_rate(LearningRate::Constant(5.0))
            .epochs(3)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert_eq!(report.rmse_history.len(), 3);
}

#[test]
fn duplicate_entries_are_tolerated() {
    let entries = vec![Rating::new(0, 0, 4.0); 100];
    let m = CooMatrix::new(2, 2, entries).unwrap();
    let report = HccMf::new(base().epochs(2).build()).train(&m).unwrap();
    assert!(report.p.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn zero_adapt_epochs_freezes_partition() {
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 100,
        cols: 50,
        nnz: 2_000,
        ..GenConfig::default()
    });
    let report = HccMf::new(
        base()
            .adapt_epochs(0)
            .partition(PartitionMode::Dp1)
            .workers(vec![WorkerSpec::cpu(1), WorkerSpec::cpu(2)])
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    let first = &report.partition_history[0];
    for x in &report.partition_history {
        assert_eq!(x, first, "partition changed despite adapt_epochs = 0");
    }
}

#[test]
fn fewer_items_than_workers_trains_over_every_wire() {
    // Three workers over two items: one of the three bands is empty, and
    // its holder moves and trains nothing in its round, on every wire and
    // shard count alike, while the others train, hand on and push theirs:
    // every rating is trained once an epoch, and an unsharded wire carries
    // each of the two one-row bands three times an epoch (two hand-offs
    // and a push), at k = 4 and four bytes an element.
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 60,
        cols: 2,
        nnz: 100,
        ..GenConfig::default()
    });
    let train = |transport, shards| {
        let config = base()
            .epochs(3)
            .workers(vec![WorkerSpec::cpu(1); 3])
            .partition(PartitionMode::Uniform)
            .transport(transport)
            .server_shards(shards)
            .build();
        let report = HccMf::new(config).train(&ds.matrix).unwrap();
        let case = format!("{transport:?} x {shards}");
        let factors = report.p.as_slice().iter().chain(report.q.as_slice());
        assert!(factors.into_iter().all(|v| v.is_finite()), "{case}");
        assert_eq!(report.total_updates, 3 * ds.matrix.nnz() as u64, "{case}");
        if shards == 1 {
            assert_eq!(report.wire_bytes, 3 * 3 * 2 * 4 * 4, "{case}");
        }
        report.rmse_history
    };
    let reference = train(TransportKind::Shared, 1);
    assert_eq!(reference.len(), 3);
    for transport in [
        TransportKind::Shared,
        TransportKind::Socket,
        TransportKind::Tcp,
    ] {
        for shards in [1, 2] {
            assert_eq!(
                train(transport, shards),
                reference,
                "{transport:?} x {shards}"
            );
        }
    }
}

#[test]
fn k_equals_one_trains() {
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 80,
        cols: 40,
        nnz: 1_000,
        noise: 0.0,
        ..GenConfig::default()
    });
    let report = HccMf::new(base().k(1).epochs(10).build())
        .train(&ds.matrix)
        .unwrap();
    assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
    assert_eq!(report.p.k(), 1);
}

#[test]
fn all_workers_throttled_still_finish() {
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 60,
        cols: 30,
        nnz: 600,
        ..GenConfig::default()
    });
    let report = HccMf::new(
        base()
            .epochs(2)
            .workers(vec![
                WorkerSpec::cpu(1).throttled(0.3),
                WorkerSpec::cpu(1).throttled(0.3),
            ])
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert_eq!(report.epoch_times.len(), 2);
}

#[test]
fn comm_strategy_halfq_converges() {
    // The FP16 wire: the lossiest path.
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 200,
        cols: 120,
        nnz: 5_000,
        noise: 0.0,
        ..GenConfig::default()
    });
    let report = HccMf::new(
        base()
            .epochs(12)
            .strategy(hcc_mf::TransferStrategy::HalfQ)
            .learning_rate(LearningRate::Constant(0.02))
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert!(
        report.rmse_history.last().unwrap() < &(report.rmse_history[0] * 0.6),
        "{:?}",
        report.rmse_history
    );
}

#[test]
fn gigantic_k_relative_to_data_stays_finite() {
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 20,
        cols: 15,
        nnz: 100,
        ..GenConfig::default()
    });
    let report = HccMf::new(base().k(64).epochs(3).build())
        .train(&ds.matrix)
        .unwrap();
    assert!(report.p.as_slice().iter().all(|v| v.is_finite()));
    assert!(report.q.as_slice().iter().all(|v| v.is_finite()));
}
