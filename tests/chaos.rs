//! Chaos tests: seeded fault injection against the supervised training loop.
//!
//! Every test is driven by the `CHAOS_SEED` environment variable (default 1)
//! so CI can sweep a seed matrix; for a fixed seed each run exercises exactly
//! the same failure schedule — the [`hcc_comm::FaultPlan`] has no wall-clock
//! dependence.

use hcc_comm::{ChaosTransport, CommSocket, Fault, FaultPlan, Precision, Transport};
use hcc_mf::{
    HccConfig, HccError, HccMf, LearningRate, PartitionMode, SupervisorConfig, TransportKind,
    WorkerHealth, WorkerSpec,
};
use hcc_sparse::{GenConfig, SyntheticDataset};
use hcc_telemetry::{Event, NetCause};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(GenConfig {
        rows: 200,
        cols: 100,
        nnz: 6_000,
        noise: 0.1,
        seed,
        ..GenConfig::default()
    })
}

/// Supervisor tuned for tests: short timeouts so a dead worker costs
/// milliseconds, not seconds.
fn test_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        heartbeat_timeout: Duration::from_millis(200),
        collect_retries: 2,
        retry_backoff: 1.5,
        ..SupervisorConfig::default()
    }
}

fn base(seed: u64) -> hcc_mf::HccConfigBuilder {
    HccConfig::builder()
        .k(8)
        .epochs(10)
        .learning_rate(LearningRate::Constant(0.02))
        .lambda(0.01)
        .workers(vec![WorkerSpec::cpu(1); 4])
        .partition(PartitionMode::Uniform)
        .seed(seed)
        .track_rmse(true)
}

fn serial_rmse(ds: &SyntheticDataset, report: &hcc_mf::HccReport) -> f64 {
    hcc_sgd::rmse(ds.matrix.entries(), &report.p, &report.q)
}

#[test]
fn fault_free_supervision_matches_plain_training_exactly() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    let plain = HccMf::new(base(seed).build()).train(&ds.matrix).unwrap();
    let supervised = HccMf::new(base(seed).fault_tolerance(test_supervisor()).build())
        .train(&ds.matrix)
        .unwrap();
    // The supervisor must be a pure observer on the happy path: identical
    // factors bit-for-bit, no rollbacks, everyone healthy every epoch.
    assert_eq!(plain.p, supervised.p);
    assert_eq!(plain.q, supervised.q);
    assert_eq!(supervised.rollbacks, 0);
    assert!(supervised
        .health_history
        .iter()
        .flatten()
        .all(|h| *h == WorkerHealth::Healthy));
}

#[test]
fn crash_one_of_four_workers_converges_on_survivors() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    let fault_free = HccMf::new(base(seed).build()).train(&ds.matrix).unwrap();
    let plan = FaultPlan::new(seed).with(1, 3, Fault::Crash);
    let report = HccMf::new(
        base(seed)
            .fault_tolerance(test_supervisor())
            .fault_plan(plan)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();

    // The dead worker is spotted at epoch 3 and removed for the rest of
    // the run.
    assert_eq!(report.health_history[3].len(), 4);
    assert_eq!(report.health_history[3][1], WorkerHealth::Dead);
    assert!(report.health_history[4..].iter().all(|h| h.len() == 3));

    // Training completes and lands within 2% of the fault-free RMSE.
    let rmse_faulty = serial_rmse(&ds, &report);
    let rmse_clean = serial_rmse(&ds, &fault_free);
    assert!(
        rmse_faulty <= rmse_clean * 1.02,
        "crash cost too much accuracy: {rmse_faulty} vs {rmse_clean}"
    );
}

#[test]
fn stalled_worker_is_classified_straggler_and_training_converges() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    // 400 ms stall against ~ms compute times: far beyond 3x the median.
    let plan = FaultPlan::new(seed).with(2, 2, Fault::Stall(Duration::from_millis(400)));
    let report = HccMf::new(
        base(seed)
            .fault_tolerance(SupervisorConfig {
                heartbeat_timeout: Duration::from_secs(2), // don't drop it
                ..test_supervisor()
            })
            .fault_plan(plan)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert_eq!(report.health_history[2][2], WorkerHealth::Straggler);
    // The straggler is kept: the fleet never shrinks.
    assert!(report.health_history.iter().all(|h| h.len() == 4));
    assert!(serial_rmse(&ds, &report) < report.rmse_history[0]);
}

#[test]
fn corrupted_push_is_quarantined_not_merged() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    let plan = FaultPlan::new(seed).with(0, 1, Fault::PoisonPush);
    let report = HccMf::new(
        base(seed)
            .fault_tolerance(test_supervisor())
            .fault_plan(plan)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    // NaNs must never reach the global factors, and the poisoned worker is
    // alive (heartbeat current) so it is kept as a straggler.
    assert!(report.q.as_slice().iter().all(|v| v.is_finite()));
    assert!(report.p.as_slice().iter().all(|v| v.is_finite()));
    assert_eq!(report.health_history[1][0], WorkerHealth::Straggler);
    assert!(report.health_history.iter().all(|h| h.len() == 4));
    assert!(serial_rmse(&ds, &report) < report.rmse_history[0]);
}

#[test]
fn dropped_push_times_out_and_training_converges() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    let plan = FaultPlan::new(seed).with(3, 2, Fault::DropPush);
    let report = HccMf::new(
        base(seed)
            .fault_tolerance(test_supervisor())
            .fault_plan(plan)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert_eq!(report.health_history[2][3], WorkerHealth::Straggler);
    assert!(serial_rmse(&ds, &report) < report.rmse_history[0]);
}

#[test]
fn divergence_guard_rolls_back_or_fails_typed_never_panics() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    // γ = 5 explodes immediately; the guard must roll back with LR backoff
    // and either recover or exhaust its budget with the typed error.
    let result = HccMf::new(
        base(seed)
            .learning_rate(LearningRate::Constant(5.0))
            .epochs(4)
            .fault_tolerance(SupervisorConfig {
                max_rollbacks: 3,
                ..test_supervisor()
            })
            .build(),
    )
    .train(&ds.matrix);
    match result {
        Ok(report) => {
            assert!(report.rollbacks > 0, "5.0 LR cannot have been clean");
            assert!(report.p.as_slice().iter().all(|v| v.is_finite()));
            assert!(report.q.as_slice().iter().all(|v| v.is_finite()));
        }
        Err(HccError::Diverged { rollbacks, .. }) => assert_eq!(rollbacks, 3),
        Err(other) => panic!("expected Diverged, got {other:?}"),
    }
}

#[test]
fn resume_reproduces_uninterrupted_run_exactly() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    let dir = std::env::temp_dir().join("hcc_chaos_resume");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join(format!("resume_{seed}.hccmf"));

    // Determinism needs a single single-threaded worker and a fixed grid.
    let solo = || {
        HccConfig::builder()
            .k(8)
            .learning_rate(LearningRate::Constant(0.02))
            .lambda(0.01)
            .workers(vec![WorkerSpec::cpu(1)])
            .partition(PartitionMode::Uniform)
            .seed(seed)
            .track_rmse(true)
    };

    let full = HccMf::new(solo().epochs(5).build())
        .train(&ds.matrix)
        .unwrap();

    // "Killed" run: train 3 epochs, checkpointing at epoch 3...
    let partial = HccMf::new(solo().epochs(3).checkpoint(&ckpt, 3).build())
        .train(&ds.matrix)
        .unwrap();
    assert_eq!(partial.rmse_history.len(), 3);
    assert!(ckpt.exists());

    // ...then resume to epoch 5: factors must match the uninterrupted run
    // bit-for-bit, and the resumed run must report where it started.
    let resumed = HccMf::new(solo().epochs(5).resume(&ckpt).build())
        .train(&ds.matrix)
        .unwrap();
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(resumed.start_epoch, 3);
    assert_eq!(resumed.rmse_history.len(), 2);
    assert_eq!(full.p, resumed.p);
    assert_eq!(full.q, resumed.q);
}

#[test]
fn resume_rejects_mismatched_shapes_with_typed_error() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    let dir = std::env::temp_dir().join("hcc_chaos_resume_mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join(format!("mismatch_{seed}.hccmf"));

    let cfg = HccConfig::builder()
        .k(8)
        .epochs(2)
        .workers(vec![WorkerSpec::cpu(1)])
        .seed(seed)
        .checkpoint(&ckpt, 2)
        .build();
    HccMf::new(cfg).train(&ds.matrix).unwrap();

    // Wrong k: the resume must fail loudly, not train garbage.
    let err = HccMf::new(
        HccConfig::builder()
            .k(16)
            .epochs(4)
            .workers(vec![WorkerSpec::cpu(1)])
            .seed(seed)
            .resume(&ckpt)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap_err();
    std::fs::remove_file(&ckpt).ok();
    assert!(matches!(err, HccError::BadConfig(_)), "{err:?}");
}

#[test]
fn multiple_simultaneous_faults_still_converge() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    let plan = FaultPlan::new(seed)
        .with(0, 4, Fault::Crash)
        .with(2, 1, Fault::Stall(Duration::from_millis(120)))
        .with(3, 6, Fault::DropPush)
        .with(1, 2, Fault::PoisonPush);
    let report = HccMf::new(
        base(seed)
            .epochs(12)
            .fault_tolerance(test_supervisor())
            .fault_plan(plan)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert!(report.p.as_slice().iter().all(|v| v.is_finite()));
    assert!(report.q.as_slice().iter().all(|v| v.is_finite()));
    // Worker 0 died at epoch 4: the last epochs run on three survivors.
    assert_eq!(report.health_history.last().unwrap().len(), 3);
    assert!(serial_rmse(&ds, &report) < report.rmse_history[0]);
}

// ---------------------------------------------------------------------------
// Network chaos: the socket transport under a seeded hostile network.
// ---------------------------------------------------------------------------

#[test]
fn socket_transport_matches_shared_memory_bit_for_bit() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    let shared = HccMf::new(base(seed).build()).train(&ds.matrix).unwrap();
    let socket = HccMf::new(base(seed).transport(TransportKind::Socket).build())
        .train(&ds.matrix)
        .unwrap();
    // Fp32 frames round-trip exactly and merges happen in the same worker
    // order, so moving the wire under the run must not move a single bit.
    assert_eq!(shared.p, socket.p);
    assert_eq!(shared.q, socket.q);
}

#[test]
fn network_chaos_converges_within_two_percent_of_fault_free() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    let fault_free = HccMf::new(base(seed).build()).train(&ds.matrix).unwrap();
    // The CLI recipe: 10% drops, 10% delays, 15% duplicates, 5% corruption.
    let report = HccMf::new(
        base(seed)
            .transport(TransportKind::Socket)
            .fault_tolerance(test_supervisor())
            .net_chaos(seed)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert!(report.p.as_slice().iter().all(|v| v.is_finite()));
    assert!(report.q.as_slice().iter().all(|v| v.is_finite()));
    // Drops and corruption are transient: nobody gets voted off the fleet.
    assert!(report.health_history.iter().all(|h| h.len() == 4));
    let rmse_chaos = serial_rmse(&ds, &report);
    let rmse_clean = serial_rmse(&ds, &fault_free);
    assert!(
        rmse_chaos <= rmse_clean * 1.02,
        "chaos cost too much accuracy: {rmse_chaos} vs {rmse_clean}"
    );
}

#[test]
fn partitioned_worker_is_marked_dead_and_survivors_replan() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    let report = HccMf::new(
        base(seed)
            .transport(TransportKind::Socket)
            .fault_tolerance(test_supervisor())
            .fault_plan(FaultPlan::new(seed).with(3, 2, Fault::Partition))
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    // Before the partition bites, everyone is healthy.
    assert!(report.health_history[..2]
        .iter()
        .all(|h| h.iter().all(|w| *w == WorkerHealth::Healthy)));
    // The partition starts at epoch 2; the worker keeps computing and
    // heartbeating, so only the PartitionedLink collect error can kill it —
    // a straggler classification would keep it forever.
    let dead_epoch = report
        .health_history
        .iter()
        .position(|h| h.len() == 4 && h[3] == WorkerHealth::Dead)
        .expect("partitioned worker was never marked dead");
    assert_eq!(dead_epoch, 2, "a partition bites in its own epoch");
    // Survivors re-plan: every later epoch runs on exactly three workers.
    assert!(report.health_history[dead_epoch + 1..]
        .iter()
        .all(|h| h.len() == 3));
    assert!(serial_rmse(&ds, &report) < report.rmse_history[0]);
}

#[test]
fn node_kill_on_a_four_shard_cluster_replans_and_converges() {
    // The sharded-server variant of the partition test: four socket shard
    // endpoints behind the row router, one worker's node severed mid-run.
    // The survivors must detect the kill, re-plan to three workers, and
    // land within 2% of the fault-free sharded run.
    let seed = chaos_seed();
    let ds = dataset(seed);
    let sharded = |b: hcc_mf::HccConfigBuilder| b.transport(TransportKind::Socket).server_shards(4);
    let fault_free = HccMf::new(sharded(base(seed)).build())
        .train(&ds.matrix)
        .unwrap();
    let report = HccMf::new(
        sharded(base(seed))
            .fault_tolerance(test_supervisor())
            .fault_plan(FaultPlan::new(seed).with(3, 2, Fault::Partition))
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    let dead_epoch = report
        .health_history
        .iter()
        .position(|h| h.len() == 4 && h[3] == WorkerHealth::Dead)
        .expect("killed node's worker was never marked dead");
    assert_eq!(dead_epoch, 2, "a partition bites in its own epoch");
    assert!(report.health_history[dead_epoch + 1..]
        .iter()
        .all(|h| h.len() == 3));
    let rmse_faulty = serial_rmse(&ds, &report);
    let rmse_clean = serial_rmse(&ds, &fault_free);
    assert!(
        rmse_faulty <= rmse_clean * 1.02,
        "node kill cost too much accuracy: {rmse_faulty} vs {rmse_clean}"
    );
}

#[test]
fn duplicate_only_chaos_is_invisible_to_training() {
    let seed = chaos_seed();
    let ds = dataset(seed);
    let plain = HccMf::new(base(seed).build()).train(&ds.matrix).unwrap();
    // Every push is wire-duplicated; the server's idempotent dedup must
    // apply each exactly once, so the factors cannot move a single bit.
    let plan = FaultPlan {
        duplicate_rate: 1.0,
        ..FaultPlan::new(seed)
    };
    let dup = HccMf::new(
        base(seed)
            .transport(TransportKind::Socket)
            .fault_tolerance(test_supervisor())
            .fault_plan(plan)
            .build(),
    )
    .train(&ds.matrix)
    .unwrap();
    assert_eq!(plain.p, dup.p);
    assert_eq!(plain.q, dup.q);
}

#[test]
fn wire_duplicates_are_deduplicated_exactly() {
    let seed = chaos_seed();
    let (workers, len) = (2usize, 8usize);
    let plan = FaultPlan {
        duplicate_rate: 1.0,
        ..FaultPlan::new(seed)
    };
    // One socket link a worker, each behind its own chaos wrapper, as the
    // engine builds them.
    let links: Vec<(Arc<CommSocket>, ChaosTransport)> = (0..workers)
        .map(|w| {
            let socket = Arc::new(CommSocket::new(1, len, len, Precision::Fp32).unwrap());
            let chaos = ChaosTransport::new(socket.clone() as Arc<dyn Transport>, plan.clone(), w);
            (socket, chaos)
        })
        .collect();

    // Drive the pull → push → collect cycle by hand for a few epochs. The
    // chaos layer re-sends every push under its original sequence number;
    // the server must ack the duplicate without re-applying it, or a later
    // collect would observe the stale payload.
    let rounds = 5u64;
    for round in 0..rounds {
        let q = vec![round as f32; len];
        for (w, (_, chaos)) in links.iter().enumerate() {
            chaos.begin_epoch(round as usize);
            chaos.publish(&q);
            let mut pulled = vec![0.0f32; len];
            chaos.pull(0, &mut pulled);
            assert_eq!(pulled, q, "round {round} worker {w} pulled stale data");
            chaos.push(0, &vec![(round * 10 + w as u64) as f32; len]);
        }
        for (w, (_, chaos)) in links.iter().enumerate() {
            let mut got = vec![0.0f32; len];
            chaos.collect(0, &mut got);
            let expect = vec![(round * 10 + w as u64) as f32; len];
            assert_eq!(
                got, expect,
                "round {round} worker {w} saw a re-applied push"
            );
        }
    }

    // Exact accounting: one wire duplicate per push, one dedup hit per
    // duplicate, zero drift between the injector and the server.
    let (mut duplicated, mut dedup_hits, mut retrans_bytes) = (0, 0, 0);
    for (socket, chaos) in &links {
        duplicated += chaos.stats().duplicated;
        dedup_hits += socket.net_stats().dedup_hits;
        retrans_bytes += socket.net_stats().retrans_bytes;
    }
    assert_eq!(duplicated, (workers as u64) * rounds);
    assert_eq!(dedup_hits, duplicated);
    assert_eq!(retrans_bytes, 0);
}

// ---------------------------------------------------------------------------
// One coordinate system: a fault lands where the plan puts it.
// ---------------------------------------------------------------------------

/// Trains under `plan` and returns the `(epoch, starting-fleet worker)`
/// cells at which the server saw a CRC-corrupt push — the one injected
/// fault that leaves a telemetry event nothing else can cause — with the
/// report.
fn corrupt_cells(
    builder: hcc_mf::HccConfigBuilder,
    plan: &FaultPlan,
    tag: &str,
) -> (BTreeSet<(usize, usize)>, hcc_mf::HccReport) {
    let seed = plan.seed;
    let ds = dataset(seed);
    let path = std::env::temp_dir().join(format!("hcc_chaos_cells_{tag}_{seed}.jsonl"));
    let config = builder
        .fault_tolerance(SupervisorConfig {
            heartbeat_timeout: Duration::from_millis(100),
            ..test_supervisor()
        })
        .fault_plan(plan.clone())
        .telemetry(&path)
        .build();
    let report = HccMf::new(config).train(&ds.matrix).unwrap();
    std::fs::remove_file(&path).ok();
    let cells = report
        .timeline
        .as_ref()
        .expect("telemetry was on")
        .events
        .iter()
        .filter_map(|event| match event {
            Event::NetRetry {
                epoch,
                worker,
                cause: NetCause::Corrupt,
                ..
            } => Some((*epoch as usize, *worker as usize)),
            _ => None,
        })
        .collect();
    (cells, report)
}

/// The cells of a 10-epoch, 4-worker run at which `plan` corrupts a push of
/// a worker that `alive(epoch, worker)` says is still in the fleet.
fn planned_corrupt_cells(
    plan: &FaultPlan,
    alive: impl Fn(usize, usize) -> bool,
) -> BTreeSet<(usize, usize)> {
    (0..10)
        .flat_map(|e| (0..4).map(move |w| (e, w)))
        .filter(|&(e, w)| alive(e, w) && plan.at(w, e) == Some(Fault::CorruptPush))
        .collect()
}

fn corrupting(seed: u64) -> FaultPlan {
    FaultPlan {
        corrupt_rate: 0.3,
        ..FaultPlan::new(seed)
    }
}

#[test]
fn rolled_faults_land_on_the_plans_cells_under_a_fixed_partition() {
    let plan = corrupting(chaos_seed());
    let (cells, _) = corrupt_cells(base(plan.seed), &plan, "uniform");
    let planned = planned_corrupt_cells(&plan, |_, _| true);
    assert!(
        planned.len() >= 4,
        "the case must inject something: {planned:?}"
    );
    assert_eq!(cells, planned);
}

#[test]
fn rolled_faults_land_on_the_plans_cells_across_repartitions() {
    // A throttled CPU + GPU-class fleet under DP2: Algorithm 1 steps after
    // the first epochs, then the stagger, which always rebuilds workers and
    // endpoints — after the plan has already been running for three epochs.
    let plan = corrupting(chaos_seed());
    let fleet = vec![
        WorkerSpec::cpu(1),
        WorkerSpec::gpu_sim(1).throttled(0.4),
        WorkerSpec::cpu(1),
        WorkerSpec::gpu_sim(1).throttled(0.4),
    ];
    let builder = base(plan.seed).workers(fleet).partition(PartitionMode::Dp2);
    let (cells, report) = corrupt_cells(builder, &plan, "dp2");
    let shares = &report.partition_history;
    assert_ne!(shares.first(), shares.last(), "the run never repartitioned");
    assert_eq!(cells, planned_corrupt_cells(&plan, |_, _| true));
}

#[test]
fn rolled_faults_land_on_the_plans_cells_after_the_fleet_shrinks() {
    // Worker 1 dies at epoch 3: the survivors are re-packed into fleet
    // slots 0..3 behind fresh endpoints, and keep their own schedules.
    let plan = corrupting(chaos_seed()).with(1, 3, Fault::Crash);
    let (cells, report) = corrupt_cells(base(plan.seed), &plan, "crash");
    assert_eq!(report.health_history[3][1], WorkerHealth::Dead);
    assert!(report.health_history[4..].iter().all(|h| h.len() == 3));
    let planned = planned_corrupt_cells(&plan, |e, w| w != 1 || e < 3);
    assert!(
        planned.iter().any(|&(e, w)| e > 3 && w > 1),
        "the case must corrupt a re-packed worker after the crash: {planned:?}"
    );
    assert_eq!(cells, planned);
}

#[test]
fn a_scripted_drop_does_not_shift_the_rolled_faults_that_follow_it() {
    // The scripted drop and the rolled corruption share one enactor and one
    // clock: the worker whose push was dropped at epoch 1 is corrupted at
    // the same later epochs as if it had not been.
    let rolled = corrupting(chaos_seed());
    // The victim: a worker the rates corrupt at some epoch after the first.
    let &(_, victim) = planned_corrupt_cells(&rolled, |_, _| true)
        .iter()
        .find(|&&(e, _)| e > 1)
        .expect("ten epochs at 0.3 corrupt somebody after epoch 1");
    let plan = rolled.with(victim, 1, Fault::DropPush);
    let (cells, report) = corrupt_cells(base(plan.seed), &plan, "drop");
    assert_eq!(report.health_history[1][victim], WorkerHealth::Straggler);
    let planned = planned_corrupt_cells(&plan, |_, _| true);
    assert!(
        !planned.contains(&(1, victim)),
        "the script outranks the roll"
    );
    assert_eq!(cells, planned);
}

// ---------------------------------------------------------------------------
// Ring hand-offs: a band lost on its way to its next holder.
// ---------------------------------------------------------------------------

/// The pull bytes of each epoch of a traced run.
fn pulled_bytes(report: &hcc_mf::HccReport) -> Vec<u64> {
    let mut pulled = vec![0; report.epoch_times.len()];
    for event in &report.timeline.as_ref().expect("telemetry was on").events {
        if let Event::Bytes {
            epoch,
            dir: hcc_telemetry::Dir::Pull,
            bytes,
        } = *event
        {
            pulled[epoch as usize] += bytes;
        }
    }
    pulled
}

#[test]
fn a_lost_hand_off_is_replaced_by_the_servers_copy_never_a_stale_or_half_landed_one() {
    // The `--net-chaos` recipe, and two workers whose bands are poisoned in
    // an epoch: what a poisoned worker hands on is lost with its push, so
    // the worker it hands to must train the server's copy, as the epoch
    // began, of each of the three bands it would have been handed, pulled
    // whole: no hand-off left over from an earlier round or epoch, no part
    // of a poisoned one. The wire's drops and corruption lose pushes to the
    // server only; a worker whose push was lost pulls its first band of the
    // next epoch, its carry gone.
    let seed = chaos_seed();
    let ds = dataset(seed);
    let poisoned = [(seed as usize % 4, 2), ((seed as usize + 1) % 4, 6)];
    let plan = poisoned
        .iter()
        .fold(FaultPlan::from_seed(seed), |plan, &(w, e)| {
            plan.with(w, e, Fault::PoisonPush)
        });
    let band = 100 / 4 * 8 * 4; // 25 rows of k = 8 at fp32
    let want: Vec<u64> = (0..10)
        .map(|e| {
            let handed = poisoned.iter().filter(|&&(_, at)| at == e).count() * 3;
            let lost_before = (0..4)
                .filter(|&w| e > 0 && plan.at(w, e - 1).is_some_and(Fault::loses_push))
                .count();
            ((handed + lost_before) * band) as u64
        })
        .collect();
    assert!(want.iter().filter(|&&b| b > 0).count() >= 3, "{want:?}");
    let mut bits = Vec::new();
    for transport in [TransportKind::Shared, TransportKind::Socket] {
        let path =
            std::env::temp_dir().join(format!("hcc_chaos_hand_off_{seed}_{transport:?}.jsonl"));
        let report = HccMf::new(
            base(seed)
                .transport(transport)
                .fault_tolerance(test_supervisor())
                .fault_plan(plan.clone())
                .telemetry(&path)
                .build(),
        )
        .train(&ds.matrix)
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(pulled_bytes(&report), want, "{transport:?}");
        assert!(report.q.as_slice().iter().all(|v| v.is_finite()));
        assert!(report.p.as_slice().iter().all(|v| v.is_finite()));
        for &(w, e) in &poisoned {
            assert_eq!(report.health_history[e][w], WorkerHealth::Straggler);
        }
        bits.push((report.p, report.q));
    }
    // What each receiver trained is decided by the plan, not by timing.
    assert!(bits[0] == bits[1], "shared and socket runs differ");
}
