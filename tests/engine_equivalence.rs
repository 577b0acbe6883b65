//! Threaded engine vs DES twin: the two executions of the same plan must
//! tell the same story.
//!
//! The threaded engine (`hcc_mf::HccMf` under a `FaultPlan`) runs real
//! threads against real factors; the hetsim discrete-event simulator
//! (`simulate_epoch_faulty`) replays the same fault vocabulary on a
//! virtual calendar. Neither knows about the other, so agreement is
//! evidence both implement the *model* — per-epoch update counts follow the
//! partition plan exactly, and a fault changes participation identically in
//! both engines:
//!
//! * every epoch's `worker_stats[e][w].updates` equals the entry count of
//!   shard `w` in the `GridPartition` rebuilt from that epoch's recorded
//!   `partition_history[e]` fractions (crashed worker ⇒ 0);
//! * a worker computes in the DES trace (has a `Compute` span) exactly when
//!   the threaded engine counted updates for it;
//! * stalls delay but never drop work, and dropped pushes waste the bus but
//!   never the compute, in both engines.

use hcc_hetsim::{
    simulate_epoch_faulty, BusKind, Phase, Platform, ProcessorProfile, SimConfig, SimFault,
    Workload,
};
use hcc_mf::{
    FaultPlan, HccConfig, HccMf, HccReport, LearningRate, PartitionMode, SupervisorConfig,
    WorkerHealth, WorkerSpec,
};
use hcc_sparse::{Axis, CooMatrix, GenConfig, GridPartition, SyntheticDataset};
use std::time::Duration;

const ROWS: u32 = 200; // rows > cols so the trainer partitions the matrix as-is
const COLS: u32 = 100;
const NNZ: usize = 6_000;
const WORKERS: usize = 4;
const EPOCHS: usize = 8;

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(GenConfig {
        rows: ROWS,
        cols: COLS,
        nnz: NNZ,
        noise: 0.1,
        seed,
        ..GenConfig::default()
    })
}

fn test_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        heartbeat_timeout: Duration::from_millis(200),
        collect_retries: 2,
        retry_backoff: 1.5,
        ..SupervisorConfig::default()
    }
}

fn config(seed: u64) -> hcc_mf::HccConfigBuilder {
    HccConfig::builder()
        .k(8)
        .epochs(EPOCHS)
        .learning_rate(LearningRate::Constant(0.02))
        .lambda(0.01)
        .workers(vec![WorkerSpec::cpu(1); WORKERS])
        .partition(PartitionMode::Uniform)
        .seed(seed)
        .fault_tolerance(test_supervisor())
}

/// The DES mirror of the threaded platform: `workers` identical
/// single-thread CPUs, so a uniform split is also the balanced one.
fn des_trace(workers: usize, faults: &[SimFault]) -> hcc_hetsim::EpochTrace {
    let mut platform = Platform::new("threaded-twin");
    for w in 0..workers {
        platform = platform.with_worker(
            ProcessorProfile::custom_cpu(&format!("cpu{w}"), 1, 50.0e6, 12.5e9),
            BusKind::Upi,
        );
    }
    let workload = Workload {
        name: "threaded-twin".into(),
        m: ROWS as u64,
        n: COLS as u64,
        nnz: NNZ as u64,
    };
    let config = SimConfig {
        k: 8,
        ..SimConfig::default()
    };
    let x = vec![1.0 / workers as f64; workers];
    simulate_epoch_faulty(&platform, &workload, &config, &x, faults)
}

fn has_compute(trace: &hcc_hetsim::EpochTrace, worker: usize) -> bool {
    trace
        .worker_spans(worker)
        .iter()
        .any(|s| s.phase == Phase::Compute)
}

/// Rebuilds epoch `e`'s row partition from the report's recorded fractions
/// and asserts `updates` matches the shard entry counts, except for workers
/// listed in `dead` (whose updates must be 0).
fn assert_updates_match_plan(matrix: &CooMatrix, report: &HccReport, e: usize, dead: &[usize]) {
    let fractions = &report.partition_history[e];
    let stats = &report.worker_stats[e];
    assert_eq!(
        fractions.len(),
        stats.len(),
        "epoch {e}: plan and stats disagree on worker count"
    );
    let grid = GridPartition::build(matrix, Axis::Row, fractions);
    // Boundaries are a contiguous cover of the row space.
    assert_eq!(grid.range(0).start, 0, "epoch {e}");
    assert_eq!(grid.range(fractions.len() - 1).end, ROWS, "epoch {e}");
    for w in 1..fractions.len() {
        assert_eq!(grid.range(w - 1).end, grid.range(w).start, "epoch {e}");
    }
    for (w, stat) in stats.iter().enumerate() {
        let want = if dead.contains(&w) {
            0
        } else {
            grid.shard(w).len() as u64
        };
        assert_eq!(
            stat.updates, want,
            "epoch {e}, worker {w}: updates vs shard plan"
        );
    }
}

#[test]
fn fault_free_updates_follow_the_partition_plan_every_epoch() {
    let ds = dataset(1);
    let report = HccMf::new(config(1).build()).train(&ds.matrix).unwrap();
    assert_eq!(report.worker_stats.len(), EPOCHS);
    assert_eq!(report.partition_history.len(), EPOCHS);
    for e in 0..EPOCHS {
        assert_eq!(report.worker_stats[e].len(), WORKERS);
        assert_updates_match_plan(&ds.matrix, &report, e, &[]);
        let total: u64 = report.worker_stats[e].iter().map(|s| s.updates).sum();
        assert_eq!(total, NNZ as u64, "epoch {e}: every rating updated once");
    }
    // DES twin: with no faults, everyone computes — exactly as the threaded
    // engine counted updates for everyone.
    let trace = des_trace(WORKERS, &[]);
    for w in 0..WORKERS {
        assert_eq!(
            has_compute(&trace, w),
            report.worker_stats[0][w].updates > 0,
            "worker {w}"
        );
    }
}

#[test]
fn crash_changes_participation_identically_in_both_engines() {
    const CRASH_WORKER: usize = 1;
    const CRASH_EPOCH: usize = 3;
    let ds = dataset(2);
    let plan = FaultPlan::new(2).crash(CRASH_WORKER, CRASH_EPOCH);
    let report = HccMf::new(config(2).fault_plan(plan).build())
        .train(&ds.matrix)
        .unwrap();

    // Before the crash: full 4-worker plan, all participating.
    for e in 0..CRASH_EPOCH {
        assert_eq!(report.worker_stats[e].len(), WORKERS);
        assert_updates_match_plan(&ds.matrix, &report, e, &[]);
    }

    // Crash epoch: the dead worker contributes zero updates; the survivors
    // still complete their planned shards.
    assert_eq!(
        report.health_history[CRASH_EPOCH][CRASH_WORKER],
        WorkerHealth::Dead
    );
    assert_updates_match_plan(&ds.matrix, &report, CRASH_EPOCH, &[CRASH_WORKER]);

    // After the crash: the plan shrinks to 3 workers and every rating is
    // again updated exactly once per epoch.
    for e in CRASH_EPOCH + 1..EPOCHS {
        assert_eq!(report.worker_stats[e].len(), WORKERS - 1, "epoch {e}");
        assert_updates_match_plan(&ds.matrix, &report, e, &[]);
        let total: u64 = report.worker_stats[e].iter().map(|s| s.updates).sum();
        assert_eq!(total, NNZ as u64, "epoch {e}");
    }

    // The DES twin of each epoch: compute-span presence must equal
    // "threaded engine counted updates > 0", worker by worker.
    for e in 0..EPOCHS {
        let workers = report.worker_stats[e].len();
        let faults = if e == CRASH_EPOCH {
            vec![SimFault::crash(CRASH_WORKER)]
        } else {
            vec![]
        };
        let trace = des_trace(workers, &faults);
        for w in 0..workers {
            assert_eq!(
                has_compute(&trace, w),
                report.worker_stats[e][w].updates > 0,
                "epoch {e}, worker {w}"
            );
        }
    }
}

#[test]
fn stall_delays_but_never_drops_work_in_both_engines() {
    const STALL_WORKER: usize = 2;
    const STALL_EPOCH: usize = 1;
    let ds = dataset(3);
    let plan = FaultPlan::new(3).stall(STALL_WORKER, STALL_EPOCH, 150);
    let report = HccMf::new(config(3).fault_plan(plan).build())
        .train(&ds.matrix)
        .unwrap();

    // Threaded: the straggler still finishes its whole shard every epoch.
    for e in 0..EPOCHS {
        assert_updates_match_plan(&ds.matrix, &report, e, &[]);
    }
    // The stall is visible in time, not in work: the stalled epoch's compute
    // for that worker includes the injected 150 ms.
    assert!(
        report.worker_stats[STALL_EPOCH][STALL_WORKER].compute >= Duration::from_millis(150),
        "stall must show up in compute time"
    );

    // DES: same story — the stalled worker computes (participation
    // unchanged) and the epoch's makespan stretches by about the stall.
    let plain = des_trace(WORKERS, &[]);
    let stalled = des_trace(WORKERS, &[SimFault::stall(STALL_WORKER, plain.epoch_time)]);
    assert!(has_compute(&stalled, STALL_WORKER));
    assert!(stalled.epoch_time > plain.epoch_time * 1.5);
}

#[test]
fn dropped_push_wastes_the_bus_but_not_the_compute_in_both_engines() {
    const DROP_WORKER: usize = 0;
    const DROP_EPOCH: usize = 2;
    let ds = dataset(4);
    let plan = FaultPlan::new(4).drop_push(DROP_WORKER, DROP_EPOCH);
    let report = HccMf::new(config(4).fault_plan(plan).build())
        .train(&ds.matrix)
        .unwrap();

    // Threaded: the work was done — updates follow the plan even in the
    // epoch whose push vanished.
    for e in 0..EPOCHS {
        assert_updates_match_plan(&ds.matrix, &report, e, &[]);
    }

    // DES: the push occupies the bus but the merge never happens.
    let trace = des_trace(WORKERS, &[SimFault::drop_push(DROP_WORKER)]);
    assert!(has_compute(&trace, DROP_WORKER));
    let spans = trace.worker_spans(DROP_WORKER);
    assert!(spans.iter().any(|s| s.phase == Phase::Push));
    assert!(spans.iter().all(|s| s.phase != Phase::Sync));
}
