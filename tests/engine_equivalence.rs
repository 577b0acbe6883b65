//! Threaded engine vs DES twin: the two executions of the same plan must
//! tell the same story.
//!
//! The threaded engine (`hcc_mf::HccMf`) runs real threads against real
//! factors; the hetsim discrete-event simulator (`simulate_epoch_faulty`)
//! runs a virtual calendar. Every test hands both the *same*
//! `hcc_comm::FaultPlan` value, read at the same `(starting-fleet worker,
//! training epoch)`. Neither engine knows about the other, so agreement is
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
//!   never the compute, in both engines;
//! * under rolled network chaos, on one server or four shards, the server
//!   merges nothing from exactly the same `(epoch, worker)` cells in both
//!   engines — the cells the plan says lose their push.

use hcc_comm::{Fault, FaultPlan};
use hcc_hetsim::{
    simulate_epoch_faulty, BusKind, Phase, Platform, ProcessorProfile, SimConfig, Workload,
};
use hcc_mf::{
    HccConfig, HccMf, HccReport, LearningRate, PartitionMode, SupervisorConfig, WorkerHealth,
    WorkerSpec,
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

/// Epoch `epoch` of `plan` on the DES mirror of the threaded platform: one
/// identical single-thread CPU per starting-fleet id in `fleet` (so a
/// uniform split is also the balanced one) in front of `shards` server
/// shards.
fn des_trace(
    fleet: &[usize],
    shards: usize,
    plan: &FaultPlan,
    epoch: usize,
) -> hcc_hetsim::EpochTrace {
    let workers = fleet.len();
    let mut platform = Platform::new("threaded-twin");
    for w in fleet {
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
        server_shards: shards,
        ..SimConfig::default()
    };
    let x = vec![1.0 / workers as f64; workers];
    simulate_epoch_faulty(&platform, &workload, &config, &x, |w| {
        plan.at(fleet[w], epoch)
    })
}

const FLEET: [usize; WORKERS] = [0, 1, 2, 3];

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
    let trace = des_trace(&FLEET, 1, &FaultPlan::new(1), 0);
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
    let plan = FaultPlan::new(2).with(CRASH_WORKER, CRASH_EPOCH, Fault::Crash);
    let report = HccMf::new(config(2).fault_plan(plan.clone()).build())
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

    // The DES twin of each epoch, under the same plan and on the fleet the
    // supervisor left: compute-span presence must equal "threaded engine
    // counted updates > 0", worker by worker.
    for e in 0..EPOCHS {
        let fleet: Vec<usize> = FLEET
            .into_iter()
            .filter(|&id| id != CRASH_WORKER || e <= CRASH_EPOCH)
            .collect();
        let workers = report.worker_stats[e].len();
        assert_eq!(fleet.len(), workers, "epoch {e}");
        let trace = des_trace(&fleet, 1, &plan, e);
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
    let stall = Fault::Stall(Duration::from_millis(150));
    let plan = FaultPlan::new(3).with(STALL_WORKER, STALL_EPOCH, stall);
    let report = HccMf::new(config(3).fault_plan(plan.clone()).build())
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
    // unchanged) and that epoch's makespan, and no other's, stretches by
    // the stall (150 ms, less rounding).
    let plain = des_trace(&FLEET, 1, &plan, STALL_EPOCH - 1);
    let stalled = des_trace(&FLEET, 1, &plan, STALL_EPOCH);
    assert!(has_compute(&stalled, STALL_WORKER));
    assert!(stalled.epoch_time - plain.epoch_time > 0.149);
    assert_eq!(plain, des_trace(&FLEET, 1, &plan, STALL_EPOCH + 1));
}

#[test]
fn dropped_push_wastes_the_bus_but_not_the_compute_in_both_engines() {
    const DROP_WORKER: usize = 0;
    const DROP_EPOCH: usize = 2;
    let ds = dataset(4);
    let plan = FaultPlan::new(4).with(DROP_WORKER, DROP_EPOCH, Fault::DropPush);
    let report = HccMf::new(config(4).fault_plan(plan.clone()).build())
        .train(&ds.matrix)
        .unwrap();

    // Threaded: the work was done — updates follow the plan even in the
    // epoch whose push vanished.
    for e in 0..EPOCHS {
        assert_updates_match_plan(&ds.matrix, &report, e, &[]);
    }

    // DES: the push occupies the bus but the merge never happens.
    let trace = des_trace(&FLEET, 1, &plan, DROP_EPOCH);
    assert!(has_compute(&trace, DROP_WORKER));
    let spans = trace.worker_spans(DROP_WORKER);
    assert!(spans.iter().any(|s| s.phase == Phase::Push));
    assert!(spans.iter().all(|s| s.phase != Phase::Sync));
}

/// Runs the `--net-chaos` recipe through both engines in front of `shards`
/// server shards and compares, cell by cell, whose push the server merged.
fn assert_both_engines_lose_the_same_pushes(seed: u64, shards: usize) {
    let ds = dataset(seed);
    let plan = FaultPlan::from_seed(seed);
    let builder = config(seed).server_shards(shards).fault_plan(plan.clone());
    let report = HccMf::new(builder.build()).train(&ds.matrix).unwrap();
    let mut lost = 0;
    for e in 0..EPOCHS {
        // Drops and corruption are transient: the fleet never shrinks.
        assert_eq!(report.health_history[e].len(), WORKERS, "epoch {e}");
        let trace = des_trace(&FLEET, shards, &plan, e);
        for w in 0..WORKERS {
            let planned = plan.at(w, e).is_some_and(Fault::loses_push);
            // Threaded: a worker that computed but whose push the server
            // never merged is a straggler for the epoch.
            let threaded = report.health_history[e][w] == WorkerHealth::Straggler;
            let des = trace.worker_spans(w).iter().all(|s| s.phase != Phase::Sync);
            assert_eq!((threaded, des), (planned, planned), "epoch {e}, worker {w}");
            lost += usize::from(planned);
        }
        // A lost push never costs the work: updates follow the plan.
        assert_updates_match_plan(&ds.matrix, &report, e, &[]);
    }
    assert!(lost >= 2, "seed {seed} must lose some pushes, lost {lost}");
}

/// The seed of the rolled cases: CI's `chaos` job sweeps it.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

#[test]
fn rolled_chaos_loses_the_same_pushes_in_both_engines() {
    assert_both_engines_lose_the_same_pushes(chaos_seed(), 1);
}

#[test]
fn rolled_chaos_loses_the_same_pushes_in_both_engines_over_four_shards() {
    // A fault is the worker's, not one of its four shard links': sharding
    // the server must not move (or multiply) a single lost push.
    assert_both_engines_lose_the_same_pushes(chaos_seed(), 4);
}
