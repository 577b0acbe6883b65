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
//!   `partition_history[e]` fractions over the run's seeded row order
//!   (`hcc_mf::train::row_order`; crashed worker ⇒ 0);
//! * a worker computes in the DES trace (has a `Compute` span) exactly when
//!   the threaded engine counted updates for it;
//! * stalls delay but never drop work, and dropped pushes waste the bus but
//!   never the compute, in both engines;
//! * under rolled network chaos, on one server or four shards, the server
//!   merges nothing from exactly the same `(epoch, worker)` cells in both
//!   engines — the cells the plan says lose their push; a crash loses the
//!   worker's hand-offs too, and their receivers pull the band from the
//!   server, the same steps in both engines;
//! * both walk the same `hcc_partition::RoundPlan::ring`: a traced engine
//!   epoch is the plan's rounds × pull, compute, push on every worker lane,
//!   hand-offs as the plan prices them, and one install a chunk of the
//!   last round in the plan's order on the server lane, and the calendar
//!   times the same rounds in the plan's dependency order
//!   (`the_engine_walks_the_round_plan_and_the_twin_times_it`).

use hcc_comm::{Fault, FaultPlan};
use hcc_hetsim::{
    simulate_epoch, simulate_epoch_faulty, BusKind, Phase, Platform, ProcessorProfile, SimConfig,
    Workload,
};
use hcc_mf::{
    HccConfig, HccMf, HccReport, LearningRate, PartitionMode, SupervisorConfig, WorkerHealth,
    WorkerSpec,
};
use hcc_partition::RoundPlan;
use hcc_sparse::{Axis, CooMatrix, GenConfig, GridPartition, Rating, SyntheticDataset};
use hcc_telemetry::{Dir, Event};
use std::collections::BTreeSet;
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
/// shards, running the ring the threaded engine ran.
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
    let rounds = RoundPlan::ring(workers, COLS as usize, 1);
    simulate_epoch_faulty(&platform, &workload, &config, &rounds, &x, |w| {
        plan.at(fleet[w], epoch)
    })
}

const FLEET: [usize; WORKERS] = [0, 1, 2, 3];

/// Wire bytes of one band of `Q` at fp32: `COLS / WORKERS` rows of `k = 8`.
const BAND_BYTES: u64 = (COLS as u64 / WORKERS as u64) * 8 * 4;

/// `(round, worker)` of every step of `trace` that pulled its band from the
/// server: a pull that takes time (a carried or handed band takes none).
fn des_pulls(trace: &hcc_hetsim::EpochTrace) -> BTreeSet<(usize, usize)> {
    let pulled = trace
        .spans
        .iter()
        .filter(|s| s.phase == Phase::Pull && s.end > s.start);
    pulled.map(|s| (s.round, s.worker)).collect()
}

/// The pull bytes of each epoch of a traced threaded run.
fn pulled_bytes(report: &HccReport) -> Vec<u64> {
    let timeline = report.timeline.as_ref().expect("telemetry was enabled");
    let mut pulled = vec![0; report.epoch_times.len()];
    for event in &timeline.events {
        if let Event::Bytes {
            epoch,
            dir: Dir::Pull,
            bytes,
        } = *event
        {
            pulled[epoch as usize] += bytes;
        }
    }
    pulled
}

/// A temp-dir telemetry path for the run `tag`.
fn trace_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hcc_engine_equivalence_{tag}.jsonl"))
}

fn has_compute(trace: &hcc_hetsim::EpochTrace, worker: usize) -> bool {
    trace
        .worker_spans(worker)
        .iter()
        .any(|s| s.phase == Phase::Compute)
}

/// Rebuilds epoch `e`'s row partition from the report's recorded fractions,
/// over the rows as a run with `seed` orders them, and asserts `updates`
/// matches the shard entry counts, except for workers listed in `dead`
/// (whose updates must be 0).
fn assert_updates_match_plan(
    matrix: &CooMatrix,
    seed: u64,
    report: &HccReport,
    e: usize,
    dead: &[usize],
) {
    let mut position = vec![0u32; ROWS as usize];
    for (at, &row) in hcc_mf::train::row_order(seed, ROWS as usize)
        .iter()
        .enumerate()
    {
        position[row as usize] = at as u32;
    }
    let relabelled = matrix
        .entries()
        .iter()
        .map(|r| Rating::new(position[r.u as usize], r.i, r.r))
        .collect();
    let matrix = &CooMatrix::new(ROWS, COLS, relabelled).unwrap();
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
        assert_updates_match_plan(&ds.matrix, 1, &report, e, &[]);
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
    let path = trace_path("crash");
    let builder = config(2).fault_plan(plan.clone()).telemetry(&path);
    let report = HccMf::new(builder.build()).train(&ds.matrix).unwrap();
    std::fs::remove_file(&path).ok();

    // Before the crash: full 4-worker plan, all participating.
    for e in 0..CRASH_EPOCH {
        assert_eq!(report.worker_stats[e].len(), WORKERS);
        assert_updates_match_plan(&ds.matrix, 2, &report, e, &[]);
    }

    // Crash epoch: the dead worker contributes zero updates; the survivors
    // still complete their planned shards.
    assert_eq!(
        report.health_history[CRASH_EPOCH][CRASH_WORKER],
        WorkerHealth::Dead
    );
    assert_updates_match_plan(&ds.matrix, 2, &report, CRASH_EPOCH, &[CRASH_WORKER]);

    // After the crash: the plan shrinks to 3 workers and every rating is
    // again updated exactly once per epoch.
    for e in CRASH_EPOCH + 1..EPOCHS {
        assert_eq!(report.worker_stats[e].len(), WORKERS - 1, "epoch {e}");
        assert_updates_match_plan(&ds.matrix, 2, &report, e, &[]);
        let total: u64 = report.worker_stats[e].iter().map(|s| s.updates).sum();
        assert_eq!(total, NNZ as u64, "epoch {e}");
    }

    // The crashed worker's hand-offs are lost with it: in both engines the
    // worker it hands its bands to (worker 0, the one before it in the
    // ring) pulls each of them from the server, in every round but the
    // first. The fleet rebuilt for the survivors holds no band yet, so the
    // next epoch each of them pulls its first: one whole `Q`.
    let path_trace = des_trace(&FLEET, 1, &plan, CRASH_EPOCH);
    let want: BTreeSet<_> = (1..WORKERS).map(|r| (r, 0)).collect();
    assert_eq!(des_pulls(&path_trace), want);
    let pulled = pulled_bytes(&report);
    assert_eq!(pulled[CRASH_EPOCH], (WORKERS as u64 - 1) * BAND_BYTES);
    assert_eq!(pulled[CRASH_EPOCH + 1], COLS as u64 * 8 * 4);
    assert!(pulled
        .iter()
        .enumerate()
        .all(|(e, &b)| b == 0 || e == CRASH_EPOCH || e == CRASH_EPOCH + 1));

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
        assert_updates_match_plan(&ds.matrix, 3, &report, e, &[]);
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
    let path = trace_path("dropped");
    let builder = config(4).fault_plan(plan.clone()).telemetry(&path);
    let report = HccMf::new(builder.build()).train(&ds.matrix).unwrap();
    std::fs::remove_file(&path).ok();

    // Threaded: the work was done — updates follow the plan even in the
    // epoch whose push vanished.
    for e in 0..EPOCHS {
        assert_updates_match_plan(&ds.matrix, 4, &report, e, &[]);
    }

    // DES: the push occupies the bus but the merge never happens.
    let trace = des_trace(&FLEET, 1, &plan, DROP_EPOCH);
    assert!(has_compute(&trace, DROP_WORKER));
    let spans = trace.worker_spans(DROP_WORKER);
    assert!(spans.iter().any(|s| s.phase == Phase::Push));
    assert!(spans.iter().all(|s| s.phase != Phase::Sync));

    // The wire's drop loses its push to the server, not its hand-offs: in
    // neither engine does any worker pull a band that epoch. The next
    // epoch the dropped worker pulls its own first band, its carry gone;
    // no other epoch pulls anything.
    assert_eq!(des_pulls(&trace), BTreeSet::new());
    let mut pulled = vec![0; EPOCHS];
    pulled[DROP_EPOCH + 1] = BAND_BYTES;
    assert_eq!(pulled_bytes(&report), pulled);
}

/// Runs the `--net-chaos` recipe through both engines in front of `shards`
/// server shards and compares, cell by cell, whose push the server merged,
/// and epoch by epoch, which steps pulled a band (the wire's faults lose no
/// hand-off, so only a carry a lost push ended).
fn assert_both_engines_lose_the_same_pushes(seed: u64, shards: usize) {
    let ds = dataset(seed);
    let plan = FaultPlan::from_seed(seed);
    let path = trace_path(&format!("chaos_{seed}_{shards}"));
    let builder = config(seed)
        .server_shards(shards)
        .fault_plan(plan.clone())
        .telemetry(&path);
    let report = HccMf::new(builder.build()).train(&ds.matrix).unwrap();
    std::fs::remove_file(&path).ok();
    let lost_at = |e: usize, w: usize| plan.at(w, e).is_some_and(Fault::loses_push);
    let mut lost = 0;
    for (e, pulled) in pulled_bytes(&report).into_iter().enumerate() {
        // Drops and corruption are transient: the fleet never shrinks.
        assert_eq!(report.health_history[e].len(), WORKERS, "epoch {e}");
        let trace = des_trace(&FLEET, shards, &plan, e);
        for w in 0..WORKERS {
            let planned = lost_at(e, w);
            // Threaded: a worker that computed but whose push the server
            // never merged is a straggler for the epoch.
            let threaded = report.health_history[e][w] == WorkerHealth::Straggler;
            let des = trace.worker_spans(w).iter().all(|s| s.phase != Phase::Sync);
            assert_eq!((threaded, des), (planned, planned), "epoch {e}, worker {w}");
            lost += usize::from(planned);
        }
        // A lost push never costs the work: updates follow the plan.
        assert_updates_match_plan(&ds.matrix, seed, &report, e, &[]);
        // The threaded engine pulls the bands the twin pulls — none — and,
        // as the epoch begins, the first band of each worker whose push was
        // lost the epoch before.
        let uncarried = (0..WORKERS).filter(|&w| e > 0 && lost_at(e - 1, w)).count();
        let want = (des_pulls(&trace).len() + uncarried) as u64 * BAND_BYTES;
        assert_eq!(pulled, want, "epoch {e}: {:?}", des_pulls(&trace));
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

/// `(worker, round) → (phases in first-start order, sync count)` of one
/// simulated epoch: what the threaded engine's trace must show too.
type Structure = std::collections::BTreeMap<(usize, usize), (Vec<char>, usize)>;

/// A phase as one letter, whichever engine recorded it.
fn sim_letter(phase: Phase) -> char {
    match phase {
        Phase::Pull => 'p',
        Phase::Compute => 'c',
        Phase::Push => 'u',
        Phase::Sync => 's',
    }
}

#[test]
fn the_engine_walks_the_round_plan_and_the_twin_times_it() {
    // Bands of 50 / 50 / 51 rows, and of 1, 1, 1 and 2 rows.
    for (cols, nnz, workers) in [(151, 6_000, 3), (5, 1_000, 4)] {
        let case = format!("{workers} workers on 300 x {cols}");
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 300,
            cols,
            nnz,
            seed: 5,
            ..GenConfig::default()
        });
        let path = std::env::temp_dir().join(format!("hcc_round_plan_{cols}.jsonl"));
        let config = HccConfig::builder()
            .k(8)
            .epochs(2)
            .workers(vec![WorkerSpec::cpu(1); workers])
            .partition(PartitionMode::Uniform)
            .seed(5)
            .telemetry(&path)
            .build();
        let report = HccMf::new(config).train(&ds.matrix).unwrap();
        std::fs::remove_file(&path).ok();
        let timeline = report.timeline.expect("telemetry was enabled");
        assert_eq!(timeline.dropped, 0, "{case}");
        let plan = &RoundPlan::ring(workers, cols as usize, 1);

        // The threaded engine: per epoch, each worker lane is the plan's
        // rounds x [pull, comp, push], the server lane installs the last
        // round's bands one at a time, in worker order, and the wire carries every step's band once — a
        // hand-off, or the last round's push — and pulls none: the first
        // is carried and every later one handed over.
        let letter = |phase| match phase {
            hcc_telemetry::Phase::Pull => 'p',
            hcc_telemetry::Phase::Comp => 'c',
            hcc_telemetry::Phase::Push => 'u',
            _ => 's',
        };
        let steps = |e| {
            (0..plan.rounds()).flat_map(move |r| (0..workers).map(move |w| (w, plan.step(e, r, w))))
        };
        for e in 0..2u32 {
            let holders: Vec<u32> = steps(e as usize)
                .filter(|(_, step)| step.to.is_none())
                .map(|(w, _)| w as u32)
                .collect();
            let bytes = |moved: &dyn Fn(&hcc_partition::Step) -> bool| -> u64 {
                let moved = steps(e as usize).filter(|(_, step)| moved(step));
                moved.map(|(_, step)| step.rows.len() as u64 * 8 * 4).sum()
            };
            let pulled = bytes(&|step| !step.carried && step.from.is_none());
            let handed = bytes(&|step| step.to.is_some());
            let pushed = bytes(&|step| step.to.is_none());
            assert_eq!(pulled, 0, "{case}, epoch {e}");
            assert_eq!(handed, (workers as u64 - 1) * cols as u64 * 32, "{case}");
            // (A direction that moved nothing records no event.)
            let wire = |of: Dir| {
                let bytes = timeline.events.iter().find_map(|ev| match *ev {
                    Event::Bytes { epoch, dir, bytes } if epoch == e && dir == of => Some(bytes),
                    _ => None,
                });
                bytes.unwrap_or(0)
            };
            assert_eq!(wire(Dir::Pull), pulled, "{case}, epoch {e}");
            assert_eq!(wire(Dir::Push), handed + pushed, "{case}, epoch {e}");
            let phases = |of: u32| -> String {
                timeline
                    .events
                    .iter()
                    .filter_map(|ev| match *ev {
                        Event::Phase {
                            epoch,
                            worker,
                            phase,
                            ..
                        } if epoch == e && worker == of && letter(phase) != 's' => {
                            Some(letter(phase))
                        }
                        _ => None,
                    })
                    .collect()
            };
            for w in 0..workers as u32 {
                assert_eq!(
                    phases(w),
                    "pcu".repeat(plan.rounds()),
                    "{case}, epoch {e}, worker {w}"
                );
            }
            let installs: Vec<u32> = timeline
                .events
                .iter()
                .filter_map(|ev| match *ev {
                    Event::Phase {
                        epoch,
                        worker,
                        phase: hcc_telemetry::Phase::Sync,
                        ..
                    } if epoch == e => Some(worker),
                    _ => None,
                })
                .collect();
            assert_eq!(installs, holders, "{case}, epoch {e}");
        }

        // The twin on the same plan: identical GPUs.
        let mut platform = Platform::new("round-plan twin");
        for w in 0..workers {
            let gpu = ProcessorProfile::custom_gpu(&format!("gpu{w}"), 50.0e6, 12.5e9, 0.0);
            platform = platform.with_worker(gpu, BusKind::Upi);
        }
        let workload = Workload {
            name: "round-plan twin".into(),
            m: 300,
            n: cols as u64,
            nnz: nnz as u64,
        };
        let config = SimConfig {
            k: 8,
            ..SimConfig::default()
        };
        let x = vec![1.0 / workers as f64; workers];
        let trace = simulate_epoch(&platform, &workload, &config, plan, &x);
        let mut sim = Structure::new();
        let mut spans = trace.spans.clone();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        for span in &spans {
            let (order, syncs) = sim.entry((span.worker, span.round)).or_default();
            match sim_letter(span.phase) {
                's' => *syncs += 1,
                l if !order.contains(&l) => order.push(l),
                _ => {}
            }
        }
        // The twin's epoch has epoch 0's bands; its first round is carried,
        // every later one handed over, and neither pull takes time; only
        // the last round's pushes reach the server.
        let steady = |r, w| plan.step(0, r, w);
        let want: Structure = (0..workers)
            .flat_map(|w| (0..plan.rounds()).map(move |r| (w, r)))
            .map(|(w, r)| {
                let step = steady(r, w);
                let syncs = if step.to.is_none() {
                    step.chunks.len()
                } else {
                    0
                };
                ((w, r), (vec!['p', 'c', 'u'], syncs))
            })
            .collect();
        assert_eq!(sim, want, "{case}");
        for span in trace.spans.iter().filter(|s| s.phase == Phase::Pull) {
            assert_eq!(span.start, span.end, "{case}: {span:?}");
        }
        // Dependency order: a band's hand-off ends before its next holder
        // trains it, and nothing of a round starts before the last round's
        // barrier.
        let of = |round, worker, phase| {
            trace
                .spans
                .iter()
                .filter(move |s| (s.round, s.worker, s.phase) == (round, worker, phase))
        };
        for edge in plan.edges(0) {
            let ((r, from), (_, to)) = (edge.from, edge.to);
            let handed = of(r, from, Phase::Push).map(|s| s.end).fold(0.0, f64::max);
            let trained = of(r + 1, to, Phase::Compute)
                .map(|s| s.start)
                .fold(f64::INFINITY, f64::min);
            assert!(handed <= trained, "{case}: {edge:?}");
        }
        for r in 1..plan.rounds() {
            let round = |r| trace.spans.iter().filter(move |s| s.round == r);
            let barrier = round(r - 1).map(|s| s.end).fold(0.0, f64::max);
            assert!(round(r).all(|s| s.start >= barrier), "{case}: round {r}");
        }
    }
}
