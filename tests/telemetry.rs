//! End-to-end telemetry tests: the observability subsystem is disabled by
//! default, records a coherent per-worker timeline when enabled, survives a
//! JSONL round trip through disk, and produces the measured-vs-model report
//! for every data-partition strategy.

use hcc_mf::{HccConfig, HccMf, PartitionMode, WorkerSpec};
use hcc_sparse::{GenConfig, SyntheticDataset};
use hcc_telemetry::{epoch_breakdown, Event, Phase};
use std::sync::Mutex;

/// `disabled_mode_overhead_is_negligible` times a tight loop; concurrent
/// tests stealing cores would skew it, so every test in this binary takes
/// this lock and they run one at a time.
static SEQ: Mutex<()> = Mutex::new(());

fn sequential() -> std::sync::MutexGuard<'static, ()> {
    SEQ.lock().unwrap_or_else(|e| e.into_inner())
}

fn dataset(nnz: usize) -> SyntheticDataset {
    SyntheticDataset::generate(GenConfig {
        rows: 600,
        cols: 300,
        nnz,
        seed: 11,
        ..GenConfig::default()
    })
}

fn four_workers() -> Vec<WorkerSpec> {
    vec![
        WorkerSpec::cpu(1),
        WorkerSpec::cpu(1),
        WorkerSpec::cpu(1),
        WorkerSpec::cpu(1),
    ]
}

#[test]
fn telemetry_disabled_by_default() {
    let _seq = sequential();
    let ds = dataset(4_000);
    let config = HccConfig::builder()
        .k(8)
        .epochs(2)
        .workers(vec![WorkerSpec::cpu(2), WorkerSpec::cpu(2)])
        .build();
    let report = HccMf::new(config).train(&ds.matrix).unwrap();
    assert!(report.timeline.is_none());
}

/// With telemetry on, a 4-worker run's recorded spans must *fit inside*
/// the recorded epoch wall clock. Every assertion is structural and
/// one-sided — which spans exist, in what order, and that no sum of
/// sequential spans exceeds the wall — so none depends on how the host
/// scheduled the threads. How much of the wall the spans leave *uncovered*
/// (thread spawn/join, merge-loop bookkeeping) is a per-layer benchmark
/// metric with no verdict, not a test.
#[test]
fn phase_spans_account_for_epoch_wall_clock() {
    let _seq = sequential();
    let ds = dataset(40_000);
    let path = std::env::temp_dir().join("hcc_telemetry_wall.jsonl");
    let config = HccConfig::builder()
        .k(32)
        .epochs(3)
        .workers(four_workers())
        .seed(7)
        .telemetry(&path)
        .build();
    let report = HccMf::new(config).train(&ds.matrix).unwrap();
    let timeline = report.timeline.as_ref().expect("telemetry was enabled");
    assert_eq!(timeline.dropped, 0, "ring buffers overflowed");

    let breakdown = epoch_breakdown(timeline);
    assert_eq!(breakdown.len(), 3);
    for b in &breakdown {
        assert!(b.wall > 0.0, "epoch {} has no EpochEnd wall time", b.epoch);
        assert_eq!(b.workers.len(), 4);
        // Exactly one span per worker and phase: `(start_us, dur_us)`.
        // A duration is unsigned, so "non-negative" is the type's job.
        let span = |worker: u32, phase: Phase| -> (u64, u64) {
            let mut found = timeline.events.iter().filter_map(|e| match *e {
                Event::Phase {
                    epoch,
                    worker: w,
                    phase: p,
                    start_us,
                    dur_us,
                } if (epoch, w, p) == (b.epoch, worker, phase) => Some((start_us, dur_us)),
                _ => None,
            });
            let one = found
                .next()
                .unwrap_or_else(|| panic!("epoch {}: worker {worker} has no {phase:?}", b.epoch));
            assert!(found.next().is_none(), "worker {worker}: two {phase:?}");
            one
        };
        // The wall is a truncated-µs bracket around the whole epoch, so a
        // sum of disjoint truncated-µs spans inside it may read one tick more.
        let wall_us = (b.wall * 1e6).round() as u64 + 1;
        let syncs: Vec<(u64, u64)> = (0..4).map(|w| span(w, Phase::Sync)).collect();
        let mut first_start = u64::MAX;
        let mut last_end = 0;
        for (w, &sync) in syncs.iter().enumerate() {
            let [pull, comp, push] =
                [Phase::Pull, Phase::Comp, Phase::Push].map(|p| span(w as u32, p));
            // One lane, one thread: pull, then compute, then push.
            assert!(pull.0 + pull.1 <= comp.0 && comp.0 + comp.1 <= push.0);
            // The server merges in worker order, each merge after that
            // worker's push began.
            assert!(push.0 <= sync.0, "worker {w} merged before it pushed");
            assert!(w == 0 || syncs[w - 1].0 + syncs[w - 1].1 <= sync.0);
            // Critical path through worker `w`: its pull and compute, then
            // its own merge and every later one. (Merges of workers that
            // finished earlier overlap this chain, so they are not added.)
            let later_merges: u64 = syncs[w..].iter().map(|s| s.1).sum();
            for (what, us) in [
                ("pull+comp+push", pull.1 + comp.1 + push.1),
                ("pull+comp+merges", pull.1 + comp.1 + later_merges),
            ] {
                assert!(
                    us <= wall_us,
                    "epoch {} worker {w}: {what} {us} µs exceeds the wall {wall_us} µs",
                    b.epoch
                );
            }
            first_start = first_start.min(pull.0);
            last_end = last_end.max(push.0 + push.1).max(sync.0 + sync.1);
        }
        assert!(
            last_end - first_start <= wall_us,
            "epoch {}: spans stretch over {} µs of a {wall_us} µs wall",
            b.epoch,
            last_end - first_start
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn jsonl_file_round_trips_through_disk() {
    let _seq = sequential();
    let ds = dataset(6_000);
    let path = std::env::temp_dir().join("hcc_telemetry_roundtrip.jsonl");
    let config = HccConfig::builder()
        .k(8)
        .epochs(3)
        .workers(four_workers())
        .seed(3)
        .strategy(hcc_mf::TransferStrategy::HalfQ)
        .telemetry(&path)
        .build();
    let report = HccMf::new(config).train(&ds.matrix).unwrap();
    let in_memory = report.timeline.as_ref().unwrap();

    let raw = std::fs::read_to_string(&path).unwrap();
    let parsed = hcc_telemetry::jsonl::parse(&raw).unwrap();
    assert_eq!(&parsed, in_memory);
    assert_eq!(parsed.header.workers, 4);
    assert_eq!(parsed.header.strategy, "half-q");

    // The timeline carries every event family the epoch loop emits.
    let has = |f: fn(&Event) -> bool| parsed.events.iter().any(f);
    assert!(has(|e| matches!(
        e,
        Event::Phase {
            phase: Phase::Comp,
            ..
        }
    )));
    assert!(has(|e| matches!(
        e,
        Event::Phase {
            phase: Phase::Sync,
            ..
        }
    )));
    assert!(has(|e| matches!(e, Event::Bytes { .. })));
    assert!(has(|e| matches!(e, Event::EpochEnd { .. })));
    std::fs::remove_file(&path).ok();
}

/// The measured-vs-model workflow must produce a report under each of the
/// paper's partition strategies (DP0, DP1, DP2).
#[test]
fn model_validation_runs_for_all_partition_modes() {
    let _seq = sequential();
    let ds = dataset(20_000);
    for mode in [PartitionMode::Dp0, PartitionMode::Dp1, PartitionMode::Dp2] {
        let path = std::env::temp_dir().join(format!("hcc_telemetry_{mode:?}.jsonl"));
        let config = HccConfig::builder()
            .k(16)
            .epochs(4)
            .workers(vec![
                WorkerSpec::cpu(1),
                WorkerSpec::cpu(1).throttled(0.5),
                WorkerSpec::cpu(2),
                WorkerSpec::cpu(1),
            ])
            .partition(mode)
            .seed(5)
            .telemetry(&path)
            .build();
        let report = HccMf::new(config).train(&ds.matrix).unwrap();
        let v = hcc_mf::observe::model_validation(&report)
            .unwrap_or_else(|| panic!("no validation report under {mode:?}"));
        assert_eq!(v.rows.len(), 4, "{mode:?}");
        assert!(v.epochs_scored >= 1, "{mode:?}");
        assert!(v.mean_error.is_finite(), "{mode:?}");
        for row in &v.rows {
            assert!(row.bandwidth > 0.0, "{mode:?}: worker {}", row.worker);
        }
        let text = hcc_mf::observe::model_validation_text(&v);
        assert!(text.contains("cost-model validation"), "{text}");
        std::fs::remove_file(&path).ok();
    }
}

/// The disabled-by-default budget: instrumentation left in the hot path
/// must cost well under 2% of any epoch. An epoch makes roughly
/// `3 × workers` phase calls plus one sync span per worker and a handful
/// of byte/end events — about 25 calls at 4 workers — so at the asserted
/// per-call ceiling of 1 µs the overhead stays below 2% for any epoch
/// longer than 1.25 ms (real epochs are tens to hundreds of ms).
#[test]
fn disabled_mode_overhead_is_negligible() {
    let _seq = sequential();
    let telemetry = hcc_mf::Telemetry::disabled();
    let calls = 1_000_000u32;
    let start = std::time::Instant::now();
    for i in 0..calls {
        let t0 = telemetry.now_us();
        telemetry.phase(
            i % 4,
            i,
            i % 4,
            Phase::Comp,
            t0,
            std::time::Duration::from_micros(1),
        );
    }
    let per_call = start.elapsed().as_secs_f64() / calls as f64;
    assert!(
        per_call < 1e-6,
        "disabled telemetry call costs {:.0} ns",
        per_call * 1e9
    );
}

/// Supervisor events (straggler / rollback) land in the timeline when the
/// fault-tolerance layer is active and a fault plan injects disruptions.
#[test]
fn supervised_run_records_fault_events() {
    let _seq = sequential();
    use hcc_comm::{Fault, FaultPlan};
    let ds = dataset(8_000);
    let path = std::env::temp_dir().join("hcc_telemetry_faults.jsonl");
    let plan = FaultPlan::new(1).with(2, 1, Fault::Stall(std::time::Duration::from_millis(80)));
    let config = HccConfig::builder()
        .k(8)
        .epochs(4)
        .workers(four_workers())
        .seed(9)
        .fault_tolerance(hcc_mf::SupervisorConfig {
            straggler_factor: 2.0,
            ..hcc_mf::SupervisorConfig::default()
        })
        .fault_plan(plan)
        .telemetry(&path)
        .build();
    let report = HccMf::new(config).train(&ds.matrix).unwrap();
    let timeline = report.timeline.as_ref().unwrap();
    assert!(
        timeline
            .events
            .iter()
            .any(|e| matches!(e, Event::Straggler { worker: 2, .. })),
        "stalled worker never flagged: {:?}",
        timeline
            .events
            .iter()
            .filter(|e| !matches!(e, Event::Phase { .. }))
            .collect::<Vec<_>>()
    );
    std::fs::remove_file(&path).ok();
}
