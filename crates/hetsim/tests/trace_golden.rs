//! Pinned epoch traces: the simulator's output, bit for bit.
//!
//! Every timing-shape number the experiment binaries print comes out of
//! `simulate_epoch`, so a refactor of the scheduler must leave its traces
//! untouched. The grid below covers every platform the experiments use
//! (the three paper testbeds, 1/2/4-node clusters) × every dataset profile
//! × streams × server shards × transfer strategy × partition shape — 2 160
//! dedicated-bus cells — plus one shared-bus cell and three faulty cells.
//! The constants were computed at the last commit that carried two
//! schedulers (774bc86): both produced the dedicated-bus digests; the
//! shared-bus and faulty ones come from its event calendar, the one that
//! was kept. A mismatch prints the digest it got; re-pin only for a
//! deliberate change of the model.

use hcc_comm::{Fault, FaultPlan, TransferStrategy};
use hcc_hetsim::{
    simulate_epoch, simulate_epoch_faulty, BusKind, ClusterBuilder, EpochTrace, Platform,
    ProcessorProfile, SimConfig, Workload,
};
use hcc_sparse::DatasetProfile;
use std::time::Duration;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mix(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over the bits of `epoch_time`, `sync_total`, the per-worker
/// totals, and each worker's spans sorted by `(start, phase, end)` — the
/// order spans were emitted in is deliberately not part of the contract.
fn trace_hash(trace: &EpochTrace) -> u64 {
    let mut hash = FNV_OFFSET;
    mix(&mut hash, trace.epoch_time.to_bits());
    mix(&mut hash, trace.sync_total.to_bits());
    for t in &trace.totals {
        mix(&mut hash, t.pull.to_bits());
        mix(&mut hash, t.compute.to_bits());
        mix(&mut hash, t.push.to_bits());
    }
    for w in 0..trace.totals.len() {
        // Times are finite and non-negative, so bit order is numeric order.
        let mut spans: Vec<(u64, u8, u64)> = trace
            .worker_spans(w)
            .iter()
            .map(|s| (s.start.to_bits(), s.phase as u8, s.end.to_bits()))
            .collect();
        spans.sort_unstable();
        mix(&mut hash, spans.len() as u64);
        for (start, phase, end) in spans {
            mix(&mut hash, start);
            mix(&mut hash, u64::from(phase));
            mix(&mut hash, end);
        }
    }
    hash
}

fn platforms() -> Vec<Platform> {
    vec![
        Platform::paper_testbed_3workers(),
        Platform::paper_testbed_4workers(),
        Platform::paper_testbed_overall(),
        ClusterBuilder::new(1).build(),
        ClusterBuilder::new(2).build(),
        ClusterBuilder::new(4).build(),
    ]
}

/// Uniform, and a skew that loads later workers linearly more.
fn partitions(workers: usize) -> [Vec<f64>; 2] {
    let total = (workers * (workers + 1) / 2) as f64;
    [
        vec![1.0 / workers as f64; workers],
        (1..=workers).map(|i| i as f64 / total).collect(),
    ]
}

/// One digest per (platform, dataset): 72 cells folded in grid order.
fn grid_digests() -> Vec<Vec<u64>> {
    platforms()
        .iter()
        .map(|platform| {
            DatasetProfile::all()
                .iter()
                .map(|profile| {
                    let workload = Workload::from_profile(profile);
                    let mut digest = FNV_OFFSET;
                    for streams in [1, 2, 4, 8] {
                        for server_shards in [1, 2, 4] {
                            for strategy in TransferStrategy::ALL {
                                let config = SimConfig {
                                    streams,
                                    server_shards,
                                    strategy,
                                    ..SimConfig::default()
                                };
                                for x in partitions(platform.worker_count()) {
                                    let trace = simulate_epoch(platform, &workload, &config, &x);
                                    mix(&mut digest, trace_hash(&trace));
                                }
                            }
                        }
                    }
                    digest
                })
                .collect()
        })
        .collect()
}

/// Rows: 3-worker, 4-worker and overall testbeds, then 1/2/4-node clusters.
/// Columns: `DatasetProfile::all()` order.
const GRID: [[u64; 5]; 6] = [
    [
        0x0606f84d9701101c,
        0x42ea1f1afda50fcc,
        0x965769948f3dac07,
        0x2b926fe811762a9b,
        0x31202a92b5376bb0,
    ],
    [
        0x7649c49995d18481,
        0x1c40d09a8cb77b0c,
        0x1f90d1ed28aedf52,
        0xa9f87b2be86ed467,
        0xad092fc7e494ec1e,
    ],
    [
        0xb4479125124d40c4,
        0x3e83af9ca29ce660,
        0x49ad4537daebbd41,
        0x3e7b6c1607ed7ddd,
        0xe1eb8fc43b8f4835,
    ],
    [
        0x0db93efbf5d83b37,
        0xcdcb0e759409d746,
        0xfb14d971fd76a7ee,
        0x2a4e724f65e81537,
        0xf5202ad7d95d6411,
    ],
    [
        0xf214bb48cf13754b,
        0x7d950a663c65f361,
        0x49296fbc905edb62,
        0xdf5201a2127cd488,
        0xf7a32a800f736e79,
    ],
    [
        0x36b9826693bac497,
        0xa220c04c2800e1ae,
        0x5a6752f4a3df9b05,
        0x4f3e6516bced52b7,
        0x21cb5afc1a23d938,
    ],
];

const SHARED_BUS_R1: u64 = 0x7c7fbc2e1d9246d2;
const CRASH: u64 = 0x370a812f89346ea2;
const STALL: u64 = 0x0531b929a234a1f2;
const DROP_PUSH: u64 = 0x9535d67cf0dfba42;

fn assert_pinned(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: got {got:#018x}, pinned {want:#018x}");
}

#[test]
fn dedicated_bus_grid_matches_pinned_digests() {
    let got = grid_digests();
    let pinned: Vec<Vec<u64>> = GRID.iter().map(|row| row.to_vec()).collect();
    assert_eq!(
        got,
        pinned,
        "trace digests moved; got:\n{}",
        got.iter()
            .map(|row| format!(
                "    [{}],\n",
                row.iter()
                    .map(|d| format!("{d:#018x}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
            .collect::<String>()
    );
}

/// The `bus_contention` R1 cell: both GPUs behind one x16 switch, 4 streams.
#[test]
fn shared_bus_cell_matches_pinned_digest() {
    let platform = Platform::new("GPUs behind one x16 switch")
        .with_worker(ProcessorProfile::xeon_6242_24t(), BusKind::Upi)
        .with_worker_on_shared_bus(ProcessorProfile::rtx_2080(), BusKind::PciE3x16, 0)
        .with_worker_on_shared_bus(ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16, 0);
    let workload = Workload::from_profile(&DatasetProfile::yahoo_r1());
    let config = SimConfig {
        streams: 4,
        ..SimConfig::default()
    };
    let trace = simulate_epoch(&platform, &workload, &config, &[0.2, 0.35, 0.45]);
    assert_pinned("shared bus R1", trace_hash(&trace), SHARED_BUS_R1);
}

#[test]
fn faulty_cells_match_pinned_digests() {
    let platform = Platform::paper_testbed_4workers();
    let workload = Workload::from_profile(&DatasetProfile::netflix());
    let config = SimConfig {
        streams: 2,
        ..SimConfig::default()
    };
    let x = [0.1, 0.2, 0.3, 0.4];
    for (name, worker, fault, want) in [
        ("crash", 2, Fault::Crash, CRASH),
        ("stall", 0, Fault::Stall(Duration::from_millis(50)), STALL),
        ("drop_push", 3, Fault::DropPush, DROP_PUSH),
    ] {
        let plan = FaultPlan::new(1).with(worker, 0, fault);
        let trace = simulate_epoch_faulty(&platform, &workload, &config, &x, |w| plan.at(w, 0));
        assert_pinned(name, trace_hash(&trace), want);
    }
}

/// The rolled faults of the `--net-chaos` recipe as the calendar sees them,
/// seeds {1, 7, 42} × 50 epochs × 4 workers: per epoch the count of workers
/// hit, then each one's id and effect — a lost push, or a late start with
/// its length. The digests are those of the derivation the plan replaced
/// (one link a worker), folded the way it was.
const NET_FAULTS: [u64; 3] = [0x95857a678723d6a0, 0x0bc356fcd61c2324, 0x4e79dfafbfed7e3a];

#[test]
fn one_shard_net_fault_derivation_matches_pinned_digests() {
    for (seed, want) in [1, 7, 42].into_iter().zip(NET_FAULTS) {
        let plan = FaultPlan::from_seed(seed);
        let mut digest = FNV_OFFSET;
        for epoch in 0..50 {
            let hits: Vec<(u64, u64)> = (0..4)
                .filter_map(|w| match plan.at(w, epoch)? {
                    Fault::Stall(late) | Fault::DelayPush(late) => {
                        Some((w as u64, 1 ^ late.as_secs_f64().to_bits()))
                    }
                    Fault::DuplicatePush => None,
                    lost => lost.loses_push().then_some((w as u64, 2)),
                })
                .collect();
            mix(&mut digest, hits.len() as u64);
            for (worker, effect) in hits {
                mix(&mut digest, worker);
                mix(&mut digest, effect);
            }
        }
        assert_pinned(&format!("net faults, seed {seed}"), digest, want);
    }
}
