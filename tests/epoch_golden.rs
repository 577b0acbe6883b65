//! Golden factor hashes: the epoch engine's output, pinned bit-for-bit.
//!
//! Every case trains the same seeded dataset to completion and hashes the
//! `to_bits()` of the final `P` and `Q` with FNV-1a. The constants below
//! were recorded on the commit *before* the three epoch loops were folded
//! into one engine; the refactor (and any later one) must reproduce them
//! exactly, in debug and in release. Determinism comes from the setup, not
//! from luck: scalar SIMD backend forced (the hashes must not depend on the
//! host CPU), one Hogwild thread per worker (no races), a fixed uniform
//! partition (no wall-clock-driven adaptation), and fault schedules whose
//! outcome — not timing — decides what the server merges.
//!
//! A failing case prints the hash it computed, which is also how the table
//! is (re)recorded after an intentional numeric change.

use hcc_comm::{Fault, FaultPlan};
use hcc_mf::{
    HccConfig, HccConfigBuilder, HccMf, LearningRate, Optimizer, PartitionMode, SupervisorConfig,
    TransferStrategy, TransportKind, WorkerSpec,
};
use hcc_sgd::Schedule;
use hcc_sparse::{GenConfig, SyntheticDataset};
use std::time::Duration;

const EPOCHS: usize = 6;

/// Every fp32 run that loses nothing lands on the same bits: the transport,
/// the shard count, a quiet supervisor and deduplicated wire duplicates are
/// all invisible to the numbers (and `P` rows have one owner, so shipping
/// them under `FullPq` changes nothing either).
const CLEAN: u64 = 0x3d12_9dff_d4e9_135b;
/// The fp16 wire rounds `Q` every epoch.
const HALF_Q: u64 = 0xe90c_ca6e_0679_d339;
/// `Q` tiled into 2 and into 4 column chunks (the shuffled entries of a
/// chunk keep their order, the chunks run in turn). Recorded on the commit
/// before a chunk's region became the only copy of its columns of `Q`.
const STREAMS_2: u64 = 0x69bd_acdc_ca69_5c73;
const STREAMS_4: u64 = 0x78f7_8ba4_4282_6f46;
/// [`fault_plan`]: three epochs merge without one worker's push.
const FAULTED: u64 = 0x4c82_4608_5894_e5d2;
/// AdaGrad and momentum over striped sweeps, and plain SGD tiled at a `k`
/// wide enough that each worker's shard spans two tiles. Recorded on the
/// commit before the four update rules shared one Hogwild driver.
const ADAGRAD: u64 = 0x4ae8_654a_88bb_28b9;
const MOMENTUM: u64 = 0x19ea_3970_f586_847e;
const TILED: u64 = 0x4a1d_559e_26f2_3759;

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(GenConfig {
        rows: 300,
        cols: 150,
        nnz: 9_000,
        planted_rank: 6,
        noise: 0.0,
        ..GenConfig::default()
    })
}

fn base() -> HccConfigBuilder {
    HccConfig::builder()
        .k(8)
        .epochs(EPOCHS)
        .learning_rate(LearningRate::Constant(0.02))
        .lambda(0.005)
        .workers(vec![WorkerSpec::cpu(1); 3])
        .partition(PartitionMode::Uniform)
        .adapt_epochs(0)
        .strategy(TransferStrategy::QOnly)
        .seed(7)
}

/// Generous deadline for runs where nothing is lost: a collect must never
/// time out just because the test host is busy.
fn patient_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        heartbeat_timeout: Duration::from_secs(10),
        ..SupervisorConfig::default()
    }
}

/// Short ladder for runs that *do* lose pushes, so a dropped push costs
/// well under a second. A healthy 1-thread worker on this dataset pushes
/// within a few milliseconds, far inside the first 400 ms step.
fn fault_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        heartbeat_timeout: Duration::from_millis(400),
        collect_retries: 2,
        retry_backoff: 1.5,
        ..SupervisorConfig::default()
    }
}

/// One poisoned push, one dropped push, and a crash on the *last* epoch:
/// survivor re-planning weighs measured compute times, so a crash any
/// earlier would make the following epochs' partition timing-dependent.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(7)
        .with(0, 1, Fault::PoisonPush)
        .with(2, 2, Fault::DropPush)
        .with(1, EPOCHS - 1, Fault::Crash)
}

fn duplicate_only() -> FaultPlan {
    FaultPlan {
        duplicate_rate: 1.0,
        ..FaultPlan::new(7)
    }
}

fn fnv1a(hash: &mut u64, values: &[f32]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn factor_hash(config: HccConfig) -> u64 {
    hcc_sgd::simd::set_backend(hcc_sgd::simd::Backend::Scalar).expect("scalar always available");
    let report = HccMf::new(config).train(&dataset().matrix).unwrap();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut hash, report.p.as_slice());
    fnv1a(&mut hash, report.q.as_slice());
    hash
}

fn check(cases: Vec<(&str, HccConfig, u64)>) {
    let mismatches: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, config, want)| {
            let got = factor_hash(config);
            (got != want).then(|| format!("{name}: got {got:#018x}, recorded {want:#018x}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "factors moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn plain_epochs_on_every_transport_and_shard_count() {
    let plain = |transport, shards| base().transport(transport).server_shards(shards).build();
    check(vec![
        ("shared", plain(TransportKind::Shared, 1), CLEAN),
        ("shared x2", plain(TransportKind::Shared, 2), CLEAN),
        ("commp", plain(TransportKind::CommP, 1), CLEAN),
        ("commp x2", plain(TransportKind::CommP, 2), CLEAN),
        ("socket", plain(TransportKind::Socket, 1), CLEAN),
        ("socket x2", plain(TransportKind::Socket, 2), CLEAN),
        ("tcp", plain(TransportKind::Tcp, 1), CLEAN),
        ("tcp x2", plain(TransportKind::Tcp, 2), CLEAN),
    ]);
}

#[test]
fn plain_epochs_under_every_transfer_strategy() {
    let with = |strategy| base().strategy(strategy).build();
    check(vec![
        ("full-pq", with(TransferStrategy::FullPq), CLEAN),
        ("half-q", with(TransferStrategy::HalfQ), HALF_Q),
    ]);
}

#[test]
fn pipelined_epochs_over_shared_memory() {
    let streamed = |streams| base().streams(streams).build();
    check(vec![
        ("2 streams", streamed(2), STREAMS_2),
        ("4 streams", streamed(4), STREAMS_4),
    ]);
}

#[test]
fn every_update_rule_and_schedule() {
    let adagrad = Optimizer::AdaGrad {
        eta0: 0.08,
        epsilon: 1e-8,
    };
    let momentum = base()
        .optimizer(Optimizer::Momentum { beta: 0.9 })
        .learning_rate(LearningRate::Constant(0.004));
    check(vec![
        ("adagrad stripe", base().optimizer(adagrad).build(), ADAGRAD),
        ("momentum stripe", momentum.build(), MOMENTUM),
        (
            "sgd tiled",
            base().k(256).schedule(Schedule::Tiled).build(),
            TILED,
        ),
    ]);
}

#[test]
fn supervised_epochs_fault_free_faulted_and_duplicated() {
    let supervised = |transport| {
        base()
            .transport(transport)
            .fault_tolerance(patient_supervisor())
    };
    let faulted = |transport| {
        base()
            .transport(transport)
            .fault_tolerance(fault_supervisor())
            .fault_plan(fault_plan())
            .build()
    };
    let duplicated = |transport| supervised(transport).fault_plan(duplicate_only()).build();
    let (shared, socket) = (TransportKind::Shared, TransportKind::Socket);
    check(vec![
        ("shared supervised", supervised(shared).build(), CLEAN),
        ("shared fault plan", faulted(shared), FAULTED),
        ("shared duplicate chaos", duplicated(shared), CLEAN),
        ("socket supervised", supervised(socket).build(), CLEAN),
        ("socket fault plan", faulted(socket), FAULTED),
        ("socket duplicate chaos", duplicated(socket), CLEAN),
    ]);
}
