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
//! outcome — not timing — decides what the server installs.
//!
//! A failing case prints the hash it computed, which is also how the table
//! is (re)recorded after an intentional numeric change.
//!
//! Re-recorded four times since, each time for a change of what an epoch
//! computes, never of how it is run. First the server's merge changed from
//! the share-weighted average `Σ sᵢ·qᵢ` to the damped delta sum
//! `q + α(p)·Σᵢ(qᵢ − q)`. Then the merge went altogether: `Q`'s rows are
//! dealt into one seeded band a worker, an epoch is one round a worker in
//! which worker `w` trains band `(w + r) mod p`, and the server installs
//! each band's push as it is. Then `P`'s rows were dealt in a seeded order
//! too: the session relabels the users by a seeded shuffle before it cuts
//! their contiguous row ranges, so each worker owns a mix of popular and
//! rare users instead of one end of the popularity order. Then each epoch
//! began where the last one ended: worker `w` trains band
//! `(w + r + e·(p − 1)) mod p` in round `r` of epoch `e`. Every multi-worker
//! constant of the HCC engine moved with each (the order in which a worker
//! meets its ratings, and which ratings are its own, changed). The last
//! pins were recorded on a build that had the shifted rotation but still
//! pulled every round; the shipped engine, which skips the pull of a band
//! its worker carries across the epoch's boundary, lands on them on every
//! transport, so skipping it moves no bits. The one-worker pins were
//! recorded before the relabelling of `P`'s rows and held through both
//! changes unedited: one worker owns every row and holds the one band, so
//! neither the order the rows are stored in nor the rotation moves a bit.
//! The comparators' table is untouched, and the supervised fault-free and
//! duplicate-chaos runs still land on `CLEAN` (so did `FullPq`, whose row
//! left with the engine mode: it is a byte model now). When bands
//! went straight from holder to holder (the ring, pushed to the server
//! once an epoch), every fault-free pin held unedited: a hand-off at the
//! wire's precision delivers the bits the server's install and publish
//! did. Only `FAULTED` moved, re-recorded with its reason beside it. When
//! `Q` came to be stored in band order, published and installed as slices
//! of it, every pin held unedited. The pins of bands tiled into 2 and 4
//! chunks (`STREAMS_2`, `STREAMS_4`, `UNEVEN_STREAMS_2`) left with the
//! engine's stream pipeline; every other pin held unedited.

use hcc_comm::{Fault, FaultPlan};
use hcc_mf::{
    HccConfig, HccConfigBuilder, HccMf, LearningRate, PartitionMode, SupervisorConfig,
    TransferStrategy, TransportKind, WorkerSpec,
};
use hcc_sgd::Schedule;
use hcc_sparse::{GenConfig, SyntheticDataset};
use std::time::Duration;

const EPOCHS: usize = 6;

/// Every fp32 run that loses nothing lands on the same bits: the transport,
/// the shard count, a quiet supervisor and deduplicated wire duplicates are
/// all invisible to the numbers.
const CLEAN: u64 = 0xf6d2_9270_f591_c724;
/// The fp16 wire rounds `Q` every round.
const HALF_Q: u64 = 0x92d3_021b_225e_bf58;
/// [`fault_plan`]: three epochs install none of one worker's pushes.
/// Re-recorded once for the ring (DESIGN §8): a poisoned worker's
/// hand-offs are lost with its push, so their receivers train the server's
/// copy of the band as the epoch began.
const FAULTED: u64 = 0x7393_15bd_68ef_4200;
/// Tiled sweeps at a `k` wide enough that each worker's shard spans two
/// tiles.
const TILED: u64 = 0x24c0_bf33_61cf_a25e;
/// One worker holds every row of `P`, so the order in which the session
/// stores those rows moves no bits: these two hold through any change of
/// how `P`'s rows are dealt to a fleet. The second shape is wider than
/// tall, so the engine trains its transpose.
const ONE_WORKER: u64 = 0xe7f1_9408_5fd2_f7b0;
const ONE_WORKER_WIDE: u64 = 0x0a94_6302_7c9a_eead;
/// Three workers over 151 items: bands of 50, 50 and 51 rows, so that what
/// one worker's link carries changes length from round to round. Recorded
/// on the commit before a worker got one link a stream slot, when each
/// band still had an endpoint of its own length; the sharded run lands on
/// the shared one's bits, as [`CLEAN`]'s do.
const UNEVEN: u64 = 0xfd4b_9b54_3c90_7d10;

fn dataset() -> SyntheticDataset {
    dataset_of(300, 150)
}

fn dataset_of(rows: u32, cols: u32) -> SyntheticDataset {
    SyntheticDataset::generate(GenConfig {
        rows,
        cols,
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

fn factor_hash(config: HccConfig, data: &SyntheticDataset) -> u64 {
    hcc_sgd::simd::set_backend(hcc_sgd::simd::Backend::Scalar).expect("scalar always available");
    let report = HccMf::new(config).train(&data.matrix).unwrap();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut hash, report.p.as_slice());
    fnv1a(&mut hash, report.q.as_slice());
    hash
}

fn check(cases: Vec<(&str, HccConfig, u64)>) {
    let data = dataset();
    check_on(
        cases
            .into_iter()
            .map(|(n, c, h)| (n, c, &data, h))
            .collect(),
    );
}

/// Every case runs, so a failure lists each hash that moved.
fn check_on(cases: Vec<(&str, HccConfig, &SyntheticDataset, u64)>) {
    let mismatches: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, config, data, want)| {
            let got = factor_hash(config, data);
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
        ("socket", plain(TransportKind::Socket, 1), CLEAN),
        ("socket x2", plain(TransportKind::Socket, 2), CLEAN),
        ("tcp", plain(TransportKind::Tcp, 1), CLEAN),
        ("tcp x2", plain(TransportKind::Tcp, 2), CLEAN),
    ]);
}

#[test]
fn one_worker_on_a_tall_and_a_wide_matrix() {
    let one = || base().workers(vec![WorkerSpec::cpu(1)]).build();
    let (tall, wide) = (dataset(), dataset_of(150, 300));
    check_on(vec![
        ("one worker", one(), &tall, ONE_WORKER),
        ("one worker, transposed", one(), &wide, ONE_WORKER_WIDE),
    ]);
}

#[test]
fn bands_of_unequal_length() {
    let uneven = dataset_of(300, 151);
    let with = |transport, shards| base().transport(transport).server_shards(shards).build();
    check_on(vec![
        (
            "uneven shared",
            with(TransportKind::Shared, 1),
            &uneven,
            UNEVEN,
        ),
        (
            "uneven tcp x2",
            with(TransportKind::Tcp, 2),
            &uneven,
            UNEVEN,
        ),
    ]);
}

#[test]
fn plain_epochs_under_every_transfer_strategy() {
    let with = |strategy| base().strategy(strategy).build();
    check(vec![("half-q", with(TransferStrategy::HalfQ), HALF_Q)]);
}

#[test]
fn tiled_sgd_over_two_tiles_a_shard() {
    check(vec![(
        "sgd tiled",
        base().k(256).schedule(Schedule::Tiled).build(),
        TILED,
    )]);
}

/// The paper's comparators on the same dataset. Serial, DSGD and NOMAD are
/// deterministic at every thread count (a stratum's blocks, and a column
/// token's holder, touch disjoint rows); FPSGD and CuMF_SGD only at one
/// thread. Recorded on the commit before the comparators became schedules
/// on the Hogwild driver.
const COMPARATORS: [(&str, usize, u64); 11] = [
    ("serial", 1, 0x5946_926a_5c4f_bff3),
    ("serial", 2, 0x5946_926a_5c4f_bff3),
    ("serial", 4, 0x5946_926a_5c4f_bff3),
    ("dsgd", 1, 0x449a_4e82_8f37_7521),
    ("dsgd", 2, 0x449a_4e82_8f37_7521),
    ("dsgd", 4, 0x9045_bb7d_1c97_aba9),
    ("nomad", 1, 0xc538_79f0_db1a_4833),
    ("nomad", 2, 0x4075_4a87_28bf_dc31),
    ("nomad", 4, 0x8c35_9b9c_efef_7c6c),
    ("fpsgd", 1, 0xc395_6b8f_c6b3_8b67),
    ("cumf", 1, 0x5201_7202_2cff_15c0),
];

#[test]
fn every_comparator_at_its_deterministic_thread_counts() {
    use hcc_sgd::baselines::{
        Comparator::{CumfSgd as CumfSgdSim, Dsgd, Fpsgd, Nomad, Serial as SerialSgd},
        TrainConfig,
    };
    hcc_sgd::simd::set_backend(hcc_sgd::simd::Backend::Scalar).expect("scalar always available");
    let matrix = dataset().matrix;
    let mismatches: Vec<String> = COMPARATORS
        .iter()
        .filter_map(|&(name, threads, want)| {
            let config = TrainConfig {
                k: 8,
                epochs: EPOCHS,
                learning_rate: LearningRate::Constant(0.02),
                lambda_p: 0.005,
                lambda_q: 0.005,
                threads,
                seed: 7,
                track_rmse: false,
            };
            let report = match name {
                "serial" => SerialSgd.train(&matrix, &config),
                "dsgd" => Dsgd.train(&matrix, &config),
                "nomad" => Nomad.train(&matrix, &config),
                "fpsgd" => Fpsgd.train(&matrix, &config),
                _ => CumfSgdSim.train(&matrix, &config),
            };
            let mut got = 0xcbf2_9ce4_8422_2325u64;
            fnv1a(&mut got, report.p.as_slice());
            fnv1a(&mut got, report.q.as_slice());
            (got != want)
                .then(|| format!("{name} x{threads}: got {got:#018x}, recorded {want:#018x}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "factors moved:\n{}",
        mismatches.join("\n")
    );
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
