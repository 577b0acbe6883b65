//! Differential multi-node tests: a node-sharded parameter server must be
//! observationally identical to the single-node server — bit-for-bit at
//! Fp32 — while shipping strictly fewer push bytes (row deltas instead of
//! full buffers). Delta accounting is cross-checked against the inner
//! transports' [`hcc_comm::NetStats`].

use hcc_comm::{delta_len, CommShared, CommSocket, Precision, SocketConfig, Transport};
use hcc_mf::{
    HccConfig, HccMf, HccReport, LearningRate, PartitionMode, ShardedServer, TransportKind,
    WorkerSpec,
};
use hcc_partition::ShardRouter;
use hcc_sparse::{GenConfig, SyntheticDataset};
use std::sync::Arc;

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

/// Deterministic config: single-threaded workers (no Hogwild races), a
/// fixed uniform partition (no wall-clock-driven adaptation), Fp32 wire.
fn base() -> hcc_mf::HccConfigBuilder {
    HccConfig::builder()
        .k(8)
        .epochs(8)
        .learning_rate(LearningRate::Constant(0.02))
        .lambda(0.005)
        .workers(vec![
            WorkerSpec::cpu(1),
            WorkerSpec::cpu(1),
            WorkerSpec::cpu(1),
        ])
        .partition(PartitionMode::Uniform)
        .adapt_epochs(0)
        .strategy(hcc_mf::TransferStrategy::QOnly)
        .track_rmse(true)
}

fn train(transport: TransportKind, shards: usize) -> HccReport {
    HccMf::new(base().transport(transport).server_shards(shards).build())
        .train(&dataset().matrix)
        .unwrap()
}

fn bits(m: &hcc_mf::FactorMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(a: &HccReport, b: &HccReport, label: &str) {
    assert_eq!(bits(&a.p), bits(&b.p), "{label}: P diverged");
    assert_eq!(bits(&a.q), bits(&b.q), "{label}: Q diverged");
    assert_eq!(a.rmse_history, b.rmse_history, "{label}: RMSE diverged");
}

#[test]
fn sharded_training_is_bit_identical_to_single_node() {
    // `server_shards == 1` is the plain single-node `CommShared` path — the
    // reference. Sharding the server 2 and 4 ways must not move one bit.
    let reference = train(TransportKind::Shared, 1);
    assert!(
        reference.rmse_history.last().unwrap() < &(reference.rmse_history[0] * 0.5),
        "reference did not converge: {:?}",
        reference.rmse_history
    );
    for shards in [2, 4] {
        let sharded = train(TransportKind::Shared, shards);
        assert_bit_identical(&reference, &sharded, &format!("{shards} shards"));
    }
}

#[test]
fn socket_and_tcp_sharded_training_match_shared_memory() {
    // The same differential across real wires: per-shard socket endpoints
    // (Unix and TCP) with delta shipping reconstruct the exact trajectory.
    let reference = train(TransportKind::Shared, 1);
    let unix = train(TransportKind::Socket, 2);
    assert_bit_identical(&reference, &unix, "2 unix-socket shards");
    let tcp = train(TransportKind::Tcp, 4);
    assert_bit_identical(&reference, &tcp, "4 tcp shards");
}

/// A sharded server over per-shard `CommShared` endpoints.
fn sharded_shared(workers: usize, rows: usize, k: usize, shards: usize) -> ShardedServer {
    let router = ShardRouter::uniform(rows, shards);
    let inners: Vec<Arc<dyn Transport>> = (0..shards)
        .map(|s| {
            let pull = router.range(s).len() * k;
            let push = ShardedServer::shard_push_len(&router, s, k);
            Arc::new(CommShared::new(workers, pull, push, Precision::Fp32)) as Arc<dyn Transport>
        })
        .collect();
    ShardedServer::new(router, k, rows * k, Precision::Fp32, inners)
}

#[test]
fn delta_accounting_is_exact() {
    let (rows, k) = (32, 4);
    let server = sharded_shared(1, rows, k, 4);
    let region: Vec<f32> = (0..rows * k).map(|i| i as f32 * 0.5).collect();
    server.publish(&region);

    let mut local = region.clone();
    // Touch rows 0 and 1 (shard 0), row 20 (shard 2). Shards 1 and 3 ship
    // header-only deltas.
    local[0] += 1.0;
    local[k + 1] -= 1.0;
    local[20 * k] = 7.0;
    server.push(0, &local);

    let stats = server.delta_stats();
    assert_eq!(stats.rows_shipped, 3);
    assert_eq!(stats.rows_total, rows as u64);
    // Bytes shipped: per shard, `delta_len(touched, k)` Fp32 elements —
    // touched rows × row size plus one count and one index per row.
    let expect = (delta_len(2, k) + delta_len(0, k) + delta_len(1, k) + delta_len(0, k)) as u64 * 4;
    assert_eq!(stats.bytes_shipped, expect);
    assert_eq!(stats.bytes_full, (rows * k) as u64 * 4);
    assert!(
        stats.bytes_shipped < stats.bytes_full,
        "delta shipping must beat full shipping: {stats:?}"
    );

    // The worker's buffer reconstructs bit-for-bit from snapshot + deltas.
    let mut collected = vec![0f32; rows * k];
    server.collect(0, &mut collected);
    let a: Vec<u32> = collected.iter().map(|v| v.to_bits()).collect();
    let b: Vec<u32> = local.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b);
}

#[test]
fn untouched_push_ships_headers_only() {
    let (rows, k) = (16, 8);
    let server = sharded_shared(2, rows, k, 2);
    let region = vec![1.5f32; rows * k];
    server.publish(&region);
    server.push(1, &region); // nothing changed
    let stats = server.delta_stats();
    assert_eq!(stats.rows_shipped, 0);
    assert_eq!(stats.bytes_shipped, 2 * delta_len(0, k) as u64 * 4);
}

#[test]
fn sharded_socket_dedup_verified_against_net_stats() {
    let (rows, k) = (24, 4);
    let router = ShardRouter::uniform(rows, 3);
    let cfg = SocketConfig {
        delta_push: true,
        ..SocketConfig::default()
    };
    let sockets: Vec<Arc<CommSocket>> = (0..3)
        .map(|s| {
            let pull = router.range(s).len() * k;
            let push = ShardedServer::shard_push_len(&router, s, k);
            Arc::new(CommSocket::with_config(1, pull, push, Precision::Fp32, cfg.clone()).unwrap())
        })
        .collect();
    let inners: Vec<Arc<dyn Transport>> = sockets
        .iter()
        .map(|s| Arc::clone(s) as Arc<dyn Transport>)
        .collect();
    let server = ShardedServer::new(router, k, rows * k, Precision::Fp32, inners);

    let region: Vec<f32> = (0..rows * k).map(|i| (i as f32).sin()).collect();
    server.publish(&region);
    let mut local = vec![0f32; rows * k];
    server.pull(0, &mut local);
    local[0] = -2.0; // shard 0
    local[23 * k + 1] = 9.0; // shard 2
    server.push(0, &local);
    // A wire duplicate (what a retransmit after a lost ack looks like):
    // every shard's idempotent dedup must absorb it.
    server.push_duplicate(0, &local);
    let mut collected = vec![0f32; rows * k];
    server.collect(0, &mut collected);
    let a: Vec<u32> = collected.iter().map(|v| v.to_bits()).collect();
    let b: Vec<u32> = local.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b, "duplicate delta pushes corrupted the region");
    for (s, sock) in sockets.iter().enumerate() {
        assert_eq!(
            sock.net_stats().dedup_hits,
            1,
            "shard {s} did not dedup the duplicate delta push"
        );
    }
}

#[test]
fn every_user_routes_to_exactly_one_live_shard() {
    // The training-path router: uniform over the synchronized region's
    // rows. Each row must land in exactly one shard whose range contains it.
    for shards in [1, 2, 4, 7] {
        let router = ShardRouter::uniform(150, shards);
        for row in 0..150 {
            let s = router.shard_of(row).unwrap();
            assert!(router.range(s).contains(&row), "row {row} shard {s}");
            let owners = (0..shards)
                .filter(|&i| router.range(i).contains(&row))
                .count();
            assert_eq!(owners, 1, "row {row} owned by {owners} shards");
        }
    }
}

// ---------------------------------------------------------------------------
// Pipelined epochs: `streams > 1` tiles `Q`'s columns across chunk endpoints
// the way the sharded server tiles rows across shard endpoints, and is held
// to the same standard — chunking must not move a bit.
// ---------------------------------------------------------------------------

/// The dataset with its entries stably sorted by column, so that every
/// column chunking visits a worker's entries in the order the unchunked
/// run does.
fn column_sorted_matrix() -> hcc_sparse::CooMatrix {
    let matrix = dataset().matrix;
    let mut entries = matrix.entries().to_vec();
    entries.sort_by_key(|e| e.i);
    hcc_sparse::CooMatrix::new(matrix.rows(), matrix.cols(), entries).unwrap()
}

fn train_streams(
    strategy: hcc_mf::TransferStrategy,
    transport: TransportKind,
    streams: usize,
) -> HccReport {
    let config = base()
        .strategy(strategy)
        .transport(transport)
        .streams(streams)
        .shuffle(false)
        .build();
    HccMf::new(config).train(&column_sorted_matrix()).unwrap()
}

#[test]
fn pipelined_training_is_bit_identical_to_synchronous() {
    // A chunk is merged like any region — Σ wᵢ·qᵢ in worker order — so on
    // entries ordered by column chunk the pipeline only reorders *when*
    // bytes move, never what is computed. Fails if the merge rule, the
    // merge order or the chunk/entry grouping drifts.
    for strategy in [
        hcc_mf::TransferStrategy::QOnly,
        hcc_mf::TransferStrategy::HalfQ,
    ] {
        let reference = train_streams(strategy, TransportKind::Shared, 1);
        assert!(
            reference.rmse_history.last().unwrap() < &(reference.rmse_history[0] * 0.5),
            "{strategy:?} reference did not converge: {:?}",
            reference.rmse_history
        );
        for streams in [2, 3, 8] {
            let pipelined = train_streams(strategy, TransportKind::Shared, streams);
            assert_bit_identical(
                &reference,
                &pipelined,
                &format!("{strategy:?}, {streams} streams"),
            );
        }
    }
}

#[test]
fn pipelining_over_every_wire_matches_shared_memory() {
    // A chunk endpoint is an ordinary transport, so the wire under a
    // pipelined run is as invisible as under a synchronous one.
    let strategy = hcc_mf::TransferStrategy::QOnly;
    let reference = train_streams(strategy, TransportKind::Shared, 3);
    for transport in [
        TransportKind::Socket,
        TransportKind::Tcp,
        TransportKind::CommP,
    ] {
        let wired = train_streams(strategy, transport, 3);
        assert_bit_identical(&reference, &wired, &format!("3 streams over {transport:?}"));
    }
}
