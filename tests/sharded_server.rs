//! Differential multi-node tests: a node-sharded parameter server must be
//! observationally identical to the single-node server — bit-for-bit at
//! Fp32 — while shipping fewer push bytes (deltas against the
//! published region instead of full buffers). Delta accounting is
//! cross-checked against the inner transports' [`hcc_comm::NetStats`].

use hcc_comm::{delta_len, max_delta_len, CommShared, CommSocket, Precision, Transport};
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
    // (Unix and TCP) carrying deltas reconstruct the exact trajectory.
    let reference = train(TransportKind::Shared, 1);
    let unix = train(TransportKind::Socket, 2);
    assert_bit_identical(&reference, &unix, "2 unix-socket shards");
    let tcp = train(TransportKind::Tcp, 4);
    assert_bit_identical(&reference, &tcp, "4 tcp shards");
}

/// One worker's sharded server over per-shard `CommShared` endpoints.
fn sharded_shared(rows: usize, k: usize, shards: usize) -> ShardedServer {
    let (pull, push) = ShardedServer::link_lens(rows, k, shards);
    let inners: Vec<Arc<dyn Transport>> = (0..shards)
        .map(|_| Arc::new(CommShared::new(1, pull, push, Precision::Fp32)) as Arc<dyn Transport>)
        .collect();
    ShardedServer::new(k, rows * k, inners)
}

#[test]
fn delta_accounting_is_exact() {
    let (rows, k) = (32, 4);
    let server = sharded_shared(rows, k, 4);
    let region: Vec<f32> = (0..rows * k).map(|i| i as f32 * 0.5).collect();
    server.publish(&region);

    let mut local = region.clone();
    // Touch rows 0 and 1 (shard 0), row 20 (shard 2). Shards 1 and 3 ship
    // their one-word bitmaps alone.
    local[0] += 1.0;
    local[k + 1] -= 1.0;
    local[20 * k] = 7.0;
    server.push(0, &local);

    let stats = server.delta_stats();
    assert_eq!(stats.rows_shipped, 3);
    assert_eq!(stats.rows_total, rows as u64);
    // Bytes shipped: per shard, `delta_len` words of 4 bytes; a changed
    // row of k = 4 is one group, a raw flag, a 5-bit width w and 4·w bits.
    // Shard 0: a bitmap word, then rows 0 (0.0 → 1.0: a difference of
    // 0x3F80_0000, zigzag 31 bits, so width 32 and 134 bits packed, over
    // the 128 raw: shipped raw, 129 bits) and 1 (2.5 → 1.5: −0x60_0000,
    // zigzag 24 bits, 102 bits), 231 bits, eight words. Shard 2: a bitmap
    // word and row 20 (40.0 → 7.0: −0x140_0000, zigzag 26 bits), 110
    // bits, four words.
    let shard = |s: usize| s * 8 * k..(s + 1) * 8 * k;
    let words: usize = (0..4)
        .map(|s| delta_len(&region[shard(s)], &local[shard(s)], k))
        .sum();
    assert_eq!(words, 9 + 1 + 5 + 1);
    assert_eq!(stats.bytes_shipped, words as u64 * 4);
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
    let server = sharded_shared(rows, k, 2);
    let region = vec![1.5f32; rows * k];
    server.publish(&region);
    server.push(0, &region); // nothing changed
    let stats = server.delta_stats();
    assert_eq!(stats.rows_shipped, 0);
    // Each shard's 8 rows fit one bitmap word, and nothing follows it.
    assert_eq!(stats.bytes_shipped, 2 * 4);
}

/// A sharded server over per-shard TCP links, each built for
/// `ShardedServer::link_lens` and nothing more, as the engine builds them.
fn sharded_tcp(rows: usize, k: usize, shards: usize) -> ShardedServer {
    let (pull, push) = ShardedServer::link_lens(rows, k, shards);
    let inners: Vec<Arc<dyn Transport>> = (0..shards)
        .map(|_| {
            Arc::new(CommSocket::new_tcp(1, pull, push, Precision::Fp32).unwrap())
                as Arc<dyn Transport>
        })
        .collect();
    ShardedServer::new(k, rows * k, inners)
}

fn bit_vec(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn an_adversarial_push_fits_its_links_and_round_trips_exactly() {
    // Every row changed and every sign flipped (a 35-bit packed element,
    // so every row ships raw), then every element a NaN of its own payload,
    // quiet and signalling: each push is the longest a shard can send, fits
    // the push length its TCP link was built for, and is collected bit for
    // bit. 70 rows over 3 shards: 24, 23 and 23 rows, one bitmap word each.
    let (rows, k, shards) = (70, 5, 3);
    let server = sharded_tcp(rows, k, shards);
    let region: Vec<f32> = (0..rows * k).map(|i| (i as f32 * 0.37).sin()).collect();
    let flipped: Vec<f32> = region.iter().map(|v| -v).collect();
    let poisoned: Vec<f32> = (0..(rows * k) as u32)
        .map(|i| f32::from_bits((0x7f80_0001 + (i << 14)) | ((i & 1) << 31)))
        .collect();
    for (round, push) in [flipped, poisoned].iter().enumerate() {
        server.publish(&region);
        server.push(0, push);
        let mut got = vec![0f32; rows * k];
        server
            .collect_timeout(0, &mut got, std::time::Duration::from_secs(10))
            .unwrap();
        assert_eq!(bit_vec(&got), bit_vec(push), "push {round}");
        let longest: usize = [24, 23, 23].iter().map(|&r| max_delta_len(r, k)).sum();
        assert_eq!(
            server.delta_stats().bytes_shipped,
            (round + 1) as u64 * longest as u64 * 4,
            "push {round}"
        );
    }
}

#[test]
fn a_push_where_every_row_took_one_small_sgd_step_ships_under_85_percent_of_raw() {
    // The regime a row delta could not help: every row of the band changed.
    // One SGD step `q += lr·(e·p − λ·q)` per element moves its bit pattern,
    // read as an integer, by a small difference, which ships in the width
    // its group of eight needs: 0.661 of raw here (the XOR bit delta this
    // replaced read 0.706). The factors are drawn as training draws them,
    // N(0, 0.1)-ish.
    use rand::{Rng, SeedableRng};
    let (rows, k) = (512, 16);
    let server = sharded_shared(rows, k, 2);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(44);
    let region: Vec<f32> = (0..rows * k)
        .map(|_| rng.random_range(-0.3f32..0.3))
        .collect();
    let stepped: Vec<f32> = region
        .iter()
        .map(|&q| {
            let (e, p) = (
                rng.random_range(-1.0f32..1.0),
                rng.random_range(-0.3f32..0.3),
            );
            q + 0.01 * (e * p - 0.05 * q)
        })
        .collect();
    server.publish(&region);
    server.push(0, &stepped);
    let mut got = vec![0f32; rows * k];
    server.collect(0, &mut got);
    assert_eq!(bit_vec(&got), bit_vec(&stepped));
    let stats = server.delta_stats();
    assert_eq!(stats.rows_shipped, rows as u64);
    assert!(
        (stats.bytes_shipped as f64) < 0.85 * stats.bytes_full as f64,
        "{stats:?}"
    );
}

#[test]
fn sharded_socket_dedup_verified_against_net_stats() {
    let (rows, k) = (24, 4);
    let (pull, push) = ShardedServer::link_lens(rows, k, 3);
    let sockets: Vec<Arc<CommSocket>> = (0..3)
        .map(|_| Arc::new(CommSocket::new(1, pull, push, Precision::Fp32).unwrap()))
        .collect();
    let inners: Vec<Arc<dyn Transport>> = sockets
        .iter()
        .map(|s| Arc::clone(s) as Arc<dyn Transport>)
        .collect();
    let server = ShardedServer::new(k, rows * k, inners);

    let region: Vec<f32> = (0..rows * k).map(|i| (i as f32).sin()).collect();
    server.publish(&region);
    let mut local = vec![0f32; rows * k];
    server.pull(0, &mut local);
    local[0] = -2.0; // shard 0
    local[23 * k + 1] = 9.0; // shard 2

    // A push and its wire duplicate (what a retransmit after a lost ack
    // looks like): each shard's delta is encoded once and sent twice, so
    // both copies cross the wire and count, and every shard's idempotent
    // dedup must absorb the second.
    server.push_duplicate(0, &local);
    let shard = |s: usize| s * 8 * k..(s + 1) * 8 * k;
    let words: usize = (0..3)
        .map(|s| delta_len(&region[shard(s)], &local[shard(s)], k))
        .sum();
    assert_eq!(server.delta_stats().bytes_shipped, 2 * words as u64 * 4);
    let mut collected = vec![0f32; rows * k];
    server.collect(0, &mut collected);
    assert_eq!(
        bit_vec(&collected),
        bit_vec(&local),
        "duplicate delta pushes corrupted the region"
    );
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

/// A sharded server whose workers each touch their own rows ships only
/// those rows: over every worker and epoch the row count is exact, and the
/// push bytes stay below full buffers.
#[test]
fn delta_shipping_counts_rows_across_workers_and_epochs() {
    // Four workers over four shards of a 256-row band, walked as the ring
    // walks it: in each epoch worker `w` changes every eighth row starting
    // at `w`, as a sparse epoch would, and hands the band on; the epoch's
    // last holder pushes it to the server once, over its own link, against
    // the band as the epoch began, so its delta ships every row any holder
    // changed.
    let (workers, shards, rows, k) = (4usize, 4usize, 256usize, 8usize);
    let server = sharded_shared(rows, k, shards);
    let mut global = vec![0.1f32; rows * k];
    for epoch in 0..3 {
        server.publish(&global);
        let mut band = vec![0f32; rows * k];
        server.pull(0, &mut band);
        for w in 0..workers {
            for row in (w..rows).step_by(8) {
                band[row * k] += 0.01 * (epoch + 1) as f32;
            }
        }
        server.push(0, &band);
        server.collect(0, &mut global);
    }
    let stats = server.delta_stats();
    assert_eq!(stats.rows_shipped, (3 * workers * (rows / 8)) as u64);
    // One push a band an epoch.
    assert_eq!(stats.rows_total, (3 * rows) as u64);
    assert!(
        stats.bytes_shipped < stats.bytes_full,
        "delta shipping saved nothing: {stats:?}"
    );
}
