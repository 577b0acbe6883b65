//! Server-side state: the global feature matrices, region layouts, the
//! synchronization merge (step ④ of Fig. 4), and the node-sharded
//! parameter server.
//!
//! With a row grid, `P` rows are owned exclusively by workers, but any two
//! workers can update the same `Q` row — the WAW race §3.1 warns about. The
//! server therefore *merges* pushed `Q` copies with one multiply-add per
//! parameter: `q_global = Σ_i w_i · q_i`, weighted by each worker's data
//! share, which keeps `Q` a convex combination of worker results.
//!
//! [`ShardedServer`] splits that server across N shard endpoints, each
//! owning a contiguous row range of the synchronized region (the CuMF_SGD
//! scale-out layout), and generalizes "Transmit Q only" to per-shard
//! row-delta shipping: a push to a shard carries only the rows the worker
//! actually touched since the last publish.

use hcc_comm::delta::{apply_delta, encode_delta, max_delta_len};
use hcc_comm::{CommError, NetEvent, Precision, TransferStrategy, Transport};
use hcc_partition::ShardRouter;
use hcc_sync::{Arc, AtomicU64, Mutex, Ordering, RwLock};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Float offsets/lengths of a worker's view of the pull and push regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionLayout {
    /// Pull region length in floats (shared by all workers).
    pub pull_len: usize,
    /// Push buffer length in floats (max over workers).
    pub push_len: usize,
    /// Offset of `Q` within the pull region.
    pub pull_q_offset: usize,
    /// Offset of `Q` within a push buffer.
    pub push_q_offset: usize,
}

impl RegionLayout {
    /// Where `Q` sits in a worker's region once it is pulled — and stays:
    /// the worker trains on it there.
    pub fn q_elems(&self) -> Range<usize> {
        self.pull_q_offset..self.pull_len
    }

    /// The part of a pulled and trained region that is the push: `Q` where
    /// it is, behind `push_q_offset` floats of room for the worker's `P`
    /// rows (`FullPq`; none otherwise) taken from the end of the pulled `P`.
    pub fn push_elems(&self) -> Range<usize> {
        self.pull_q_offset - self.push_q_offset..self.pull_len
    }
}

/// Computes region layouts for a strategy. Under `FullPq` the pull region is
/// `[P | Q]` and each push buffer `[P_rows | Q]` (sized for the largest row
/// range); under the optimized strategies both regions hold only `Q`.
pub fn region_layout(
    strategy: TransferStrategy,
    m: usize,
    n: usize,
    k: usize,
    max_assigned_rows: usize,
) -> RegionLayout {
    match strategy {
        TransferStrategy::FullPq => RegionLayout {
            pull_len: (m + n) * k,
            push_len: (max_assigned_rows + n) * k,
            pull_q_offset: m * k,
            push_q_offset: max_assigned_rows * k,
        },
        TransferStrategy::QOnly | TransferStrategy::HalfQ => RegionLayout {
            pull_len: n * k,
            push_len: n * k,
            pull_q_offset: 0,
            push_q_offset: 0,
        },
    }
}

/// Accumulates `acc += w·src` — the server's multiply-add merge step.
///
/// # Panics
/// Panics if lengths differ.
pub fn merge_weighted(acc: &mut [f32], src: &[f32], w: f32) {
    assert_eq!(acc.len(), src.len(), "merge length mismatch");
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += w * s;
    }
}

/// Normalized merge weights from shard sizes (falls back to uniform when
/// every shard is empty).
pub fn merge_weights(shard_sizes: &[usize]) -> Vec<f32> {
    let total: usize = shard_sizes.iter().sum();
    if total == 0 {
        return vec![1.0 / shard_sizes.len().max(1) as f32; shard_sizes.len()];
    }
    shard_sizes
        .iter()
        .map(|&s| s as f32 / total as f32)
        .collect()
}

// ---------------------------------------------------------------------------
// Node-sharded parameter server
// ---------------------------------------------------------------------------

/// Delta-shipping counters for a [`ShardedServer`] (monotonic totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Rows actually shipped across all pushes (touched rows only).
    pub rows_shipped: u64,
    /// Rows a full-buffer push would have shipped.
    pub rows_total: u64,
    /// Push bytes on the wire under delta shipping (headers excluded:
    /// payload elements × bytes-per-element, comparable across transports).
    pub bytes_shipped: u64,
    /// Push bytes full-buffer shipping would have cost.
    pub bytes_full: u64,
}

/// A parameter server sharded by contiguous row range across N inner
/// [`Transport`] endpoints — one per simulated node.
///
/// The synchronized region (e.g. `Q` under the Q-only strategy) is treated
/// as `region_len / k` rows; a [`ShardRouter`] tiles those rows across the
/// shards, and every RPC is routed by range:
///
/// * `publish` splits the region and publishes each slice to its shard,
///   keeping a server-side snapshot as the delta base;
/// * `pull` reassembles the region from per-shard pulls (disjoint ranges,
///   so the result is bit-identical to a single-endpoint pull);
/// * `push` encodes, per shard, only the rows that differ bitwise from the
///   snapshot ([`encode_delta`]) — the "Transmit Q only" idea applied
///   row-wise within each shard;
/// * a collect seeds the server's one reconstruction region from the
///   snapshot and applies each shard's delta to it where the delta landed,
///   rebuilding the worker's buffer bit-for-bit (an unshipped row is, by
///   construction, bit-equal to the snapshot), then hands the caller a
///   view of that region.
///
/// Sequence numbering and idempotent dedup live in the inner transports
/// (each [`hcc_comm::CommSocket`] shard keeps its own per-worker seq), so
/// PR 7's retry/dedup guarantees hold per shard link.
pub struct ShardedServer {
    router: ShardRouter,
    k: usize,
    precision: Precision,
    shards: Vec<Arc<dyn Transport>>,
    /// Server-side copy of the last published region: the delta base for
    /// pushes and the reconstruction base for collects.
    published: RwLock<Vec<f32>>,
    /// Whose push `rebuilt` holds part of, and whose it gave up. Cleared by
    /// `publish`.
    partial: Mutex<Partial>,
    /// `encoded[w]`: where worker `w`'s pushes are delta-encoded, shard by
    /// shard. Sized for the largest shard when the server is built, so a
    /// push allocates nothing.
    encoded: Vec<Mutex<Vec<f32>>>,
    /// Where a collect rebuilds the push it hands out, also built here. One
    /// for all workers: the server collects them one at a time, and
    /// [`Partial`] checks that a region is never handed out mixed.
    rebuilt: Mutex<Vec<f32>>,
    pull_bytes: AtomicU64,
    push_bytes: AtomicU64,
    rows_shipped: AtomicU64,
    rows_total: AtomicU64,
    bytes_full: AtomicU64,
}

/// The protocol of [`ShardedServer`]'s one `rebuilt` region. A push
/// arrives as one message per shard, so a collect deadline can expire
/// between two of them, leaving the region holding that worker's first
/// shards; a retry resumes at the first outstanding shard instead of
/// waiting again on one whose message it already consumed. Another
/// worker's collect starting meanwhile overwrites the region from shard 0,
/// so it *abandons* the partial push: until the next `publish` the
/// abandoned worker's collect fails with [`CommError::Abandoned`] rather
/// than resume onto another worker's rows.
#[derive(Debug)]
struct Partial {
    /// `(worker, shards)`: the collect that stopped after applying its
    /// first `shards` shards, which `rebuilt` still holds.
    owner: Option<(usize, usize)>,
    /// `abandoned[w]`: worker `w`'s partial push was overwritten.
    abandoned: Vec<bool>,
}

impl Partial {
    /// The shard `worker`'s collect starts at, abandoning another worker's
    /// partial push if there is one.
    fn start(&mut self, worker: usize) -> Result<usize, CommError> {
        if self.abandoned[worker] {
            return Err(CommError::Abandoned);
        }
        match self.owner.take() {
            Some((w, applied)) if w == worker => Ok(applied),
            Some((w, _)) => {
                self.abandoned[w] = true;
                Ok(0)
            }
            None => Ok(0),
        }
    }
}

impl ShardedServer {
    /// Wraps `shards` (one endpoint per node) behind a row router over a
    /// `region_len`-element region of `k`-element rows.
    ///
    /// # Panics
    /// Panics if `shards` is empty, its length differs from the router's
    /// shard count, or `k` is zero.
    pub fn new(
        router: ShardRouter,
        k: usize,
        region_len: usize,
        precision: Precision,
        shards: Vec<Arc<dyn Transport>>,
    ) -> ShardedServer {
        assert!(k > 0, "k must be positive");
        assert_eq!(
            router.shards(),
            shards.len(),
            "router shard count must match endpoints"
        );
        assert!(!shards.is_empty(), "need at least one shard");
        assert_eq!(
            router.n_rows() * k,
            region_len - region_len % k,
            "router must tile the region's whole rows"
        );
        let workers = shards[0].workers();
        let largest = router
            .ranges()
            .map(|r| max_delta_len(r.len(), k))
            .max()
            .unwrap_or(0);
        ShardedServer {
            encoded: (0..workers)
                .map(|_| Mutex::new(vec![0f32; largest]))
                .collect(),
            rebuilt: Mutex::new(vec![0f32; region_len]),
            router,
            k,
            precision,
            shards,
            published: RwLock::new(vec![0f32; region_len]),
            partial: Mutex::new(Partial {
                owner: None,
                abandoned: vec![false; workers],
            }),
            pull_bytes: AtomicU64::new(0),
            push_bytes: AtomicU64::new(0),
            rows_shipped: AtomicU64::new(0),
            rows_total: AtomicU64::new(0),
            bytes_full: AtomicU64::new(0),
        }
    }

    /// Worst-case per-shard push-buffer length in elements (what the inner
    /// transports' push regions must be sized for).
    pub fn shard_push_len(router: &ShardRouter, shard: usize, k: usize) -> usize {
        max_delta_len(router.range(shard).len(), k)
    }

    /// The element range shard `s` owns within the region.
    fn elems(&self, shard: usize) -> std::ops::Range<usize> {
        let r = self.router.range(shard);
        r.start * self.k..r.end * self.k
    }

    /// The row router in use.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of server shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Cumulative delta-shipping accounting.
    pub fn delta_stats(&self) -> DeltaStats {
        DeltaStats {
            // ordering: Relaxed — statistics read for reports.
            rows_shipped: self.rows_shipped.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            rows_total: self.rows_total.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            bytes_shipped: self.push_bytes.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            bytes_full: self.bytes_full.load(Ordering::Relaxed),
        }
    }

    /// Encodes the delta for one worker push against the current snapshot
    /// and ships it to shard `s` via `send`.
    fn push_shard(&self, shard: usize, worker: usize, src: &[f32], send: impl FnOnce(&[f32])) {
        let elems = self.elems(shard);
        if src.len() < elems.end {
            return; // short push: nothing for this shard's range
        }
        let mut delta = self.encoded[worker].lock();
        {
            let snapshot = self.published.read();
            encode_delta(
                &snapshot[elems.clone()],
                &src[elems.clone()],
                self.k,
                &mut delta,
            );
        }
        let touched = delta[0] as u64;
        let bpe = self.precision.bytes_per_element();
        // ordering: Relaxed — delta-accounting statistics.
        self.rows_shipped.fetch_add(touched, Ordering::Relaxed);
        // ordering: Relaxed — statistic (see above).
        self.rows_total
            .fetch_add((elems.len() / self.k) as u64, Ordering::Relaxed);
        // ordering: Relaxed — statistic (see above).
        self.push_bytes
            .fetch_add(delta.len() as u64 * bpe, Ordering::Relaxed);
        // ordering: Relaxed — statistic (see above).
        self.bytes_full
            .fetch_add(elems.len() as u64 * bpe, Ordering::Relaxed);
        send(&delta);
    }

    /// Waits for one shard's delta and applies it to that shard's range of
    /// `region`, seeded from the snapshot first.
    fn apply_shard(
        &self,
        shard: usize,
        worker: usize,
        region: &mut [f32],
        deadline: Option<Instant>,
    ) -> Result<(), CommError> {
        let timeout = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
            Some(Duration::ZERO) => return Err(CommError::Timeout),
            left => left,
        };
        let elems = self.elems(shard);
        let range = &mut region[elems.clone()];
        self.shards[shard].collect_with(worker, timeout, &mut |delta| {
            range.copy_from_slice(&self.published.read()[elems.clone()]);
            // A malformed delta (possible only under deliberate corruption
            // that beat the CRC) leaves the snapshot rows in place — the
            // same degradation as a dropped push.
            let _ = apply_delta(delta, self.k, range);
        })
    }
}

impl Transport for ShardedServer {
    fn publish(&self, src: &[f32]) {
        {
            let mut partial = self.partial.lock();
            partial.owner = None;
            partial.abandoned.fill(false);
        }
        {
            let mut snapshot = self.published.write();
            let n = src.len().min(snapshot.len());
            snapshot[..n].copy_from_slice(&src[..n]);
        }
        for s in 0..self.shards.len() {
            let elems = self.elems(s);
            if src.len() >= elems.end {
                self.shards[s].publish(&src[elems]);
            }
        }
    }

    fn pull(&self, worker: usize, dst: &mut [f32]) {
        let bpe = self.precision.bytes_per_element();
        for s in 0..self.shards.len() {
            let elems = self.elems(s);
            if dst.len() >= elems.end {
                self.shards[s].pull(worker, &mut dst[elems.clone()]);
                // ordering: Relaxed — wire-byte statistic.
                self.pull_bytes
                    .fetch_add(elems.len() as u64 * bpe, Ordering::Relaxed);
            }
        }
    }

    fn push(&self, worker: usize, src: &[f32]) {
        for s in 0..self.shards.len() {
            self.push_shard(s, worker, src, |delta| self.shards[s].push(worker, delta));
        }
    }

    fn push_duplicate(&self, worker: usize, src: &[f32]) {
        // Re-encoding is deterministic (the snapshot cannot change between
        // a push and its wire duplicate in the lock-step loop), so the
        // duplicate carries identical bytes and the per-shard dedup holds.
        for s in 0..self.shards.len() {
            self.push_shard(s, worker, src, |delta| {
                self.shards[s].push_duplicate(worker, delta)
            });
        }
    }

    /// All of the worker's outstanding shards under one deadline: a slow
    /// shard eats into the remaining budget instead of multiplying it. On
    /// error the rebuilt region keeps the shards applied so far and a retry
    /// picks up where this call stopped — unless another worker's collect
    /// started in between, which abandons them (see `Partial`).
    fn collect_with(
        &self,
        worker: usize,
        timeout: Option<Duration>,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut region = self.rebuilt.lock();
        let first = self.partial.lock().start(worker)?;
        for s in first..self.shards.len() {
            if let Err(err) = self.apply_shard(s, worker, &mut region, deadline) {
                self.partial.lock().owner = (s > 0).then_some((worker, s));
                return Err(err);
            }
        }
        consume(&region);
        Ok(())
    }

    fn wire_bytes_by_dir(&self) -> (u64, u64) {
        // ordering: Relaxed — statistics read for end-of-run reports.
        (
            self.pull_bytes.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            self.push_bytes.load(Ordering::Relaxed),
        )
    }

    fn workers(&self) -> usize {
        self.shards.first().map_or(0, |s| s.workers())
    }

    fn drain_net_events(&self) -> Vec<NetEvent> {
        self.shards
            .iter()
            .flat_map(|s| s.drain_net_events())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::fake::{self, FakeTransport};
    use super::*;

    #[test]
    fn layout_full_pq() {
        let l = region_layout(TransferStrategy::FullPq, 100, 20, 8, 40);
        assert_eq!(l.pull_len, 120 * 8);
        assert_eq!(l.pull_q_offset, 800);
        assert_eq!(l.push_len, 60 * 8);
        assert_eq!(l.push_q_offset, 320);
    }

    #[test]
    fn layout_q_only() {
        for s in [TransferStrategy::QOnly, TransferStrategy::HalfQ] {
            let l = region_layout(s, 100, 20, 8, 40);
            assert_eq!(l.pull_len, 160);
            assert_eq!(l.push_len, 160);
            assert_eq!(l.pull_q_offset, 0);
        }
    }

    #[test]
    fn a_region_is_pulled_trained_and_pushed_in_place() {
        // Q-only: the region is `Q`, whole, in both directions.
        let l = region_layout(TransferStrategy::QOnly, 100, 20, 8, 40);
        assert_eq!(l.q_elems(), 0..160);
        assert_eq!(l.push_elems(), 0..160);
        // FullPq: the pull is [P | Q]; the push is the tail of it that puts
        // `Q` at `push_q_offset`, the room before it taking the `P` rows.
        let l = region_layout(TransferStrategy::FullPq, 100, 20, 8, 40);
        assert_eq!(l.q_elems(), 800..960);
        let push = l.push_elems();
        assert_eq!(push.len(), l.push_len);
        assert_eq!(push.start + l.push_q_offset, l.q_elems().start);
        assert_eq!(push.end, l.pull_len);
    }

    #[test]
    fn weighted_merge_is_convex_combination() {
        let mut acc = vec![0.0f32; 3];
        merge_weighted(&mut acc, &[1.0, 2.0, 3.0], 0.25);
        merge_weighted(&mut acc, &[5.0, 6.0, 7.0], 0.75);
        assert_eq!(acc, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn weights_normalize() {
        assert_eq!(merge_weights(&[10, 30]), vec![0.25, 0.75]);
        let uniform = merge_weights(&[0, 0, 0]);
        assert!((uniform.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn merge_length_mismatch_panics() {
        merge_weighted(&mut [0.0], &[1.0, 2.0], 1.0);
    }

    /// A sharded server over CommShared inners sized per shard range.
    fn sharded(workers: usize, rows: usize, k: usize, shards: usize) -> ShardedServer {
        let router = ShardRouter::uniform(rows, shards);
        let inners: Vec<Arc<dyn Transport>> = (0..shards)
            .map(|s| {
                let pull = router.range(s).len() * k;
                let push = ShardedServer::shard_push_len(&router, s, k);
                Arc::new(hcc_comm::CommShared::new(
                    workers,
                    pull,
                    push,
                    Precision::Fp32,
                )) as Arc<dyn Transport>
            })
            .collect();
        ShardedServer::new(router, k, rows * k, Precision::Fp32, inners)
    }

    #[test]
    fn sharded_roundtrip_reconstructs_bit_for_bit() {
        let (rows, k) = (10, 3);
        let t = sharded(2, rows, k, 4);
        let region: Vec<f32> = (0..rows * k).map(|i| i as f32 * 0.25 - 3.0).collect();
        t.publish(&region);
        for w in 0..2 {
            let mut pulled = vec![0f32; rows * k];
            t.pull(w, &mut pulled);
            assert_eq!(pulled, region, "worker {w} sharded pull mismatch");
            // Touch a few rows spread across different shards.
            let mut local = pulled.clone();
            local[0] += 1.0; // row 0
            local[4 * k] = f32::MIN_POSITIVE; // row 4
            local[9 * k + k - 1] = -0.0; // row 9 (bitwise change)
            t.push(w, &local);
            let mut collected = vec![0f32; rows * k];
            t.collect(w, &mut collected);
            let a: Vec<u32> = collected.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = local.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "worker {w} reconstruction not bit-identical");
        }
    }

    #[test]
    fn sharded_push_ships_only_touched_rows() {
        let (rows, k) = (12, 4);
        let t = sharded(1, rows, k, 3);
        let region = vec![1.0f32; rows * k];
        t.publish(&region);
        let mut local = region.clone();
        local[0] = 2.0; // row 0 → shard 0
        local[11 * k] = 2.0; // row 11 → shard 2
        t.push(0, &local);
        let mut got = vec![0f32; rows * k];
        t.collect(0, &mut got);
        assert_eq!(got, local);
        let stats = t.delta_stats();
        assert_eq!(stats.rows_shipped, 2);
        assert_eq!(stats.rows_total, 12);
        // 2 touched rows + per-shard framing (count + index elements).
        let expected = (hcc_comm::delta_len(1, k) * 2 + hcc_comm::delta_len(0, k)) as u64 * 4;
        assert_eq!(stats.bytes_shipped, expected);
        assert_eq!(stats.bytes_full, (rows * k * 4) as u64);
        assert!(stats.bytes_shipped < stats.bytes_full);
    }

    #[test]
    fn sharded_collect_timeout_propagates() {
        let t = sharded(1, 8, 2, 2);
        let mut dst = vec![0f32; 16];
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
        t.publish(&[0.5f32; 16]);
        let mut local = vec![0.5f32; 16];
        local[3] = 9.0;
        t.push(0, &local);
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, local);
    }

    #[test]
    fn single_shard_matches_unsharded_semantics() {
        let t = sharded(2, 6, 2, 1);
        let region: Vec<f32> = (0..12).map(|i| i as f32).collect();
        t.publish(&region);
        let mut dst = vec![0f32; 12];
        t.pull(1, &mut dst);
        assert_eq!(dst, region);
        assert_eq!(t.num_shards(), 1);
        assert_eq!(t.workers(), 2);
        let (pull, push) = t.wire_bytes_by_dir();
        assert_eq!(pull, 48);
        assert_eq!(push, 0);
        assert_eq!(t.wire_bytes(), 48);
    }

    #[test]
    fn sharded_collect_resumes_after_a_deadline_between_shard_arrivals() {
        // A push is one message per shard. Deliver shard 0's only: the
        // collect consumes it, then times out on shard 1.
        let (rows, k) = (8, 2);
        let router = ShardRouter::uniform(rows, 2);
        let links: Vec<Arc<dyn Transport>> = (0..2)
            .map(|s| {
                let push = ShardedServer::shard_push_len(&router, s, k);
                Arc::new(hcc_comm::CommShared::new(1, 4 * k, push, Precision::Fp32))
                    as Arc<dyn Transport>
            })
            .collect();
        let t = ShardedServer::new(router, k, rows * k, Precision::Fp32, links.clone());
        let region = vec![0.5f32; rows * k];
        t.publish(&region);
        let mut local = region.clone();
        local[1] = 7.0; // row 0 → shard 0
        local[15] = 9.0; // row 7 → shard 1
        let delta = |range: std::ops::Range<usize>| {
            let mut out = Vec::new();
            encode_delta(&region[range.clone()], &local[range], k, &mut out);
            out
        };
        links[0].push(0, &delta(0..8));
        let mut dst = vec![0f32; rows * k];
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
        // The retry must wait on shard 1 alone — shard 0's message is gone
        // from its link — and keep what shard 0 delivered.
        links[1].push(0, &delta(8..16));
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, local);
    }

    #[test]
    fn another_workers_collect_abandons_a_partial_region_until_the_next_publish() {
        // Worker 0's collect stops between shards, worker 1's runs whole,
        // then worker 0's resumes. The parent handed worker 0 `Ok` and a
        // region whose shard 0 held worker 1's rows.
        let (rows, k) = (8, 2);
        let router = ShardRouter::uniform(rows, 2);
        let links: Vec<Arc<dyn Transport>> = (0..2)
            .map(|s| {
                let push = ShardedServer::shard_push_len(&router, s, k);
                Arc::new(hcc_comm::CommShared::new(2, 4 * k, push, Precision::Fp32))
                    as Arc<dyn Transport>
            })
            .collect();
        let t = ShardedServer::new(router, k, rows * k, Precision::Fp32, links.clone());
        let region = vec![0.5f32; rows * k];
        let mut a = region.clone();
        a[1] = 7.0; // row 0 → shard 0
        a[15] = 9.0; // row 7 → shard 1
        let mut b = region.clone();
        b[2] = 3.0; // row 1 → shard 0
        b[12] = 4.0; // row 6 → shard 1
        let delta = |local: &[f32], shard: usize| {
            let range = shard * 8..shard * 8 + 8;
            let mut out = Vec::new();
            encode_delta(&region[range.clone()], &local[range], k, &mut out);
            out
        };
        let mut dst = vec![0f32; rows * k];
        t.publish(&region);
        links[0].push(0, &delta(&a, 0));
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
        for (s, link) in links.iter().enumerate() {
            link.push(1, &delta(&b, s));
        }
        t.collect_timeout(1, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, b);
        links[1].push(0, &delta(&a, 1));
        let mut calls = 0;
        assert_eq!(
            t.collect_with(0, Some(Duration::from_secs(1)), &mut |_| calls += 1),
            Err(CommError::Abandoned)
        );
        assert_eq!(calls, 0, "a mixed region was handed out");
        // After a publish the worker collects whole again.
        t.publish(&region);
        for (s, link) in links.iter().enumerate() {
            link.push(0, &delta(&a, s));
        }
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, a);
    }

    #[test]
    fn sharded_drain_gathers_every_shards_net_events_once() {
        let router = ShardRouter::uniform(4, 2);
        let links: Vec<Arc<dyn Transport>> = (0..2)
            .map(|s| Arc::new(FakeTransport::new(1, 4).with_event(fake::retry(s))) as _)
            .collect();
        let t = ShardedServer::new(router, 2, 8, Precision::Fp32, links);
        assert_eq!(t.drain_net_events(), vec![fake::retry(0), fake::retry(1)]);
        assert!(t.drain_net_events().is_empty());
    }
}

/// A scriptable [`Transport`] for tests here and in `train.rs`: a
/// `CommShared` that can hand back canned resilience events, panic in one
/// worker's pull, or lose one worker's pushes.
#[cfg(test)]
pub(crate) mod fake {
    use hcc_comm::{CommError, CommShared, NetEvent, NetEventKind, Precision, Transport};
    use parking_lot::Mutex;
    use std::time::Duration;

    pub(crate) struct FakeTransport {
        inner: CommShared,
        events: Mutex<Vec<NetEvent>>,
        pub pull_panics_for: Option<usize>,
        pub loses_pushes_of: Option<usize>,
    }

    /// A canned retry event on `worker`'s link.
    pub(crate) fn retry(worker: usize) -> NetEvent {
        NetEvent {
            worker,
            kind: NetEventKind::Retry {
                cause: CommError::Timeout,
                bytes: 64,
            },
            delay_us: 250,
        }
    }

    impl FakeTransport {
        pub fn new(workers: usize, len: usize) -> FakeTransport {
            FakeTransport {
                inner: CommShared::new(workers, len, len, Precision::Fp32),
                events: Mutex::new(Vec::new()),
                pull_panics_for: None,
                loses_pushes_of: None,
            }
        }

        pub fn with_event(self, event: NetEvent) -> FakeTransport {
            self.events.lock().push(event);
            self
        }
    }

    impl Transport for FakeTransport {
        fn publish(&self, src: &[f32]) {
            self.inner.publish(src);
        }
        fn pull(&self, worker: usize, dst: &mut [f32]) {
            assert_ne!(Some(worker), self.pull_panics_for, "scripted pull panic");
            self.inner.pull(worker, dst);
        }
        fn push(&self, worker: usize, src: &[f32]) {
            if Some(worker) != self.loses_pushes_of {
                self.inner.push(worker, src);
            }
        }
        fn collect_with(
            &self,
            worker: usize,
            timeout: Option<Duration>,
            consume: &mut dyn FnMut(&[f32]),
        ) -> Result<(), CommError> {
            self.inner.collect_with(worker, timeout, consume)
        }
        fn wire_bytes_by_dir(&self) -> (u64, u64) {
            self.inner.wire_bytes_by_dir()
        }
        fn workers(&self) -> usize {
            self.inner.workers()
        }
        fn drain_net_events(&self) -> Vec<NetEvent> {
            std::mem::take(&mut *self.events.lock())
        }
    }
}
