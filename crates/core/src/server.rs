//! The parameter server's side of the wire: the node-sharded server.
//!
//! With a row grid, `P` rows are owned exclusively by workers, but any two
//! workers could update the same `Q` row — the WAW race §3.1 warns about.
//! The epoch avoids it by schedule rather than by merging: `Q` is stored in
//! band order, so each band, and each chunk of one, is a contiguous slice
//! of it, and in each round of the epoch every band has exactly one
//! holder, which hands it straight to the next. The session publishes each
//! chunk's slice every round as the epoch began (a lost hand-off's
//! fallback), and in the epoch's last round copies the holder's push
//! straight back over it, so a push that never came leaves the band as it
//! was published.
//!
//! [`ShardedServer`] splits that server across N shard endpoints, each
//! owning a contiguous row range of the synchronized region (the CuMF_SGD
//! scale-out layout), and carries "Transmit Q only" further with a
//! per-shard delta: a push to a shard carries, for each row the worker
//! changed since the last publish, each element's difference from the
//! published value, packed at the width its group of eight needs. A
//! collect decodes it in place into the server's snapshot of that publish,
//! the base it was encoded against, so a link keeps one band-sized region
//! beside its encode buffer, and a wire duplicate resends the bytes that
//! crossed.

use hcc_comm::delta::{apply_delta, encode_delta, max_delta_len};
use hcc_comm::{CommError, NetEvent, Transport};
use hcc_partition::ShardRouter;
use hcc_sync::{Arc, AtomicU64, Mutex, Ordering, RwLock};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Bytes an element takes on a [`ShardedServer`]'s inner links. They run
/// at Fp32, which carries the deltas' words, bit patterns, unchanged.
const BPE: usize = 4;

/// Delta counters for a [`ShardedServer`] (monotonic totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Rows the pushes' bitmaps marked changed (a bit of the row differs
    /// from the published base).
    pub rows_shipped: u64,
    /// Rows a full-buffer push would have shipped.
    pub rows_total: u64,
    /// Push bytes on the wire: the deltas' words × bytes per element
    /// (headers excluded, comparable across transports).
    pub bytes_shipped: u64,
    /// Push bytes full-buffer shipping would have cost.
    pub bytes_full: u64,
}

/// A parameter server sharded by contiguous row range across N inner
/// [`Transport`] endpoints — one per simulated node.
///
/// The synchronized region (e.g. `Q` under the Q-only strategy) is treated
/// as rows of `k`. Every RPC routes the region it carries over its own
/// rows, `ShardRouter::uniform(len / k, shards)`, so a region shorter than
/// the server was built for — a band a row short of the longest — travels
/// exactly as through a server built for it:
///
/// * `publish` splits the region and publishes each slice to its shard,
///   keeping a server-side snapshot as the delta base;
/// * `pull` reassembles the region from per-shard pulls (disjoint ranges,
///   so the result is bit-identical to a single-endpoint pull);
/// * `push` encodes each shard's slice against the snapshot
///   ([`encode_delta`]): a bitmap of the rows whose bits differ from it,
///   then each such row's differences from it, zigzagged and packed eight
///   elements to a width — no push is longer than its raw rows plus two
///   bits a row;
/// * a collect decodes each shard's delta in place into the snapshot it
///   was encoded against, which then holds the worker's buffer
///   bit-for-bit (an unshipped row is, by construction, bit-equal to the
///   snapshot, and a shipped element is the snapshot's plus its
///   difference), and hands the caller a view of it; a delta that fails
///   to decode fails the collect with [`CommError::Corrupt`] and leaves
///   the snapshot untouched;
/// * `push_duplicate` encodes each shard's slice once and hands it to the
///   shard's own `push_duplicate`, so the duplicate is the bytes that
///   crossed, never a second encoding.
///
/// So a server carries one push between two publishes — the engine builds
/// one for each slot of each worker — and a push made after a collect,
/// with no publish between, is encoded against the push that collect
/// decoded.
///
/// Sequence numbering and idempotent dedup live in the inner transports
/// (each [`hcc_comm::CommSocket`] shard keeps its own per-worker seq), so
/// PR 7's retry/dedup guarantees hold per shard link.
pub struct ShardedServer {
    k: usize,
    shards: Vec<Arc<dyn Transport>>,
    /// The last published region, exactly as long as it was: the base a
    /// push is encoded against, and where a collect decodes it.
    published: RwLock<Vec<f32>>,
    /// Where a push is delta-encoded, shard by shard. Sized for the largest
    /// shard when the server is built, so a push allocates nothing.
    encoded: Mutex<Vec<f32>>,
    /// Shards of the push in progress already decoded into `published`. A
    /// push arrives as one message per shard, so a collect deadline can
    /// expire between two of them; the retry resumes at the first
    /// outstanding shard instead of waiting again on one whose message it
    /// already consumed. A `publish` starts every push over.
    applied: Mutex<usize>,
    pull_bytes: AtomicU64,
    push_bytes: AtomicU64,
    rows_shipped: AtomicU64,
    rows_total: AtomicU64,
    /// Nanoseconds collects spent decoding deltas since the last
    /// [`Transport::take_decode_time`].
    decode_ns: AtomicU64,
}

impl ShardedServer {
    /// Wraps `shards` (one endpoint per node, each an Fp32 link built for
    /// [`link_lens`](Self::link_lens)) behind a row router over regions of
    /// up to `region_len` elements of `k`-element rows.
    ///
    /// # Panics
    /// Panics if `shards` is empty, if `k` is zero, or if a shard serves
    /// more than one worker: the server keeps one snapshot and one resume
    /// count, so two workers' pushes would mix in them.
    pub fn new(k: usize, region_len: usize, shards: Vec<Arc<dyn Transport>>) -> ShardedServer {
        assert!(k > 0, "k must be positive");
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(
            shards.iter().all(|shard| shard.workers() <= 1),
            "a sharded server is one worker's link"
        );
        let (_, largest) = Self::link_lens(region_len / k, k, shards.len());
        ShardedServer {
            k,
            shards,
            published: RwLock::new(vec![0f32; region_len]),
            encoded: Mutex::new(vec![0f32; largest]),
            applied: Mutex::new(0),
            pull_bytes: AtomicU64::new(0),
            push_bytes: AtomicU64::new(0),
            rows_shipped: AtomicU64::new(0),
            rows_total: AtomicU64::new(0),
            decode_ns: AtomicU64::new(0),
        }
    }

    /// The `(pull, push)` lengths in elements each of `shards` inner links
    /// must be built for to carry its shard of any region of up to `rows`
    /// rows of `k`: a shard of `ShardRouter::uniform(r, shards)` holds at
    /// most `ceil(r / shards)` rows, and a push is its delta, at most
    /// [`max_delta_len`] elements.
    pub fn link_lens(rows: usize, k: usize, shards: usize) -> (usize, usize) {
        let most = rows.div_ceil(shards);
        (most * k, max_delta_len(most, k))
    }

    /// The element range each shard owns of a region of `len` elements.
    fn routes(&self, len: usize) -> impl Iterator<Item = Range<usize>> {
        let (k, shards) = (self.k, self.shards.len());
        let router = ShardRouter::uniform(len / k, shards);
        (0..shards).map(move |s| {
            let rows = router.range(s);
            rows.start * k..rows.end * k
        })
    }

    /// Cumulative delta-shipping accounting.
    pub fn delta_stats(&self) -> DeltaStats {
        // ordering: Relaxed — statistics read for reports.
        let rows_total = self.rows_total.load(Ordering::Relaxed);
        DeltaStats {
            // ordering: Relaxed — statistic (see above).
            rows_shipped: self.rows_shipped.load(Ordering::Relaxed),
            rows_total,
            // ordering: Relaxed — statistic (see above).
            bytes_shipped: self.push_bytes.load(Ordering::Relaxed),
            bytes_full: rows_total * (self.k * BPE) as u64,
        }
    }

    /// Encodes each shard's slice of `src` against the snapshot and pushes
    /// it to its shard — with a wire duplicate when `duplicate`, which
    /// crosses the wire, and is counted, as its push does.
    fn push_shards(&self, worker: usize, src: &[f32], duplicate: bool) {
        let copies = 1 + u64::from(duplicate);
        let mut delta = self.encoded.lock();
        for (shard, elems) in self.shards.iter().zip(self.routes(src.len())) {
            let touched = encode_delta(
                &self.published.read()[elems.clone()],
                &src[elems.clone()],
                self.k,
                &mut delta,
            ) as u64;
            // ordering: Relaxed — delta-accounting statistics.
            self.rows_shipped
                .fetch_add(copies * touched, Ordering::Relaxed);
            // ordering: Relaxed — statistic (see above).
            self.rows_total
                .fetch_add(copies * (elems.len() / self.k) as u64, Ordering::Relaxed);
            // ordering: Relaxed — statistic (see above).
            self.push_bytes
                .fetch_add(copies * (delta.len() * BPE) as u64, Ordering::Relaxed);
            if duplicate {
                shard.push_duplicate(worker, &delta);
            } else {
                shard.push(worker, &delta);
            }
        }
    }

    /// Waits for one shard's delta and decodes it into the snapshot's
    /// elements `elems`, the base it was encoded against.
    fn apply_shard(
        &self,
        shard: usize,
        elems: Range<usize>,
        worker: usize,
        deadline: Option<Instant>,
    ) -> Result<(), CommError> {
        let timeout = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
            Some(Duration::ZERO) => return Err(CommError::Timeout),
            left => left,
        };
        let mut decoded = Ok(0);
        self.shards[shard].collect_with(worker, timeout, &mut |delta| {
            let t0 = Instant::now();
            decoded = apply_delta(delta, self.k, &mut self.published.write()[elems.clone()]);
            let took = t0.elapsed().as_nanos() as u64;
            // ordering: Relaxed — a timing statistic, taken by this thread.
            self.decode_ns.fetch_add(took, Ordering::Relaxed);
        })?;
        // A malformed delta (possible only under corruption that beat the
        // CRC) fails the collect as a corrupt frame, and decodes nothing:
        // the caller treats it as a dropped push, and the worker's band
        // stays as published.
        decoded.map(|_| ()).map_err(|_| CommError::Corrupt)
    }
}

impl Transport for ShardedServer {
    fn publish(&self, src: &[f32]) {
        *self.applied.lock() = 0;
        {
            let published = &mut *self.published.write();
            published.clear();
            published.extend_from_slice(src);
        }
        for (shard, elems) in self.shards.iter().zip(self.routes(src.len())) {
            shard.publish(&src[elems]);
        }
    }

    fn pull(&self, worker: usize, dst: &mut [f32]) {
        let len = self.published.read().len().min(dst.len());
        for (shard, elems) in self.shards.iter().zip(self.routes(len)) {
            // ordering: Relaxed — wire-byte statistic.
            self.pull_bytes
                .fetch_add((elems.len() * BPE) as u64, Ordering::Relaxed);
            shard.pull(worker, &mut dst[elems]);
        }
    }

    fn push(&self, worker: usize, src: &[f32]) {
        self.push_shards(worker, src, false);
    }

    fn push_duplicate(&self, worker: usize, src: &[f32]) {
        self.push_shards(worker, src, true);
    }

    /// All of the push's outstanding shards under one deadline: a slow
    /// shard eats into the remaining budget instead of multiplying it. On
    /// error the snapshot keeps the shards decoded so far and a retry picks
    /// up at the first shard it still needs.
    fn collect_with(
        &self,
        worker: usize,
        timeout: Option<Duration>,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let applied = &mut *self.applied.lock();
        let len = self.published.read().len();
        for (s, elems) in self.routes(len).enumerate().skip(*applied) {
            self.apply_shard(s, elems, worker, deadline)?;
            *applied = s + 1;
        }
        *applied = 0;
        consume(&self.published.read());
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

    fn take_decode_time(&self) -> Duration {
        // ordering: Relaxed — a timing statistic (see `apply_shard`).
        Duration::from_nanos(self.decode_ns.swap(0, Ordering::Relaxed))
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
    use hcc_comm::Precision;

    /// Bit patterns a merge by arithmetic would not carry through: NaN
    /// payloads, `-0.0`, a subnormal, an infinity.
    fn odd_bits(rows: usize, k: usize) -> Vec<f32> {
        (0..rows * k)
            .map(|v| match v % 5 {
                0 => f32::from_bits(0x7fc0_0000 | v as u32),
                1 => -0.0,
                2 => f32::from_bits(v as u32 + 1),
                3 => f32::NEG_INFINITY,
                _ => v as f32 * 0.37,
            })
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `shards` one-worker links of `CommShared`, built for regions of up
    /// to `rows` rows of `k`.
    fn links(rows: usize, k: usize, shards: usize) -> Vec<Arc<dyn Transport>> {
        let (pull, push) = ShardedServer::link_lens(rows, k, shards);
        (0..shards)
            .map(|_| {
                Arc::new(hcc_comm::CommShared::new(1, pull, push, Precision::Fp32))
                    as Arc<dyn Transport>
            })
            .collect()
    }

    /// A sharded server over CommShared inners.
    fn sharded(rows: usize, k: usize, shards: usize) -> ShardedServer {
        ShardedServer::new(k, rows * k, links(rows, k, shards))
    }

    #[test]
    #[should_panic(expected = "one worker's link")]
    fn a_shard_serving_two_workers_is_refused() {
        let shard = hcc_comm::CommShared::new(2, 8, max_delta_len(4, 2), Precision::Fp32);
        ShardedServer::new(2, 8, vec![Arc::new(shard)]);
    }

    #[test]
    fn a_collect_counts_its_decode_time_once() {
        // The decode runs inside the collect, before `consume`: the engine
        // adds it to the push's sync, so it is counted, and taken once.
        let (rows, k) = (64, 8);
        let t = sharded(rows, k, 2);
        t.publish(&vec![0.5f32; rows * k]);
        let pushed: Vec<f32> = (0..rows * k).map(|v| v as f32).collect();
        t.push(0, &pushed);
        assert_eq!(t.take_decode_time(), Duration::ZERO);
        let mut got = vec![0f32; rows * k];
        t.collect(0, &mut got);
        assert_eq!(got, pushed);
        assert!(t.take_decode_time() > Duration::ZERO);
        assert_eq!(t.take_decode_time(), Duration::ZERO);
    }

    #[test]
    fn sharded_roundtrip_reconstructs_bit_for_bit() {
        let (rows, k) = (10, 3);
        let t = sharded(rows, k, 4);
        let region: Vec<f32> = (0..rows * k).map(|i| i as f32 * 0.25 - 3.0).collect();
        t.publish(&region);
        let mut pulled = vec![0f32; rows * k];
        t.pull(0, &mut pulled);
        assert_eq!(pulled, region, "sharded pull mismatch");
        // Touch a few rows spread across different shards.
        let mut local = pulled.clone();
        local[0] += 1.0; // row 0
        local[4 * k] = f32::MIN_POSITIVE; // row 4
        local[9 * k + k - 1] = -0.0; // row 9 (bitwise change)
        t.push(0, &local);
        let mut collected = vec![0f32; rows * k];
        t.collect(0, &mut collected);
        assert_eq!(
            bits(&collected),
            bits(&local),
            "reconstruction not bit-identical"
        );
    }

    #[test]
    fn sharded_push_ships_only_touched_rows() {
        let (rows, k) = (12, 4);
        let t = sharded(rows, k, 3);
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
        // Per shard, its delta: shards 0 and 2 a bitmap word and one
        // changed row (a raw flag, then one group of four: 1.0 → 2.0 is a
        // difference of 2^23, zigzag 2^24, so a width of 25 and four 25-bit
        // fields: 106 bits, four words), shard 1 its bitmap alone.
        let shard = |s: usize| s * 4 * k..(s + 1) * 4 * k;
        let words: usize = (0..3)
            .map(|s| hcc_comm::delta_len(&region[shard(s)], &local[shard(s)], k))
            .sum();
        assert_eq!(words, 5 + 1 + 5);
        assert_eq!(stats.bytes_shipped, words as u64 * 4);
        assert_eq!(stats.bytes_full, (rows * k * 4) as u64);
        assert!(stats.bytes_shipped < stats.bytes_full);
    }

    #[test]
    fn sharded_collect_timeout_propagates() {
        let t = sharded(8, 2, 2);
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
    fn a_push_nobody_collected_is_retired_by_the_next_publish() {
        // A push the supervisor gave up on lands after the collect ladder
        // moved on; the next epoch's publish retires it on every shard.
        let t = sharded(8, 2, 2);
        let region = vec![0.5f32; 16];
        t.publish(&region);
        t.push(0, &[1.5f32; 16]);
        t.publish(&region);
        let mut calls = 0;
        assert_eq!(
            t.collect_with(0, Some(Duration::from_millis(20)), &mut |_| calls += 1),
            Err(CommError::Timeout)
        );
        assert_eq!(calls, 0, "last epoch's push was handed out");
        let mut local = region.clone();
        local[3] = 9.0;
        t.push(0, &local);
        let mut dst = vec![0f32; 16];
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, local);
    }

    #[test]
    fn single_shard_matches_unsharded_semantics() {
        let t = sharded(6, 2, 1);
        let region: Vec<f32> = (0..12).map(|i| i as f32).collect();
        t.publish(&region);
        let mut dst = vec![0f32; 12];
        t.pull(0, &mut dst);
        assert_eq!(dst, region);
        assert_eq!(t.shards.len(), 1);
        assert_eq!(t.workers(), 1);
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
        let links = links(rows, k, 2);
        let t = ShardedServer::new(k, rows * k, links.clone());
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
    fn a_delta_that_fails_to_decode_fails_the_collect_as_corrupt() {
        // Shard 0's delta is whole, shard 1's is cut short: the collect
        // reports a corrupt frame and never hands the caller a region that
        // is half pushed, half published.
        let (rows, k) = (8, 2);
        let links = links(rows, k, 2);
        let t = ShardedServer::new(k, rows * k, links.clone());
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
        let cut = delta(8..16);
        links[1].push(0, &cut[..cut.len() - 1]);
        let mut calls = 0;
        assert_eq!(
            t.collect_with(0, Some(Duration::from_secs(1)), &mut |_| calls += 1),
            Err(CommError::Corrupt)
        );
        assert_eq!(calls, 0, "a half-decoded push was handed out");
    }

    #[test]
    fn a_collect_leaves_its_push_as_the_base_of_the_next() {
        // A collect decodes the push into the snapshot it was encoded
        // against: the same region pushed again before a publish ships
        // each shard's bitmap word alone, and collects as itself.
        let (rows, k) = (8, 2);
        let t = sharded(rows, k, 2);
        t.publish(&vec![0.5f32; rows * k]);
        let local = odd_bits(rows, k);
        for push in 0..2 {
            t.push(0, &local);
            let mut got = Vec::new();
            t.collect_with(0, None, &mut |pushed| got.extend_from_slice(pushed))
                .unwrap();
            assert_eq!(bits(&got), bits(&local), "push {push}");
        }
        let stats = t.delta_stats();
        assert_eq!(stats.rows_shipped, rows as u64);
        let first: usize = [0..8, 8..16]
            .map(|elems| hcc_comm::delta_len(&[0.5; 8], &local[elems], k))
            .iter()
            .sum();
        assert_eq!(stats.bytes_shipped, (first + 2) as u64 * 4);
    }

    #[test]
    fn a_short_region_travels_as_through_a_server_built_for_it() {
        // A server built for 16 rows carries 16, then 15. The pull delivers
        // exactly what was published into the front of a 16-row region and
        // counts only that; the 15-row push ships the deltas a server built
        // for 15 rows ships, and its collect rebuilds it bit for bit.
        let k = 4;
        let (long, short) = (sharded(16, k, 2), sharded(15, k, 2));
        let full = odd_bits(16, k);
        long.publish(&full);
        let mut dst = vec![0f32; 16 * k];
        long.pull(0, &mut dst);
        assert_eq!(bits(&dst), bits(&full));
        let region: Vec<f32> = full[..15 * k].iter().map(|v| v * 0.5).collect();
        long.publish(&region);
        let mut dst = vec![-1.0f32; 16 * k];
        long.pull(0, &mut dst);
        assert_eq!(bits(&dst[..15 * k]), bits(&region));
        assert_eq!(dst[15 * k..], [-1.0; 4]);
        assert_eq!(long.wire_bytes_by_dir(), ((16 + 15) as u64 * 4 * 4, 0));
        let mut local = region.clone();
        for row in [0, 7, 8, 14] {
            local[row * k + 1] = row as f32;
        }
        short.publish(&region);
        for t in [&long, &short] {
            t.push(0, &local);
            let mut got = Vec::new();
            t.collect_with(0, None, &mut |pushed| got.extend_from_slice(pushed))
                .unwrap();
            assert_eq!(bits(&got), bits(&local));
        }
        assert_eq!(long.delta_stats(), short.delta_stats());
        assert_eq!(long.delta_stats().rows_shipped, 4);
    }

    #[test]
    fn sharded_drain_gathers_every_shards_net_events_once() {
        let links: Vec<Arc<dyn Transport>> = (0..2)
            .map(|s| Arc::new(FakeTransport::new(1, 4).with_event(fake::retry(s))) as _)
            .collect();
        let t = ShardedServer::new(2, 8, links);
        assert_eq!(t.drain_net_events(), vec![fake::retry(0), fake::retry(1)]);
        assert!(t.drain_net_events().is_empty());
    }
}

/// A scriptable [`Transport`] for tests here and in `train.rs`: a
/// `CommShared` that can hand back canned resilience events, panic in a
/// pull, or lose every push.
#[cfg(test)]
pub(crate) mod fake {
    use hcc_comm::{CommError, CommShared, NetEvent, NetEventKind, Precision, Transport};
    use parking_lot::Mutex;
    use std::time::Duration;

    pub(crate) struct FakeTransport {
        inner: CommShared,
        events: Mutex<Vec<NetEvent>>,
        pub push_panics: bool,
        pub loses_pushes: bool,
    }

    /// A canned retry event that re-sends `bytes`.
    pub(crate) fn retry(bytes: u64) -> NetEvent {
        NetEvent {
            kind: NetEventKind::Retry {
                cause: CommError::Timeout,
                bytes,
            },
            delay_us: 250,
        }
    }

    impl FakeTransport {
        pub fn new(workers: usize, len: usize) -> FakeTransport {
            FakeTransport {
                inner: CommShared::new(workers, len, len, Precision::Fp32),
                events: Mutex::new(Vec::new()),
                push_panics: false,
                loses_pushes: false,
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
            self.inner.pull(worker, dst);
        }
        fn push(&self, worker: usize, src: &[f32]) {
            assert!(!self.push_panics, "scripted push panic");
            if !self.loses_pushes {
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
