//! Server↔worker transports.
//!
//! [`CommShared`] is the paper's COMM: a single shared *pull region* the
//! server publishes the global feature matrix into (every worker reads it
//! directly — one copy per direction), and one *push slot* per worker the
//! server collects from. [`CommP`] is the comparison implementation the
//! paper builds on ps-lite ("COMM-P"): every message is serialized into a
//! fresh byte buffer and deserialized through a staging copy into the
//! worker's slot — the extra copies and temporary allocations are exactly
//! what Table 5 blames for its ~6–7× slower transfers. COMM-P is a Table 5
//! probe, not a training wire.
//!
//! Both transports speak f32 payloads at the API and optionally compress to
//! FP16 on the wire ([`Precision::Fp16`]), so the Table 5 grid
//! {P&Q, Q, half-Q} × {COMM, COMM-P} is expressible.
//!
//! **Wire bytes are defined once, on [`Transport::wire_bytes_by_dir`], and
//! mean the same on every transport**: the payload bytes worker links
//! carried. **A push lands once and is collected once**: every base
//! transport lands a push in its worker's push slot (`slot.rs`) and
//! [`Transport::collect_with`] hands the server the push where it landed
//! (`collect`/`collect_timeout` are wrappers that copy out of that view); a
//! `publish` retires every push nobody collected.

use crate::buffer::SharedBuffer;
use crate::slot::PushSlot;
use crate::socket::NetEvent;
use hcc_sgd::{fp16, simd};
use parking_lot::RwLock;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Transport-level failures surfaced to the supervisor instead of blocking
/// forever or panicking. `Timeout` and `Corrupt` are retryable (the peer
/// may be a straggler, the frame may arrive clean next time);
/// `Disconnected` and `PartitionedLink` are fatal for that peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// No push arrived within the deadline.
    Timeout,
    /// The peer's channel endpoint is gone (worker thread exited).
    Disconnected,
    /// A frame arrived but failed integrity checks (CRC mismatch, bad
    /// header). The supervisor treats this exactly like a dropped push:
    /// retry, then classify the worker as a straggler/dead.
    Corrupt,
    /// The link to this peer is partitioned: reconnect attempts exhausted
    /// their backoff budget. Unlike `Timeout` there is no point retrying
    /// within the epoch.
    PartitionedLink,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout => write!(f, "transport wait timed out"),
            CommError::Disconnected => write!(f, "transport peer disconnected"),
            CommError::Corrupt => write!(f, "transport frame failed integrity check"),
            CommError::PartitionedLink => write!(f, "transport link partitioned"),
        }
    }
}

impl std::error::Error for CommError {}

/// Wire precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// 4 bytes per element on the wire.
    Fp32,
    /// 2 bytes per element on the wire (IEEE binary16).
    Fp16,
}

impl Precision {
    /// Bytes per element on the wire.
    pub fn bytes_per_element(&self) -> u64 {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 => 2,
        }
    }

    /// Rounds `values` in place to what a wire of this precision delivers:
    /// unchanged at Fp32, `decode(encode(v))` through a block on the stack
    /// at Fp16.
    pub fn round(&self, values: &mut [f32]) {
        if *self == Precision::Fp16 {
            let mut wire = [0u16; 256];
            for chunk in values.chunks_mut(wire.len()) {
                let wire = &mut wire[..chunk.len()];
                simd::encode_f16(chunk, wire);
                simd::decode_f16(wire, chunk);
            }
        }
    }
}

/// A bidirectional server↔worker transport.
pub trait Transport: Send + Sync {
    /// Server side: publish the shared feature data for workers to pull,
    /// and retire every push nobody collected — it belongs to the epoch
    /// before and is never handed out. `src` may be shorter than the
    /// region the transport was built for: what is published is exactly
    /// `src`.
    fn publish(&self, src: &[f32]);
    /// Worker side: read the published data into the front of `dst`, as
    /// many elements as both hold. A pull that fails
    /// (on a wire, after its retries) leaves `dst` unspecified — stale, or
    /// partly the new snapshot, as a chaos partition already does; `dst`
    /// is the worker's own region, dead until a pull succeeds.
    fn pull(&self, worker: usize, dst: &mut [f32]);
    /// Worker side: submit this worker's updated data.
    fn push(&self, worker: usize, src: &[f32]);
    /// Worker side: [`push`](Self::push) `src`, then deliver a
    /// *wire-level duplicate* of it (what a retransmitting network does
    /// when the original also arrived): the same bytes, sent twice. Framed
    /// transports send both under one sequence number so the server's
    /// idempotency dedup is exercised; for shared-memory transports a
    /// duplicate of an in-place buffer write is indistinguishable from the
    /// original, so the default is the push alone.
    fn push_duplicate(&self, worker: usize, src: &[f32]) {
        self.push(worker, src);
    }
    /// Server side: waits for worker `worker`'s next push since the last
    /// `publish` — for ever when `timeout` is `None` — and hands exactly
    /// its elements to `consume` *where they landed*. The one collect every
    /// transport implements. `consume` runs exactly once on `Ok` and not at
    /// all on `Err`; it may hold a lock the next push to that worker's slot
    /// needs, so it should merge and return.
    fn collect_with(
        &self,
        worker: usize,
        timeout: Option<Duration>,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError>;
    /// Copies worker `worker`'s next push into `dst` (as much as both
    /// hold), blocking until there is one: [`collect_with`] plus a copy. A
    /// link that fails instead of delivering leaves `dst` as it was.
    ///
    /// [`collect_with`]: Transport::collect_with
    fn collect(&self, worker: usize, dst: &mut [f32]) {
        let _ = self.collect_with(worker, None, &mut |src| copy_prefix(src, dst));
    }
    /// Like [`collect`](Transport::collect) but gives up after `timeout`,
    /// letting a supervisor distinguish a dead worker from a slow one.
    fn collect_timeout(
        &self,
        worker: usize,
        dst: &mut [f32],
        timeout: Duration,
    ) -> Result<(), CommError> {
        self.collect_with(worker, Some(timeout), &mut |src| copy_prefix(src, dst))
    }
    /// Total bytes that crossed the wire so far.
    fn wire_bytes(&self) -> u64 {
        let (pull, push) = self.wire_bytes_by_dir();
        pull + push
    }
    /// The payload bytes worker links carried so far, as `(pull, push)`:
    /// elements pulled × bytes per element on the wire, and elements pushed
    /// × bytes per element. Every transport counts exactly this. A
    /// `publish` is the server writing its own region and a collect is a
    /// view of a push that already crossed, so neither is link traffic; nor
    /// are the 24 header and trailer bytes of a frame. `W` pulls and `W`
    /// pushes of the region therefore read `(W·pull_len·bpe, W·push_len·bpe)`
    /// — Table 5's epoch of `W` workers; a pull a worker skips, holding the
    /// region, adds nothing — and fp16 reads exactly half of fp32. (A
    /// sharded server's pushes are deltas, whose length follows the
    /// values: it counts the words it shipped, at most the raw rows plus
    /// two bits a row.) Telemetry
    /// records the two directions separately because the communication
    /// strategies (Q-only, half-Q, FP16) trade them off asymmetrically.
    fn wire_bytes_by_dir(&self) -> (u64, u64);
    /// Number of workers this transport serves.
    fn workers(&self) -> usize;
    /// Server side: the time collects spent decoding pushes since the last
    /// call, which starts the count over. Only a transport whose pushes are
    /// encoded spends any (a sharded server's deltas, decoded inside its
    /// collect, before `consume` runs); decorators forward it.
    fn take_decode_time(&self) -> Duration {
        Duration::ZERO
    }
    /// Removes and returns the resilience events (retries, reconnects)
    /// accumulated since the last drain. The training loop forwards them to
    /// telemetry once per epoch, which also bounds the buffer. Only wire
    /// transports have any; decorators and routers forward to their inners.
    fn drain_net_events(&self) -> Vec<NetEvent> {
        Vec::new()
    }
}

/// Copies as many leading elements of `src` into `dst` as both hold.
fn copy_prefix(src: &[f32], dst: &mut [f32]) {
    let n = src.len().min(dst.len());
    dst[..n].copy_from_slice(&src[..n]);
}

// ---------------------------------------------------------------------------
// COMM: shared-memory transport
// ---------------------------------------------------------------------------

/// Wire storage at a given precision.
#[derive(Debug)]
enum WireStore {
    F32(SharedBuffer),
    F16(RwLock<Vec<u16>>),
}

impl WireStore {
    fn new(len: usize, precision: Precision) -> WireStore {
        match precision {
            Precision::Fp32 => WireStore::F32(SharedBuffer::new(len)),
            Precision::Fp16 => WireStore::F16(RwLock::new(vec![0u16; len])),
        }
    }

    fn write_f32(&self, src: &[f32]) {
        match self {
            WireStore::F32(buf) => buf.write(0, src),
            // The F16C codec, on the caller's thread.
            WireStore::F16(cells) => simd::encode_f16(src, &mut cells.write()[..src.len()]),
        }
    }

    fn read_f32(&self, dst: &mut [f32]) {
        match self {
            WireStore::F32(buf) => buf.read(0, dst),
            WireStore::F16(cells) => simd::decode_f16(&cells.read()[..dst.len()], dst),
        }
    }
}

/// The paper's COMM: one shared pull region + one push slot per worker.
/// Every transfer is a single copy into/out of shared storage, and the
/// server reads a push where the worker wrote it.
pub struct CommShared {
    precision: Precision,
    pull_region: WireStore,
    /// Elements the last publish wrote at the front of `pull_region`.
    published: AtomicUsize,
    slots: Vec<PushSlot>,
    pull_bytes: AtomicU64,
    push_bytes: AtomicU64,
}

impl CommShared {
    /// Creates a transport for `workers` workers exchanging payloads of
    /// `pull_len` / `push_len` floats at the given wire precision.
    pub fn new(workers: usize, pull_len: usize, push_len: usize, precision: Precision) -> Self {
        CommShared {
            precision,
            pull_region: WireStore::new(pull_len, precision),
            published: AtomicUsize::new(pull_len),
            slots: (0..workers).map(|_| PushSlot::new(push_len)).collect(),
            pull_bytes: AtomicU64::new(0),
            push_bytes: AtomicU64::new(0),
        }
    }

    fn wire_len(&self, elems: usize) -> u64 {
        elems as u64 * self.precision.bytes_per_element()
    }
}

impl Transport for CommShared {
    fn publish(&self, src: &[f32]) {
        self.pull_region.write_f32(src);
        // ordering: Relaxed — published before the workers that pull it are
        // started, which orders it before their loads.
        self.published.store(src.len(), Ordering::Relaxed);
        self.slots.iter().for_each(PushSlot::retire);
    }

    fn pull(&self, _worker: usize, dst: &mut [f32]) {
        // ordering: Relaxed — see `publish`.
        let n = self.published.load(Ordering::Relaxed).min(dst.len());
        let dst = &mut dst[..n];
        self.pull_region.read_f32(dst);
        // ordering: Relaxed — wire-byte statistic, reported after joins.
        self.pull_bytes
            .fetch_add(self.wire_len(dst.len()), Ordering::Relaxed);
    }

    fn push(&self, worker: usize, src: &[f32]) {
        let Ok(_) = self.slots[worker].land(None, |buf| {
            let dst = &mut buf[..src.len()];
            dst.copy_from_slice(src);
            self.precision.round(dst);
            Ok::<_, Infallible>(src.len())
        });
        // ordering: Relaxed — wire-byte statistic, reported after joins.
        self.push_bytes
            .fetch_add(self.wire_len(src.len()), Ordering::Relaxed);
    }

    fn collect_with(
        &self,
        worker: usize,
        timeout: Option<Duration>,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        self.slots[worker].collect_with(timeout, consume)
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
        self.slots.len()
    }
}

// ---------------------------------------------------------------------------
// COMM-P: message-passing transport (the ps-lite model)
// ---------------------------------------------------------------------------

/// The ps-lite-style baseline: serialize → staging → destination.
pub struct CommP {
    precision: Precision,
    /// Latest published message, shared by all workers.
    published: RwLock<Arc<Vec<u8>>>,
    /// Where each worker's message is deserialized for the server to view.
    slots: Vec<PushSlot>,
    /// Pull traffic (server → workers).
    pull_bytes: AtomicU64,
    /// Push traffic (workers → server).
    push_bytes: AtomicU64,
}

impl CommP {
    /// Creates a message-passing transport for `workers` workers pushing up
    /// to `push_len` floats.
    pub fn new(workers: usize, push_len: usize, precision: Precision) -> Self {
        CommP {
            precision,
            published: RwLock::new(Arc::new(Vec::new())),
            slots: (0..workers).map(|_| PushSlot::new(push_len)).collect(),
            pull_bytes: AtomicU64::new(0),
            push_bytes: AtomicU64::new(0),
        }
    }

    /// Element-wise serialization into a *fresh* byte vector — deliberately
    /// not a memcpy: ps-lite walks the data building protobuf-framed
    /// messages, and the per-element work plus the allocation is the
    /// overhead COMM avoids.
    fn serialize(&self, src: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(src.len() * self.precision.bytes_per_element() as usize);
        for &v in src {
            match self.precision {
                Precision::Fp32 => out.extend_from_slice(&v.to_le_bytes()),
                Precision::Fp16 => out.extend_from_slice(&fp16::f32_to_f16(v).to_le_bytes()),
            }
        }
        out
    }

    fn deserialize(&self, msg: &[u8], dst: &mut [f32]) {
        // Staging copy first (the KV-store's receive buffer), then
        // element-wise decode into the destination, as far as it holds.
        let staging: Vec<u8> = msg.to_vec();
        match self.precision {
            Precision::Fp32 => {
                for (d, b) in dst.iter_mut().zip(staging.chunks_exact(4)) {
                    *d = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                }
            }
            Precision::Fp16 => {
                for (d, b) in dst.iter_mut().zip(staging.chunks_exact(2)) {
                    *d = fp16::f16_to_f32(u16::from_le_bytes([b[0], b[1]]));
                }
            }
        }
    }
}

impl Transport for CommP {
    fn publish(&self, src: &[f32]) {
        *self.published.write() = Arc::new(self.serialize(src));
        self.slots.iter().for_each(PushSlot::retire);
    }

    fn pull(&self, _worker: usize, dst: &mut [f32]) {
        let msg = self.published.read().clone();
        // ordering: Relaxed — wire-byte statistic here and in `push`; the
        // slots/RwLock carry the actual data synchronization.
        self.pull_bytes
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        self.deserialize(&msg, dst);
    }

    fn push(&self, worker: usize, src: &[f32]) {
        let msg = self.serialize(src);
        // ordering: Relaxed — statistic (see `pull`).
        self.push_bytes
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        let Ok(_) = self.slots[worker].land(None, |buf| {
            self.deserialize(&msg, &mut buf[..src.len()]);
            Ok::<_, Infallible>(src.len())
        });
    }

    fn collect_with(
        &self,
        worker: usize,
        timeout: Option<Duration>,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        self.slots[worker].collect_with(timeout, consume)
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
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CommSocket;

    fn roundtrip(transport: &dyn Transport, workers: usize) {
        let data: Vec<f32> = (0..64).map(|j| j as f32 * 0.5).collect();
        transport.publish(&data);
        for w in 0..workers {
            let mut pulled = vec![0f32; 64];
            transport.pull(w, &mut pulled);
            assert_eq!(pulled, data, "worker {w} pull mismatch");
            let local: Vec<f32> = pulled.iter().map(|v| v + 1.0).collect();
            transport.push(w, &local);
            let mut collected = vec![0f32; 64];
            transport.collect(w, &mut collected);
            assert_eq!(collected, local, "worker {w} collect mismatch");
        }
    }

    #[test]
    fn comm_shared_fp32_roundtrip() {
        let t = CommShared::new(3, 64, 64, Precision::Fp32);
        roundtrip(&t, 3);
        assert_eq!(t.workers(), 3);
    }

    #[test]
    fn comm_p_fp32_roundtrip() {
        let t = CommP::new(3, 64, Precision::Fp32);
        roundtrip(&t, 3);
    }

    #[test]
    fn fp16_roundtrip_within_tolerance() {
        for transport in [
            Box::new(CommShared::new(1, 32, 32, Precision::Fp16)) as Box<dyn Transport>,
            Box::new(CommP::new(1, 32, Precision::Fp16)),
        ] {
            let data: Vec<f32> = (0..32).map(|j| 0.01 * j as f32 + 0.1).collect();
            transport.publish(&data);
            let mut pulled = vec![0f32; 32];
            transport.pull(0, &mut pulled);
            for (a, b) in data.iter().zip(&pulled) {
                assert!((a - b).abs() <= a.abs() / 1024.0 + 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn fp16_wire_uses_half_the_bytes() {
        for (pull_len, push_len) in [(100, 100), (100, 36)] {
            let links = |precision| -> [Box<dyn Transport>; 2] {
                [
                    Box::new(CommShared::new(1, pull_len, push_len, precision)),
                    Box::new(CommP::new(1, push_len, precision)),
                ]
            };
            for (t32, t16) in links(Precision::Fp32)
                .into_iter()
                .zip(links(Precision::Fp16))
            {
                for t in [&t32, &t16] {
                    t.publish(&vec![1.0f32; pull_len]);
                    t.pull(0, &mut vec![0f32; pull_len]);
                    t.push(0, &vec![1.0f32; push_len]);
                    t.collect(0, &mut vec![0f32; push_len]);
                }
                let want = (pull_len as u64 * 4, push_len as u64 * 4);
                assert_eq!(t32.wire_bytes_by_dir(), want);
                assert_eq!(t16.wire_bytes_by_dir(), (want.0 / 2, want.1 / 2));
            }
        }
    }

    #[test]
    fn wire_bytes_split_by_direction_sums_to_total() {
        for t in [
            Box::new(CommShared::new(2, 100, 50, Precision::Fp32)) as Box<dyn Transport>,
            Box::new(CommP::new(2, 50, Precision::Fp32)),
        ] {
            let pub_data = vec![1.0f32; 100];
            t.publish(&pub_data);
            assert_eq!(t.wire_bytes(), 0, "a publish crosses no worker link");
            let mut pulled = vec![0f32; 100];
            t.pull(0, &mut pulled);
            t.push(1, &[2.0f32; 50]);
            let mut collected = vec![0f32; 50];
            t.collect(1, &mut collected);
            let (pull, push) = t.wire_bytes_by_dir();
            assert_eq!(pull + push, t.wire_bytes());
            assert_eq!(pull, 400, "one pull, 4 bytes/elem");
            assert_eq!(push, 200, "one push, 4 bytes/elem; the collect is a view");
        }
    }

    #[test]
    fn an_epoch_over_comm_shared_copies_the_region_five_times_not_seven() {
        // What a 2-worker epoch does to the transport: 1 publish + W pulls
        // (the pull region's own counters) + W pushes, each one copy into
        // its worker's slot, + 0 collects — a collect is a view of the slot
        // (two `slot → staging` copies before the collect became a view).
        const LEN: usize = 64;
        let t = CommShared::new(2, LEN, LEN, Precision::Fp32);
        let region = vec![0.5f32; LEN];
        t.publish(&region);
        for w in 0..2 {
            let mut local = vec![0f32; LEN];
            t.pull(w, &mut local);
            t.push(w, &local);
        }
        let mut merged = 0;
        for w in 0..2 {
            let mut viewed = std::ptr::null();
            t.collect_with(w, None, &mut |pushed| {
                assert_eq!(pushed, &region[..]);
                viewed = pushed.as_ptr();
                merged += 1;
            })
            .unwrap();
            assert_eq!(viewed, t.slots[w].buffer(), "worker {w}'s collect copied");
        }
        assert_eq!(merged, 2);
        let WireStore::F32(pull_region) = &t.pull_region else {
            unreachable!("built at fp32")
        };
        let region_bytes = (LEN * 4) as u64;
        assert_eq!(pull_region.bytes_written(), region_bytes, "1 publish");
        assert_eq!(pull_region.bytes_read(), 2 * region_bytes, "2 pulls");
        // The link traffic is the four of those five that a worker made.
        assert_eq!(t.wire_bytes_by_dir(), (2 * region_bytes, 2 * region_bytes));
    }

    /// One worker's link on every base transport, `len` floats each way.
    fn base_transports(len: usize) -> Vec<(&'static str, Box<dyn Transport>)> {
        vec![
            (
                "shared",
                Box::new(CommShared::new(1, len, len, Precision::Fp32)),
            ),
            (
                "shared fp16",
                Box::new(CommShared::new(1, len, len, Precision::Fp16)),
            ),
            ("commp", Box::new(CommP::new(1, len, Precision::Fp16))),
            (
                "socket",
                Box::new(CommSocket::new(1, len, len, Precision::Fp32).unwrap()),
            ),
            (
                "tcp",
                Box::new(CommSocket::new_tcp(1, len, len, Precision::Fp32).unwrap()),
            ),
        ]
    }

    #[test]
    fn a_failed_collect_never_calls_consume() {
        for (name, t) in base_transports(4) {
            let mut calls = 0;
            let timeout = Some(Duration::from_millis(10));
            assert_eq!(
                t.collect_with(0, timeout, &mut |_| calls += 1),
                Err(CommError::Timeout),
                "{name}"
            );
            t.push(0, &[1.0, 2.0, 3.0, 4.0]);
            let mut got = Vec::new();
            t.collect_with(0, timeout, &mut |pushed| got.extend_from_slice(pushed))
                .unwrap();
            assert_eq!((calls, got), (0, vec![1.0, 2.0, 3.0, 4.0]), "{name}");
        }
    }

    #[test]
    fn a_short_push_after_a_long_one_hands_consume_exactly_the_short_one() {
        for (name, t) in base_transports(4) {
            for push in [&[1.0, 2.0, 3.0, 4.0][..], &[5.0, 6.0]] {
                t.push(0, push);
                let mut got = Vec::new();
                t.collect_with(0, None, &mut |pushed| got.extend_from_slice(pushed))
                    .unwrap();
                assert_eq!(got, push, "{name}");
            }
        }
    }

    #[test]
    fn a_short_publish_is_pulled_and_counted_exactly() {
        // A link built for 16 rows of k = 4 carries 16 rows, then 15 (a
        // band a row short of the longest): the pull delivers exactly what
        // was published, bit for bit, into the front of the worker's
        // 16-row region, and counts exactly that; a region shorter than
        // what was published takes its front. The values are exact in
        // fp16, so every wire delivers the same bits.
        const K: usize = 4;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (name, t) in base_transports(16 * K) {
            let mut counted = Vec::new();
            let mut region = Vec::new();
            for rows in [16, 15] {
                region = (0..rows * K).map(|j| (j as f32 - 30.0) * 0.25).collect();
                region[1] = -0.0;
                t.publish(&region);
                let mut pulled = vec![-1.0f32; 16 * K];
                t.pull(0, &mut pulled);
                let (got, rest) = pulled.split_at(rows * K);
                assert_eq!(bits(got), bits(&region), "{name}, {rows} rows");
                assert!(rest.iter().all(|&v| v == -1.0), "{name}");
                counted.push(t.wire_bytes_by_dir().0);
            }
            // The 15-row pull counts 15/16 of the 16-row one.
            assert_eq!((counted[1] - counted[0]) * 16, counted[0] * 15, "{name}");
            let mut front = vec![0f32; 8 * K];
            t.pull(0, &mut front);
            assert_eq!(bits(&front), bits(&region[..8 * K]), "{name}");
        }
    }

    #[test]
    fn every_fp32_link_carries_every_bit_pattern() {
        // A sharded server's deltas ride these links as f32 bit
        // patterns, so a link that quietened a signalling NaN, or
        // canonicalised any NaN payload, would corrupt a push silently.
        // Every NaN class (signalling and quiet, both signs, lowest and
        // highest payload), -0.0, the subnormals' ends and all ones are
        // published, pulled, pushed and collected bit for bit; the chaos
        // link duplicates each push on the wire (the socket dedups it).
        let patterns = [
            0x7f80_0001u32,
            0x7fbf_ffff,
            0xff80_0001,
            0xffbf_ffff, // signalling NaNs
            0x7fc0_0000,
            0x7fc0_0001,
            0x7fff_ffff,
            0xffc0_0000,
            0xffff_ffff, // quiet NaNs
            0x8000_0000,
            0x0000_0001,
            0x007f_ffff,
            0x8000_0001,
            0x807f_ffff, // -0.0, subnormals
            0x7f80_0000,
            0xff80_0000,
            0x3f80_0000, // infinities, 1.0
        ]
        .map(f32::from_bits);
        let len = patterns.len();
        let mut duplicating = crate::FaultPlan::new(1);
        duplicating.duplicate_rate = 1.0;
        let socket = Arc::new(CommSocket::new(1, len, len, Precision::Fp32).unwrap());
        let chaos = crate::ChaosTransport::new(socket.clone(), duplicating, 0);
        let links: [(&str, &dyn Transport); 4] = [
            ("shared", &CommShared::new(1, len, len, Precision::Fp32)),
            (
                "socket",
                &CommSocket::new(1, len, len, Precision::Fp32).unwrap(),
            ),
            (
                "tcp",
                &CommSocket::new_tcp(1, len, len, Precision::Fp32).unwrap(),
            ),
            ("chaos duplicating over socket", &chaos),
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (name, t) in links {
            t.publish(&patterns);
            let mut pulled = vec![0f32; len];
            t.pull(0, &mut pulled);
            assert_eq!(bits(&pulled), bits(&patterns), "{name}: pull");
            t.push(0, &patterns);
            let mut collected = vec![0f32; len];
            t.collect_timeout(0, &mut collected, Duration::from_secs(5))
                .unwrap();
            assert_eq!(bits(&collected), bits(&patterns), "{name}: push");
        }
        assert_eq!(chaos.stats().duplicated, 1);
        assert_eq!(socket.net_stats().dedup_hits, 1);
    }

    #[test]
    fn a_push_nobody_collected_is_retired_by_the_next_publish() {
        for (name, t) in base_transports(4) {
            t.publish(&[0.0; 4]);
            t.push(0, &[1.0; 4]);
            t.publish(&[0.0; 4]);
            let mut calls = 0;
            assert_eq!(
                t.collect_with(0, Some(Duration::from_millis(20)), &mut |_| calls += 1),
                Err(CommError::Timeout),
                "{name}: last epoch's push was handed out"
            );
            assert_eq!(calls, 0, "{name}");
            // The next epoch's push is collected as usual.
            t.push(0, &[2.0; 4]);
            let mut dst = [0f32; 4];
            t.collect_timeout(0, &mut dst, Duration::from_secs(1))
                .unwrap();
            assert_eq!(dst, [2.0; 4], "{name}");
        }
    }

    #[test]
    fn collect_blocks_until_push() {
        let t = Arc::new(CommShared::new(1, 4, 4, Precision::Fp32));
        let t2 = t.clone();
        let handle = std::thread::spawn(move || {
            let mut dst = vec![0f32; 4];
            t2.collect(0, &mut dst);
            dst
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.push(0, &[7.0, 8.0, 9.0, 10.0]);
        let got = handle.join().unwrap();
        assert_eq!(got, vec![7.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn collect_timeout_times_out_without_push() {
        let shared = CommShared::new(1, 4, 4, Precision::Fp32);
        let mut dst = vec![0f32; 4];
        assert_eq!(
            shared.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
        let p = CommP::new(1, 4, Precision::Fp32);
        assert_eq!(
            p.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
    }

    #[test]
    fn collect_timeout_returns_pushed_data() {
        for t in [
            Box::new(CommShared::new(1, 4, 4, Precision::Fp32)) as Box<dyn Transport>,
            Box::new(CommP::new(1, 4, Precision::Fp32)),
        ] {
            t.push(0, &[1.0, 2.0, 3.0, 4.0]);
            let mut dst = vec![0f32; 4];
            t.collect_timeout(0, &mut dst, Duration::from_millis(100))
                .unwrap();
            assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0]);
        }
    }

    #[test]
    fn collect_timeout_sees_late_push() {
        let t = Arc::new(CommShared::new(1, 4, 4, Precision::Fp32));
        let t2 = t.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            t2.push(0, &[5.0; 4]);
        });
        let mut dst = vec![0f32; 4];
        t.collect_timeout(0, &mut dst, Duration::from_secs(5))
            .unwrap();
        assert_eq!(dst, vec![5.0; 4]);
        handle.join().unwrap();
    }

    #[test]
    fn concurrent_pulls_see_published_data() {
        let t = Arc::new(CommShared::new(4, 16, 16, Precision::Fp32));
        let data: Vec<f32> = (0..16).map(|j| j as f32).collect();
        t.publish(&data);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let t = t.clone();
                let data = data.clone();
                scope.spawn(move || {
                    let mut dst = vec![0f32; 16];
                    t.pull(w, &mut dst);
                    assert_eq!(dst, data);
                });
            }
        });
    }
}
