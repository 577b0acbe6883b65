//! Server↔worker transports.
//!
//! [`CommShared`] is the paper's COMM: a single shared *pull region* the
//! server publishes the global feature matrix into (every worker reads it
//! directly — one copy per direction), and one *push buffer* per worker the
//! server collects from. [`CommP`] is the comparison implementation the
//! paper builds on ps-lite ("COMM-P"): every message is serialized into a
//! fresh byte buffer, crosses a channel, and is deserialized through a
//! staging copy on the far side — the extra copies and temporary allocations
//! are exactly what Table 5 blames for its ~6–7× slower transfers.
//!
//! Both transports speak f32 payloads at the API and optionally compress to
//! FP16 on the wire ([`Precision::Fp16`]), so the Table 5 grid
//! {P&Q, Q, half-Q} × {COMM, COMM-P} is expressible.
//!
//! **Wire bytes are defined once, on [`Transport::wire_bytes_by_dir`], and
//! mean the same on every transport**: the payload bytes worker links
//! carried. **A collect is a view**: [`Transport::collect_with`] hands the
//! server a push where it landed, and `collect`/`collect_timeout` are
//! wrappers that copy out of that view.

use crate::buffer::SharedBuffer;
use crate::socket::NetEvent;
use hcc_sgd::fp16;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transport-level failures surfaced to the supervisor instead of blocking
/// forever or panicking. `Timeout` and `Corrupt` are retryable (the peer
/// may be a straggler, the frame may arrive clean next time);
/// `Disconnected` and `PartitionedLink` are fatal for that peer,
/// `Abandoned` for its push until the next publish.
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
    /// A sharded collect that stopped between shards was overtaken by
    /// another worker's, which rebuilt its push in the server's one
    /// reconstruction region: this worker's push is lost until the next
    /// publish. No point retrying within the epoch either.
    Abandoned,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout => write!(f, "transport wait timed out"),
            CommError::Disconnected => write!(f, "transport peer disconnected"),
            CommError::Corrupt => write!(f, "transport frame failed integrity check"),
            CommError::PartitionedLink => write!(f, "transport link partitioned"),
            CommError::Abandoned => write!(f, "partially collected push abandoned"),
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
}

/// A bidirectional server↔worker transport.
pub trait Transport: Send + Sync {
    /// Server side: publish the shared feature data for workers to pull.
    fn publish(&self, src: &[f32]);
    /// Worker side: read the published data into `dst`. A pull that fails
    /// (on a wire, after its retries) leaves `dst` unspecified — stale, or
    /// partly the new snapshot, as a chaos partition already does; `dst`
    /// is the worker's own region, dead until a pull succeeds.
    fn pull(&self, worker: usize, dst: &mut [f32]);
    /// Worker side: submit this worker's updated data.
    fn push(&self, worker: usize, src: &[f32]);
    /// Worker side: deliver a *wire-level duplicate* of this worker's most
    /// recent push (what a retransmitting network does when the original
    /// also arrived). Framed transports resend under the same sequence
    /// number so the server's idempotency dedup is exercised; for
    /// shared-memory transports a duplicate of an in-place buffer write is
    /// indistinguishable from the original, so the default is a no-op.
    fn push_duplicate(&self, worker: usize, src: &[f32]) {
        let _ = (worker, src);
    }
    /// Server side: waits for worker `worker`'s next push — for ever when
    /// `timeout` is `None` — and hands it to `consume` *where it landed*: a
    /// view of the push buffer or slot, or of the transport's own decode
    /// buffer when the wire is not f32. The one collect every transport
    /// implements. `consume` runs exactly once on `Ok` and not at all on
    /// `Err`; it may hold a lock the next push to that worker's buffer
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
    /// are the 24 header and trailer bytes of a frame. An epoch in which
    /// `W` workers each pull and push the region once therefore reads
    /// `(W·pull_len·bpe, W·push_len·bpe)` — the paper's Table 5 quantity —
    /// and fp16 reads exactly half of fp32. (A sharded server's pushes are
    /// row deltas: it counts the delta elements it shipped.) Telemetry
    /// records the two directions separately because the communication
    /// strategies (Q-only, half-Q, FP16) trade them off asymmetrically.
    fn wire_bytes_by_dir(&self) -> (u64, u64);
    /// Number of workers this transport serves.
    fn workers(&self) -> usize;
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

/// The one wait of a collect: sleeps on `cv` until `ready` holds for the
/// value behind `guard` — for ever, or until `timeout` has passed.
pub(crate) fn wait_ready<T>(
    cv: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    timeout: Option<Duration>,
    ready: impl Fn(&T) -> bool,
) -> Result<(), CommError> {
    let deadline = timeout.map(|t| Instant::now() + t);
    while !ready(guard) {
        let Some(deadline) = deadline else {
            cv.wait(guard);
            continue;
        };
        let now = Instant::now();
        if now >= deadline {
            return Err(CommError::Timeout);
        }
        // Spurious wakeups re-enter the loop with the original deadline.
        cv.wait_for(guard, deadline - now);
    }
    Ok(())
}

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
            WireStore::F16(cells) => fp16::encode_slice(src, &mut cells.write()[..src.len()]),
        }
    }

    fn read_f32(&self, dst: &mut [f32]) {
        match self {
            WireStore::F32(buf) => buf.read(0, dst),
            WireStore::F16(cells) => fp16::decode_slice(&cells.read()[..dst.len()], dst),
        }
    }
}

/// The paper's COMM: one shared pull region + one push buffer per worker.
/// Every transfer is a single copy into/out of shared storage, and the
/// server reads a push where the worker wrote it.
pub struct CommShared {
    precision: Precision,
    pull_region: WireStore,
    push_buffers: Vec<WireStore>,
    /// One-shot signals that a worker's push landed (server may collect).
    push_ready: Vec<(Mutex<bool>, Condvar)>,
    /// Where an fp16 push is widened for the server to view; empty at fp32,
    /// whose push buffers are viewed in place.
    decoded: Mutex<Vec<f32>>,
    pull_bytes: AtomicU64,
    push_bytes: AtomicU64,
}

impl CommShared {
    /// Creates a transport for `workers` workers exchanging payloads of
    /// `pull_len` / `push_len` floats at the given wire precision.
    pub fn new(workers: usize, pull_len: usize, push_len: usize, precision: Precision) -> Self {
        let decoded = match precision {
            Precision::Fp32 => 0,
            Precision::Fp16 => push_len,
        };
        CommShared {
            precision,
            pull_region: WireStore::new(pull_len, precision),
            push_buffers: (0..workers)
                .map(|_| WireStore::new(push_len, precision))
                .collect(),
            push_ready: (0..workers)
                .map(|_| (Mutex::new(false), Condvar::new()))
                .collect(),
            decoded: Mutex::new(vec![0f32; decoded]),
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
    }

    fn pull(&self, _worker: usize, dst: &mut [f32]) {
        self.pull_region.read_f32(dst);
        // ordering: Relaxed — wire-byte statistic, reported after joins.
        self.pull_bytes
            .fetch_add(self.wire_len(dst.len()), Ordering::Relaxed);
    }

    fn push(&self, worker: usize, src: &[f32]) {
        self.push_buffers[worker].write_f32(src);
        // ordering: Relaxed — wire-byte statistic, reported after joins.
        self.push_bytes
            .fetch_add(self.wire_len(src.len()), Ordering::Relaxed);
        let (lock, cv) = &self.push_ready[worker];
        *lock.lock() = true;
        cv.notify_all();
    }

    fn collect_with(
        &self,
        worker: usize,
        timeout: Option<Duration>,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        let (lock, cv) = &self.push_ready[worker];
        let mut ready = lock.lock();
        wait_ready(cv, &mut ready, timeout, |ready| *ready)?;
        *ready = false;
        drop(ready);
        match &self.push_buffers[worker] {
            WireStore::F32(buf) => buf.with_read(|pushed| consume(pushed)),
            store @ WireStore::F16(_) => {
                let mut decoded = self.decoded.lock();
                store.read_f32(&mut decoded);
                consume(&decoded);
            }
        }
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
        self.push_buffers.len()
    }
}

// ---------------------------------------------------------------------------
// COMM-P: message-passing transport (the ps-lite model)
// ---------------------------------------------------------------------------

/// The ps-lite-style baseline: serialize → channel → staging → destination.
pub struct CommP {
    precision: Precision,
    /// Latest published message, shared by all workers.
    published: RwLock<Arc<Vec<u8>>>,
    /// Per-worker push channels.
    senders: Vec<Sender<Vec<u8>>>,
    receivers: Vec<Mutex<Receiver<Vec<u8>>>>,
    /// Where a collected message is deserialized for the server to view.
    decoded: Mutex<Vec<f32>>,
    /// Pull traffic (server → workers).
    pull_bytes: AtomicU64,
    /// Push traffic (workers → server).
    push_bytes: AtomicU64,
}

impl CommP {
    /// Creates a message-passing transport for `workers` workers.
    pub fn new(workers: usize, precision: Precision) -> Self {
        let mut senders = Vec::with_capacity(workers);
        let mut receivers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(Mutex::new(rx));
        }
        CommP {
            precision,
            published: RwLock::new(Arc::new(Vec::new())),
            senders,
            receivers,
            decoded: Mutex::new(Vec::new()),
            pull_bytes: AtomicU64::new(0),
            push_bytes: AtomicU64::new(0),
        }
    }

    /// Element-wise serialization into a *fresh* byte vector — deliberately
    /// not a memcpy: ps-lite walks the data building protobuf-framed
    /// messages, and the per-element work plus the allocation is the
    /// overhead COMM avoids.
    fn serialize(&self, src: &[f32]) -> Vec<u8> {
        match self.precision {
            Precision::Fp32 => {
                let mut out = Vec::with_capacity(src.len() * 4);
                for &v in src {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out
            }
            Precision::Fp16 => {
                let mut out = Vec::with_capacity(src.len() * 2);
                for &v in src {
                    out.extend_from_slice(&fp16::f32_to_f16(v).to_le_bytes());
                }
                out
            }
        }
    }

    fn deserialize(&self, msg: &[u8], dst: &mut [f32]) {
        match self.precision {
            Precision::Fp32 => {
                // Staging copy first (the KV-store's receive buffer), then
                // element-wise decode into the destination.
                let staging: Vec<u8> = msg.to_vec();
                for (j, chunk) in staging.chunks_exact(4).enumerate() {
                    dst[j] = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                }
            }
            Precision::Fp16 => {
                let staging: Vec<u8> = msg.to_vec();
                for (j, chunk) in staging.chunks_exact(2).enumerate() {
                    dst[j] = fp16::f16_to_f32(u16::from_le_bytes([chunk[0], chunk[1]]));
                }
            }
        }
    }
}

impl Transport for CommP {
    fn publish(&self, src: &[f32]) {
        *self.published.write() = Arc::new(self.serialize(src));
    }

    fn pull(&self, _worker: usize, dst: &mut [f32]) {
        let msg = self.published.read().clone();
        // ordering: Relaxed — wire-byte statistic here and in `push`; the
        // channels/RwLock carry the actual data synchronization.
        self.pull_bytes
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        self.deserialize(&msg, dst);
    }

    fn push(&self, worker: usize, src: &[f32]) {
        let msg = self.serialize(src);
        // ordering: Relaxed — statistic (see `pull`).
        self.push_bytes
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        // The receiver lives in `self`, so the channel cannot disconnect
        // while `&self` is borrowed: this send cannot fail.
        let _ = self.senders[worker].send(msg);
    }

    fn collect_with(
        &self,
        worker: usize,
        timeout: Option<Duration>,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        let receiver = self.receivers[worker].lock();
        let msg = match timeout {
            None => receiver.recv().map_err(|_| CommError::Disconnected)?,
            Some(timeout) => receiver.recv_timeout(timeout).map_err(|err| match err {
                RecvTimeoutError::Timeout => CommError::Timeout,
                RecvTimeoutError::Disconnected => CommError::Disconnected,
            })?,
        };
        drop(receiver);
        let mut decoded = self.decoded.lock();
        decoded.resize(msg.len() / self.precision.bytes_per_element() as usize, 0.0);
        self.deserialize(&msg, &mut decoded);
        consume(&decoded);
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
        self.senders.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let t = CommP::new(3, Precision::Fp32);
        roundtrip(&t, 3);
    }

    #[test]
    fn fp16_roundtrip_within_tolerance() {
        for transport in [
            Box::new(CommShared::new(1, 32, 32, Precision::Fp16)) as Box<dyn Transport>,
            Box::new(CommP::new(1, Precision::Fp16)),
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
                    Box::new(CommP::new(1, precision)),
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
            Box::new(CommP::new(2, Precision::Fp32)),
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
        // What a 2-worker epoch does to the transport. The physical copies
        // are `SharedBuffer`'s own counters: 1 publish + W pulls + W pushes
        // + 0 collects (two `slot → staging` copies before this test).
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
            t.collect_with(w, None, &mut |pushed| {
                assert_eq!(pushed, &region[..]);
                merged += 1;
            })
            .unwrap();
        }
        assert_eq!(merged, 2);
        let (written, read) = std::iter::once(&t.pull_region)
            .chain(&t.push_buffers)
            .map(|store| match store {
                WireStore::F32(buf) => (buf.bytes_written(), buf.bytes_read()),
                WireStore::F16(_) => unreachable!("built at fp32"),
            })
            .fold((0, 0), |(w, r), (dw, dr)| (w + dw, r + dr));
        let region_bytes = (LEN * 4) as u64;
        assert_eq!(written, 3 * region_bytes, "1 publish + 2 pushes");
        assert_eq!(read, 2 * region_bytes, "2 pulls + 0 collects");
        // The link traffic is the four of those five that a worker made.
        assert_eq!(t.wire_bytes_by_dir(), (2 * region_bytes, 2 * region_bytes));
    }

    #[test]
    fn a_failed_collect_never_calls_consume() {
        let shared = CommShared::new(1, 4, 4, Precision::Fp32);
        let p = CommP::new(1, Precision::Fp16);
        for t in [&shared as &dyn Transport, &p] {
            let mut calls = 0;
            let timeout = Some(Duration::from_millis(10));
            assert_eq!(
                t.collect_with(0, timeout, &mut |_| calls += 1),
                Err(CommError::Timeout)
            );
            t.push(0, &[1.0, 2.0, 3.0, 4.0]);
            let mut got = Vec::new();
            t.collect_with(0, timeout, &mut |pushed| got.extend_from_slice(pushed))
                .unwrap();
            assert_eq!((calls, got), (0, vec![1.0, 2.0, 3.0, 4.0]));
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
        let p = CommP::new(1, Precision::Fp32);
        assert_eq!(
            p.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
    }

    #[test]
    fn collect_timeout_returns_pushed_data() {
        for t in [
            Box::new(CommShared::new(1, 4, 4, Precision::Fp32)) as Box<dyn Transport>,
            Box::new(CommP::new(1, Precision::Fp32)),
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
    fn comm_p_queues_multiple_pushes() {
        let t = CommP::new(1, Precision::Fp32);
        t.push(0, &[1.0]);
        t.push(0, &[2.0]);
        let mut dst = vec![0f32; 1];
        t.collect(0, &mut dst);
        assert_eq!(dst, vec![1.0]);
        t.collect(0, &mut dst);
        assert_eq!(dst, vec![2.0]);
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
