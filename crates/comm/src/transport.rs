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

use crate::buffer::SharedBuffer;
use crate::socket::NetEvent;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use hcc_sgd::fp16;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
}

/// A bidirectional server↔worker transport.
pub trait Transport: Send + Sync {
    /// Server side: publish the shared feature data for workers to pull.
    fn publish(&self, src: &[f32]);
    /// Worker side: read the published data into `dst`.
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
    /// Server side: obtain worker `worker`'s most recent push into `dst`.
    /// Blocks until a push is available.
    fn collect(&self, worker: usize, dst: &mut [f32]);
    /// Like [`collect`](Transport::collect) but gives up after `timeout`,
    /// letting a supervisor distinguish a dead worker from a slow one.
    fn collect_timeout(
        &self,
        worker: usize,
        dst: &mut [f32],
        timeout: Duration,
    ) -> Result<(), CommError>;
    /// Total bytes that crossed the wire so far.
    fn wire_bytes(&self) -> u64 {
        let (pull, push) = self.wire_bytes_by_dir();
        pull + push
    }
    /// Wire bytes split by direction as `(pull, push)`: publish/pull
    /// traffic (server → workers) vs push/collect traffic (workers →
    /// server). Sums to [`wire_bytes`](Transport::wire_bytes); telemetry
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

// ---------------------------------------------------------------------------
// COMM: shared-memory transport
// ---------------------------------------------------------------------------

/// Wire storage at a given precision with byte accounting.
#[derive(Debug)]
enum WireStore {
    F32(SharedBuffer),
    F16(RwLock<Vec<u16>>),
}

#[derive(Debug)]
struct WireBuffer {
    store: WireStore,
    bytes: AtomicU64,
}

impl WireBuffer {
    fn new(len: usize, precision: Precision) -> WireBuffer {
        let store = match precision {
            Precision::Fp32 => WireStore::F32(SharedBuffer::new(len)),
            Precision::Fp16 => WireStore::F16(RwLock::new(vec![0u16; len])),
        };
        WireBuffer {
            store,
            bytes: AtomicU64::new(0),
        }
    }

    fn write_f32(&self, src: &[f32]) {
        match &self.store {
            WireStore::F32(buf) => buf.write(0, src),
            WireStore::F16(cells) => {
                // Large payloads use the rayon codec — the paper's
                // multi-threaded AVX conversion analog.
                let mut guard = cells.write();
                let dst = &mut guard[..src.len()];
                if src.len() >= 1 << 16 {
                    fp16::encode_parallel(src, dst);
                } else {
                    fp16::encode_slice(src, dst);
                }
            }
        }
        self.bytes.fetch_add(
            src.len() as u64 * self.precision().bytes_per_element(),
            Ordering::Relaxed,
        );
    }

    fn read_f32(&self, dst: &mut [f32]) {
        match &self.store {
            WireStore::F32(buf) => buf.read(0, dst),
            WireStore::F16(cells) => {
                let guard = cells.read();
                let src = &guard[..dst.len()];
                if dst.len() >= 1 << 16 {
                    fp16::decode_parallel(src, dst);
                } else {
                    fp16::decode_slice(src, dst);
                }
            }
        }
        self.bytes.fetch_add(
            dst.len() as u64 * self.precision().bytes_per_element(),
            Ordering::Relaxed,
        );
    }

    fn precision(&self) -> Precision {
        match &self.store {
            WireStore::F32(_) => Precision::Fp32,
            WireStore::F16(_) => Precision::Fp16,
        }
    }

    fn bytes(&self) -> u64 {
        // ordering: Relaxed — wire-byte statistic, reported after joins.
        self.bytes.load(Ordering::Relaxed)
    }
}

/// The paper's COMM: one shared pull region + one push buffer per worker.
/// Every transfer is a single copy into/out of shared storage.
pub struct CommShared {
    pull_region: WireBuffer,
    push_buffers: Vec<WireBuffer>,
    /// One-shot signals that a worker's push landed (server may collect).
    push_ready: Vec<(Mutex<bool>, parking_lot::Condvar)>,
}

impl CommShared {
    /// Creates a transport for `workers` workers exchanging payloads of
    /// `pull_len` / `push_len` floats at the given wire precision.
    pub fn new(workers: usize, pull_len: usize, push_len: usize, precision: Precision) -> Self {
        CommShared {
            pull_region: WireBuffer::new(pull_len, precision),
            push_buffers: (0..workers)
                .map(|_| WireBuffer::new(push_len, precision))
                .collect(),
            push_ready: (0..workers)
                .map(|_| (Mutex::new(false), parking_lot::Condvar::new()))
                .collect(),
        }
    }
}

impl Transport for CommShared {
    fn publish(&self, src: &[f32]) {
        self.pull_region.write_f32(src);
    }

    fn pull(&self, _worker: usize, dst: &mut [f32]) {
        self.pull_region.read_f32(dst);
    }

    fn push(&self, worker: usize, src: &[f32]) {
        self.push_buffers[worker].write_f32(src);
        let (lock, cv) = &self.push_ready[worker];
        *lock.lock() = true;
        cv.notify_all();
    }

    fn collect(&self, worker: usize, dst: &mut [f32]) {
        let (lock, cv) = &self.push_ready[worker];
        let mut ready = lock.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        *ready = false;
        drop(ready);
        self.push_buffers[worker].read_f32(dst);
    }

    fn collect_timeout(
        &self,
        worker: usize,
        dst: &mut [f32],
        timeout: Duration,
    ) -> Result<(), CommError> {
        let (lock, cv) = &self.push_ready[worker];
        let deadline = Instant::now() + timeout;
        let mut ready = lock.lock();
        while !*ready {
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout);
            }
            // Spurious wakeups re-enter the loop with the original deadline.
            cv.wait_for(&mut ready, deadline - now);
        }
        *ready = false;
        drop(ready);
        self.push_buffers[worker].read_f32(dst);
        Ok(())
    }

    fn wire_bytes_by_dir(&self) -> (u64, u64) {
        (
            self.pull_region.bytes(),
            self.push_buffers.iter().map(WireBuffer::bytes).sum(),
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
    /// Publish/pull traffic (server → workers).
    pull_bytes: AtomicU64,
    /// Push/collect traffic (workers → server).
    push_bytes: AtomicU64,
}

impl CommP {
    /// Creates a message-passing transport for `workers` workers.
    pub fn new(workers: usize, precision: Precision) -> Self {
        let mut senders = Vec::with_capacity(workers);
        let mut receivers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Mutex::new(rx));
        }
        CommP {
            precision,
            published: RwLock::new(Arc::new(Vec::new())),
            senders,
            receivers,
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
        let msg = self.serialize(src);
        // ordering: Relaxed — wire-byte statistics on every path below;
        // the channels/RwLock carry the actual data synchronization.
        self.pull_bytes
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        *self.published.write() = Arc::new(msg);
    }

    fn pull(&self, _worker: usize, dst: &mut [f32]) {
        let msg = self.published.read().clone();
        // ordering: Relaxed — statistic (see `publish`).
        self.pull_bytes
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        self.deserialize(&msg, dst);
    }

    fn push(&self, worker: usize, src: &[f32]) {
        let msg = self.serialize(src);
        // ordering: Relaxed — statistic (see `publish`).
        self.push_bytes
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        self.senders[worker]
            .send(msg)
            .expect("server receiver dropped");
    }

    fn collect(&self, worker: usize, dst: &mut [f32]) {
        let msg = self.receivers[worker]
            .lock()
            .recv()
            .expect("worker sender dropped");
        // ordering: Relaxed — statistic (see `publish`).
        self.push_bytes
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        self.deserialize(&msg, dst);
    }

    fn collect_timeout(
        &self,
        worker: usize,
        dst: &mut [f32],
        timeout: Duration,
    ) -> Result<(), CommError> {
        let msg = match self.receivers[worker].lock().recv_timeout(timeout) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => return Err(CommError::Timeout),
            Err(RecvTimeoutError::Disconnected) => return Err(CommError::Disconnected),
        };
        // ordering: Relaxed — statistic (see `publish`).
        self.push_bytes
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        self.deserialize(&msg, dst);
        Ok(())
    }

    fn wire_bytes_by_dir(&self) -> (u64, u64) {
        // ordering: Relaxed — statistics read for end-of-run reports.
        (
            self.pull_bytes.load(Ordering::Relaxed),
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
        let t32 = CommShared::new(1, 100, 100, Precision::Fp32);
        let t16 = CommShared::new(1, 100, 100, Precision::Fp16);
        let data = vec![1.0f32; 100];
        t32.publish(&data);
        t16.publish(&data);
        assert_eq!(t32.wire_bytes(), 400);
        assert_eq!(t16.wire_bytes(), 200);
    }

    #[test]
    fn wire_bytes_split_by_direction_sums_to_total() {
        for t in [
            Box::new(CommShared::new(2, 100, 50, Precision::Fp32)) as Box<dyn Transport>,
            Box::new(CommP::new(2, Precision::Fp32)),
        ] {
            let pub_data = vec![1.0f32; 100];
            t.publish(&pub_data);
            let mut pulled = vec![0f32; 100];
            t.pull(0, &mut pulled);
            t.push(1, &[2.0f32; 50]);
            let mut collected = vec![0f32; 50];
            t.collect(1, &mut collected);
            let (pull, push) = t.wire_bytes_by_dir();
            assert_eq!(pull + push, t.wire_bytes());
            assert_eq!(pull, 800, "publish + one pull, 4 bytes/elem");
            assert_eq!(push, 400, "push + collect, 4 bytes/elem");
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
