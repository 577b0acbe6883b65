//! `CommSocket`: the [`Transport`] trait over a real socket.
//!
//! The shared-memory transports assume server and workers share an address
//! space; this one speaks the [`crate::frame`] RPC protocol over a real
//! socket — a Unix domain socket by default ([`CommSocket::new`]) or a
//! loopback TCP listener ([`CommSocket::new_tcp`]), the multi-node wire.
//! Both speak the same `HCF1` frames through the same deadline / retry /
//! reconnect / dedup machinery; the only difference is how the stream is
//! dialed.
//!
//! Resilience model:
//!
//! * **Deadlines** — every RPC sets a read/write timeout on the stream; a
//!   silent peer costs at most `SocketConfig::rpc_timeout` per attempt.
//! * **Bounded retries** — an RPC that times out or draws a corrupt
//!   response is re-sent up to `rpc_retries` times; resent bytes are
//!   accounted as retransmissions.
//! * **Reconnect with jittered backoff** — a broken stream is re-dialed
//!   through a seeded [`Backoff`]; exhausting the attempt budget marks the
//!   link partitioned.
//! * **Idempotent pushes** — each push carries a per-worker sequence
//!   number in the frame's `epoch` field; the server applies a given
//!   `(worker, seq, chunk)` key at most once, so a retry whose original
//!   did land never double-applies. Duplicates are still acknowledged
//!   (the ack, not the apply, is what the retry needs).
//!
//! Failures degrade instead of propagating: a push that cannot be
//! delivered is dropped after the retry budget, and the supervisor sees it
//! as a missing collect — the same path a crashed worker takes.
//!
//! **Ownership rule: an RPC allocates nothing, and a frame lands where it
//! is going.** The published region, the push slots and one [`BLOCK`] per
//! worker at each end of the link (capped at the link's largest frame) are
//! allocated by the constructor, on the thread that builds the endpoint,
//! and live as long as it; a region whose frame would be over
//! [`MAX_PAYLOAD_BYTES`](crate::frame::MAX_PAYLOAD_BYTES) is refused there,
//! before anything is allocated.
//! Every frame, in either direction, streams through its worker's block by
//! [`crate::block`]'s rules, so a frame is decoded *before* its CRC
//! verdict, and each destination is one where a rejected frame is
//! harmless:
//!
//! * **Pull reply → the caller's `dst`.** The worker's region is dead until
//!   the reply is accepted: a pull that fails (after its retries) leaves it
//!   unspecified — stale, or partly the new snapshot — as a chaos partition
//!   already does, and the worker's stale push is the supervisor's to judge.
//! * **Push → its worker's slot, under the landing rule.** If the header's
//!   `(seq, chunk)` is the slot's `last_applied`, the body is only checked
//!   through the block, then dedup-acked or nacked: the slot is never
//!   touched. Otherwise the slot's buffer is taken out under the slot's
//!   lock (`mem::take`, no allocation) with `ready = false`, filled with the
//!   lock released, and put back; `len`, `ready` and `last_applied` are set
//!   only once the CRC has passed. No collect can view a half-landed push,
//!   and a stalled peer holds no lock a `collect_with` deadline needs.
//!
//! The one behaviour this changes against a receive that checked a whole
//! frame before decoding it: a push that fails its CRC *after it started
//! landing* costs the unconsumed push it displaced (the slot is not ready
//! and its bytes are partly the rejected frame's). The sender retries the
//! new push; the displaced one degrades to a dropped push — the path a
//! push that exhausts its retries already takes. A push longer than the
//! slot is refused before its body is read, and the connection dropped.
//!
//! The server streams a pull reply out of the published region under its
//! read guard, so a `publish` can wait behind a pull in flight — for at
//! most one `rpc_timeout`, the write deadline every accepted connection
//! carries.

use crate::backoff::Backoff;
use crate::block::{BLOCK, TRAILER_LEN};
use crate::frame::{
    frame_len, payload_bytes, read_header, write_frame, FrameError, Header, Incoming, RpcKind,
    HEADER_LEN,
};
use crate::transport::{wait_ready, CommError, Precision, Transport};
use parking_lot::{Condvar, Mutex, RwLock};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where a [`CommSocket`] listens: a Unix socket path or a TCP address.
#[derive(Debug, Clone)]
enum SockAddr {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

/// A listener over either socket family.
enum SockListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl SockListener {
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            SockListener::Unix(l) => l.set_nonblocking(nonblocking),
            SockListener::Tcp(l) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> std::io::Result<SockStream> {
        match self {
            SockListener::Unix(l) => l.accept().map(|(s, _)| SockStream::Unix(s)),
            SockListener::Tcp(l) => l.accept().and_then(|(s, _)| SockStream::tcp(s)),
        }
    }
}

/// A connected stream over either socket family. Both std types expose the
/// same blocking/timeout surface, so the RPC machinery is family-blind.
enum SockStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl SockStream {
    fn connect(addr: &SockAddr) -> std::io::Result<SockStream> {
        match addr {
            SockAddr::Unix(path) => UnixStream::connect(path).map(SockStream::Unix),
            SockAddr::Tcp(sa) => TcpStream::connect(sa).and_then(SockStream::tcp),
        }
    }

    /// Either end of a TCP link. Request/response RPCs are latency-bound:
    /// never batch the small frames — the dialing side's requests, the
    /// accepting side's 24-byte acks and the tail segment of a pull reply —
    /// behind Nagle.
    fn tcp(stream: TcpStream) -> std::io::Result<SockStream> {
        stream.set_nodelay(true)?;
        Ok(SockStream::Tcp(stream))
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            SockStream::Unix(s) => s.set_nonblocking(nonblocking),
            SockStream::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            SockStream::Unix(s) => s.set_read_timeout(t),
            SockStream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            SockStream::Unix(s) => s.set_write_timeout(t),
            SockStream::Tcp(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for SockStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SockStream::Unix(s) => s.read(buf),
            SockStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for SockStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SockStream::Unix(s) => s.write(buf),
            SockStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SockStream::Unix(s) => s.flush(),
            SockStream::Tcp(s) => s.flush(),
        }
    }
}

/// Push acknowledged and applied (or deduplicated).
const STATUS_OK: u32 = 0;
/// Push arrived but failed its integrity check: sender must retry.
const STATUS_CORRUPT: u32 = 1;

/// Monotonic counter so concurrent transports in one process get distinct
/// socket paths.
static SOCKET_ID: AtomicU64 = AtomicU64::new(0);

/// Tuning knobs for [`CommSocket`]'s resilience machinery.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Per-attempt RPC deadline (read and write).
    pub rpc_timeout: Duration,
    /// How many times one RPC may be attempted before giving up.
    pub rpc_retries: usize,
    /// How many re-dials a broken stream gets before the link counts as
    /// partitioned.
    pub reconnect_attempts: usize,
    /// First reconnect/retry delay.
    pub backoff_initial: Duration,
    /// Exponential growth factor for the backoff ladder.
    pub backoff_factor: f64,
    /// Jitter fraction (±) applied to every backoff delay.
    pub backoff_jitter: f64,
    /// Upper bound on any single backoff delay.
    pub backoff_max: Duration,
    /// Seed for the deterministic jitter stream (mixed with the worker id).
    pub seed: u64,
    /// Tag pushes as [`RpcKind::DeltaPush`]: the payload is a row-delta in
    /// the [`crate::delta`] layout rather than a full buffer. The server
    /// treats both kinds identically (same dedup/ack path) — the tag lets
    /// the *collector* know the buffer needs delta decoding.
    pub delta_push: bool,
}

impl Default for SocketConfig {
    fn default() -> SocketConfig {
        SocketConfig {
            rpc_timeout: Duration::from_millis(500),
            rpc_retries: 3,
            reconnect_attempts: 3,
            backoff_initial: Duration::from_millis(5),
            backoff_factor: 2.0,
            backoff_jitter: 0.25,
            backoff_max: Duration::from_millis(200),
            seed: 0x5EED,
            delta_push: false,
        }
    }
}

/// Cumulative resilience counters (monotonic over the transport's life).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Bytes sent again because a prior attempt timed out or was refused.
    pub retrans_bytes: u64,
    /// Pushes the server recognized as duplicates and did not re-apply.
    pub dedup_hits: u64,
    /// Successful re-dials of a broken stream.
    pub reconnects: u64,
}

/// What a drained network event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEventKind {
    /// An RPC attempt failed and will be retried after `delay`.
    Retry {
        /// Why the attempt failed.
        cause: CommError,
        /// Bytes that will be re-sent.
        bytes: u64,
    },
    /// A broken stream was successfully re-dialed.
    Reconnect {
        /// 1-based attempt number that succeeded.
        attempt: u32,
    },
}

/// One resilience event, drained by the training loop for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetEvent {
    /// Worker whose link produced the event.
    pub worker: usize,
    /// Retry or reconnect.
    pub kind: NetEventKind,
    /// Backoff delay that preceded (retry) or followed (reconnect) the
    /// event, in microseconds.
    pub delay_us: u64,
}

// ---------------------------------------------------------------------------
// Server state
// ---------------------------------------------------------------------------

struct SlotData {
    buf: Vec<f32>,
    /// Elements of `buf` the last push actually wrote. Delta pushes are
    /// variable-length, so a collect must not read stale tail elements
    /// from an earlier, longer push.
    len: usize,
    ready: bool,
    /// Idempotency key of the last applied push: `(seq, chunk)`.
    last_applied: Option<(u32, u32)>,
}

struct PushSlot {
    data: Mutex<SlotData>,
    cv: Condvar,
}

struct ServerState {
    precision: Precision,
    /// Write deadline of every accepted connection.
    rpc_timeout: Duration,
    published: RwLock<Vec<f32>>,
    slots: Vec<PushSlot>,
    /// Elements a slot holds: the longest push that can land.
    push_len: usize,
    /// `blocks[w]`: the block worker `w`'s frames stream through, both
    /// ways. Held for a whole frame, which also keeps two connections of
    /// one worker (a re-dial beside a dying one) from landing at once.
    blocks: Vec<Mutex<Vec<u8>>>,
    pull_bytes: AtomicU64,
    push_bytes: AtomicU64,
    dedup_hits: AtomicU64,
    shutdown: AtomicBool,
}

impl ServerState {
    /// Handles one accepted connection until EOF or an unrecoverable
    /// framing error.
    fn serve_conn(&self, mut stream: SockStream) {
        // A pull reply streams out under `published`'s read guard: bound
        // how long a stalled peer can hold it, and a publisher behind it.
        if stream.set_write_timeout(Some(self.rpc_timeout)).is_err() {
            return;
        }
        let mut status = [0u8; HEADER_LEN + TRAILER_LEN];
        loop {
            // ordering: Relaxed — shutdown flag; the dummy wake-up connect
            // in Drop provides the actual hand-off.
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            // EOF / reset (the client will re-dial), or a corrupt header:
            // frame boundaries are lost, so the only safe recovery is
            // dropping the connection.
            let Ok(Ok(incoming)) = read_header(&mut stream) else {
                return;
            };
            let w = incoming.worker as usize;
            let Some(block) = self.blocks.get(w) else {
                return; // malformed peer: drop the connection.
            };
            let mut block = block.lock();
            let push = matches!(incoming.kind(), Ok(RpcKind::Push | RpcKind::DeltaPush));
            if push && incoming.elems() > self.push_len {
                // Malformed peer: truncating and acking would tell it a
                // push landed that did not. Refused unread.
                return;
            }
            let received = if push {
                self.land_push(&mut stream, &incoming, &self.slots[w], &mut block)
            } else {
                incoming.read_into(&mut stream, &mut [], &mut block)
            };
            let code = match received {
                // DeltaPush differs from Push only in what the payload
                // *means* (a row-delta vs a full buffer); on the server it
                // is plain bytes into the slot, same dedup, same ack.
                Ok(Ok(_)) if push => {
                    // ordering: Relaxed — wire-byte statistic: the payload.
                    self.push_bytes
                        .fetch_add(incoming.wire_len as u64, Ordering::Relaxed);
                    STATUS_OK
                }
                Ok(Ok(frame)) if frame.kind == RpcKind::Pull => {
                    let published = self.published.read();
                    let reply = Header {
                        precision: self.precision,
                        chunk: 0,
                        ..frame
                    };
                    // ordering: Relaxed — wire-byte statistic: the payload.
                    self.pull_bytes.fetch_add(
                        published.len() as u64 * self.precision.bytes_per_element(),
                        Ordering::Relaxed,
                    );
                    if write_frame(&mut stream, &reply, &published, &mut block).is_err() {
                        return;
                    }
                    continue;
                }
                // Clients never send Sync; ignore.
                Ok(Ok(_)) => continue,
                // Framing held but the body failed its CRC: nack so the
                // sender retries the same sequence number.
                Ok(Err(err)) if err.keeps_sync() => STATUS_CORRUPT,
                // The stream broke mid-frame.
                _ => return,
            };
            let ack = Header::control(RpcKind::Sync, incoming.worker, incoming.epoch, code);
            if write_frame(&mut stream, &ack, &[], &mut status).is_err() {
                return;
            }
        }
    }

    /// Receives a push into `slot` by the landing rule (module docs): a
    /// retransmission of the last applied key is only checked; anything
    /// else is decoded into the slot's buffer with the buffer out of the
    /// slot and the lock released, and becomes the slot's push only if its
    /// CRC passes.
    fn land_push(
        &self,
        stream: &mut SockStream,
        incoming: &Incoming,
        slot: &PushSlot,
        block: &mut [u8],
    ) -> std::io::Result<Result<Header, FrameError>> {
        let key = (incoming.epoch, incoming.chunk);
        let mut data = slot.data.lock();
        if data.last_applied == Some(key) {
            // The original already applied; only the ack was lost.
            drop(data);
            let checked = incoming.read_into(stream, &mut [], block);
            if matches!(checked, Ok(Ok(_))) {
                // ordering: Relaxed — statistic.
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            }
            return checked;
        }
        let mut buf = std::mem::take(&mut data.buf);
        data.ready = false;
        drop(data);
        let landed = incoming.read_into(stream, &mut buf, block);
        let mut data = slot.data.lock();
        data.buf = buf;
        if matches!(landed, Ok(Ok(_))) {
            data.len = incoming.elems();
            data.ready = true;
            data.last_applied = Some(key);
            slot.cv.notify_all();
        }
        landed
    }
}

// ---------------------------------------------------------------------------
// Client state
// ---------------------------------------------------------------------------

struct WorkerConn {
    stream: Option<SockStream>,
    /// Per-worker push sequence number (the idempotency key's coarse
    /// half; one push per supervised epoch makes it the epoch counter).
    push_seq: u32,
    /// The block a request streams out through and its reply in through.
    block: Vec<u8>,
}

// ---------------------------------------------------------------------------
// CommSocket
// ---------------------------------------------------------------------------

/// A [`Transport`] over a Unix domain socket or loopback TCP with
/// deadlines, bounded retries, jittered reconnect backoff, and idempotent
/// pushes. See the module docs for the resilience model.
pub struct CommSocket {
    addr: SockAddr,
    cfg: SocketConfig,
    precision: Precision,
    state: Arc<ServerState>,
    conns: Vec<Mutex<WorkerConn>>,
    events: Mutex<Vec<NetEvent>>,
    retrans_bytes: AtomicU64,
    reconnects: AtomicU64,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl CommSocket {
    /// Binds a fresh loopback socket and starts the accept loop, with
    /// default resilience tuning. Refuses (`InvalidInput`) a `pull_len` or
    /// `push_len` whose frame would be over the cap a receiver enforces.
    pub fn new(
        workers: usize,
        pull_len: usize,
        push_len: usize,
        precision: Precision,
    ) -> std::io::Result<CommSocket> {
        Self::with_config(
            workers,
            pull_len,
            push_len,
            precision,
            SocketConfig::default(),
        )
    }

    /// [`CommSocket::new`] with explicit [`SocketConfig`] tuning.
    pub fn with_config(
        workers: usize,
        pull_len: usize,
        push_len: usize,
        precision: Precision,
        cfg: SocketConfig,
    ) -> std::io::Result<CommSocket> {
        // A frame the peer would refuse: every RPC would retry until the run
        // failed with a misleading `Comm` error.
        payload_bytes(precision, pull_len.max(push_len))?;
        // ordering: Relaxed — the counter only needs uniqueness, not
        // synchronization with other memory.
        let id = SOCKET_ID.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("hcc-comm-{}-{}.sock", std::process::id(), id));
        let _ = std::fs::remove_file(&path);
        let listener = SockListener::Unix(UnixListener::bind(&path)?);
        Self::start(
            SockAddr::Unix(path),
            listener,
            workers,
            pull_len,
            push_len,
            precision,
            cfg,
        )
    }

    /// Binds a loopback TCP listener (an OS-assigned port on 127.0.0.1)
    /// instead of a Unix socket — the multi-node wire — with default
    /// resilience tuning.
    pub fn new_tcp(
        workers: usize,
        pull_len: usize,
        push_len: usize,
        precision: Precision,
    ) -> std::io::Result<CommSocket> {
        Self::with_config_tcp(
            workers,
            pull_len,
            push_len,
            precision,
            SocketConfig::default(),
        )
    }

    /// [`CommSocket::new_tcp`] with explicit [`SocketConfig`] tuning.
    pub fn with_config_tcp(
        workers: usize,
        pull_len: usize,
        push_len: usize,
        precision: Precision,
        cfg: SocketConfig,
    ) -> std::io::Result<CommSocket> {
        payload_bytes(precision, pull_len.max(push_len))?; // as `with_config`
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = SockAddr::Tcp(listener.local_addr()?);
        Self::start(
            addr,
            SockListener::Tcp(listener),
            workers,
            pull_len,
            push_len,
            precision,
            cfg,
        )
    }

    /// Shared tail of the constructors: spins up server state and the
    /// accept loop over an already-bound listener.
    fn start(
        addr: SockAddr,
        listener: SockListener,
        workers: usize,
        pull_len: usize,
        push_len: usize,
        precision: Precision,
        cfg: SocketConfig,
    ) -> std::io::Result<CommSocket> {
        // One block a worker at each end, for frames either way.
        let block = BLOCK.min(frame_len(precision, pull_len.max(push_len)));
        let state = Arc::new(ServerState {
            precision,
            rpc_timeout: cfg.rpc_timeout.max(Duration::from_millis(1)),
            published: RwLock::new(vec![0f32; pull_len]),
            slots: (0..workers)
                .map(|_| PushSlot {
                    data: Mutex::new(SlotData {
                        buf: vec![0f32; push_len],
                        len: push_len,
                        ready: false,
                        last_applied: None,
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            push_len,
            blocks: (0..workers).map(|_| Mutex::new(vec![0u8; block])).collect(),
            pull_bytes: AtomicU64::new(0),
            push_bytes: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        // Nonblocking accept loop: polling lets Drop stop the thread by
        // flag alone, with no wake-up connection that could itself fail
        // (e.g. when a test tears the socket file away mid-run).
        listener.set_nonblocking(true)?;
        let accept_state = state.clone();
        let accept_conns = conn_handles.clone();
        let accept_handle = std::thread::spawn(move || loop {
            // ordering: Relaxed — shutdown flag; the poll loop re-checks
            // within milliseconds, no data is protected by it.
            if accept_state.shutdown.load(Ordering::Relaxed) {
                return;
            }
            match listener.accept() {
                Ok(stream) => {
                    // Accepted sockets must block: serve_conn reads frames
                    // with plain read_exact.
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let st = accept_state.clone();
                    let h = std::thread::spawn(move || st.serve_conn(stream));
                    // A re-dialled link leaves its old connection's thread
                    // finished; keeping its handle would leak one per
                    // reconnect for the life of the endpoint.
                    let mut handles = accept_conns.lock();
                    handles.retain(|h| !h.is_finished());
                    handles.push(h);
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        });
        Ok(CommSocket {
            addr,
            cfg,
            precision,
            state,
            conns: (0..workers)
                .map(|_| {
                    Mutex::new(WorkerConn {
                        stream: None,
                        push_seq: 0,
                        block: vec![0u8; block],
                    })
                })
                .collect(),
            events: Mutex::new(Vec::new()),
            retrans_bytes: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            accept_handle: Some(accept_handle),
            conn_handles,
        })
    }

    /// Filesystem path of the listening socket (for diagnostics); `None`
    /// for a TCP transport.
    pub fn socket_path(&self) -> Option<&std::path::Path> {
        match &self.addr {
            SockAddr::Unix(path) => Some(path),
            SockAddr::Tcp(_) => None,
        }
    }

    /// TCP address of the listening socket; `None` for a Unix transport.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.addr {
            SockAddr::Unix(_) => None,
            SockAddr::Tcp(sa) => Some(*sa),
        }
    }

    /// Cumulative resilience counters.
    pub fn net_stats(&self) -> NetStats {
        NetStats {
            // ordering: Relaxed — statistics read for reports.
            retrans_bytes: self.retrans_bytes.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            dedup_hits: self.state.dedup_hits.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            reconnects: self.reconnects.load(Ordering::Relaxed),
        }
    }

    fn record_event(&self, ev: NetEvent) {
        self.events.lock().push(ev);
    }

    fn backoff_for(&self, worker: usize) -> Backoff {
        Backoff::new(self.cfg.backoff_initial, self.cfg.backoff_factor)
            .with_max(self.cfg.backoff_max)
            .with_jitter(
                self.cfg.seed ^ ((worker as u64) << 17),
                self.cfg.backoff_jitter,
            )
    }

    /// Ensures `conn` holds a live stream, re-dialing with backoff.
    /// Returns `false` when the attempt budget is exhausted (the link is
    /// partitioned for now).
    fn ensure_connected(&self, worker: usize, conn: &mut WorkerConn) -> bool {
        if conn.stream.is_some() {
            return true;
        }
        let mut backoff = self.backoff_for(worker);
        for attempt in 0..self.cfg.reconnect_attempts.max(1) {
            let delay = if attempt == 0 {
                Duration::ZERO // first dial is eager
            } else {
                backoff.next_delay()
            };
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            if let Ok(stream) = SockStream::connect(&self.addr) {
                conn.stream = Some(stream);
                if attempt > 0 {
                    // ordering: Relaxed — statistic.
                    self.reconnects.fetch_add(1, Ordering::Relaxed);
                    self.record_event(NetEvent {
                        worker,
                        kind: NetEventKind::Reconnect {
                            attempt: attempt as u32,
                        },
                        delay_us: delay.as_micros() as u64,
                    });
                }
                return true;
            }
        }
        false
    }

    /// One framed request/response exchange with the deadline applied:
    /// the request streams out through `block`, the reply's payload in
    /// through it, straight into `dst`.
    fn exchange(
        stream: &mut SockStream,
        request: &Header,
        payload: &[f32],
        dst: &mut [f32],
        block: &mut [u8],
        timeout: Duration,
    ) -> std::io::Result<Result<Header, FrameError>> {
        let deadline = timeout.max(Duration::from_millis(1));
        stream.set_write_timeout(Some(deadline))?;
        stream.set_read_timeout(Some(deadline))?;
        write_frame(stream, request, payload, block)?;
        match read_header(stream)? {
            Ok(incoming) => incoming.read_into(stream, dst, block),
            Err(err) => Ok(Err(err)),
        }
    }

    /// Runs one RPC with the full resilience stack: deadline per attempt,
    /// bounded retries, reconnect-on-breakage. Decodes the reply's payload
    /// into `dst` (as much as both hold) and returns its header, or the
    /// terminal error with `dst` unspecified: a refused reply may have
    /// landed in part.
    fn rpc(
        &self,
        worker: usize,
        request: &Header,
        payload: &[f32],
        dst: &mut [f32],
    ) -> Result<Header, CommError> {
        let bytes = frame_len(request.precision, payload.len()) as u64;
        let mut conn = self.conns[worker].lock();
        let mut backoff = self.backoff_for(worker);
        let mut last_err = CommError::Timeout;
        for attempt in 0..self.cfg.rpc_retries.max(1) {
            if attempt > 0 {
                let delay = backoff.next_delay();
                // ordering: Relaxed — statistic.
                self.retrans_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.record_event(NetEvent {
                    worker,
                    kind: NetEventKind::Retry {
                        cause: last_err,
                        bytes,
                    },
                    delay_us: delay.as_micros() as u64,
                });
                std::thread::sleep(delay);
            }
            if !self.ensure_connected(worker, &mut conn) {
                return Err(CommError::PartitionedLink);
            }
            let WorkerConn {
                stream: Some(stream),
                block,
                ..
            } = &mut *conn
            else {
                return Err(CommError::PartitionedLink);
            };
            match Self::exchange(stream, request, payload, dst, block, self.cfg.rpc_timeout) {
                Ok(Ok(reply)) => {
                    if reply.kind == RpcKind::Sync && reply.chunk == STATUS_CORRUPT {
                        last_err = CommError::Corrupt; // server nack: retry
                        continue;
                    }
                    return Ok(reply);
                }
                Ok(Err(_)) => {
                    // Corrupt response: the stream may be mid-frame, so
                    // re-dial before retrying.
                    last_err = CommError::Corrupt;
                    conn.stream = None;
                }
                Err(io) => {
                    last_err = if io.kind() == std::io::ErrorKind::WouldBlock
                        || io.kind() == std::io::ErrorKind::TimedOut
                    {
                        CommError::Timeout
                    } else {
                        CommError::Disconnected
                    };
                    conn.stream = None;
                }
            }
        }
        Err(last_err)
    }

    /// Sends `src` as worker `worker`'s push number `seq`. A push that
    /// exhausts its budget is dropped; the server-side collect times out
    /// and the supervisor classifies the worker.
    fn send_push(&self, worker: usize, seq: u32, src: &[f32]) {
        let header = Header {
            kind: if self.cfg.delta_push {
                RpcKind::DeltaPush
            } else {
                RpcKind::Push
            },
            precision: self.precision,
            worker: worker as u16,
            epoch: seq,
            chunk: 0,
        };
        let _ = self.rpc(worker, &header, src, &mut []);
    }
}

impl Transport for CommSocket {
    fn publish(&self, src: &[f32]) {
        let mut guard = self.state.published.write();
        let n = src.len().min(guard.len());
        guard[..n].copy_from_slice(&src[..n]);
    }

    fn pull(&self, worker: usize, dst: &mut [f32]) {
        let req = Header::control(RpcKind::Pull, worker as u16, 0, 0);
        // On total failure dst is unspecified — its previous contents, or
        // partly a refused reply's — as under a chaos partition; the
        // worker's next push is stale and the supervisor handles the
        // fallout.
        let _ = self.rpc(worker, &req, &[], dst);
    }

    fn push(&self, worker: usize, src: &[f32]) {
        let seq = {
            let mut conn = self.conns[worker].lock();
            conn.push_seq = conn.push_seq.wrapping_add(1);
            conn.push_seq
        };
        self.send_push(worker, seq, src);
    }

    fn push_duplicate(&self, worker: usize, src: &[f32]) {
        // Re-send under the *current* sequence number — a wire duplicate
        // of the last push. The server's (worker, seq, chunk) dedup must
        // acknowledge it without re-applying.
        let seq = self.conns[worker].lock().push_seq;
        self.send_push(worker, seq, src);
    }

    fn collect_with(
        &self,
        worker: usize,
        timeout: Option<Duration>,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        let slot = &self.state.slots[worker];
        let mut data = slot.data.lock();
        wait_ready(&slot.cv, &mut data, timeout, |data| data.ready)?;
        data.ready = false;
        // The decoded slot, under its lock: a push that arrives meanwhile
        // (a wire duplicate) waits there and is then deduplicated.
        consume(&data.buf[..data.len]);
        Ok(())
    }

    fn wire_bytes_by_dir(&self) -> (u64, u64) {
        // ordering: Relaxed — statistics read for end-of-run reports.
        (
            self.state.pull_bytes.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            self.state.push_bytes.load(Ordering::Relaxed),
        )
    }

    fn workers(&self) -> usize {
        self.conns.len()
    }

    fn drain_net_events(&self) -> Vec<NetEvent> {
        std::mem::take(&mut *self.events.lock())
    }
}

impl Drop for CommSocket {
    fn drop(&mut self) {
        // ordering: Relaxed — the accept loop polls the flag; visibility
        // within one poll interval is all that is needed.
        self.state.shutdown.store(true, Ordering::Relaxed);
        // Close all client streams so per-connection server threads see
        // EOF and exit.
        for conn in &self.conns {
            conn.lock().stream = None;
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.conn_handles.lock());
        for h in handles {
            let _ = h.join();
        }
        if let SockAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::reference::Frame;
    use std::time::Instant;

    fn socket(workers: usize, len: usize) -> CommSocket {
        CommSocket::new(workers, len, len, Precision::Fp32).unwrap()
    }

    fn push_frame(epoch: u32, payload: Vec<f32>) -> Frame {
        Frame {
            header: Header {
                kind: RpcKind::Push,
                precision: Precision::Fp32,
                worker: 0,
                epoch,
                chunk: 0,
            },
            payload,
        }
    }

    /// Sends `frame` through the transport's own RPC path.
    fn rpc(t: &CommSocket, frame: &Frame) -> Result<Header, CommError> {
        t.rpc(0, &frame.header, &frame.payload, &mut [])
    }

    /// `frame`'s bytes with one payload byte flipped: its CRC mismatches.
    fn corrupt(frame: &Frame) -> Vec<u8> {
        let mut bytes = frame.encode();
        bytes[HEADER_LEN + 2] ^= 0xFF;
        bytes
    }

    /// Writes `bytes` on worker 0's connection as a peer that speaks frames
    /// by hand, and returns the status code the server answers with.
    fn send_raw(t: &CommSocket, bytes: &[u8]) -> u32 {
        let mut conn = t.conns[0].lock();
        assert!(t.ensure_connected(0, &mut conn));
        let stream = conn.stream.as_mut().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(bytes).unwrap();
        let reply = read_header(stream).unwrap().unwrap();
        let reply = reply
            .read_into(stream, &mut [], &mut [0u8; HEADER_LEN + TRAILER_LEN])
            .unwrap()
            .unwrap();
        assert_eq!(reply.kind, RpcKind::Sync);
        reply.chunk
    }

    /// Polls `cond` until it holds; panics after five seconds.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn socket_roundtrip_all_workers() {
        let t = socket(3, 64);
        let data: Vec<f32> = (0..64).map(|j| j as f32 * 0.5).collect();
        t.publish(&data);
        for w in 0..3 {
            let mut pulled = vec![0f32; 64];
            t.pull(w, &mut pulled);
            assert_eq!(pulled, data, "worker {w} pull mismatch");
            let local: Vec<f32> = pulled.iter().map(|v| v + 1.0).collect();
            t.push(w, &local);
            let mut collected = vec![0f32; 64];
            t.collect(w, &mut collected);
            assert_eq!(collected, local, "worker {w} collect mismatch");
        }
        assert_eq!(t.workers(), 3);
    }

    #[test]
    fn socket_fp16_wire_roundtrip() {
        let t = CommSocket::new(1, 32, 32, Precision::Fp16).unwrap();
        let data: Vec<f32> = (0..32).map(|j| 0.01 * j as f32 + 0.1).collect();
        t.publish(&data);
        let mut pulled = vec![0f32; 32];
        t.pull(0, &mut pulled);
        for (a, b) in data.iter().zip(&pulled) {
            assert!((a - b).abs() <= a.abs() / 1024.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn socket_collect_timeout_without_push() {
        let t = socket(1, 4);
        let mut dst = vec![0f32; 4];
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
    }

    #[test]
    fn socket_collect_timeout_sees_push() {
        let t = Arc::new(socket(1, 4));
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            t2.push(0, &[5.0; 4]);
        });
        let mut dst = vec![0f32; 4];
        t.collect_timeout(0, &mut dst, Duration::from_secs(5))
            .unwrap();
        assert_eq!(dst, vec![5.0; 4]);
        h.join().unwrap();
    }

    #[test]
    fn duplicate_sequence_numbers_apply_once() {
        let t = socket(1, 4);
        // Hand-roll two pushes with the same seq (a retry whose original
        // landed): the second must dedup, not re-apply.
        let frame = push_frame(42, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(rpc(&t, &frame).unwrap().chunk, STATUS_OK);
        let mut dst = vec![0f32; 4];
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0]);

        // Duplicate: acked but not re-applied, so collect times out.
        assert_eq!(rpc(&t, &frame).unwrap().chunk, STATUS_OK);
        assert_eq!(t.net_stats().dedup_hits, 1);
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(30)),
            Err(CommError::Timeout)
        );

        // A fresh sequence number applies again.
        let next = push_frame(43, vec![9.0; 4]);
        assert_eq!(rpc(&t, &next).unwrap().chunk, STATUS_OK);
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, vec![9.0; 4]);
        assert_eq!(t.net_stats().dedup_hits, 1);
    }

    #[test]
    fn wire_bytes_split_sums_to_total() {
        let t = socket(2, 16);
        t.publish(&[1.0f32; 16]);
        let mut buf = vec![0f32; 16];
        t.pull(0, &mut buf);
        t.push(1, &[2.0f32; 16]);
        t.collect(1, &mut buf);
        // Payload bytes: 16 elements each way, no header or trailer.
        assert_eq!(t.wire_bytes_by_dir(), (64, 64));
        assert_eq!(t.wire_bytes(), 128);
    }

    #[test]
    fn corrupt_frame_on_the_wire_is_nacked_and_retried() {
        let t = socket(1, 4);
        // An unconsumed push, then a CRC-broken new one sent by hand: it is
        // nacked and nothing becomes ready — it started landing, so the
        // push it displaced is gone, a dropped push.
        assert_eq!(
            send_raw(&t, &push_frame(1, vec![1.0; 4]).encode()),
            STATUS_OK
        );
        let next = push_frame(2, vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(send_raw(&t, &corrupt(&next)), STATUS_CORRUPT);
        let mut dst = vec![0f32; 4];
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
        // The sender's retry of the same key lands whole.
        assert_eq!(send_raw(&t, &next.encode()), STATUS_OK);
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, next.payload);
        assert_eq!(t.net_stats().dedup_hits, 0);
        // The transport's own push path works on the same connection.
        t.push(0, &[3.0; 4]);
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, vec![3.0; 4]);
    }

    #[test]
    fn a_corrupt_duplicate_is_nacked_and_the_unconsumed_push_stays_collectable() {
        let t = socket(1, 4);
        let frame = push_frame(5, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(send_raw(&t, &frame.encode()), STATUS_OK);
        // Same key, corrupt body: checked through the block, never landed.
        assert_eq!(send_raw(&t, &corrupt(&frame)), STATUS_CORRUPT);
        assert_eq!(t.net_stats().dedup_hits, 0);
        let mut dst = vec![0f32; 4];
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, frame.payload);
    }

    #[test]
    fn a_peer_stalled_mid_body_holds_no_lock_a_collect_needs() {
        let t = socket(1, 1_024);
        let bytes = push_frame(1, vec![1.5; 1_024]).encode();
        let mut conn = t.conns[0].lock();
        assert!(t.ensure_connected(0, &mut conn));
        // A header and half a body, then silence.
        let half = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        conn.stream
            .as_mut()
            .unwrap()
            .write_all(&bytes[..half])
            .unwrap();
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut dst = vec![0f32; 1_024];
                let start = Instant::now();
                let got = t.collect_timeout(0, &mut dst, Duration::from_millis(20));
                let _ = done.send((got, start.elapsed()));
            });
            let outcome = outcome.recv_timeout(Duration::from_secs(5));
            // Hang up either way, so the stalled receive ends.
            conn.stream = None;
            let (got, took) = outcome.expect("the collect waited on the stalled push");
            assert_eq!(got, Err(CommError::Timeout));
            assert!(
                took >= Duration::from_millis(20) && took < Duration::from_millis(500),
                "collect_timeout(20 ms) returned after {took:?}"
            );
        });
    }

    #[test]
    fn reconnect_after_stream_breakage() {
        let t = socket(1, 4);
        t.publish(&[1.0, 2.0, 3.0, 4.0]);
        let mut dst = vec![0f32; 4];
        t.pull(0, &mut dst);
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0]);
        // Break the stream under the transport's feet.
        t.conns[0].lock().stream = None;
        t.pull(0, &mut dst);
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0], "re-dial served the pull");
    }

    #[test]
    fn partitioned_link_reported_when_server_gone() {
        let cfg = SocketConfig {
            rpc_timeout: Duration::from_millis(30),
            rpc_retries: 2,
            reconnect_attempts: 2,
            backoff_initial: Duration::from_millis(1),
            backoff_max: Duration::from_millis(2),
            ..SocketConfig::default()
        };
        let t = CommSocket::with_config(1, 4, 4, Precision::Fp32, cfg).unwrap();
        // Tear the listener down by stealing its socket file.
        std::fs::remove_file(t.socket_path().unwrap()).unwrap();
        let req = Header::control(RpcKind::Pull, 0, 0, 0);
        let err = t.rpc(0, &req, &[], &mut []).unwrap_err();
        assert_eq!(err, CommError::PartitionedLink);
    }

    #[test]
    fn both_ends_of_a_tcp_link_turn_nagle_off() {
        // The two calls every `new_tcp` link is made of: the client's dial
        // and the accept loop's accept.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = SockAddr::Tcp(listener.local_addr().unwrap());
        let dialed = SockStream::connect(&addr).unwrap();
        let accepted = SockListener::Tcp(listener).accept().unwrap();
        for (end, stream) in [("dialing", dialed), ("accepting", accepted)] {
            let SockStream::Tcp(stream) = stream else {
                panic!("{end} end is not TCP");
            };
            assert!(stream.nodelay().unwrap(), "{end} end keeps Nagle on");
        }
    }

    #[test]
    fn tcp_roundtrip_all_workers() {
        let t = CommSocket::new_tcp(3, 64, 64, Precision::Fp32).unwrap();
        assert!(t.socket_path().is_none());
        let addr = t.tcp_addr().unwrap();
        assert!(addr.ip().is_loopback());
        let data: Vec<f32> = (0..64).map(|j| j as f32 * 0.25).collect();
        t.publish(&data);
        for w in 0..3 {
            let mut pulled = vec![0f32; 64];
            t.pull(w, &mut pulled);
            assert_eq!(pulled, data, "worker {w} pull mismatch over tcp");
            let local: Vec<f32> = pulled.iter().map(|v| v - 1.0).collect();
            t.push(w, &local);
            let mut collected = vec![0f32; 64];
            t.collect(w, &mut collected);
            assert_eq!(collected, local, "worker {w} collect mismatch over tcp");
        }
    }

    #[test]
    fn tcp_reconnect_and_dedup_match_unix_path() {
        let t = CommSocket::new_tcp(1, 4, 4, Precision::Fp32).unwrap();
        t.publish(&[1.0, 2.0, 3.0, 4.0]);
        let mut dst = vec![0f32; 4];
        t.pull(0, &mut dst);
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0]);
        // Break the stream under the transport's feet: the re-dial path
        // must be family-blind.
        t.conns[0].lock().stream = None;
        t.pull(0, &mut dst);
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0], "tcp re-dial served the pull");
        // Same-seq duplicate dedups over TCP exactly as over UDS.
        let frame = push_frame(9, vec![7.0; 4]);
        assert_eq!(rpc(&t, &frame).unwrap().chunk, STATUS_OK);
        assert_eq!(rpc(&t, &frame).unwrap().chunk, STATUS_OK);
        assert_eq!(t.net_stats().dedup_hits, 1);
    }

    #[test]
    fn delta_push_mode_ships_variable_length_payloads() {
        let cfg = SocketConfig {
            delta_push: true,
            ..SocketConfig::default()
        };
        // Slot sized for a worst-case delta over 4 rows of k=2.
        let staging = crate::delta::max_delta_len(4, 2);
        let t = CommSocket::with_config(1, 8, staging, Precision::Fp32, cfg).unwrap();
        let base = vec![0f32; 8];
        let mut cur = base.clone();
        cur[2] = 5.0; // row 1
        cur[7] = -3.0; // row 3
        let mut delta = Vec::new();
        crate::delta::encode_delta(&base, &cur, 2, &mut delta);
        t.push(0, &delta);
        // Collect must yield exactly the pushed delta, not a stale tail of
        // the staging-sized slot.
        let mut got = vec![f32::NAN; staging];
        t.collect(0, &mut got);
        assert_eq!(&got[..delta.len()], &delta[..]);
        let mut dst = base.clone();
        assert_eq!(crate::delta::apply_delta(&got, 2, &mut dst), Ok(2));
        assert_eq!(dst, cur);

        // A shorter follow-up delta must not expose the longer one's tail.
        let mut cur2 = cur.clone();
        cur2[0] = 1.0; // row 0 only
        let mut delta2 = Vec::new();
        crate::delta::encode_delta(&cur, &cur2, 2, &mut delta2);
        assert!(delta2.len() < delta.len());
        t.push(0, &delta2);
        let mut got2 = vec![f32::NAN; staging];
        t.collect(0, &mut got2);
        let mut dst2 = cur.clone();
        assert_eq!(crate::delta::apply_delta(&got2, 2, &mut dst2), Ok(1));
        assert_eq!(dst2, cur2);
    }

    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let t = socket(1, 4);
        t.publish(&[1.0, 2.0, 3.0, 4.0]);
        let mut dst = vec![0f32; 4];
        for _ in 0..8 {
            t.pull(0, &mut dst);
            // Break the stream: its server thread sees EOF and ends.
            t.conns[0].lock().stream = None;
            wait_until("the old connection's thread has ended", || {
                t.conn_handles.lock().iter().all(|h| h.is_finished())
            });
        }
        t.pull(0, &mut dst);
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0]);
        // Eight re-dials later the endpoint holds one handle, the live one.
        wait_until("only the live connection's handle is held", || {
            let handles = t.conn_handles.lock();
            handles.len() == 1 && !handles[0].is_finished()
        });
    }

    #[test]
    fn oversized_push_drops_the_connection_and_applies_nothing() {
        // Five elements for a four-element slot: refused at its header,
        // before its body is read, whatever the pull side's length.
        for pull_len in [4, 8] {
            let t = CommSocket::new(1, pull_len, 4, Precision::Fp32).unwrap();
            {
                let mut conn = t.conns[0].lock();
                assert!(t.ensure_connected(0, &mut conn));
                let stream = conn.stream.as_mut().unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                stream
                    .write_all(&push_frame(1, vec![6.0; 5]).encode())
                    .unwrap();
                // No ack, truncated or otherwise: the server hangs up.
                let mut byte = [0u8; 1];
                assert!(
                    !matches!(stream.read(&mut byte), Ok(n) if n > 0),
                    "pull_len {pull_len}: an oversized push was answered"
                );
                conn.stream = None;
            }
            let mut dst = vec![0f32; 4];
            assert_eq!(
                t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
                Err(CommError::Timeout),
                "pull_len {pull_len}: an oversized push was applied"
            );
            assert_eq!(t.wire_bytes_by_dir(), (0, 0));
            // The link re-dials and a well-formed push lands as usual.
            t.push(0, &[3.0; 4]);
            t.collect_timeout(0, &mut dst, Duration::from_secs(1))
                .unwrap();
            assert_eq!(dst, vec![3.0; 4]);
        }
    }

    #[test]
    fn a_region_over_the_frame_cap_is_refused_by_both_ends_of_the_wire() {
        // 2^24 fp32 elements are the 64 MiB cap; one more is a frame every
        // receiver drops the connection on.
        let over = (1 << 24) + 1;
        for (pull_len, push_len) in [(over, 1), (1, over)] {
            for tcp in [false, true] {
                let built = if tcp {
                    CommSocket::new_tcp(1, pull_len, push_len, Precision::Fp32)
                } else {
                    CommSocket::new(1, pull_len, push_len, Precision::Fp32)
                };
                let Err(err) = built else {
                    panic!("a link of {pull_len} / {push_len} elements was built (tcp {tcp})");
                };
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
            }
        }
        // The sender refuses such a payload before it writes a byte; one
        // element less is exactly the cap.
        let payload = vec![0f32; over];
        let header = push_frame(1, Vec::new()).header;
        let mut out = Vec::new();
        let mut block = [0u8; HEADER_LEN + TRAILER_LEN];
        let err = write_frame(&mut out, &header, &payload, &mut block).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(
            out.is_empty(),
            "wrote {} bytes of a refused frame",
            out.len()
        );
        assert_eq!(
            payload_bytes(Precision::Fp32, over - 1).unwrap(),
            crate::frame::MAX_PAYLOAD_BYTES
        );
    }

    #[test]
    fn net_events_drain_once() {
        let t = socket(1, 4);
        t.record_event(NetEvent {
            worker: 0,
            kind: NetEventKind::Retry {
                cause: CommError::Timeout,
                bytes: 10,
            },
            delay_us: 5,
        });
        assert_eq!(t.drain_net_events().len(), 1);
        assert!(t.drain_net_events().is_empty());
    }

    #[test]
    fn concurrent_workers_roundtrip() {
        let t = Arc::new(socket(4, 16));
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
                    let local: Vec<f32> = dst.iter().map(|v| v * 2.0).collect();
                    t.push(w, &local);
                });
            }
            let t2 = t.clone();
            scope.spawn(move || {
                for w in 0..4 {
                    let mut got = vec![0f32; 16];
                    t2.collect(w, &mut got);
                    assert_eq!(got[3], 6.0);
                }
            });
        });
    }
}
