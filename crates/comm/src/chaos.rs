//! Deterministic network chaos injection.
//!
//! [`ChaosTransport`] wraps *any* [`Transport`] and perturbs its push and
//! collect paths the way a misbehaving network would: frames are dropped,
//! delayed, duplicated, corrupted, or a link is partitioned outright. The
//! schedule is a pure function of `(seed, worker, epoch, op)` — the same
//! golden-ratio stream split the threaded fault harness
//! (`hcc_mf::fault::FaultPlan`) uses — so a chaos run is exactly
//! reproducible and a CI matrix can pin seeds.
//!
//! Fault semantics at the [`Transport`] boundary:
//!
//! * **drop** — the push is swallowed; the server's timed collect
//!   expires and the supervisor classifies the worker, the same path a
//!   crashed worker takes.
//! * **delay** — the push is delivered after a fixed sleep, turning the
//!   worker into a straggler for that epoch.
//! * **duplicate** — the push is delivered, then delivered *again* via
//!   [`Transport::push_duplicate`] (same sequence number on framed
//!   transports), exercising the server's idempotency dedup.
//! * **corrupt** — the push is swallowed and the next collect for that
//!   worker, timed or not, returns [`CommError::Corrupt`] — what a CRC-rejected
//!   frame looks like from the server. The supervisor treats it exactly
//!   like a dropped push: retry, then classify.
//! * **partition** — from a given epoch on, one worker's pushes are
//!   swallowed, its pulls stop updating, and collects fail fast with
//!   [`CommError::PartitionedLink`]; the supervisor marks the worker dead
//!   and survivors re-plan.
//!
//! Chaos requires a supervised run: an unsupervised one has nobody to
//! classify the worker behind a dropped push and fails on it, so
//! configuration validation ties `--net-chaos` to `--fault-tolerant`.

use crate::socket::NetEvent;
use crate::transport::{CommError, Transport};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Op codes mixed into the per-decision random stream. `hcc-hetsim`
/// mirrors these constants (it has no dependency on this crate) so the
/// DES twin derives the *same* drop schedule from the same seed.
pub const OP_DROP: u8 = 1;
/// See [`OP_DROP`].
pub const OP_DELAY: u8 = 2;
/// See [`OP_DROP`].
pub const OP_DUPLICATE: u8 = 3;
/// See [`OP_DROP`].
pub const OP_CORRUPT: u8 = 4;

/// Deterministic unit draw in `[0, 1)` for `(seed, worker, epoch, op)`:
/// the `FaultPlan` golden-ratio stream split followed by a splitmix64
/// finalizer.
pub fn chaos_roll(seed: u64, worker: usize, epoch: u64, op: u8) -> f64 {
    let stream = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((worker as u64) << 32)
        .wrapping_add(epoch)
        .wrapping_add((op as u64) << 48);
    let mut z = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A permanent one-worker partition starting at a given epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Partitioned worker.
    pub worker: usize,
    /// First epoch (0-based push index) the partition is in effect.
    pub from_epoch: u64,
}

/// Seeded description of how the network misbehaves.
#[derive(Debug, Clone, PartialEq)]
pub struct NetChaosPlan {
    /// Seed for every per-`(worker, epoch, op)` decision.
    pub seed: u64,
    /// Probability a push is dropped.
    pub drop_rate: f64,
    /// Probability a push is delayed by [`delay`](NetChaosPlan::delay).
    pub delay_rate: f64,
    /// Delay applied to delayed pushes.
    pub delay: Duration,
    /// Probability a push is wire-duplicated.
    pub duplicate_rate: f64,
    /// Probability a push arrives corrupt (CRC-rejected at the server).
    pub corrupt_rate: f64,
    /// Optional permanent partition of one worker.
    pub partition: Option<Partition>,
}

impl NetChaosPlan {
    /// The CLI's `--net-chaos SEED` recipe: a moderately hostile network —
    /// 10% drops, 10% delays of 5 ms, 15% duplicates, 5% corruption, no
    /// partition.
    pub fn from_seed(seed: u64) -> NetChaosPlan {
        NetChaosPlan {
            seed,
            drop_rate: 0.10,
            delay_rate: 0.10,
            delay: Duration::from_millis(5),
            duplicate_rate: 0.15,
            corrupt_rate: 0.05,
            partition: None,
        }
    }

    /// A plan with every rate at zero (chaos plumbing with no chaos).
    pub fn quiet(seed: u64) -> NetChaosPlan {
        NetChaosPlan {
            seed,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::ZERO,
            duplicate_rate: 0.0,
            corrupt_rate: 0.0,
            partition: None,
        }
    }

    /// Sets the permanent partition.
    pub fn with_partition(mut self, worker: usize, from_epoch: u64) -> NetChaosPlan {
        self.partition = Some(Partition { worker, from_epoch });
        self
    }
}

/// Counters for every fault the wrapper injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Pushes swallowed by the drop schedule.
    pub dropped: u64,
    /// Pushes delivered late.
    pub delayed: u64,
    /// Wire duplicates delivered.
    pub duplicated: u64,
    /// Pushes converted to CRC failures.
    pub corrupted: u64,
    /// Pushes swallowed by the partition.
    pub partitioned: u64,
}

/// A [`Transport`] decorator that injects the seeded fault schedule of a
/// [`NetChaosPlan`]. See the module docs for semantics.
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    plan: NetChaosPlan,
    /// Per-worker count of push *attempts* — the epoch coordinate of the
    /// fault schedule (supervised training pushes once per epoch).
    push_epochs: Vec<AtomicU64>,
    /// Set when a corrupt push was injected; the next collect for that
    /// worker reports it.
    pending_corrupt: Vec<AtomicBool>,
    dropped: AtomicU64,
    delayed: AtomicU64,
    duplicated: AtomicU64,
    corrupted: AtomicU64,
    partitioned: AtomicU64,
}

impl ChaosTransport {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: Arc<dyn Transport>, plan: NetChaosPlan) -> ChaosTransport {
        let workers = inner.workers();
        ChaosTransport {
            inner,
            plan,
            push_epochs: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            pending_corrupt: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            dropped: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            partitioned: AtomicU64::new(0),
        }
    }

    /// Injected-fault counters so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            // ordering: Relaxed — statistics read for reports/tests.
            dropped: self.dropped.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            delayed: self.delayed.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            duplicated: self.duplicated.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            corrupted: self.corrupted.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            partitioned: self.partitioned.load(Ordering::Relaxed),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &Arc<dyn Transport> {
        &self.inner
    }

    fn roll(&self, worker: usize, epoch: u64, op: u8) -> f64 {
        chaos_roll(self.plan.seed, worker, epoch, op)
    }

    fn partition_for(&self, worker: usize) -> Option<Partition> {
        self.plan.partition.filter(|p| p.worker == worker)
    }
}

impl Transport for ChaosTransport {
    fn publish(&self, src: &[f32]) {
        self.inner.publish(src);
    }

    fn pull(&self, worker: usize, dst: &mut [f32]) {
        if let Some(p) = self.partition_for(worker) {
            // ordering: Relaxed — epoch counter is a statistic-grade
            // coordinate; exact interleaving tolerance is documented.
            if self.push_epochs[worker].load(Ordering::Relaxed) >= p.from_epoch {
                return; // unreachable server: dst keeps stale data
            }
        }
        self.inner.pull(worker, dst);
    }

    fn push(&self, worker: usize, src: &[f32]) {
        // ordering: Relaxed — the counter is this worker's own epoch
        // coordinate; only this worker's thread increments it.
        let epoch = self.push_epochs[worker].fetch_add(1, Ordering::Relaxed);
        if let Some(p) = self.partition_for(worker) {
            if epoch >= p.from_epoch {
                // ordering: Relaxed — statistic.
                self.partitioned.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if self.roll(worker, epoch, OP_DROP) < self.plan.drop_rate {
            // ordering: Relaxed — statistic.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.roll(worker, epoch, OP_CORRUPT) < self.plan.corrupt_rate {
            // The frame "arrives" but fails its CRC: nothing is applied
            // and the server-side collect reports Corrupt once.
            // ordering: Relaxed — statistic.
            self.corrupted.fetch_add(1, Ordering::Relaxed);
            // ordering: Relaxed — flag is consumed by the server thread's
            // collect; the supervisor's retry loop tolerates either
            // ordering of flag-set vs timeout.
            self.pending_corrupt[worker].store(true, Ordering::Relaxed);
            return;
        }
        if self.roll(worker, epoch, OP_DELAY) < self.plan.delay_rate {
            // ordering: Relaxed — statistic.
            self.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.plan.delay);
        }
        self.inner.push(worker, src);
        if self.roll(worker, epoch, OP_DUPLICATE) < self.plan.duplicate_rate {
            // ordering: Relaxed — statistic.
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            self.inner.push_duplicate(worker, src);
        }
    }

    fn collect_with(
        &self,
        worker: usize,
        timeout: Option<Duration>,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        if let Some(p) = self.partition_for(worker) {
            // ordering: Relaxed — see `pull`.
            if self.push_epochs[worker].load(Ordering::Relaxed) > p.from_epoch {
                return Err(CommError::PartitionedLink);
            }
        }
        // ordering: Relaxed — one-shot flag; a race with the injecting
        // push only shifts which retry observes the corruption.
        if self.pending_corrupt[worker].swap(false, Ordering::Relaxed) {
            return Err(CommError::Corrupt);
        }
        self.inner.collect_with(worker, timeout, consume)
    }

    fn wire_bytes_by_dir(&self) -> (u64, u64) {
        self.inner.wire_bytes_by_dir()
    }

    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn drain_net_events(&self) -> Vec<NetEvent> {
        self.inner.drain_net_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{CommShared, Precision};

    fn shared(workers: usize, len: usize) -> Arc<dyn Transport> {
        Arc::new(CommShared::new(workers, len, len, Precision::Fp32))
    }

    #[test]
    fn rolls_are_deterministic_and_uniformish() {
        assert_eq!(chaos_roll(7, 1, 3, OP_DROP), chaos_roll(7, 1, 3, OP_DROP));
        assert_ne!(chaos_roll(7, 1, 3, OP_DROP), chaos_roll(8, 1, 3, OP_DROP));
        assert_ne!(chaos_roll(7, 1, 3, OP_DROP), chaos_roll(7, 2, 3, OP_DROP));
        assert_ne!(chaos_roll(7, 1, 3, OP_DROP), chaos_roll(7, 1, 4, OP_DROP));
        assert_ne!(chaos_roll(7, 1, 3, OP_DROP), chaos_roll(7, 1, 3, OP_DELAY));
        let mean = (0..1000)
            .map(|e| chaos_roll(11, 0, e, OP_DROP))
            .sum::<f64>()
            / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let t = ChaosTransport::new(shared(2, 8), NetChaosPlan::quiet(1));
        let data = [1.0f32; 8];
        t.publish(&data);
        let mut dst = [0f32; 8];
        t.pull(0, &mut dst);
        assert_eq!(dst, data);
        t.push(0, &data);
        let mut got = [0f32; 8];
        t.collect_timeout(0, &mut got, Duration::from_secs(1))
            .unwrap();
        assert_eq!(got, data);
        assert_eq!(t.stats(), ChaosStats::default());
    }

    #[test]
    fn certain_drop_swallows_every_push() {
        let mut plan = NetChaosPlan::quiet(3);
        plan.drop_rate = 1.0;
        let t = ChaosTransport::new(shared(1, 4), plan);
        t.push(0, &[1.0; 4]);
        let mut dst = [0f32; 4];
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
        assert_eq!(t.stats().dropped, 1);
    }

    #[test]
    fn corrupt_push_reports_once_then_times_out() {
        let mut plan = NetChaosPlan::quiet(4);
        plan.corrupt_rate = 1.0;
        let t = ChaosTransport::new(shared(1, 4), plan);
        t.push(0, &[1.0; 4]);
        let mut dst = [0f32; 4];
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Corrupt),
            "first attempt sees the CRC failure"
        );
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout),
            "retry finds nothing: corrupt degraded to dropped"
        );
        assert_eq!(t.stats().corrupted, 1);
    }

    #[test]
    fn partition_cuts_push_pull_and_collect() {
        let plan = NetChaosPlan::quiet(5).with_partition(0, 1);
        let t = ChaosTransport::new(shared(2, 4), plan);
        // Epoch 0: before the partition, everything flows.
        t.push(0, &[1.0; 4]);
        let mut dst = [0f32; 4];
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, [1.0; 4]);
        // Epoch 1: partitioned.
        t.publish(&[9.0; 4]);
        t.push(0, &[2.0; 4]);
        let mut pulled = [0f32; 4];
        t.pull(0, &mut pulled);
        assert_eq!(pulled, [0f32; 4], "pull no longer reaches the server");
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::PartitionedLink)
        );
        // The other worker is untouched.
        t.pull(1, &mut pulled);
        assert_eq!(pulled, [9.0; 4]);
        assert_eq!(t.stats().partitioned, 1);
    }

    #[test]
    fn the_untimed_collect_runs_the_same_fault_checks() {
        let never = &mut |_: &[f32]| panic!("consume ran on a failed collect");
        // A partitioned link fails fast instead of blocking for ever.
        let plan = NetChaosPlan::quiet(5).with_partition(0, 0);
        let t = ChaosTransport::new(shared(1, 4), plan);
        t.push(0, &[1.0; 4]);
        assert_eq!(
            t.collect_with(0, None, never),
            Err(CommError::PartitionedLink)
        );
        // A corrupt push is reported once, to whichever collect comes next.
        let mut plan = NetChaosPlan::quiet(4);
        plan.corrupt_rate = 1.0;
        let t = ChaosTransport::new(shared(1, 4), plan);
        t.push(0, &[1.0; 4]);
        assert_eq!(t.collect_with(0, None, never), Err(CommError::Corrupt));
        let timeout = Some(Duration::from_millis(10));
        assert_eq!(t.collect_with(0, timeout, never), Err(CommError::Timeout));
    }

    #[test]
    fn duplicate_roll_calls_push_duplicate() {
        struct CountingInner {
            inner: CommShared,
            dups: AtomicU64,
        }
        impl Transport for CountingInner {
            fn publish(&self, src: &[f32]) {
                self.inner.publish(src);
            }
            fn pull(&self, w: usize, dst: &mut [f32]) {
                self.inner.pull(w, dst);
            }
            fn push(&self, w: usize, src: &[f32]) {
                self.inner.push(w, src);
            }
            fn push_duplicate(&self, _w: usize, _src: &[f32]) {
                // ordering: Relaxed — test statistic.
                self.dups.fetch_add(1, Ordering::Relaxed);
            }
            fn collect_with(
                &self,
                w: usize,
                t: Option<Duration>,
                consume: &mut dyn FnMut(&[f32]),
            ) -> Result<(), CommError> {
                self.inner.collect_with(w, t, consume)
            }
            fn wire_bytes(&self) -> u64 {
                self.inner.wire_bytes()
            }
            fn wire_bytes_by_dir(&self) -> (u64, u64) {
                self.inner.wire_bytes_by_dir()
            }
            fn workers(&self) -> usize {
                self.inner.workers()
            }
        }
        let inner = Arc::new(CountingInner {
            inner: CommShared::new(1, 4, 4, Precision::Fp32),
            dups: AtomicU64::new(0),
        });
        let mut plan = NetChaosPlan::quiet(6);
        plan.duplicate_rate = 1.0;
        let t = ChaosTransport::new(inner.clone(), plan);
        for _ in 0..5 {
            t.push(0, &[1.0; 4]);
            let mut dst = [0f32; 4];
            t.collect_timeout(0, &mut dst, Duration::from_secs(1))
                .unwrap();
        }
        // ordering: Relaxed — test statistic.
        assert_eq!(inner.dups.load(Ordering::Relaxed), 5);
        assert_eq!(t.stats().duplicated, 5);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let schedule = |seed: u64| {
            let plan = NetChaosPlan {
                drop_rate: 0.3,
                corrupt_rate: 0.2,
                ..NetChaosPlan::quiet(seed)
            };
            let t = ChaosTransport::new(shared(2, 4), plan);
            for e in 0..20 {
                for w in 0..2 {
                    t.push(w, &[e as f32; 4]);
                    let mut dst = [0f32; 4];
                    let _ = t.collect_timeout(w, &mut dst, Duration::from_millis(1));
                }
            }
            t.stats()
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43));
    }
}
