//! Deterministic network chaos injection.
//!
//! [`ChaosTransport`] wraps *any* [`Transport`] and enacts the wire faults
//! of a [`FaultPlan`] on it, scripted and rolled alike: a push is dropped,
//! delayed, duplicated or corrupted, or a worker's node is partitioned
//! outright. It keeps no clock of its own — the engine tells it the
//! training epoch ([`ChaosTransport::begin_epoch`]) and which
//! starting-fleet worker sits at each index of the wrapped transport, and
//! it asks [`FaultPlan::at`] — so a repartition, a shrunken fleet or a
//! retried epoch cannot move a fault.
//!
//! What each fault does at the [`Transport`] boundary is documented on its
//! [`Fault`] variant: [`DropPush`](Fault::DropPush),
//! [`CorruptPush`](Fault::CorruptPush), [`DelayPush`](Fault::DelayPush),
//! [`DuplicatePush`](Fault::DuplicatePush) (re-sent through
//! [`Transport::push_duplicate`]) and [`Partition`](Fault::Partition).
//! The faults of the plan that are not the wire's — a crash, a stall, a
//! NaN-poisoned push — pass through untouched: the worker enacts those.
//! Chaos requires a supervised run: an unsupervised one has nobody to
//! classify the worker behind a dropped push and fails on it, so
//! configuration validation ties a fault plan to `--fault-tolerant`.

use crate::fault::{Fault, FaultPlan};
use crate::socket::NetEvent;
use crate::transport::{CommError, Transport};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counters for every fault the wrapper injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Pushes swallowed as dropped.
    pub dropped: u64,
    /// Pushes delivered late.
    pub delayed: u64,
    /// Wire duplicates delivered.
    pub duplicated: u64,
    /// Pushes converted to CRC failures.
    pub corrupted: u64,
    /// Pushes swallowed by a partition.
    pub partitioned: u64,
}

/// A [`Transport`] decorator that enacts the wire faults of a
/// [`FaultPlan`]. See the module docs for semantics.
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    /// `ids[w]`: the starting-fleet id of the worker at index `w` of
    /// `inner` — the worker coordinate of the plan.
    ids: Vec<usize>,
    /// The training epoch in progress — the epoch coordinate of the plan.
    epoch: AtomicUsize,
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
    /// Wraps `inner` under `plan`, at epoch 0. `ids[w]` is the
    /// starting-fleet id of the worker `inner` knows as `w`.
    ///
    /// # Panics
    /// Panics if `ids` does not name every worker of `inner`.
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan, ids: Vec<usize>) -> ChaosTransport {
        let workers = inner.workers();
        assert_eq!(ids.len(), workers, "one starting-fleet id per worker");
        ChaosTransport {
            inner,
            plan,
            ids,
            epoch: AtomicUsize::new(0),
            pending_corrupt: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            dropped: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            partitioned: AtomicU64::new(0),
        }
    }

    /// Tells the wrapper which training epoch the calls that follow belong
    /// to. Called between epochs, when no worker is pulling or pushing.
    pub fn begin_epoch(&self, epoch: usize) {
        // ordering: Relaxed — stored between epochs; the spawn of the
        // epoch's worker threads orders it before their loads.
        self.epoch.store(epoch, Ordering::Relaxed);
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

    /// What the plan does to `worker` in the epoch in progress.
    fn fault(&self, worker: usize) -> Option<Fault> {
        // ordering: Relaxed — see `begin_epoch`.
        self.plan
            .at(self.ids[worker], self.epoch.load(Ordering::Relaxed))
    }
}

impl Transport for ChaosTransport {
    fn publish(&self, src: &[f32]) {
        self.inner.publish(src);
    }

    fn pull(&self, worker: usize, dst: &mut [f32]) {
        if self.fault(worker) == Some(Fault::Partition) {
            return; // unreachable server: dst keeps stale data
        }
        self.inner.pull(worker, dst);
    }

    fn push(&self, worker: usize, src: &[f32]) {
        match self.fault(worker) {
            Some(Fault::Partition) => {
                // ordering: Relaxed — statistic.
                self.partitioned.fetch_add(1, Ordering::Relaxed);
            }
            Some(Fault::DropPush) => {
                // ordering: Relaxed — statistic.
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Some(Fault::CorruptPush) => {
                // The frame "arrives" but fails its CRC: nothing is applied
                // and the server-side collect reports Corrupt once.
                // ordering: Relaxed — statistic.
                self.corrupted.fetch_add(1, Ordering::Relaxed);
                // ordering: Relaxed — flag is consumed by the server thread's
                // collect; the supervisor's retry loop tolerates either
                // ordering of flag-set vs timeout.
                self.pending_corrupt[worker].store(true, Ordering::Relaxed);
            }
            Some(Fault::DelayPush(delay)) => {
                // ordering: Relaxed — statistic.
                self.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
                self.inner.push(worker, src);
            }
            Some(Fault::DuplicatePush) => {
                self.inner.push(worker, src);
                // ordering: Relaxed — statistic.
                self.duplicated.fetch_add(1, Ordering::Relaxed);
                self.inner.push_duplicate(worker, src);
            }
            // The worker's own faults, or none: the wire does nothing.
            Some(Fault::Crash | Fault::Stall(_) | Fault::PoisonPush) | None => {
                self.inner.push(worker, src);
            }
        }
    }

    fn collect_with(
        &self,
        worker: usize,
        timeout: Option<Duration>,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        if self.fault(worker) == Some(Fault::Partition) {
            return Err(CommError::PartitionedLink);
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

    /// `plan` over a shared-memory transport whose workers are the
    /// starting fleet.
    fn chaos(workers: usize, len: usize, plan: FaultPlan) -> ChaosTransport {
        let inner = Arc::new(CommShared::new(workers, len, len, Precision::Fp32));
        ChaosTransport::new(inner, plan, (0..workers).collect())
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let t = chaos(2, 8, FaultPlan::new(1));
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
        let mut plan = FaultPlan::new(3);
        plan.drop_rate = 1.0;
        let t = chaos(1, 4, plan);
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
        let mut plan = FaultPlan::new(4);
        plan.corrupt_rate = 1.0;
        let t = chaos(1, 4, plan);
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
        let t = chaos(2, 4, FaultPlan::new(5).with(0, 1, Fault::Partition));
        // Epoch 0: before the partition, everything flows.
        t.push(0, &[1.0; 4]);
        let mut dst = [0f32; 4];
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, [1.0; 4]);
        // Epoch 1: partitioned.
        t.begin_epoch(1);
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
        let t = chaos(1, 4, FaultPlan::new(5).with(0, 0, Fault::Partition));
        t.push(0, &[1.0; 4]);
        assert_eq!(
            t.collect_with(0, None, never),
            Err(CommError::PartitionedLink)
        );
        // A corrupt push is reported once, to whichever collect comes next.
        let mut plan = FaultPlan::new(4);
        plan.corrupt_rate = 1.0;
        let t = chaos(1, 4, plan);
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
        let mut plan = FaultPlan::new(6);
        plan.duplicate_rate = 1.0;
        let t = ChaosTransport::new(inner.clone(), plan, vec![0]);
        for epoch in 0..5 {
            t.begin_epoch(epoch);
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
        // The schedule is the plan's, read at (starting-fleet id, told
        // epoch): here the fleet has shrunk to workers 3 and 0, in that
        // order, and the run resumes at epoch 10.
        let ids = [3usize, 0];
        let schedule = |seed: u64| {
            let plan = FaultPlan {
                drop_rate: 0.3,
                corrupt_rate: 0.2,
                ..FaultPlan::new(seed).with(3, 12, Fault::DropPush)
            };
            let inner = Arc::new(CommShared::new(2, 4, 4, Precision::Fp32));
            let t = ChaosTransport::new(inner, plan.clone(), ids.to_vec());
            let mut want = ChaosStats::default();
            for e in 10..30 {
                t.begin_epoch(e);
                for (w, &id) in ids.iter().enumerate() {
                    t.push(w, &[e as f32; 4]);
                    let mut dst = [0f32; 4];
                    let _ = t.collect_timeout(w, &mut dst, Duration::from_millis(1));
                    match plan.at(id, e) {
                        Some(Fault::DropPush) => want.dropped += 1,
                        Some(Fault::CorruptPush) => want.corrupted += 1,
                        other => assert_eq!(other, None),
                    }
                }
            }
            assert_eq!(t.stats(), want, "seed {seed}");
            want
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43));
    }
}
