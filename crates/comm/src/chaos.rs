//! Deterministic network chaos injection.
//!
//! [`ChaosTransport`] wraps *any* [`Transport`] and enacts the wire faults
//! of a [`FaultPlan`] on it, scripted and rolled alike: a push is dropped,
//! delayed, duplicated or corrupted, or a worker's node is partitioned
//! outright. It wraps one worker's link and keeps no clock of its own —
//! the engine tells it the training epoch ([`ChaosTransport::begin_epoch`])
//! and the starting-fleet id of the worker behind the link, and it asks
//! [`FaultPlan::at`] — so a repartition, a shrunken fleet or a retried
//! epoch cannot move a fault.
//!
//! What each fault does at the [`Transport`] boundary is documented on its
//! [`Fault`] variant: [`DropPush`](Fault::DropPush),
//! [`CorruptPush`](Fault::CorruptPush), [`DelayPush`](Fault::DelayPush),
//! [`DuplicatePush`](Fault::DuplicatePush) (pushed and sent again by
//! [`Transport::push_duplicate`] alone) and [`Partition`](Fault::Partition).
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
    /// The starting-fleet id of the worker `inner` serves — the worker
    /// coordinate of the plan.
    id: usize,
    /// The training epoch in progress — the epoch coordinate of the plan.
    epoch: AtomicUsize,
    /// The wire faults that lose or delay a push pass it untouched
    /// ([`sparing_pushes`](Self::sparing_pushes)).
    spares_pushes: bool,
    /// Set when a corrupt push was injected; the next collect reports it.
    pending_corrupt: AtomicBool,
    dropped: AtomicU64,
    delayed: AtomicU64,
    duplicated: AtomicU64,
    corrupted: AtomicU64,
    partitioned: AtomicU64,
}

impl ChaosTransport {
    /// Wraps `inner`, one worker's link, under `plan`, at epoch 0. `id` is
    /// the starting-fleet id of that worker.
    ///
    /// # Panics
    /// Panics if `inner` serves more than one worker: the wrapper enacts
    /// one worker's cells of the plan.
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan, id: usize) -> ChaosTransport {
        assert!(inner.workers() <= 1, "a chaos link wraps one worker's link");
        ChaosTransport {
            inner,
            plan,
            id,
            epoch: AtomicUsize::new(0),
            spares_pushes: false,
            pending_corrupt: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            partitioned: AtomicU64::new(0),
        }
    }

    /// This wrapper, enacting only a duplicate: under a fault that [loses
    /// the push](Fault::loses_push) — a drop, a corruption, a partition —
    /// or delays it, the push passes untouched and on time. For a link the
    /// plan's lost and late pushes do not cover: a worker's hand-off to
    /// another worker, whose cell loses or delays its push to the server
    /// only, so that a delay is paid once an epoch, as the twin pays it.
    pub fn sparing_pushes(mut self) -> ChaosTransport {
        self.spares_pushes = true;
        self
    }

    /// Tells the wrapper which training epoch the calls that follow belong
    /// to. Called between epochs, when no worker is pulling or pushing. A
    /// corrupt push nobody collected belonged to the epoch that ended, so
    /// the next epoch's collects do not report it.
    pub fn begin_epoch(&self, epoch: usize) {
        // ordering: Relaxed — stored between epochs; the spawn of the
        // epoch's worker threads orders it before their loads.
        self.epoch.store(epoch, Ordering::Relaxed);
        // ordering: Relaxed — as for the epoch above.
        self.pending_corrupt.store(false, Ordering::Relaxed);
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

    /// What the plan does to the link's worker in the epoch in progress.
    fn fault(&self) -> Option<Fault> {
        // ordering: Relaxed — see `begin_epoch`.
        let fault = self.plan.at(self.id, self.epoch.load(Ordering::Relaxed));
        fault.filter(|fault| !(self.spares_pushes && fault.loses_push()))
    }
}

impl Transport for ChaosTransport {
    fn publish(&self, src: &[f32]) {
        self.inner.publish(src);
    }

    fn pull(&self, worker: usize, dst: &mut [f32]) {
        if self.fault() == Some(Fault::Partition) {
            return; // unreachable server: dst keeps stale data
        }
        self.inner.pull(worker, dst);
    }

    fn push(&self, worker: usize, src: &[f32]) {
        match self.fault() {
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
                self.pending_corrupt.store(true, Ordering::Relaxed);
            }
            Some(Fault::DelayPush(delay)) if !self.spares_pushes => {
                // ordering: Relaxed — statistic.
                self.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
                self.inner.push(worker, src);
            }
            Some(Fault::DuplicatePush) => {
                // ordering: Relaxed — statistic.
                self.duplicated.fetch_add(1, Ordering::Relaxed);
                self.inner.push_duplicate(worker, src);
            }
            // The worker's own faults, a spared delay, or none: the wire
            // does nothing.
            _ => {
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
        if self.fault() == Some(Fault::Partition) {
            return Err(CommError::PartitionedLink);
        }
        // ordering: Relaxed — one-shot flag; a race with the injecting
        // push only shifts which retry observes the corruption.
        if self.pending_corrupt.swap(false, Ordering::Relaxed) {
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

    fn take_decode_time(&self) -> Duration {
        self.inner.take_decode_time()
    }

    fn drain_net_events(&self) -> Vec<NetEvent> {
        self.inner.drain_net_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{CommShared, Precision};

    /// `plan` over a one-worker shared-memory link of starting-fleet
    /// worker `id`.
    fn chaos(id: usize, len: usize, plan: FaultPlan) -> ChaosTransport {
        let inner = Arc::new(CommShared::new(1, len, len, Precision::Fp32));
        ChaosTransport::new(inner, plan, id)
    }

    #[test]
    #[should_panic(expected = "one worker's link")]
    fn a_link_serving_two_workers_is_refused() {
        let inner = Arc::new(CommShared::new(2, 4, 4, Precision::Fp32));
        ChaosTransport::new(inner, FaultPlan::new(1), 0);
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let t = chaos(0, 8, FaultPlan::new(1));
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
        let t = chaos(0, 4, plan);
        t.push(0, &[1.0; 4]);
        let mut dst = [0f32; 4];
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
        assert_eq!(t.stats().dropped, 1);
    }

    #[test]
    fn a_wrapper_sparing_pushes_delivers_a_lost_cells_push_and_delays_a_late_one() {
        // Every push arrives, a late cell's too, and none is delayed: the
        // late cell's delay is its push to the server's.
        let delay = Duration::from_millis(5);
        let plan = FaultPlan::new(3)
            .with(0, 0, Fault::DropPush)
            .with(0, 1, Fault::DelayPush(delay))
            .with(0, 2, Fault::CorruptPush)
            .with(0, 3, Fault::Partition);
        let inner = Arc::new(CommShared::new(1, 4, 4, Precision::Fp32));
        let spared = ChaosTransport::new(inner, plan, 0).sparing_pushes();
        for epoch in 0..5 {
            spared.begin_epoch(epoch);
            spared.push(0, &[epoch as f32; 4]);
            let mut got = [0f32; 4];
            spared.collect_timeout(0, &mut got, Duration::ZERO).unwrap();
            assert_eq!(got, [epoch as f32; 4], "epoch {epoch}");
        }
        let stats = spared.stats();
        assert_eq!(
            (stats.dropped, stats.corrupted, stats.partitioned),
            (0, 0, 0)
        );
        assert_eq!(stats.delayed, 0);
    }

    #[test]
    fn corrupt_push_reports_once_then_times_out() {
        let mut plan = FaultPlan::new(4);
        plan.corrupt_rate = 1.0;
        let t = chaos(0, 4, plan);
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
    fn an_uncollected_corrupt_push_is_not_reported_in_the_next_epoch() {
        let t = chaos(0, 4, FaultPlan::new(4).with(0, 0, Fault::CorruptPush));
        t.push(0, &[1.0; 4]);
        t.begin_epoch(1);
        t.push(0, &[2.0; 4]);
        let mut dst = [0f32; 4];
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, [2.0; 4]);
        assert_eq!(t.stats().corrupted, 1);
    }

    #[test]
    fn partition_cuts_push_pull_and_collect() {
        // One chaos link a worker, under one plan.
        let plan = FaultPlan::new(5).with(0, 1, Fault::Partition);
        let (t, other) = (chaos(0, 4, plan.clone()), chaos(1, 4, plan));
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
        other.begin_epoch(1);
        other.publish(&[9.0; 4]);
        other.pull(0, &mut pulled);
        assert_eq!(pulled, [9.0; 4]);
        assert_eq!(t.stats().partitioned + other.stats().partitioned, 1);
    }

    #[test]
    fn the_untimed_collect_runs_the_same_fault_checks() {
        let never = &mut |_: &[f32]| panic!("consume ran on a failed collect");
        // A partitioned link fails fast instead of blocking for ever.
        let t = chaos(0, 4, FaultPlan::new(5).with(0, 0, Fault::Partition));
        t.push(0, &[1.0; 4]);
        assert_eq!(
            t.collect_with(0, None, never),
            Err(CommError::PartitionedLink)
        );
        // A corrupt push is reported once, to whichever collect comes next.
        let mut plan = FaultPlan::new(4);
        plan.corrupt_rate = 1.0;
        let t = chaos(0, 4, plan);
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
            fn push_duplicate(&self, w: usize, src: &[f32]) {
                self.inner.push(w, src);
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
        let t = ChaosTransport::new(inner.clone(), plan, 0);
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
            // One chaos link a worker.
            let links = ids.map(|id| chaos(id, 4, plan.clone()));
            let mut want = ChaosStats::default();
            for e in 10..30 {
                for (t, &id) in links.iter().zip(&ids) {
                    t.begin_epoch(e);
                    t.push(0, &[e as f32; 4]);
                    let mut dst = [0f32; 4];
                    let _ = t.collect_timeout(0, &mut dst, Duration::from_millis(1));
                    match plan.at(id, e) {
                        Some(Fault::DropPush) => want.dropped += 1,
                        Some(Fault::CorruptPush) => want.corrupted += 1,
                        other => assert_eq!(other, None),
                    }
                }
            }
            let got =
                links
                    .iter()
                    .map(ChaosTransport::stats)
                    .fold(ChaosStats::default(), |sum, s| ChaosStats {
                        dropped: sum.dropped + s.dropped,
                        delayed: sum.delayed + s.delayed,
                        duplicated: sum.duplicated + s.duplicated,
                        corrupted: sum.corrupted + s.corrupted,
                        partitioned: sum.partitioned + s.partitioned,
                    });
            assert_eq!(got, want, "seed {seed}");
            want
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43));
    }
}
