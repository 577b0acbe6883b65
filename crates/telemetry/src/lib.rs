//! Zero-cost-when-disabled observability for the HCC-MF training loop.
//!
//! The paper's collaborative framework stands on a measured cost model:
//! epoch time decomposes into `t_pull + t_comp + t_push` per worker plus
//! the server's `t_sync` (Eqs. 1–4), and the partition planner trusts that
//! decomposition. This crate records exactly those quantities as typed
//! events so a run can be replayed against the model it was planned with.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** [`Telemetry::disabled`] is a null
//!    `Option<Box<_>>`, one pointer wide; every recording call is one
//!    branch on it.
//! 2. **One lock per lane.** Each worker records on its own lane; the
//!    server lane is lane `workers`. A lane is a mutex around a
//!    pre-reserved `Vec`, so recording is an uncontended lock and a
//!    `Vec::push`, and any thread may record on any lane.
//! 3. **Bounded memory.** Lanes never grow; overflow increments the lane's
//!    drop counter, which surfaces in the [`Timeline`].
//!
//! A run ends with [`Telemetry::finish`], which drains the lanes into a
//! chronologically ordered [`Timeline`]; [`jsonl`] serializes it to one
//! JSON object per line and [`summary`] folds it into per-epoch phase
//! totals and the measured-vs-model validation report.

#![deny(unsafe_op_in_unsafe_fn)]
#![forbid(unsafe_code)]

mod event;
pub mod json;
pub mod jsonl;
pub mod summary;

pub use event::{Dir, Event, Header, NetCause, Phase, Timeline};
pub use summary::{
    epoch_breakdown, validate_cost_model, EpochBreakdown, ModelRow, ModelValidation, PhaseTotals,
};

use hcc_sync::Mutex;
use std::time::{Duration, Instant};

/// Default capacity per lane: enough for hundreds of epochs of the
/// ~6 events a lane records per epoch, at ~48 bytes per event.
pub const DEFAULT_LANE_CAPACITY: usize = 4096;

struct Inner {
    origin: Instant,
    header: Header,
    /// One lane per worker, plus the server/orchestrator lane at index
    /// `header.workers`.
    lanes: Vec<Mutex<Lane>>,
}

/// One lane's events, reserved up front, and the count it had no room for.
struct Lane {
    events: Vec<Event>,
    dropped: u64,
}

/// A handle recording training telemetry, shared by reference across
/// threads.
///
/// The handle is either *enabled* (owns the lanes) or *disabled* (holds
/// nothing); all recording methods no-op on a disabled handle after a
/// single branch. The handle is deliberately not `Clone`: exactly one
/// exists per training session or serve engine, threads borrow it, and
/// [`finish`] consumes it once every borrow has ended.
///
/// [`finish`]: Telemetry::finish
pub struct Telemetry(Option<Box<Inner>>);

impl Telemetry {
    /// A disabled handle: every call is a no-op behind one branch.
    pub fn disabled() -> Telemetry {
        Telemetry(None)
    }

    /// An enabled handle with `header.workers + 1` lanes (workers plus the
    /// server), each holding up to `lane_capacity` events.
    pub fn enabled(header: Header, lane_capacity: usize) -> Telemetry {
        let lanes = (0..=header.workers)
            .map(|_| {
                Mutex::new(Lane {
                    events: Vec::with_capacity(lane_capacity.max(1)),
                    dropped: 0,
                })
            })
            .collect();
        Telemetry(Some(Box::new(Inner {
            origin: Instant::now(),
            header,
            lanes,
        })))
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The server/orchestrator lane index (`header.workers`; 0 if disabled).
    pub fn server_lane(&self) -> u32 {
        self.0.as_ref().map_or(0, |i| i.header.workers)
    }

    /// Microseconds since this handle was created (0 when disabled).
    /// Pair with [`phase`](Telemetry::phase) to timestamp a span start.
    pub fn now_us(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.origin.elapsed().as_micros() as u64)
    }

    /// Records a phase span on `lane`. `start_us` comes from
    /// [`now_us`](Telemetry::now_us) at span start; `dur` is the caller's
    /// own measurement (the training loop already times each phase for its
    /// per-epoch stats, so telemetry reuses those clocks rather than
    /// adding its own).
    pub fn phase(
        &self,
        lane: u32,
        epoch: u32,
        worker: u32,
        phase: Phase,
        start_us: u64,
        dur: Duration,
    ) {
        self.record(
            lane,
            Event::Phase {
                epoch,
                worker,
                phase,
                start_us,
                dur_us: dur.as_micros() as u64,
            },
        );
    }

    /// Records an arbitrary event on `lane` (supervisor and checkpoint
    /// events go on the server lane).
    pub fn record(&self, lane: u32, event: Event) {
        if let Some(inner) = &self.0 {
            inner.push(lane, event);
        }
    }

    /// Records per-direction wire bytes for `epoch` on the server lane.
    pub fn bytes(&self, epoch: u32, dir: Dir, bytes: u64) {
        if let Some(inner) = &self.0 {
            if bytes > 0 {
                inner.push(inner.header.workers, Event::Bytes { epoch, dir, bytes });
            }
        }
    }

    /// Consumes the handle and merges all lanes into a [`Timeline`]
    /// ordered by `(epoch, start time)`. `None` when disabled.
    pub fn finish(self) -> Option<Timeline> {
        let inner = *self.0?;
        let mut dropped = 0;
        let mut events = Vec::new();
        for lane in inner.lanes {
            let mut lane = lane.into_inner();
            dropped += lane.dropped;
            events.append(&mut lane.events);
        }
        // Spans carry a start timestamp; point events (epoch-end, rollback,
        // supervisor verdicts) happen at the end of their epoch, so they
        // sort after that epoch's spans.
        events.sort_by_key(|ev| match *ev {
            Event::Phase {
                epoch, start_us, ..
            } => (epoch, start_us),
            _ => (ev.epoch(), u64::MAX),
        });
        Some(Timeline {
            header: inner.header,
            events,
            dropped,
        })
    }
}

impl Inner {
    /// Appends `event` to `lane`, or counts it as dropped when the lane is
    /// full; below the reserved capacity a push never reallocates.
    fn push(&self, lane: u32, event: Event) {
        // Clamp rather than panic: a mis-indexed lane loses attribution,
        // not the run.
        let mut lane = self.lanes[(lane as usize).min(self.lanes.len() - 1)].lock();
        if lane.events.len() < lane.events.capacity() {
            lane.events.push(event);
        } else {
            lane.dropped += 1;
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(workers: u32) -> Header {
        Header {
            workers,
            k: 8,
            nnz: 100,
            strategy: "q-only".into(),
            streams: 1,
            backend: "scalar".into(),
            schedule: "stripe".into(),
        }
    }

    #[test]
    fn disabled_records_nothing_and_finishes_none() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.now_us(), 0);
        t.phase(0, 0, 0, Phase::Comp, 0, Duration::from_millis(1));
        t.bytes(0, Dir::Pull, 100);
        // A disabled handle is a null pointer: every call is one branch.
        assert_eq!(
            std::mem::size_of::<Telemetry>(),
            std::mem::size_of::<usize>()
        );
        assert!(t.finish().is_none());
    }

    #[test]
    fn concurrent_workers_record_into_own_lanes() {
        let t = Telemetry::enabled(header(4), 256);
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let t = &t;
                s.spawn(move || {
                    for epoch in 0..8 {
                        t.phase(w, epoch, w, Phase::Comp, t.now_us(), Duration::ZERO);
                        t.phase(w, epoch, w, Phase::Push, t.now_us(), Duration::ZERO);
                    }
                });
            }
        });
        t.bytes(0, Dir::Push, 42);
        t.record(
            t.server_lane(),
            Event::EpochEnd {
                epoch: 0,
                wall_us: 1,
            },
        );
        let timeline = t.finish().unwrap();
        assert_eq!(timeline.dropped, 0);
        assert_eq!(timeline.events.len(), 4 * 8 * 2 + 2);
        // Sorted by (epoch, start): epochs are non-decreasing.
        let epochs: Vec<u32> = timeline.events.iter().map(|e| e.epoch()).collect();
        let mut sorted = epochs.clone();
        sorted.sort_unstable();
        assert_eq!(epochs, sorted);
    }

    #[test]
    fn overflow_is_counted_not_fatal() {
        let t = Telemetry::enabled(header(1), 4);
        for epoch in 0..10 {
            t.phase(0, epoch, 0, Phase::Comp, 0, Duration::ZERO);
        }
        let timeline = t.finish().unwrap();
        assert_eq!(timeline.events.len(), 4);
        assert_eq!(timeline.dropped, 6);
    }

    /// The disabled hot path must be a branch, not a syscall: 1M calls in
    /// well under the time even 2% of a short epoch would allow. The bound
    /// is deliberately loose (shared CI runners) — the structural check is
    /// the size assertion in `disabled_records_nothing_and_finishes_none`.
    #[test]
    fn disabled_calls_are_branch_cheap() {
        let t = Telemetry::disabled();
        let start = Instant::now();
        for i in 0..1_000_000u32 {
            t.phase(0, i, 0, Phase::Comp, 0, Duration::ZERO);
            std::hint::black_box(&t);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(500),
            "1M disabled calls took {elapsed:?}"
        );
    }

    /// Two threads record on one lane with no handoff between them: the
    /// lane's lock keeps every event that fits and counts the rest.
    #[test]
    fn two_writers_on_one_lane_lose_nothing_uncounted() {
        const CALLS: u32 = 200_000;
        for (capacity, kept) in [(400_000, 400_000), (1_000, 1_000)] {
            let t = Telemetry::enabled(header(1), capacity);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let t = &t;
                    s.spawn(move || {
                        for epoch in 0..CALLS {
                            t.record(1, Event::EpochEnd { epoch, wall_us: 1 });
                        }
                    });
                }
            });
            let timeline = t.finish().unwrap();
            assert_eq!(timeline.events.len(), kept, "capacity {capacity}");
            assert_eq!(
                timeline.dropped,
                (2 * CALLS as usize - kept) as u64,
                "capacity {capacity}"
            );
        }
    }
}
