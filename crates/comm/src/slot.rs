//! The push slot: where one worker's push lands and where the server
//! collects it, on every base transport.
//!
//! The paper's COMM gives each worker one push buffer the server merges
//! from where the push landed. A [`PushSlot`] is that buffer plus its
//! bookkeeping — the pushed length, a `ready` flag, the idempotency key of
//! the last push that landed — and its three operations are the only
//! landing, collect and retire in the crate:
//!
//! * [`PushSlot::land`] — **the landing rule.** A push under the key that
//!   last landed is a retransmission: it is only checked, and the slot is
//!   not touched. Anything else takes the buffer out of the slot under the
//!   lock (`mem::take`, no allocation) with `ready = false`, is written
//!   into it with the lock released, and becomes the slot's push — `len`,
//!   `ready` and the key — only if the write succeeded. No collect can view
//!   a half-landed push, and a writer that stalls holds no lock a collect
//!   deadline needs. A failed write costs the unconsumed push it displaced.
//!   A slot takes one land at a time: an in-process worker pushes from its
//!   own thread, and the socket's per-worker block serializes its frames.
//! * [`PushSlot::collect_with`] — waits for a ready push (for ever, or up
//!   to a timeout) and hands `consume` exactly the pushed elements, in
//!   place, under the slot's lock; `consume` runs once on `Ok`, never on
//!   `Err`.
//! * [`PushSlot::retire`] — what a `publish` does to every slot: a push
//!   nobody collected belongs to the epoch before and is never handed out.
//!   The key stays, so a retransmission of the retired push is still only
//!   checked.

use crate::transport::CommError;
use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One worker's landed push.
pub(crate) struct PushSlot {
    landed: Mutex<Landed>,
    /// Signalled when a push becomes ready.
    cv: Condvar,
}

struct Landed {
    /// The push buffer, sized when the transport is built. Out of the slot
    /// (empty) while a push is being written into it.
    buf: Vec<f32>,
    /// Elements of `buf` the last push wrote: a shorter push after a longer
    /// one must not hand out the longer one's tail.
    len: usize,
    /// A push landed whole and was neither collected nor retired.
    ready: bool,
    /// Idempotency key of the last push that landed: a framed wire's
    /// `(seq, chunk)`.
    key: Option<(u32, u32)>,
}

impl PushSlot {
    /// A slot for pushes of up to `len` elements.
    pub(crate) fn new(len: usize) -> PushSlot {
        PushSlot {
            landed: Mutex::new(Landed {
                buf: vec![0f32; len],
                len: 0,
                ready: false,
                key: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Lands one push by the landing rule (module docs). `fill` writes the
    /// push into the buffer it is handed and returns how many elements it
    /// wrote; a retransmission of the last key is handed an empty buffer,
    /// to check the push without writing it. `key` is `None` on a wire
    /// whose every push is new. Returns whether the push landed (`false`:
    /// a checked retransmission), or `fill`'s error.
    pub(crate) fn land<E>(
        &self,
        key: Option<(u32, u32)>,
        fill: impl FnOnce(&mut [f32]) -> Result<usize, E>,
    ) -> Result<bool, E> {
        let mut landed = self.landed.lock();
        if key.is_some() && landed.key == key {
            drop(landed);
            return fill(&mut []).map(|_| false);
        }
        let mut buf = std::mem::take(&mut landed.buf);
        landed.ready = false;
        drop(landed);
        let filled = fill(&mut buf);
        let mut landed = self.landed.lock();
        landed.buf = buf;
        if let Ok(len) = filled {
            landed.len = len;
            landed.ready = true;
            landed.key = key;
            self.cv.notify_all();
        }
        filled.map(|_| true)
    }

    /// Waits for a ready push — for ever when `timeout` is `None` — and
    /// hands `consume` its elements where they landed. A push that arrives
    /// meanwhile waits at [`land`](Self::land)'s first lock.
    pub(crate) fn collect_with(
        &self,
        timeout: Option<Duration>,
        consume: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut landed = self.landed.lock();
        while !landed.ready {
            let Some(deadline) = deadline else {
                self.cv.wait(&mut landed);
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout);
            }
            // Spurious wakeups re-enter the loop with the original deadline.
            self.cv.wait_for(&mut landed, deadline - now);
        }
        landed.ready = false;
        consume(&landed.buf[..landed.len]);
        Ok(())
    }

    /// Retires an uncollected push: the next collect waits for a new one.
    pub(crate) fn retire(&self) {
        self.landed.lock().ready = false;
    }
}

#[cfg(test)]
impl PushSlot {
    /// Where a collect's view must point: the slot's own buffer.
    pub(crate) fn buffer(&self) -> *const f32 {
        self.landed.lock().buf.as_ptr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy(src: &[f32]) -> impl FnOnce(&mut [f32]) -> Result<usize, ()> + '_ {
        |buf| {
            buf[..src.len()].copy_from_slice(src);
            Ok(src.len())
        }
    }

    fn collected(slot: &PushSlot, timeout: Duration) -> Result<Vec<f32>, CommError> {
        let mut got = Vec::new();
        slot.collect_with(Some(timeout), &mut |pushed| got.extend_from_slice(pushed))
            .map(|()| got)
    }

    #[test]
    fn a_push_is_collected_once_and_exactly_as_long_as_it_was() {
        let slot = PushSlot::new(4);
        assert_eq!(slot.land(None, copy(&[1.0, 2.0, 3.0, 4.0])), Ok(true));
        assert_eq!(slot.land(None, copy(&[5.0])), Ok(true));
        assert_eq!(collected(&slot, Duration::from_secs(1)), Ok(vec![5.0]));
        assert_eq!(
            collected(&slot, Duration::from_millis(10)),
            Err(CommError::Timeout)
        );
    }

    #[test]
    fn a_failed_fill_lands_nothing_and_costs_the_push_it_displaced() {
        let slot = PushSlot::new(2);
        assert_eq!(slot.land(Some((1, 0)), copy(&[1.0, 1.0])), Ok(true));
        assert_eq!(slot.land(Some((2, 0)), |_| Err("bad crc")), Err("bad crc"));
        assert_eq!(
            collected(&slot, Duration::from_millis(10)),
            Err(CommError::Timeout)
        );
        // The failed key did not land: its retry is a new push.
        assert_eq!(slot.land(Some((2, 0)), copy(&[2.0, 2.0])), Ok(true));
        assert_eq!(collected(&slot, Duration::from_secs(1)), Ok(vec![2.0, 2.0]));
    }

    #[test]
    fn a_retransmission_is_checked_on_an_empty_buffer_and_lands_nothing() {
        let slot = PushSlot::new(2);
        assert_eq!(slot.land(Some((7, 0)), copy(&[1.0, 2.0])), Ok(true));
        let mut handed = None;
        let again = slot.land(Some((7, 0)), |buf| {
            handed = Some(buf.len());
            Ok::<_, ()>(2)
        });
        assert_eq!((again, handed), (Ok(false), Some(0)));
        assert_eq!(collected(&slot, Duration::from_secs(1)), Ok(vec![1.0, 2.0]));
    }

    #[test]
    fn a_retired_push_is_never_collected_and_its_retransmission_stays_checked() {
        let slot = PushSlot::new(1);
        assert_eq!(slot.land(Some((3, 0)), copy(&[9.0])), Ok(true));
        slot.retire();
        assert_eq!(slot.land(Some((3, 0)), |_| Ok::<_, ()>(1)), Ok(false));
        let mut calls = 0;
        assert_eq!(
            slot.collect_with(Some(Duration::from_millis(20)), &mut |_| calls += 1),
            Err(CommError::Timeout)
        );
        assert_eq!(calls, 0);
    }

    #[test]
    fn a_collect_waits_for_a_push_landing_on_another_thread() {
        let slot = PushSlot::new(3);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                slot.land(None, copy(&[4.0, 5.0, 6.0])).unwrap();
            });
            let mut got = Vec::new();
            slot.collect_with(None, &mut |pushed| got.extend_from_slice(pushed))
                .unwrap();
            assert_eq!(got, vec![4.0, 5.0, 6.0]);
        });
    }
}
