//! Training supervisor: heartbeats, health classification, divergence guard.
//!
//! The supervisor is a policy the epoch engine consults (Fig. 4 steps ①–④),
//! not a loop of its own. Each worker stamps a heartbeat when it finishes
//! computing; the server side collects pushes with a bounded-retry timeout.
//! At every epoch boundary the supervisor:
//!
//! 1. classifies each worker **healthy / straggler / dead** from its
//!    heartbeat and compute time,
//! 2. checks the epoch loss against the divergence guard (NaN or explosion
//!    past `divergence_factor ×` the best loss seen), rolling back to the
//!    last good in-memory snapshot with learning-rate backoff when it trips,
//! 3. drops dead workers and re-plans the partition over the survivors.
//!
//! Rollbacks are bounded: once `max_rollbacks` are spent the run fails with
//! the typed [`HccError::Diverged`](crate::HccError::Diverged) instead of
//! looping forever.

use hcc_sync::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Tuning knobs for the fault-tolerance layer. Constructed via
/// [`SupervisorConfig::default`] and adjusted with struct-update syntax.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// How long the server waits for one worker's push before a retry.
    pub heartbeat_timeout: Duration,
    /// Collect attempts per worker per epoch before declaring it dead.
    pub collect_retries: u32,
    /// Multiplier applied to the timeout on each successive retry.
    pub retry_backoff: f64,
    /// A worker whose compute time exceeds `straggler_factor ×` the median
    /// is flagged a straggler (kept, but reported and replanned around by
    /// the normal Algorithm-1 adaptation).
    pub straggler_factor: f64,
    /// Minimum *absolute* excess over the median before the straggler flag
    /// can trip. On sub-millisecond epochs scheduler jitter easily exceeds
    /// any relative factor; this floor keeps the classifier quiet there.
    pub straggler_floor: Duration,
    /// Loss above `divergence_factor × best_loss` (or non-finite) trips the
    /// divergence guard.
    pub divergence_factor: f64,
    /// Rollback budget before giving up with `HccError::Diverged`.
    pub max_rollbacks: u32,
    /// Learning-rate multiplier applied on every rollback.
    pub lr_backoff: f64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            heartbeat_timeout: Duration::from_secs(2),
            collect_retries: 3,
            retry_backoff: 2.0,
            straggler_factor: 3.0,
            straggler_floor: Duration::from_millis(50),
            divergence_factor: 2.0,
            max_rollbacks: 4,
            lr_backoff: 0.5,
        }
    }
}

/// Per-worker health at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerHealth {
    /// Heartbeat current, compute time near the fleet median.
    Healthy,
    /// Alive but slower than `straggler_factor ×` the median compute time.
    Straggler,
    /// Missed its heartbeat (crash, panic, or exhausted collect retries).
    Dead,
}

/// Lock-free heartbeat board shared between worker threads and the server.
///
/// Workers stamp a monotonically increasing epoch counter; the supervisor
/// reads it at the epoch boundary. A worker that panics (or is crashed by a
/// [`FaultPlan`](hcc_comm::FaultPlan)) flips its `dead` flag so the
/// server can stop waiting on it immediately.
#[derive(Debug)]
pub struct HeartbeatBoard {
    beats: Vec<AtomicU64>,
    dead: Vec<AtomicBool>,
}

impl HeartbeatBoard {
    pub fn new(workers: usize) -> Self {
        HeartbeatBoard {
            beats: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            dead: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Worker `w` reports it finished epoch `epoch` (stored as `epoch + 1`
    /// so 0 means "never beat").
    pub fn beat(&self, w: usize, epoch: usize) {
        // ordering: Release — pairs with the Acquire in `has_beat`: a
        // reader that sees the beat for epoch `e` also sees every write
        // the worker made computing epoch `e`. Neither the numeric
        // payload nor the classifier needs it today: the factor data
        // flows through the transport's own synchronization, and the
        // classifier gets the compute stats through the epoch scope's
        // join. The edge is for a reader that has not joined (hcc-check's
        // `HeartbeatBoard` case explores one).
        self.beats[w].store(epoch as u64 + 1, Ordering::Release);
    }

    /// True if worker `w` has beaten for `epoch`.
    pub fn has_beat(&self, w: usize, epoch: usize) -> bool {
        // ordering: Acquire — pairs with the Release in `beat` (see there).
        self.beats[w].load(Ordering::Acquire) > epoch as u64
    }

    pub fn mark_dead(&self, w: usize) {
        // ordering: Release — set from the catch_unwind handler after the
        // dying worker's last writes; pairs with `is_dead`'s Acquire so
        // the server's cleanup reads a settled worker state.
        self.dead[w].store(true, Ordering::Release);
    }

    pub fn is_dead(&self, w: usize) -> bool {
        // ordering: Acquire — pairs with the Release in `mark_dead`.
        self.dead[w].load(Ordering::Acquire)
    }

    pub fn len(&self) -> usize {
        self.beats.len()
    }

    pub fn is_empty(&self) -> bool {
        self.beats.is_empty()
    }

    /// Rebuilds the board for a re-packed survivor list, all alive.
    pub fn resize(&mut self, workers: usize) {
        *self = HeartbeatBoard::new(workers);
    }
}

/// Epoch-boundary state machine driven by the training loop.
#[derive(Debug)]
pub struct Supervisor {
    pub cfg: SupervisorConfig,
    pub board: HeartbeatBoard,
    /// Best (lowest) finite loss observed so far; divergence is judged
    /// against this.
    best_loss: f64,
    rollbacks_used: u32,
    /// Cumulative learning-rate scale from divergence backoff.
    lr_scale: f64,
}

impl Supervisor {
    pub fn new(cfg: SupervisorConfig, workers: usize) -> Self {
        Supervisor {
            cfg,
            board: HeartbeatBoard::new(workers),
            best_loss: f64::INFINITY,
            rollbacks_used: 0,
            lr_scale: 1.0,
        }
    }

    /// Seeds the guard with the pre-training loss so the very first epoch
    /// has a baseline to explode against.
    pub fn observe_baseline(&mut self, loss: f64) {
        if loss.is_finite() {
            self.best_loss = self.best_loss.min(loss);
        }
    }

    /// True when `loss` trips the divergence guard.
    pub fn is_diverged(&self, loss: f64) -> bool {
        if !loss.is_finite() {
            return true;
        }
        self.best_loss.is_finite() && loss > self.best_loss * self.cfg.divergence_factor
    }

    /// Registers a good epoch: updates the best loss.
    pub fn accept(&mut self, loss: f64) {
        if loss.is_finite() && loss < self.best_loss {
            self.best_loss = loss;
        }
    }

    /// Spends one rollback and applies learning-rate backoff. Returns the
    /// new cumulative LR scale, or `None` when the budget is exhausted (the
    /// caller then fails with `HccError::Diverged`).
    pub fn rollback(&mut self) -> Option<f64> {
        if self.rollbacks_used >= self.cfg.max_rollbacks {
            return None;
        }
        self.rollbacks_used += 1;
        self.lr_scale *= self.cfg.lr_backoff;
        Some(self.lr_scale)
    }

    pub fn rollbacks_used(&self) -> u32 {
        self.rollbacks_used
    }

    pub fn lr_scale(&self) -> f64 {
        self.lr_scale
    }

    /// Restores a cumulative LR scale (used when resuming from checkpoint).
    pub fn set_lr_scale(&mut self, scale: f64) {
        if scale.is_finite() && scale > 0.0 {
            self.lr_scale = scale;
        }
    }

    /// Classifies every worker after an epoch. `compute_secs[w]` is the
    /// epoch compute time, `missed[w]` is true when the server never
    /// received a valid push (timeout, drop, or corruption), and `beat[w]`
    /// whether the worker's heartbeat arrived for this epoch.
    ///
    /// A worker whose push is missing but whose heartbeat is current (it
    /// computed, the message was lost or poisoned) is a *straggler*: kept,
    /// its shard skipped this epoch. Only a missing push *and* a missing
    /// heartbeat — or an explicit dead flag — means dead.
    pub fn classify(
        &self,
        compute_secs: &[f64],
        missed: &[bool],
        beat: &[bool],
    ) -> Vec<WorkerHealth> {
        let mut alive: Vec<f64> = compute_secs
            .iter()
            .zip(missed)
            .enumerate()
            .filter(|(w, (_, &miss))| !miss && !self.board.is_dead(*w))
            .map(|(_, (&t, _))| t)
            .collect();
        alive.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = if alive.is_empty() {
            0.0
        } else {
            alive[alive.len() / 2]
        };
        compute_secs
            .iter()
            .zip(missed.iter().zip(beat))
            .enumerate()
            .map(|(w, (&t, (&miss, &beat)))| {
                let slow = median > 0.0
                    && t > median * self.cfg.straggler_factor
                    && t - median > self.cfg.straggler_floor.as_secs_f64();
                if self.board.is_dead(w) || (miss && !beat) {
                    WorkerHealth::Dead
                } else if miss || slow {
                    WorkerHealth::Straggler
                } else {
                    WorkerHealth::Healthy
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_board_tracks_beats_and_death() {
        let board = HeartbeatBoard::new(3);
        assert!(!board.has_beat(0, 0));
        board.beat(0, 0);
        assert!(board.has_beat(0, 0));
        assert!(!board.has_beat(0, 1));
        board.beat(0, 5);
        assert!(board.has_beat(0, 3)); // monotone counter covers old epochs
        assert!(!board.is_dead(1));
        board.mark_dead(1);
        assert!(board.is_dead(1));
    }

    #[test]
    fn divergence_guard_trips_on_nan_and_explosion() {
        let mut sup = Supervisor::new(SupervisorConfig::default(), 2);
        sup.observe_baseline(1.0);
        assert!(!sup.is_diverged(1.5));
        assert!(sup.is_diverged(2.5)); // > 2× best
        assert!(sup.is_diverged(f64::NAN));
        assert!(sup.is_diverged(f64::INFINITY));
        sup.accept(0.5);
        assert!(sup.is_diverged(1.2)); // best tightened to 0.5
    }

    #[test]
    fn rollback_budget_is_bounded_and_backs_off_lr() {
        let cfg = SupervisorConfig {
            max_rollbacks: 2,
            lr_backoff: 0.5,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(cfg, 1);
        assert_eq!(sup.rollback(), Some(0.5));
        assert_eq!(sup.rollback(), Some(0.25));
        assert_eq!(sup.rollback(), None);
        assert_eq!(sup.rollbacks_used(), 2);
    }

    #[test]
    fn classify_spots_stragglers_and_dead() {
        let sup = Supervisor::new(SupervisorConfig::default(), 4);
        sup.board.mark_dead(3);
        let health = sup.classify(
            &[1.0, 1.1, 9.0, 1.0],
            &[false, false, false, false],
            &[true, true, true, false],
        );
        assert_eq!(health[0], WorkerHealth::Healthy);
        assert_eq!(health[1], WorkerHealth::Healthy);
        assert_eq!(health[2], WorkerHealth::Straggler);
        assert_eq!(health[3], WorkerHealth::Dead);
    }

    #[test]
    fn classify_distinguishes_lost_push_from_dead_worker() {
        let sup = Supervisor::new(SupervisorConfig::default(), 3);
        // Worker 1: push missing but heartbeat current → straggler (alive).
        // Worker 2: push missing and no heartbeat → dead.
        let health = sup.classify(&[1.0, 1.0, 0.0], &[false, true, true], &[true, true, false]);
        assert_eq!(
            health,
            vec![
                WorkerHealth::Healthy,
                WorkerHealth::Straggler,
                WorkerHealth::Dead
            ]
        );
    }
}
