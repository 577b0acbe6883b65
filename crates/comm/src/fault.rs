//! The fault vocabulary: everything a run can be told to do wrong.
//!
//! An epoch is one task DAG — pull → compute → push → sync, per worker —
//! and a fault is one perturbation of it. A [`FaultPlan`] lists the
//! perturbations of a whole run, scripted (`worker 2 crashes at epoch 3`)
//! and rolled (`every push is dropped with probability 0.1`), and
//! [`FaultPlan::at`] is the only way anything reads it.
//!
//! **Coordinates.** A fault belongs to a *worker* at a *training epoch*:
//! the worker's index in the fleet the run started with (a machine keeps
//! its id when survivors are re-packed) and the epoch counter of the
//! training loop (a retried or resumed epoch keeps its number). Not to a
//! fleet slot, not to a push count, and not to one of the worker's shard
//! links — a sharded server cannot assemble part of a row update, so a
//! worker's push arrives whole or not at all.
//!
//! **Enactors.** Each fault is enacted once per engine. Threaded: the
//! worker's epoch in `hcc-mf` enacts [`Crash`](Fault::Crash),
//! [`Stall`](Fault::Stall) and [`PoisonPush`](Fault::PoisonPush);
//! [`ChaosTransport`](crate::ChaosTransport) enacts the rest, the wire's.
//! Virtual time: `hcc_hetsim::simulate_epoch_faulty` maps all of them onto
//! its calendar. DESIGN.md §13.3 has the table.
//!
//! Nothing here reads a clock or keeps a counter, so a `(plan, config)`
//! pair injects the same faults at the same places on every run and in
//! both engines.

use std::time::Duration;

/// Op codes mixed into [`chaos_roll`]'s stream: one independent draw per
/// kind of rolled fault, and one for where a poisoned push starts.
const OP_DROP: u8 = 1;
const OP_DELAY: u8 = 2;
const OP_DUPLICATE: u8 = 3;
const OP_CORRUPT: u8 = 4;
const OP_POISON: u8 = 5;

/// Deterministic unit draw in `[0, 1)` for `(seed, worker, epoch, op)`: a
/// golden-ratio stream split followed by a splitmix64 finalizer.
fn chaos_roll(seed: u64, worker: usize, epoch: u64, op: u8) -> f64 {
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

/// What goes wrong with one worker during one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The worker dies at the start of the epoch: it computes nothing and
    /// never pushes. The supervisor marks it dead and re-plans the
    /// partition over the survivors.
    Crash,
    /// The worker loses this long before computing (a thermal throttle, a
    /// noisy neighbour). It still finishes the epoch; the supervisor may
    /// classify it a straggler.
    Stall(Duration),
    /// The push is NaN-poisoned before it is sent; the server's integrity
    /// check must discard it whole rather than merge garbage into `Q`.
    PoisonPush,
    /// The push is lost in transit: the worker computes, the server's
    /// collect times out.
    DropPush,
    /// The push arrives but fails its CRC: the server's collect reports
    /// [`CommError::Corrupt`](crate::CommError::Corrupt) once, then finds
    /// nothing, as for a dropped push.
    CorruptPush,
    /// The push is delivered this late, making the worker a straggler for
    /// the epoch.
    DelayPush(Duration),
    /// The push is delivered twice under one sequence number; the server's
    /// idempotent dedup must apply it once.
    DuplicatePush,
    /// The worker's node is unreachable from this epoch on: pulls return
    /// nothing new, pushes vanish, and collects fail fast with
    /// [`CommError::PartitionedLink`](crate::CommError::PartitionedLink) so
    /// the supervisor declares the worker dead.
    Partition,
}

impl Fault {
    /// True when the server merges nothing from the worker this epoch.
    pub fn loses_push(self) -> bool {
        match self {
            Fault::Crash
            | Fault::PoisonPush
            | Fault::DropPush
            | Fault::CorruptPush
            | Fault::Partition => true,
            Fault::Stall(_) | Fault::DelayPush(_) | Fault::DuplicatePush => false,
        }
    }

    /// True when the fault is the worker's own and loses its push: what it
    /// sends is lost wherever it goes, a band it hands to another worker
    /// too. The wire's faults lose its push to the server only.
    pub fn loses_hand_offs(self) -> bool {
        matches!(self, Fault::Crash | Fault::PoisonPush)
    }
}

/// A seeded description of every fault of a run: scripted events plus the
/// rates at which pushes are hit at random. See the module docs for the
/// coordinate rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every rolled decision.
    pub seed: u64,
    /// Scripted `(worker, epoch, fault)` events. A [`Fault::Partition`]
    /// holds from its epoch on, every other fault for its epoch only.
    pub events: Vec<(usize, usize, Fault)>,
    /// Probability a push is dropped.
    pub drop_rate: f64,
    /// Probability a push arrives corrupt.
    pub corrupt_rate: f64,
    /// Probability a push is delayed by [`delay`](FaultPlan::delay).
    pub delay_rate: f64,
    /// How late a delayed push is.
    pub delay: Duration,
    /// Probability a push is wire-duplicated.
    pub duplicate_rate: f64,
}

impl FaultPlan {
    /// A plan that injects nothing: no events, every rate zero.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::ZERO,
            duplicate_rate: 0.0,
        }
    }

    /// The CLI's `--net-chaos SEED` recipe, a moderately hostile network:
    /// 10% drops, 5% corruption, 10% delays of 5 ms, 15% duplicates.
    pub fn from_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            drop_rate: 0.10,
            corrupt_rate: 0.05,
            delay_rate: 0.10,
            delay: Duration::from_millis(5),
            duplicate_rate: 0.15,
            ..FaultPlan::new(seed)
        }
    }

    /// Scripts `fault` for `worker` at `epoch`.
    pub fn with(mut self, worker: usize, epoch: usize, fault: Fault) -> FaultPlan {
        self.events.push((worker, epoch, fault));
        self
    }

    /// The fault of `worker` at `epoch`, if any: the first scripted event
    /// that covers the cell, else the first rolled fault in the order drop,
    /// corrupt, delay, duplicate. A push suffers one thing.
    pub fn at(&self, worker: usize, epoch: usize) -> Option<Fault> {
        let scripted = self.events.iter().find(|&&(w, e, fault)| {
            w == worker && (e == epoch || (fault == Fault::Partition && e < epoch))
        });
        if let Some(&(_, _, fault)) = scripted {
            return Some(fault);
        }
        let hit = |op, rate| chaos_roll(self.seed, worker, epoch as u64, op) < rate;
        if hit(OP_DROP, self.drop_rate) {
            Some(Fault::DropPush)
        } else if hit(OP_CORRUPT, self.corrupt_rate) {
            Some(Fault::CorruptPush)
        } else if hit(OP_DELAY, self.delay_rate) {
            Some(Fault::DelayPush(self.delay))
        } else if hit(OP_DUPLICATE, self.duplicate_rate) {
            Some(Fault::DuplicatePush)
        } else {
            None
        }
    }

    /// Enacts [`Fault::PoisonPush`] on `worker`'s push of `epoch`: writes a
    /// NaN into every hundredth cell, from a start rolled among the first
    /// hundred — about 1 % of the cells, at least one — so the server's
    /// integrity check has something real to catch.
    pub fn poison(&self, worker: usize, epoch: usize, push: &mut [f32]) {
        let start = chaos_roll(self.seed, worker, epoch as u64, OP_POISON);
        let first = (start * push.len().min(100) as f64) as usize;
        for cell in push.iter_mut().skip(first).step_by(100) {
            *cell = f32::NAN;
        }
    }

    /// Checks the plan against a fleet of `workers`: every rate is a
    /// probability, every event names a worker of the fleet, and somebody
    /// is left to train. The message names what is wrong.
    pub fn check(&self, workers: usize) -> Result<(), String> {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("corrupt_rate", self.corrupt_rate),
            ("delay_rate", self.delay_rate),
            ("duplicate_rate", self.duplicate_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault plan {name} {rate} is outside [0, 1]"));
            }
        }
        if let Some((w, e, fault)) = self.events.iter().find(|event| event.0 >= workers) {
            return Err(format!(
                "fault plan schedules {fault:?} at epoch {e} for worker {w} of a fleet of {workers}"
            ));
        }
        let removed = |worker| {
            self.events.iter().any(|&(w, _, fault)| {
                w == worker && matches!(fault, Fault::Crash | Fault::Partition)
            })
        };
        if (0..workers).all(removed) {
            return Err(format!(
                "fault plan crashes or partitions every one of the {workers} workers"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn builder_and_lookup() {
        let stall = Fault::Stall(Duration::from_millis(50));
        let plan = FaultPlan::new(7)
            .with(1, 3, Fault::Crash)
            .with(0, 2, stall)
            .with(2, 4, Fault::PoisonPush)
            .with(3, 1, Fault::DropPush)
            .with(1, 3, Fault::DropPush); // shadowed: the first listed wins
        assert_eq!(plan.at(1, 3), Some(Fault::Crash));
        assert_eq!(plan.at(0, 2), Some(stall));
        assert_eq!(plan.at(2, 4), Some(Fault::PoisonPush));
        assert_eq!(plan.at(3, 1), Some(Fault::DropPush));
        assert_eq!(plan.at(1, 2), None);
        assert_eq!(plan.at(1, 4), None);
        // A scripted event outranks whatever the rates would have rolled.
        let certain = FaultPlan {
            drop_rate: 1.0,
            ..plan
        };
        assert_eq!(certain.at(1, 3), Some(Fault::Crash));
        assert_eq!(certain.at(1, 2), Some(Fault::DropPush));
    }

    #[test]
    fn rolled_faults_take_one_kind_a_cell_in_a_fixed_order() {
        let every = |plan: &FaultPlan| (0..50).map(|e| plan.at(0, e)).collect::<Vec<_>>();
        let delay = Duration::from_millis(5);
        let mut plan = FaultPlan {
            duplicate_rate: 1.0,
            delay,
            ..FaultPlan::new(9)
        };
        assert_eq!(every(&plan), vec![Some(Fault::DuplicatePush); 50]);
        plan.delay_rate = 1.0;
        assert_eq!(every(&plan), vec![Some(Fault::DelayPush(delay)); 50]);
        plan.corrupt_rate = 1.0;
        assert_eq!(every(&plan), vec![Some(Fault::CorruptPush); 50]);
        plan.drop_rate = 1.0;
        assert_eq!(every(&plan), vec![Some(Fault::DropPush); 50]);
        // A rate is the share of cells its own draw hits, not what is left
        // over by the faults ranked before it.
        plan.drop_rate = 0.5;
        let dropped = every(&plan)
            .iter()
            .filter(|f| **f == Some(Fault::DropPush))
            .count();
        let want = (0..50)
            .filter(|&e| chaos_roll(9, 0, e, OP_DROP) < 0.5)
            .count();
        assert_eq!(dropped, want);
    }

    #[test]
    fn net_faults_derive_deterministically_from_a_chaos_plan() {
        let plan = FaultPlan::from_seed(42);
        let cells = |plan: &FaultPlan| -> Vec<Option<Fault>> {
            (0..200)
                .flat_map(|e| (0..4).map(move |w| (w, e)))
                .map(|(w, e)| plan.at(w, e))
                .collect()
        };
        assert_eq!(cells(&plan), cells(&plan.clone()));
        assert_ne!(cells(&plan), cells(&FaultPlan::from_seed(43)));
        assert!(cells(&FaultPlan::new(42)).iter().all(Option::is_none));
        // 800 cells at ~14.5% drop|corrupt, then ~10% delay and ~15%
        // duplicate of what is left; nothing else is ever rolled.
        let count = |pred: fn(Fault) -> bool| {
            cells(&plan)
                .into_iter()
                .flatten()
                .filter(|f| pred(*f))
                .count()
        };
        let lost = count(Fault::loses_push);
        let delayed = count(|f| f == Fault::DelayPush(Duration::from_millis(5)));
        let duplicated = count(|f| f == Fault::DuplicatePush);
        assert!((60..=180).contains(&lost), "lost {lost}");
        assert!((40..=140).contains(&delayed), "delayed {delayed}");
        assert!((50..=150).contains(&duplicated), "duplicated {duplicated}");
        assert_eq!(lost + delayed + duplicated, count(|_| true));
        assert_eq!(
            lost,
            count(|f| matches!(f, Fault::DropPush | Fault::CorruptPush))
        );
    }

    #[test]
    fn partition_severs_every_link_of_its_worker_from_its_epoch() {
        let plan = FaultPlan::new(7).with(2, 5, Fault::Partition);
        for epoch in 0..5 {
            assert_eq!(plan.at(2, epoch), None, "epoch {epoch}");
        }
        for epoch in 5..40 {
            assert_eq!(plan.at(2, epoch), Some(Fault::Partition), "epoch {epoch}");
            assert_eq!(plan.at(1, epoch), None, "epoch {epoch}");
        }
    }

    /// The cells `plan.poison(worker, epoch, ..)` hits in a push of `len`.
    fn poisoned(plan: &FaultPlan, worker: usize, epoch: usize, len: usize) -> Vec<usize> {
        let mut push = vec![1.0f32; len];
        plan.poison(worker, epoch, &mut push);
        assert!(push.iter().all(|v| v.is_nan() || *v == 1.0));
        (0..len).filter(|&i| push[i].is_nan()).collect()
    }

    #[test]
    fn poison_is_deterministic_and_in_bounds() {
        let plan = FaultPlan::new(42);
        let hit = poisoned(&plan, 0, 1, 1000);
        assert_eq!(hit, poisoned(&plan, 0, 1, 1000));
        // Every hundredth cell from the rolled start: one cell in a hundred.
        let first = (chaos_roll(42, 0, 1, OP_POISON) * 100.0) as usize;
        assert_eq!(hit, (first..1000).step_by(100).collect::<Vec<_>>());
        assert_eq!(hit.len(), 10);
        // Different workers, epochs and seeds start elsewhere.
        let starts: Vec<usize> = (0..50).map(|e| poisoned(&plan, 1, e, 1000)[0]).collect();
        assert!(starts.iter().all(|&s| s < 100));
        assert!(starts.iter().any(|&s| s != starts[0]), "{starts:?}");
        assert_ne!(poisoned(&plan, 1, 1, 1000), hit);
        assert_ne!(poisoned(&FaultPlan::new(43), 0, 1, 1000), hit);
    }

    #[test]
    fn poison_handles_tiny_buffers() {
        // Every non-empty push loses at least one cell, whatever the roll.
        let plan = FaultPlan::new(1);
        for epoch in 0..50 {
            assert_eq!(poisoned(&plan, 0, epoch, 0), Vec::<usize>::new());
            assert_eq!(poisoned(&plan, 0, epoch, 1), vec![0]);
            let hit = poisoned(&plan, 0, epoch, 8);
            assert_eq!(hit.len(), 1, "epoch {epoch}: {hit:?}");
        }
        let hit = poisoned(&plan, 0, 0, 150);
        assert_eq!(hit.len(), if hit[0] < 50 { 2 } else { 1 });
    }

    #[test]
    fn check_names_the_rate_that_is_not_a_probability() {
        assert_eq!(FaultPlan::from_seed(1).check(4), Ok(()));
        for bad in [7.0, -0.1, f64::NAN, f64::INFINITY] {
            let plans = [
                (
                    "drop_rate",
                    FaultPlan {
                        drop_rate: bad,
                        ..FaultPlan::new(1)
                    },
                ),
                (
                    "corrupt_rate",
                    FaultPlan {
                        corrupt_rate: bad,
                        ..FaultPlan::new(1)
                    },
                ),
                (
                    "delay_rate",
                    FaultPlan {
                        delay_rate: bad,
                        ..FaultPlan::new(1)
                    },
                ),
                (
                    "duplicate_rate",
                    FaultPlan {
                        duplicate_rate: bad,
                        ..FaultPlan::new(1)
                    },
                ),
            ];
            for (name, plan) in plans {
                let err = plan.check(4).unwrap_err();
                assert!(err.contains(name), "{bad}: {err}");
            }
        }
        let edges = FaultPlan {
            drop_rate: 0.0,
            duplicate_rate: 1.0,
            ..FaultPlan::new(1)
        };
        assert_eq!(edges.check(1), Ok(()));
    }

    #[test]
    fn check_rejects_an_event_for_a_worker_outside_the_fleet() {
        let plan = FaultPlan::new(1).with(3, 0, Fault::DropPush);
        assert_eq!(plan.check(4), Ok(()));
        let err = plan.check(3).unwrap_err();
        assert!(
            err.contains("worker 3") && err.contains("fleet of 3"),
            "{err}"
        );
        let err = FaultPlan::new(1)
            .with(99, 2, Fault::Crash)
            .check(4)
            .unwrap_err();
        assert!(err.contains("Crash") && err.contains("worker 99"), "{err}");
    }

    #[test]
    fn check_rejects_a_plan_that_leaves_nobody_to_train() {
        let both = FaultPlan::new(1)
            .with(0, 3, Fault::Crash)
            .with(1, 0, Fault::Partition);
        let err = both.check(2).unwrap_err();
        assert!(err.contains("every one of the 2 workers"), "{err}");
        assert_eq!(both.check(3), Ok(()));
        // Faults a worker survives do not count.
        let survivable =
            FaultPlan::new(1)
                .with(0, 3, Fault::DropPush)
                .with(1, 0, Fault::PoisonPush);
        assert_eq!(survivable.check(2), Ok(()));
    }
}
