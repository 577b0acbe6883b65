//! Fault events for the simulator.
//!
//! The threaded engine's fault-injection harness
//! (`hcc_mf::FaultPlan`) exercises real threads, real transports, and real
//! factor matrices. This module is its virtual-time twin: the same fault
//! vocabulary expressed as perturbations of the event calendar
//! ([`crate::engine::simulate_epoch_faulty`]), so partition planning and
//! supervisor policies can be studied against crashes and stragglers on
//! platforms the host machine cannot physically run.
//!
//! Faults are deterministic by construction — they name a worker and a
//! fixed perturbation; no randomness, no wall clock. The same
//! `(platform, workload, config, x, faults)` tuple always yields a
//! bit-identical [`crate::engine::EpochTrace`].

use hcc_comm::chaos::{chaos_roll, OP_CORRUPT, OP_DELAY, OP_DROP};
use hcc_comm::NetChaosPlan;

/// What goes wrong with a worker during the simulated epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimFaultKind {
    /// The worker dies right after its first pull completes: it consumes
    /// pull bandwidth but contributes no compute, push, or sync work.
    Crash,
    /// The worker's first compute chunk is delayed by this many virtual
    /// seconds (an OS hiccup, page faults, a thermal throttle).
    Stall(f64),
    /// Pushes occupy the bus as usual but never reach the server's merge
    /// queue (a lossy transport).
    DropPush,
}

/// One fault bound to one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFault {
    /// Index into `platform.workers`.
    pub worker: usize,
    pub kind: SimFaultKind,
}

impl SimFault {
    pub fn crash(worker: usize) -> Self {
        SimFault {
            worker,
            kind: SimFaultKind::Crash,
        }
    }

    pub fn stall(worker: usize, secs: f64) -> Self {
        SimFault {
            worker,
            kind: SimFaultKind::Stall(secs),
        }
    }

    pub fn drop_push(worker: usize) -> Self {
        SimFault {
            worker,
            kind: SimFaultKind::DropPush,
        }
    }
}

/// Derives this epoch's simulator faults from a network chaos plan, using
/// the *same* `(seed, link, epoch, op)` rolls as the live
/// [`hcc_comm::ChaosTransport`]. With `shards` server shards a worker holds
/// `shards` independent links, and link `worker * shards + shard` draws its
/// own stream, so one lossy shard hits only the workers whose roll it was.
/// The links fold into one fault per worker on the spot:
///
/// * a dropped or corrupt push on *any* link becomes
///   [`SimFaultKind::DropPush`] — the server cannot assemble a partial row
///   update, so the merge never sees the push either way;
/// * otherwise delayed links add up to one [`SimFaultKind::Stall`] (shard
///   RPCs are sequential on the worker's connection);
/// * a partitioned worker loses every link from `from_epoch` on (the node,
///   not one link, is unreachable).
///
/// Duplicates are invisible here — the real transport dedups them, so
/// their only cost is wire bytes, which the bus model doesn't charge for
/// retransmits.
pub fn derive_net_faults(
    plan: &NetChaosPlan,
    workers: usize,
    shards: usize,
    epoch: u64,
) -> Vec<SimFault> {
    let delay = plan.delay.as_secs_f64();
    let mut faults = Vec::new();
    for w in 0..workers {
        let severed = plan
            .partition
            .is_some_and(|part| part.worker == w && epoch >= part.from_epoch);
        // Links of this worker whose roll for `op` fell below `rate`.
        let hits = |op, rate: f64| {
            (w * shards..(w + 1) * shards)
                .filter(|&link| chaos_roll(plan.seed, link, epoch, op) < rate)
                .count()
        };
        let delayed = hits(OP_DELAY, plan.delay_rate);
        if severed || hits(OP_DROP, plan.drop_rate) + hits(OP_CORRUPT, plan.corrupt_rate) > 0 {
            faults.push(SimFault::drop_push(w));
        } else if delayed > 0 {
            faults.push(SimFault::stall(w, delayed as f64 * delay));
        }
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_epoch, simulate_epoch_faulty, Phase, SimConfig, Workload};
    use crate::platform::Platform;
    use hcc_sparse::DatasetProfile;

    fn netflix() -> Workload {
        Workload::from_profile(&DatasetProfile::netflix())
    }

    fn testbed() -> (Platform, SimConfig, Vec<f64>) {
        (
            Platform::paper_testbed_4workers(),
            SimConfig::default(),
            vec![0.25; 4],
        )
    }

    #[test]
    fn empty_faults_match_fault_free_trace() {
        let (platform, cfg, x) = testbed();
        let plain = simulate_epoch(&platform, &netflix(), &cfg, &x);
        let faulty = simulate_epoch_faulty(&platform, &netflix(), &cfg, &x, &[]);
        assert_eq!(plain, faulty);
    }

    #[test]
    fn crash_removes_compute_push_and_sync_for_that_worker() {
        let (platform, cfg, x) = testbed();
        let trace = simulate_epoch_faulty(&platform, &netflix(), &cfg, &x, &[SimFault::crash(2)]);
        let spans = trace.worker_spans(2);
        assert!(spans.iter().any(|s| s.phase == Phase::Pull));
        assert!(spans
            .iter()
            .all(|s| !matches!(s.phase, Phase::Compute | Phase::Push | Phase::Sync)));
        // The survivors' sync work shrinks accordingly.
        let plain = simulate_epoch(&platform, &netflix(), &cfg, &x);
        assert!(trace.sync_total < plain.sync_total);
    }

    #[test]
    fn stall_delays_the_epoch() {
        let (platform, cfg, x) = testbed();
        let plain = simulate_epoch(&platform, &netflix(), &cfg, &x);
        let stalled = simulate_epoch_faulty(
            &platform,
            &netflix(),
            &cfg,
            &x,
            &[SimFault::stall(0, plain.epoch_time)],
        );
        // A stall as long as the whole fault-free epoch must push the
        // critical path out by roughly that much.
        assert!(stalled.epoch_time > plain.epoch_time * 1.5);
    }

    #[test]
    fn dropped_push_never_reaches_the_server() {
        let (platform, cfg, x) = testbed();
        let trace =
            simulate_epoch_faulty(&platform, &netflix(), &cfg, &x, &[SimFault::drop_push(1)]);
        let spans = trace.worker_spans(1);
        assert!(spans.iter().any(|s| s.phase == Phase::Push)); // bus used
        assert!(spans.iter().all(|s| s.phase != Phase::Sync)); // merge skipped
    }

    #[test]
    fn faulty_trace_is_deterministic() {
        let (platform, cfg, x) = testbed();
        let faults = [SimFault::crash(3), SimFault::stall(1, 0.5)];
        let a = simulate_epoch_faulty(&platform, &netflix(), &cfg, &x, &faults);
        let b = simulate_epoch_faulty(&platform, &netflix(), &cfg, &x, &faults);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "fault names worker")]
    fn out_of_range_worker_panics() {
        let (platform, cfg, x) = testbed();
        simulate_epoch_faulty(&platform, &netflix(), &cfg, &x, &[SimFault::crash(9)]);
    }

    #[test]
    fn net_faults_derive_deterministically_from_a_chaos_plan() {
        let plan = NetChaosPlan::from_seed(42);
        let a = derive_net_faults(&plan, 4, 1, 3);
        let b = derive_net_faults(&plan, 4, 1, 3);
        assert_eq!(a, b, "same plan+epoch must derive identical faults");
        // A quiet plan derives nothing, however many links it rolls.
        assert!(derive_net_faults(&NetChaosPlan::quiet(42), 4, 1, 3).is_empty());
        assert!(derive_net_faults(&NetChaosPlan::quiet(42), 4, 4, 3).is_empty());
        // Over many epochs, a 10%-drop/5%-corrupt plan must produce some
        // dropped pushes and some stalls, but nowhere near every epoch.
        let mut drops = 0usize;
        let mut stalls = 0usize;
        for epoch in 0..200 {
            for f in derive_net_faults(&plan, 4, 1, epoch) {
                match f.kind {
                    SimFaultKind::DropPush => drops += 1,
                    SimFaultKind::Stall(s) => {
                        assert!((s - 0.005).abs() < 1e-12);
                        stalls += 1;
                    }
                    SimFaultKind::Crash => panic!("chaos never derives a crash"),
                }
            }
        }
        // 800 rolls at ~14.5% combined drop|corrupt and ~10% delay.
        assert!((60..=180).contains(&drops), "drops {drops}");
        assert!((40..=140).contains(&stalls), "stalls {stalls}");
    }

    #[test]
    fn partition_severs_every_link_of_its_worker_from_its_epoch() {
        let plan = NetChaosPlan::quiet(7).with_partition(2, 5);
        for shards in [1, 4] {
            assert!(derive_net_faults(&plan, 4, shards, 4).is_empty());
            for epoch in 5..8 {
                let faults = derive_net_faults(&plan, 4, shards, epoch);
                assert_eq!(faults, vec![SimFault::drop_push(2)], "epoch {epoch}");
            }
        }
    }

    /// The per-link outcome the fold starts from: `None`, a drop, or a delay.
    fn link_outcome(plan: &NetChaosPlan, link: usize, epoch: u64) -> Option<SimFaultKind> {
        match derive_net_faults(plan, link + 1, 1, epoch).last() {
            Some(f) if f.worker == link => Some(f.kind),
            _ => None,
        }
    }

    #[test]
    fn shard_links_fold_drops_dominate_and_stalls_add() {
        // With one shard, link `l` is worker `l`; with `shards` shards,
        // worker `w` owns links `w * shards..(w + 1) * shards`. So the
        // sharded derivation must equal the fold of those one-shard rolls.
        let plan = NetChaosPlan::from_seed(42);
        let (workers, shards) = (3usize, 4usize);
        let (mut drops, mut multi_stalls, mut spared) = (0, 0, 0);
        for epoch in 0..200 {
            let faults = derive_net_faults(&plan, workers, shards, epoch);
            for w in 0..workers {
                let links: Vec<_> = (w * shards..(w + 1) * shards)
                    .map(|link| link_outcome(&plan, link, epoch))
                    .collect();
                let delayed = links
                    .iter()
                    .filter(|k| matches!(k, Some(SimFaultKind::Stall(_))))
                    .count();
                let want = if links.contains(&Some(SimFaultKind::DropPush)) {
                    drops += 1;
                    // A clean or delayed sibling link does not save the push.
                    spared += usize::from(links.iter().any(|k| *k != Some(SimFaultKind::DropPush)));
                    Some(SimFault::drop_push(w))
                } else if delayed > 0 {
                    multi_stalls += usize::from(delayed > 1);
                    Some(SimFault::stall(
                        w,
                        delayed as f64 * plan.delay.as_secs_f64(),
                    ))
                } else {
                    None
                };
                let got = faults.iter().find(|f| f.worker == w).copied();
                assert_eq!(got, want, "epoch {epoch} worker {w}: links {links:?}");
            }
        }
        // The grid must actually exercise each rule.
        assert!(
            drops > 100 && spared > 100,
            "drops {drops}, spared {spared}"
        );
        assert!(multi_stalls > 5, "only {multi_stalls} multi-link stalls");
    }

    #[test]
    fn derived_faults_feed_the_calendar() {
        let (platform, cfg, x) = testbed();
        let plan = NetChaosPlan::quiet(1).with_partition(1, 0);
        let faults = derive_net_faults(&plan, platform.workers.len(), 4, 0);
        assert_eq!(faults, vec![SimFault::drop_push(1)]);
        let trace = simulate_epoch_faulty(&platform, &netflix(), &cfg, &x, &faults);
        // The partitioned worker pushes into the void: no sync span.
        assert!(trace.worker_spans(1).iter().all(|s| s.phase != Phase::Sync));
    }
}
