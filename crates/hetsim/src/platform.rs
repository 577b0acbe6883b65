//! Platform topologies.
//!
//! A [`Platform`] is the paper's Fig.-2 machine: a parameter server living
//! on one CPU, plus worker slots, each a processor on a bus. The builders
//! reproduce the evaluation testbed: CPU_1 connects over UPI, both GPUs
//! over their own PCI-E 3.0 x16 links, and CPU_0 — the server — can
//! time-share as a worker when the asynchronous strategy is off (§3.5).

use crate::profile::{BusKind, ProcessorProfile};

/// One worker: a processor attached to the server by a bus.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSlot {
    /// The processor profile.
    pub profile: ProcessorProfile,
    /// Its link to the server.
    pub bus: BusKind,
    /// True for the special worker that time-shares the server's CPU
    /// (compute rate degraded by [`Platform::timeshare_efficiency`]).
    pub timeshare_server: bool,
    /// Workers sharing a `bus_group` contend for one physical link: their
    /// transfers queue on it, one at a time per direction. `None` =
    /// dedicated link, the paper's Fig.-2 assumption.
    pub bus_group: Option<u32>,
}

impl WorkerSlot {
    /// Pipeline chunks this worker runs when `requested` streams are
    /// configured: capped by the processor's copy engines, at least one.
    pub(crate) fn streams(&self, requested: usize) -> usize {
        requested.min(self.profile.max_streams).max(1)
    }
}

/// A multi-CPU/GPU machine: server + workers.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable name ("6242-2080S", …).
    pub name: String,
    /// Server memory bandwidth, bytes/s (`B_server`; a Xeon 6242 socket
    /// measures 67.3 GB/s in Table 2).
    pub server_bandwidth: f64,
    /// Compute-rate multiplier of a time-sharing server worker. Calibrated
    /// so the special worker's *marginal* contribution lands at §4.5's
    /// "more than 70 %" of its standalone power (the sync work it hosts
    /// eats the rest of the gap).
    pub timeshare_efficiency: f64,
    /// The worker slots.
    pub workers: Vec<WorkerSlot>,
}

impl Platform {
    /// Starts an empty platform with the paper's server characteristics.
    pub fn new(name: &str) -> Platform {
        Platform {
            name: name.into(),
            server_bandwidth: 67.3e9,
            timeshare_efficiency: 0.80,
            workers: Vec::new(),
        }
    }

    /// Adds an ordinary worker on a dedicated link.
    pub fn with_worker(mut self, profile: ProcessorProfile, bus: BusKind) -> Platform {
        self.workers.push(WorkerSlot {
            profile,
            bus,
            timeshare_server: false,
            bus_group: None,
        });
        self
    }

    /// Adds a worker sharing a physical link with every other worker that
    /// carries the same `group` id (e.g. two GPUs behind one PCI-E switch).
    pub fn with_worker_on_shared_bus(
        mut self,
        profile: ProcessorProfile,
        bus: BusKind,
        group: u32,
    ) -> Platform {
        self.workers.push(WorkerSlot {
            profile,
            bus,
            timeshare_server: false,
            bus_group: Some(group),
        });
        self
    }

    /// Adds the time-sharing server worker.
    pub fn with_server_worker(mut self, profile: ProcessorProfile) -> Platform {
        self.workers.push(WorkerSlot {
            profile,
            bus: BusKind::ServerLocal,
            timeshare_server: true,
            bus_group: None,
        });
        self
    }

    /// Per-direction bus bandwidth of worker `w` with a shared link divided
    /// fairly among the workers on it — the long-run share the closed-form
    /// planner works with ([`crate::measure`]). The simulator queues
    /// transfers at the full link speed instead.
    pub fn effective_bus_bandwidth(&self, w: usize) -> f64 {
        let link = self.link_of(w);
        let sharers = (0..self.workers.len())
            .filter(|&v| self.link_of(v) == link)
            .count();
        self.workers[w].bus.bandwidth() / sharers as f64
    }

    /// The physical link worker `w` transfers over, named by the first
    /// worker on it: `w` itself on a dedicated link, the lowest-indexed
    /// member of its `bus_group` otherwise.
    pub(crate) fn link_of(&self, w: usize) -> usize {
        match self.workers[w].bus_group {
            None => w,
            Some(group) => self
                .workers
                .iter()
                .position(|s| s.bus_group == Some(group))
                .unwrap_or(w),
        }
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Worker display names, in slot order.
    pub fn worker_names(&self) -> Vec<&str> {
        self.workers
            .iter()
            .map(|w| w.profile.name.as_str())
            .collect()
    }

    /// Total hardware price (server CPU counted once via its worker slot).
    pub fn total_price(&self) -> f64 {
        self.workers.iter().map(|w| w.profile.price_usd).sum()
    }

    // --- The paper's testbed configurations --------------------------------

    /// The full 4-worker evaluation platform: server on CPU_0, which also
    /// time-shares as a worker ("6242L"/CPU_0 at reduced threads), CPU_1
    /// over UPI, both GPUs over PCI-E. Matches §4.1 with CPU_0 at 10
    /// threads (the heterogeneity configuration used by Figs. 8–9).
    pub fn paper_testbed_4workers() -> Platform {
        Platform::new("2×6242 + 2080 + 2080S")
            .with_server_worker(ProcessorProfile::xeon_6242_10t())
            .with_worker(ProcessorProfile::xeon_6242_24t(), BusKind::Upi)
            .with_worker(ProcessorProfile::rtx_2080(), BusKind::PciE3x16)
            .with_worker(ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16)
    }

    /// The 3-worker configuration (no time-sharing server worker): CPU_1 +
    /// both GPUs, used by the "3 workers" halves of Fig. 8 and by R1 runs
    /// where the asynchronous strategy occupies the server.
    pub fn paper_testbed_3workers() -> Platform {
        Platform::new("6242 + 2080 + 2080S")
            .with_worker(ProcessorProfile::xeon_6242_24t(), BusKind::Upi)
            .with_worker(ProcessorProfile::rtx_2080(), BusKind::PciE3x16)
            .with_worker(ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16)
    }

    /// The overall-performance platform (§4.2): CPU_0 at 16 threads
    /// time-sharing with the server, CPU_1 at 24 threads, both GPUs.
    pub fn paper_testbed_overall() -> Platform {
        Platform::new("2×6242(16T/24T) + 2080 + 2080S")
            .with_server_worker(ProcessorProfile::xeon_6242_16t())
            .with_worker(ProcessorProfile::xeon_6242_24t(), BusKind::Upi)
            .with_worker(ProcessorProfile::rtx_2080(), BusKind::PciE3x16)
            .with_worker(ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16)
    }

    /// Single-processor platform (for the Fig. 3 standalone bars).
    pub fn single(profile: ProcessorProfile) -> Platform {
        let name = profile.name.clone();
        let bus = if profile.kind.is_gpu() {
            BusKind::PciE3x16
        } else {
            BusKind::Upi
        };
        Platform::new(&name).with_worker(profile, bus)
    }

    /// Two-processor collaboration (Fig. 3's "6242-2080" style bars).
    pub fn pair(a: ProcessorProfile, b: ProcessorProfile) -> Platform {
        let name = format!("{}-{}", a.name, b.name);
        let bus_a = if a.kind.is_gpu() {
            BusKind::PciE3x16
        } else {
            BusKind::Upi
        };
        let bus_b = if b.kind.is_gpu() {
            BusKind::PciE3x16
        } else {
            BusKind::Upi
        };
        Platform::new(&name)
            .with_worker(a, bus_a)
            .with_worker(b, bus_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_has_four_workers_one_timeshared() {
        let p = Platform::paper_testbed_4workers();
        assert_eq!(p.worker_count(), 4);
        assert_eq!(p.workers.iter().filter(|w| w.timeshare_server).count(), 1);
        assert!(p.workers[0].timeshare_server);
        assert_eq!(p.workers[1].bus, BusKind::Upi);
        assert_eq!(p.workers[2].bus, BusKind::PciE3x16);
    }

    #[test]
    fn three_worker_testbed_has_no_timeshare() {
        let p = Platform::paper_testbed_3workers();
        assert_eq!(p.worker_count(), 3);
        assert!(p.workers.iter().all(|w| !w.timeshare_server));
    }

    #[test]
    fn single_and_pair_builders() {
        let s = Platform::single(ProcessorProfile::rtx_2080());
        assert_eq!(s.worker_count(), 1);
        assert_eq!(s.workers[0].bus, BusKind::PciE3x16);
        let p = Platform::pair(
            ProcessorProfile::xeon_6242_16t(),
            ProcessorProfile::rtx_2080_super(),
        );
        assert_eq!(p.worker_count(), 2);
        assert_eq!(p.name, "6242-16T-RTX 2080S");
        assert_eq!(p.workers[0].bus, BusKind::Upi);
    }

    #[test]
    fn price_sums_workers() {
        let p = Platform::pair(
            ProcessorProfile::xeon_6242_16t(),
            ProcessorProfile::rtx_2080(),
        );
        assert_eq!(p.total_price(), 2_700.0);
    }

    #[test]
    fn names_in_slot_order() {
        let p = Platform::paper_testbed_4workers();
        assert_eq!(p.worker_names()[0], "6242L-10T");
        assert_eq!(p.worker_names()[3], "RTX 2080S");
    }
}

#[cfg(test)]
mod bus_group_tests {
    use super::*;
    use crate::engine::{simulate_epoch, Phase, SimConfig, Workload};
    use hcc_sparse::DatasetProfile;

    #[test]
    fn shared_bus_halves_effective_bandwidth() {
        let p = Platform::new("switch")
            .with_worker_on_shared_bus(ProcessorProfile::rtx_2080(), BusKind::PciE3x16, 0)
            .with_worker_on_shared_bus(ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16, 0)
            .with_worker(ProcessorProfile::xeon_6242_24t(), BusKind::Upi);
        assert_eq!(p.effective_bus_bandwidth(0), 8.0e9);
        assert_eq!(p.effective_bus_bandwidth(1), 8.0e9);
        assert_eq!(p.effective_bus_bandwidth(2), 20.8e9);
    }

    #[test]
    fn distinct_groups_do_not_contend() {
        let p = Platform::new("two-switches")
            .with_worker_on_shared_bus(ProcessorProfile::rtx_2080(), BusKind::PciE3x16, 0)
            .with_worker_on_shared_bus(ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16, 1);
        assert_eq!(p.effective_bus_bandwidth(0), 16.0e9);
        assert_eq!(p.effective_bus_bandwidth(1), 16.0e9);
    }

    #[test]
    fn contention_queues_transfers_and_leaves_compute_alone() {
        let wl = Workload::from_profile(&DatasetProfile::yahoo_r1());
        let (cfg, x) = (SimConfig::default(), [0.45, 0.55]);
        let paper = hcc_partition::RoundPlan::paper(2, wl.n as usize, 4);
        let dedicated = Platform::new("a")
            .with_worker(ProcessorProfile::rtx_2080(), BusKind::PciE3x16)
            .with_worker(ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16);
        let shared = Platform::new("b")
            .with_worker_on_shared_bus(ProcessorProfile::rtx_2080(), BusKind::PciE3x16, 0)
            .with_worker_on_shared_bus(ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16, 0);
        let t_ded = simulate_epoch(&dedicated, &wl, &cfg, &paper, &x);
        let t_shr = simulate_epoch(&shared, &wl, &cfg, &paper, &x);
        assert!(t_shr.epoch_time >= t_ded.epoch_time);
        for w in 0..2 {
            assert_eq!(t_shr.totals[w].compute, t_ded.totals[w].compute);
        }
        // One link, one transfer at a time per direction.
        for phase in [Phase::Pull, Phase::Push] {
            let mut on_link: Vec<_> = t_shr.spans.iter().filter(|s| s.phase == phase).collect();
            on_link.sort_by(|a, b| a.start.total_cmp(&b.start));
            assert_eq!(on_link.len(), 8, "2 workers x 4 chunks");
            for pair in on_link.windows(2) {
                assert!(
                    pair[0].end <= pair[1].start,
                    "{phase:?}s overlap on the link"
                );
            }
        }
    }
}
