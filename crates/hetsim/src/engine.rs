//! The virtual-time epoch pipeline.
//!
//! One simulated epoch reproduces the paper's
//! `pull → compute → push → sync` sequence (Fig. 4 steps ⑤–⑦ + ④):
//!
//! * every worker pulls over its bus (independent channels, Fig. 2, unless
//!   the platform puts several workers on one link),
//! * computes its shard at its calibrated rate,
//! * pushes back, and
//! * the server merges pushes FIFO at `3·bytes/B_server` (Eq. 3).
//!
//! Strategy 3 (asynchronous computing–transmission) is modeled by chunking
//! an epoch into `streams` pieces pipelined through separate pull/push DMA
//! channels — pulls of chunk `c+1` overlap computation of chunk `c`, and
//! the server syncs chunks as they arrive (Fig. 6).
//!
//! The output [`EpochTrace`] carries exact phase spans, from which the
//! Fig. 5 timelines, Fig. 8 stacked bars, Table 4/Fig. 9 computing power
//! and Table 5/6 communication costs are all derived.

use crate::platform::{Platform, WorkerSlot};
use hcc_comm::{Fault, TransferStrategy};
use hcc_sparse::DatasetProfile;

/// The data shape a simulation runs against.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Dataset name (drives the per-class rate lookup).
    pub name: String,
    /// Rows.
    pub m: u64,
    /// Columns.
    pub n: u64,
    /// Observed entries.
    pub nnz: u64,
}

impl Workload {
    /// Builds from a named dataset profile.
    pub fn from_profile(profile: &DatasetProfile) -> Workload {
        Workload {
            name: profile.name.to_string(),
            m: profile.m,
            n: profile.n,
            nnz: profile.nnz,
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Latent dimension (paper: 128).
    pub k: u64,
    /// Communication strategy.
    pub strategy: TransferStrategy,
    /// Pipeline streams per worker (1 = synchronous; capped per worker by
    /// its profile's `max_streams`).
    pub streams: usize,
    /// Fraction of nominal bus bandwidth the transport achieves
    /// (COMM ≈ 1.0 by design §3.5; COMM-P ≈ 0.14, Table 5).
    pub transport_efficiency: f64,
    /// Parameter-server shards merging in parallel (1 = the paper's single
    /// centralized server). With N shards each push's merge splits into N
    /// equal slices handled by N concurrent FIFO queues — the node-sharded
    /// server, where every shard owns `1/N` of the synchronized rows.
    pub server_shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            k: 128,
            strategy: TransferStrategy::QOnly,
            streams: 1,
            transport_efficiency: 1.0,
            server_shards: 1,
        }
    }
}

/// Phase of a span in the epoch timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Server → worker transfer.
    Pull,
    /// Worker SGD computation.
    Compute,
    /// Worker → server transfer.
    Push,
    /// Server-side merge of one worker's push.
    Sync,
}

/// One contiguous activity in the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpan {
    /// Worker index (sync spans carry the worker whose push is merged).
    pub worker: usize,
    /// Phase kind.
    pub phase: Phase,
    /// Start time, seconds from epoch begin.
    pub start: f64,
    /// End time.
    pub end: f64,
}

impl PhaseSpan {
    /// Span duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-worker accumulated phase durations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkerTotals {
    /// Total pull time.
    pub pull: f64,
    /// Total compute time.
    pub compute: f64,
    /// Total push time.
    pub push: f64,
}

impl WorkerTotals {
    /// Pull + compute + push.
    pub fn sum(&self) -> f64 {
        self.pull + self.compute + self.push
    }
}

/// The result of simulating one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTrace {
    /// Every phase span: worker phases in the order the calendar served
    /// them (a worker's chunks stay in chunk order), then syncs in service
    /// order.
    pub spans: Vec<PhaseSpan>,
    /// Per-worker totals.
    pub totals: Vec<WorkerTotals>,
    /// Total server sync busy time.
    pub sync_total: f64,
    /// Epoch makespan: all pushes transferred *and* merged.
    pub epoch_time: f64,
}

impl EpochTrace {
    /// Spans of one worker.
    pub fn worker_spans(&self, worker: usize) -> Vec<PhaseSpan> {
        self.spans
            .iter()
            .copied()
            .filter(|s| s.worker == worker)
            .collect()
    }
}

/// One worker's epoch costs at a partition fraction — the quantities behind
/// Eqs. 1–3, derived here for the calendar and for [`crate::measure`] alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WorkerCosts {
    /// Seconds the worker spends pulling, computing and pushing.
    pub phases: WorkerTotals,
    /// Bytes the server merges: the *decompressed* push (always FP32).
    pub sync_bytes: f64,
    /// Pipeline chunks per epoch ([`WorkerSlot::streams`]).
    pub streams: usize,
}

impl WorkerCosts {
    /// Costs of worker `w` on fraction `x` of the data, its payloads moving
    /// at `link_bandwidth` bytes/s before transport efficiency: the full link
    /// in the calendar, where contention is queueing; the planner's fair share.
    pub(crate) fn derive(
        platform: &Platform,
        workload: &Workload,
        config: &SimConfig,
        w: usize,
        x: f64,
        link_bandwidth: f64,
    ) -> WorkerCosts {
        let m_assigned = (x * workload.m as f64).round() as u64;
        let (m, n, k) = (workload.m, workload.n, config.k);
        let bus = link_bandwidth * config.transport_efficiency;
        WorkerCosts {
            phases: WorkerTotals {
                pull: config.strategy.pull_bytes(m, n, k) as f64 / bus,
                compute: compute_time(platform, workload, w, x),
                push: config.strategy.push_bytes(m_assigned, n, k) as f64 / bus,
            },
            sync_bytes: (config.strategy.push_elements(m_assigned, n, k) * 4) as f64,
            streams: platform.workers[w].streams(config.streams),
        }
    }
}

/// Seconds worker `w` computes on fraction `x` of `workload`.
pub(crate) fn compute_time(platform: &Platform, workload: &Workload, w: usize, x: f64) -> f64 {
    if x > 0.0 {
        x * workload.nnz as f64 / compute_rate(platform, workload, w, x)
    } else {
        0.0
    }
}

/// Updates/s of worker `w` on fraction `x` of `workload` during training:
/// the calibrated rate, less the time-sharing penalty on the server's CPU.
pub(crate) fn compute_rate(platform: &Platform, workload: &Workload, w: usize, x: f64) -> f64 {
    let slot = &platform.workers[w];
    let rate = standalone_rate(slot, workload, x);
    if slot.timeshare_server {
        rate * platform.timeshare_efficiency
    } else {
        rate
    }
}

/// Calibrated updates/s of `slot`'s processor alone on fraction `x` of `workload`.
pub(crate) fn standalone_rate(slot: &WorkerSlot, workload: &Workload, x: f64) -> f64 {
    let Workload { name, m, n, nnz } = workload;
    slot.profile.rate_at(name, *m, *n, *nnz, x)
}

/// A worker-side stage of one chunk. `Phase::Sync` is the server's and is
/// drained after the calendar, never through it.
#[derive(Clone, Copy)]
enum Stage {
    Pull,
    Compute,
    Push,
}

/// Simulates one epoch of HCC-MF on `platform` with data partition `x`.
///
/// # Panics
/// Panics if `x.len()` differs from the worker count, any fraction is
/// negative/non-finite, the platform has no workers, `config.streams` is 0
/// or `config.transport_efficiency` lies outside `(0, 1]`.
pub fn simulate_epoch(
    platform: &Platform,
    workload: &Workload,
    config: &SimConfig,
    x: &[f64],
) -> EpochTrace {
    simulate_epoch_faulty(platform, workload, config, x, |_| None)
}

/// [`simulate_epoch`] under faults, the virtual-time twin of a supervised
/// `hcc_mf` epoch. `fault_of(w)` is what goes wrong this epoch with the
/// worker at `platform.workers[w]` — for a run under a
/// [`FaultPlan`](hcc_comm::FaultPlan), `|w| plan.at(ids[w], epoch)` with
/// `ids[w]` the worker's starting-fleet id — and lands on the calendar as:
/// [`Fault::Crash`] kills the worker after its first pull (no compute, no
/// push, no merge); [`Fault::Stall`] and [`Fault::DelayPush`] delay its
/// first compute by their duration; every other fault that
/// [loses the push](Fault::loses_push) lets the push occupy the link but
/// never reach the server; a duplicate is deduplicated and costs nothing.
/// A fault is the worker's, whatever `config.server_shards` is.
///
/// The epoch is a task DAG drained through FIFO resources in global time
/// order: per worker one compute unit, per link (a dedicated bus, or one
/// shared through [`WorkerSlot::bus_group`](crate::platform::WorkerSlot))
/// one channel per direction at full link bandwidth, so contention on a
/// shared link emerges as queueing. A chunk's compute is released when its
/// pull ends, its push when its compute ends, and the next chunk's pull
/// when this one's ends; the server merges pushes in arrival order.
///
/// # Panics
/// As [`simulate_epoch`].
pub fn simulate_epoch_faulty(
    platform: &Platform,
    workload: &Workload,
    config: &SimConfig,
    x: &[f64],
    fault_of: impl Fn(usize) -> Option<Fault>,
) -> EpochTrace {
    let workers = platform.workers.len();
    assert!(workers > 0, "platform has no workers");
    assert_eq!(x.len(), workers, "partition length mismatch");
    assert!(
        x.iter().all(|&v| v >= 0.0 && v.is_finite()),
        "fractions must be non-negative and finite"
    );
    assert!(config.streams >= 1, "stream count must be >= 1");
    assert!(
        config.transport_efficiency > 0.0 && config.transport_efficiency <= 1.0,
        "transport efficiency must lie in (0, 1]"
    );
    let faults: Vec<Option<Fault>> = (0..workers).map(fault_of).collect();

    let costs: Vec<WorkerCosts> = (0..workers)
        .map(|w| {
            let link = platform.workers[w].bus.bandwidth();
            WorkerCosts::derive(platform, workload, config, w, x[w], link)
        })
        .collect();

    // The calendar: `pending` holds `(ready time, task id)` and is served
    // earliest first, ties by id. An id indexes `tasks`; a worker's pulls
    // take consecutive ids up front and later stages are appended as they
    // are released, so every run breaks ties the same way. Only a few tasks
    // per worker are pending at once, so the earliest is found by scanning.
    let mut tasks: Vec<(usize, usize, Stage)> = Vec::new(); // (worker, chunk, stage)
    let mut pending: Vec<(f64, usize)> = Vec::new();
    for (w, cost) in costs.iter().enumerate() {
        pending.push((0.0, tasks.len()));
        tasks.extend((0..cost.streams).map(|chunk| (w, chunk, Stage::Pull)));
    }
    // Resource clocks; a link's channels are indexed by its first worker.
    let link: Vec<usize> = (0..workers).map(|w| platform.link_of(w)).collect();
    let mut pull_free = vec![0.0f64; workers];
    let mut compute_free = vec![0.0f64; workers];
    let mut push_free = vec![0.0f64; workers];
    let mut spans = Vec::new();
    let mut arrivals: Vec<(f64, usize, f64)> = Vec::new(); // (time, worker, sync bytes)

    while let Some(next) = (0..pending.len()).min_by(|&a, &b| {
        let ((ready_a, id_a), (ready_b, id_b)) = (pending[a], pending[b]);
        ready_a.total_cmp(&ready_b).then(id_a.cmp(&id_b))
    }) {
        let (ready, id) = pending.swap_remove(next);
        let (w, chunk, stage) = tasks[id];
        let cost = &costs[w];
        let chunks = cost.streams as f64;
        let (phase, clock, total) = match stage {
            Stage::Pull => (Phase::Pull, &mut pull_free[link[w]], cost.phases.pull),
            Stage::Compute => (Phase::Compute, &mut compute_free[w], cost.phases.compute),
            Stage::Push => (Phase::Push, &mut push_free[link[w]], cost.phases.push),
        };
        let start = ready.max(*clock);
        let end = start + total / chunks;
        *clock = end;
        spans.push(PhaseSpan {
            worker: w,
            phase,
            start,
            end,
        });

        let fault = faults[w];
        let mut release = |stage, ready| {
            pending.push((ready, tasks.len()));
            tasks.push((w, chunk, stage));
        };
        match stage {
            // A crashed worker stops here: nothing of its pipeline is
            // released, so its later chunks never become pending.
            Stage::Pull if fault == Some(Fault::Crash) => {}
            Stage::Pull => {
                let stall = match fault {
                    Some(Fault::Stall(lost) | Fault::DelayPush(lost)) if chunk == 0 => {
                        lost.as_secs_f64()
                    }
                    _ => 0.0,
                };
                release(Stage::Compute, end + stall);
                if chunk + 1 < cost.streams {
                    pending.push((end, id + 1));
                }
            }
            Stage::Compute => release(Stage::Push, end),
            Stage::Push if fault.is_some_and(Fault::loses_push) => {}
            Stage::Push => arrivals.push((end, w, cost.sync_bytes / chunks)),
        }
    }

    // The server merges pushes in arrival order (FIFO) at `3·bytes/B_server`
    // (Eq. 3). With N shards each push splits into N equal slices draining
    // through N concurrent queues; every queue sees the same arrivals and
    // slice sizes, so one clock stands for all N.
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let shards = config.server_shards.max(1);
    let mut server_free = 0.0f64;
    let mut sync_total = 0.0f64;
    for (arrival, worker, bytes) in arrivals {
        let dur = 3.0 * (bytes / shards as f64) / platform.server_bandwidth;
        let start = arrival.max(server_free);
        server_free = start + dur;
        for _ in 0..shards {
            sync_total += dur;
        }
        spans.push(PhaseSpan {
            worker,
            phase: Phase::Sync,
            start,
            end: server_free,
        });
    }

    let epoch_time = spans.iter().map(|s| s.end).fold(0.0f64, f64::max);
    EpochTrace {
        spans,
        totals: costs.iter().map(|c| c.phases).collect(),
        sync_total,
        epoch_time,
    }
}

/// Multi-epoch summary (epochs are barrier-separated: the next pull needs
/// the merged global matrix, so total time = epochs × epoch makespan).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSim {
    /// The repeated epoch.
    pub epoch: EpochTrace,
    /// Epochs simulated.
    pub epochs: usize,
    /// Total virtual time.
    pub total_time: f64,
    /// The paper's Eq. 8: `nnz·epochs / total_time`.
    pub computing_power: f64,
}

/// Simulates `epochs` epochs and summarizes.
pub fn simulate_training(
    platform: &Platform,
    workload: &Workload,
    config: &SimConfig,
    x: &[f64],
    epochs: usize,
) -> TrainingSim {
    let epoch = simulate_epoch(platform, workload, config, x);
    let total_time = epoch.epoch_time * epochs as f64;
    let computing_power = if total_time > 0.0 {
        workload.nnz as f64 * epochs as f64 / total_time
    } else {
        0.0
    };
    TrainingSim {
        epoch,
        epochs,
        total_time,
        computing_power,
    }
}

/// The platform's ideal computing power on a workload: the sum of every
/// worker's standalone (full-data, no-communication) rate — Table 4's
/// "Ideal" column.
pub fn ideal_computing_power(platform: &Platform, workload: &Workload) -> f64 {
    let alone = |slot| standalone_rate(slot, workload, 1.0);
    platform.workers.iter().map(alone).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{BusKind, ProcessorProfile};
    use hcc_comm::FaultPlan;
    use std::time::Duration;

    fn uniform_platform(n: usize, rate: f64) -> Platform {
        let mut p = Platform::new("test");
        for i in 0..n {
            p = p.with_worker(
                ProcessorProfile::custom_cpu(&format!("cpu{i}"), 8, rate, 50e9),
                BusKind::Custom(10e9),
            );
        }
        p
    }

    fn workload() -> Workload {
        Workload {
            name: "custom".into(),
            m: 100_000,
            n: 10_000,
            nnz: 10_000_000,
        }
    }

    #[test]
    fn single_worker_epoch_decomposes() {
        let p = uniform_platform(1, 1e8);
        let cfg = SimConfig {
            k: 64,
            ..Default::default()
        };
        let trace = simulate_epoch(&p, &workload(), &cfg, &[1.0]);
        let t = &trace.totals[0];
        // compute = nnz / rate
        assert!((t.compute - 0.1).abs() < 1e-12, "compute {}", t.compute);
        // pull = 4·k·n / bus
        let expect_pull = (4 * 64 * 10_000) as f64 / 10e9;
        assert!((t.pull - expect_pull).abs() < 1e-15);
        assert!((t.push - expect_pull).abs() < 1e-15);
        // Serial pipeline: epoch ≥ pull+compute+push, plus one sync.
        assert!(trace.epoch_time >= t.sum());
        assert!(trace.sync_total > 0.0);
        assert!((trace.epoch_time - (t.sum() + trace.sync_total)).abs() < 1e-12);
    }

    #[test]
    fn phases_are_ordered_within_worker() {
        let p = uniform_platform(2, 1e8);
        let trace = simulate_epoch(&p, &workload(), &SimConfig::default(), &[0.5, 0.5]);
        for w in 0..2 {
            let spans = trace.worker_spans(w);
            let pull = spans.iter().find(|s| s.phase == Phase::Pull).unwrap();
            let comp = spans.iter().find(|s| s.phase == Phase::Compute).unwrap();
            let push = spans.iter().find(|s| s.phase == Phase::Push).unwrap();
            assert!(pull.end <= comp.start + 1e-15);
            assert!(comp.end <= push.start + 1e-15);
        }
    }

    #[test]
    fn sync_spans_never_overlap() {
        let p = uniform_platform(4, 1e8);
        let trace = simulate_epoch(
            &p,
            &workload(),
            &SimConfig::default(),
            &[0.25, 0.25, 0.25, 0.25],
        );
        let mut syncs: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.phase == Phase::Sync)
            .collect();
        syncs.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        assert_eq!(syncs.len(), 4);
        for pair in syncs.windows(2) {
            assert!(pair[0].end <= pair[1].start + 1e-15, "syncs overlap");
        }
    }

    #[test]
    fn balanced_partition_beats_unbalanced() {
        let p = uniform_platform(2, 1e8);
        let cfg = SimConfig::default();
        let balanced = simulate_epoch(&p, &workload(), &cfg, &[0.5, 0.5]);
        let skewed = simulate_epoch(&p, &workload(), &cfg, &[0.9, 0.1]);
        assert!(balanced.epoch_time < skewed.epoch_time);
    }

    #[test]
    fn faster_worker_lowers_epoch_time_when_loaded_accordingly() {
        let mut p = uniform_platform(1, 1e8);
        p = p.with_worker(
            ProcessorProfile::custom_gpu("gpu", 1e9, 400e9, 0.0),
            BusKind::PciE3x16,
        );
        let cfg = SimConfig::default();
        // Load proportional to rates: 1/11 vs 10/11.
        let good = simulate_epoch(&p, &workload(), &cfg, &[1.0 / 11.0, 10.0 / 11.0]);
        let uniform = simulate_epoch(&p, &workload(), &cfg, &[0.5, 0.5]);
        assert!(good.epoch_time < uniform.epoch_time);
    }

    #[test]
    fn streams_hide_transfer_time() {
        // Make comm comparable to compute so pipelining matters.
        let p = Platform::new("t").with_worker(
            ProcessorProfile::custom_gpu("gpu", 1e9, 400e9, 0.0),
            BusKind::Custom(1e9),
        );
        let wl = Workload {
            name: "custom".into(),
            m: 50_000,
            n: 50_000,
            nnz: 20_000_000,
        };
        let sync_cfg = SimConfig {
            k: 128,
            streams: 1,
            ..Default::default()
        };
        let async_cfg = SimConfig {
            k: 128,
            streams: 4,
            ..Default::default()
        };
        let sync_trace = simulate_epoch(&p, &wl, &sync_cfg, &[1.0]);
        let async_trace = simulate_epoch(&p, &wl, &async_cfg, &[1.0]);
        assert!(
            async_trace.epoch_time < sync_trace.epoch_time,
            "async {} !< sync {}",
            async_trace.epoch_time,
            sync_trace.epoch_time
        );
        // Compute totals are unchanged (Fig. 6: async does not reduce
        // computational time).
        assert!((async_trace.totals[0].compute - sync_trace.totals[0].compute).abs() < 1e-12);
    }

    #[test]
    fn streams_capped_by_profile() {
        // A CPU with max_streams = 1 can't pipeline: asking for 4 streams
        // changes nothing.
        let p = uniform_platform(1, 1e8);
        let s1 = simulate_epoch(
            &p,
            &workload(),
            &SimConfig {
                streams: 1,
                ..Default::default()
            },
            &[1.0],
        );
        let s4 = simulate_epoch(
            &p,
            &workload(),
            &SimConfig {
                streams: 4,
                ..Default::default()
            },
            &[1.0],
        );
        assert!((s1.epoch_time - s4.epoch_time).abs() < 1e-12);
    }

    #[test]
    fn timeshare_worker_is_slower() {
        let prof = ProcessorProfile::custom_cpu("srv", 8, 1e8, 50e9);
        let normal = Platform::new("a").with_worker(prof.clone(), BusKind::ServerLocal);
        let shared = Platform::new("b").with_server_worker(prof);
        let cfg = SimConfig::default();
        let tn = simulate_epoch(&normal, &workload(), &cfg, &[1.0]);
        let ts = simulate_epoch(&shared, &workload(), &cfg, &[1.0]);
        let ratio = tn.totals[0].compute / ts.totals[0].compute;
        assert!(
            (ratio - shared.timeshare_efficiency).abs() < 1e-9,
            "ratio {ratio}"
        );
    }

    #[test]
    fn zero_fraction_worker_contributes_nothing_but_still_transfers() {
        let p = uniform_platform(2, 1e8);
        let trace = simulate_epoch(&p, &workload(), &SimConfig::default(), &[1.0, 0.0]);
        assert_eq!(trace.totals[1].compute, 0.0);
        assert!(trace.totals[1].pull > 0.0);
    }

    #[test]
    fn training_sim_scales_linearly() {
        let p = uniform_platform(2, 1e8);
        let sim = simulate_training(&p, &workload(), &SimConfig::default(), &[0.5, 0.5], 20);
        assert!((sim.total_time - 20.0 * sim.epoch.epoch_time).abs() < 1e-9);
        let power = 10_000_000.0 * 20.0 / sim.total_time;
        assert!((sim.computing_power - power).abs() < 1.0);
    }

    #[test]
    fn ideal_power_sums_standalone_rates() {
        let p = uniform_platform(3, 1e8);
        assert!((ideal_computing_power(&p, &workload()) - 3e8).abs() < 1.0);
    }

    #[test]
    fn determinism() {
        let wl = Workload::from_profile(&hcc_sparse::DatasetProfile::netflix());
        for (p, streams, x) in [
            (
                Platform::paper_testbed_4workers(),
                1,
                vec![0.1, 0.2, 0.3, 0.4],
            ),
            (Platform::paper_testbed_3workers(), 4, vec![0.2, 0.4, 0.4]),
        ] {
            let cfg = SimConfig {
                streams,
                ..Default::default()
            };
            let a = simulate_epoch(&p, &wl, &cfg, &x);
            let b = simulate_epoch(&p, &wl, &cfg, &x);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pipelined_phases_respect_dependencies() {
        let platform = Platform::paper_testbed_3workers();
        let wl = Workload::from_profile(&hcc_sparse::DatasetProfile::netflix());
        let cfg = SimConfig {
            streams: 4,
            ..Default::default()
        };
        let trace = simulate_epoch(&platform, &wl, &cfg, &[0.3, 0.3, 0.4]);
        // Within a worker, chunk pipelines never compute before pulling.
        for w in 0..3 {
            let spans = trace.worker_spans(w);
            let first_compute = spans
                .iter()
                .filter(|s| s.phase == Phase::Compute)
                .map(|s| s.start)
                .fold(f64::INFINITY, f64::min);
            let first_pull_end = spans
                .iter()
                .filter(|s| s.phase == Phase::Pull)
                .map(|s| s.end)
                .fold(f64::INFINITY, f64::min);
            assert!(first_compute >= first_pull_end - 1e-12);
        }
    }

    fn netflix() -> Workload {
        Workload::from_profile(&hcc_sparse::DatasetProfile::netflix())
    }

    /// The 4-worker testbed at a uniform split under `plan`'s epoch `epoch`.
    fn faulty_trace(plan: &FaultPlan, epoch: usize) -> EpochTrace {
        let platform = Platform::paper_testbed_4workers();
        let (cfg, x) = (SimConfig::default(), [0.25; 4]);
        simulate_epoch_faulty(&platform, &netflix(), &cfg, &x, |w| plan.at(w, epoch))
    }

    fn plain_trace() -> EpochTrace {
        faulty_trace(&FaultPlan::new(1), 0)
    }

    #[test]
    fn empty_faults_match_fault_free_trace() {
        let platform = Platform::paper_testbed_4workers();
        let plain = simulate_epoch(&platform, &netflix(), &SimConfig::default(), &[0.25; 4]);
        assert_eq!(plain, plain_trace());
        // A duplicated push is deduplicated: it costs the calendar nothing.
        let duplicates = FaultPlan {
            duplicate_rate: 1.0,
            ..FaultPlan::new(1)
        };
        assert_eq!(plain, faulty_trace(&duplicates, 0));
    }

    #[test]
    fn crash_removes_compute_push_and_sync_for_that_worker() {
        let plan = FaultPlan::new(1).with(2, 0, Fault::Crash);
        let trace = faulty_trace(&plan, 0);
        let spans = trace.worker_spans(2);
        assert!(spans.iter().any(|s| s.phase == Phase::Pull));
        assert!(spans
            .iter()
            .all(|s| !matches!(s.phase, Phase::Compute | Phase::Push | Phase::Sync)));
        // The survivors' sync work shrinks accordingly.
        assert!(trace.sync_total < plain_trace().sync_total);
        // The crash is that epoch's: the next one is whole again.
        assert_eq!(faulty_trace(&plan, 1), plain_trace());
    }

    #[test]
    fn stall_delays_the_epoch() {
        let plain = plain_trace();
        // A stall, or a late push, as long as the whole fault-free epoch
        // must push the critical path out by roughly that much.
        let lost = Duration::from_secs_f64(plain.epoch_time);
        for fault in [Fault::Stall(lost), Fault::DelayPush(lost)] {
            let plan = FaultPlan::new(1).with(0, 0, fault);
            let stalled = faulty_trace(&plan, 0);
            assert!(stalled.epoch_time > plain.epoch_time * 1.5, "{fault:?}");
            assert_eq!(stalled.sync_total, plain.sync_total, "{fault:?}");
        }
    }

    #[test]
    fn dropped_push_never_reaches_the_server() {
        for fault in [
            Fault::DropPush,
            Fault::CorruptPush,
            Fault::PoisonPush,
            Fault::Partition,
        ] {
            let plan = FaultPlan::new(1).with(1, 0, fault);
            let trace = faulty_trace(&plan, 0);
            let spans = trace.worker_spans(1);
            assert!(spans.iter().any(|s| s.phase == Phase::Compute), "{fault:?}");
            assert!(spans.iter().any(|s| s.phase == Phase::Push), "{fault:?}"); // bus used
            assert!(spans.iter().all(|s| s.phase != Phase::Sync), "{fault:?}"); // merge skipped
        }
    }

    #[test]
    fn faulty_trace_is_deterministic() {
        let plan = FaultPlan::from_seed(3).with(3, 0, Fault::Crash).with(
            1,
            0,
            Fault::Stall(Duration::from_millis(500)),
        );
        assert_eq!(faulty_trace(&plan, 0), faulty_trace(&plan, 0));
        assert_ne!(faulty_trace(&plan, 0), plain_trace());
    }

    #[test]
    fn derived_faults_feed_the_calendar() {
        // A fault is the worker's, not one of its shard links': under four
        // server shards a partitioned worker still loses exactly its own
        // pushes, from the partition's epoch on.
        let platform = Platform::paper_testbed_4workers();
        let cfg = SimConfig {
            server_shards: 4,
            ..SimConfig::default()
        };
        let plan = FaultPlan::new(1).with(1, 2, Fault::Partition);
        for epoch in 0..5 {
            let trace = simulate_epoch_faulty(&platform, &netflix(), &cfg, &[0.25; 4], |w| {
                plan.at(w, epoch)
            });
            for w in 0..4 {
                let merged = trace.worker_spans(w).iter().any(|s| s.phase == Phase::Sync);
                assert_eq!(merged, !(w == 1 && epoch >= 2), "epoch {epoch} worker {w}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "partition length")]
    fn wrong_partition_length_panics() {
        let p = uniform_platform(2, 1e8);
        simulate_epoch(&p, &workload(), &SimConfig::default(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_fraction_panics() {
        let p = uniform_platform(1, 1e8);
        simulate_epoch(&p, &workload(), &SimConfig::default(), &[-0.5]);
    }

    #[test]
    #[should_panic(expected = "transport efficiency")]
    fn out_of_range_transport_efficiency_panics() {
        let p = uniform_platform(1, 1e8);
        let cfg = SimConfig {
            transport_efficiency: 1.5,
            ..Default::default()
        };
        simulate_epoch(&p, &workload(), &cfg, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "stream count")]
    fn zero_streams_panics() {
        let p = uniform_platform(1, 1e8);
        let cfg = SimConfig {
            streams: 0,
            ..Default::default()
        };
        simulate_epoch(&p, &workload(), &cfg, &[1.0]);
    }
}
