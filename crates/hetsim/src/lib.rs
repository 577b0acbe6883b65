//! Virtual multi-CPU/GPU platform — the hardware-substitution substrate.
//!
//! The paper's testbed (2× Xeon Gold 6242, RTX 2080, RTX 2080 Super on
//! PCI-E 3.0 x16 / Intel UPI) is unavailable here, and stable Rust cannot
//! run custom SGD kernels on a GPU anyway. This crate substitutes a
//! **discrete-event simulator** of that class of machine:
//!
//! * [`profile`] — per-processor profiles calibrated from the paper's *own
//!   measurements*: Table 4's per-dataset "computing power" (updates/s) and
//!   Table 2's runtime memory bandwidths, including the GPU effect that
//!   bandwidth rises slightly as the input shard shrinks (which is why DP1
//!   exists). Plus Fig. 3(b)'s price catalog.
//! * [`platform`] — topologies: which processors, on which buses, which one
//!   time-shares with the parameter server.
//! * [`engine`] — the one epoch simulator: an event calendar draining each
//!   worker's pull → compute → push chunks (Strategy 3's multi-stream
//!   pipeline) through per-direction link channels, per-worker compute
//!   units and the server's FIFO synchronization queue, in global time
//!   order. Produces [`engine::EpochTrace`]s with full phase spans — the
//!   Fig. 5 / Fig. 8 timelines. [`simulate_epoch_faulty`] is the same
//!   calendar under the faults of an [`hcc_comm::FaultPlan`] — the plan
//!   the threaded engine runs, read at the same `(worker, epoch)` — so
//!   partition planning and supervisor policies can be studied against
//!   crashes, stragglers and a lossy network on platforms the host
//!   cannot physically run.
//! * [`measure`] — "virtual profiling": standalone execution times (DP0's
//!   input), the `measure` callback DP1's Algorithm-1 loop needs, the
//!   [`hcc_partition::CostModel`] for a platform/workload pair, and the
//!   Table 2 bandwidth report.
//!
//! Everything is deterministic: same inputs → bit-identical traces.
//!
//! ```
//! use hcc_hetsim::{simulate_epoch, Platform, SimConfig, Workload};
//! use hcc_sparse::DatasetProfile;
//!
//! let platform = Platform::paper_testbed_4workers();
//! let workload = Workload::from_profile(&DatasetProfile::netflix());
//! let trace = simulate_epoch(&platform, &workload, &SimConfig::default(), &[0.25; 4]);
//! assert!(trace.epoch_time > 0.0);
//! assert_eq!(trace.totals.len(), 4);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod cluster;
pub mod engine;
pub mod export;
pub mod measure;
pub mod platform;
pub mod profile;

pub use cluster::ClusterBuilder;
pub use engine::{
    ideal_computing_power, simulate_epoch, simulate_epoch_faulty, simulate_training, EpochTrace,
    Phase, PhaseSpan, SimConfig, TrainingSim, Workload,
};
pub use measure::{
    bandwidth_table, cost_model_for, standalone_times, virtual_measure, virtual_measure_total,
    worker_classes,
};
pub use platform::{Platform, WorkerSlot};
pub use profile::{BusKind, NicProfile, ProcKind, ProcessorProfile};
