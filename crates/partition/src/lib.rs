//! Time-cost model and data-partition strategies of HCC-MF (§3.2–3.3).
//!
//! Everything here is pure arithmetic over worker/bus/server parameters and
//! observed timings — no threads, no I/O, no clock. The threaded engine
//! (`hcc-mf`) and the virtual platform simulator (`hcc-hetsim`, through
//! [`planner::plan`]) share every formula and constant: Eq. 5's ratio and
//! λ, Algorithm 1's step and 10 % tolerance, Eq. 7's stagger. They do not
//! share a sequence. The engine calls [`policy::adapt`] once per training
//! epoch with that epoch's wall-clock timings (one Algorithm-1 step, then
//! the λ decision at the last adaptation epoch); the simulator's
//! [`planner::plan`] runs DP1 to convergence against a `measure` callback
//! in virtual time, refines per worker (Theorem 1), then makes the λ
//! decision.
//!
//! * [`round::RoundPlan`] — the epoch's schedule as data: which band of
//!   `Q` each worker trains in each round, in which chunks, where each band
//!   goes next, and the barrier between rounds. `RoundPlan::ring` is the
//!   threaded engine's epoch (each band handed from holder to holder and
//!   pushed to the server once), `RoundPlan::rotation` the same holders
//!   with every band installed and pulled between them, `RoundPlan::paper`
//!   the paper's one round; the engine walks a plan, `hcc-hetsim` times it
//!   and [`CostModel::epoch_time`] prices it.
//! * [`model::CostModel`] — Equations 1–5 and Table 1's parameters;
//!   [`model::sync_ratio`] and [`model::choose`] — Eq. 5's ratio and its
//!   λ dispatch between DP1 and DP2.
//! * [`theorem::equalize`] — Theorem 1: `max(a_i x_i + b_i)` is minimized
//!   (subject to `Σx = 1`) exactly when all `a_i x_i + b_i` are equal.
//! * [`dp::dp0`] — the basic proportional split (Eq. 6).
//! * [`dp::dp1`] / [`dp::dp1_step`] — "data partition with heterogeneous
//!   load balance" (Algorithm 1's compensation loop, and one pass of it).
//! * [`dp::dp2`] — "data partition with hidden synchronization" (Eq. 7).
//! * [`planner::plan`] — the simulator's planning sequence.
//! * [`policy::adapt`] — the engine's per-epoch partition policy, and
//!   [`policy::PartitionMode`], the mode a run trains under.
//! * [`shard::ShardRouter`] — contiguous row-range sharding for the
//!   node-sharded parameter server.
//! * [`sweep`] — λ and partition-noise sensitivity.
//!
//! ```
//! use hcc_partition::{dp0, equalize};
//!
//! // DP0: shares proportional to speed (inverse standalone time, Eq. 6).
//! let x = dp0(&[2.0, 1.0]);           // worker 1 is twice as fast
//! assert!((x[1] - 2.0 / 3.0).abs() < 1e-12);
//!
//! // Theorem 1: equal-cost split under per-worker fixed costs.
//! let x = equalize(&[1.0, 1.0], &[0.0, 0.5]);
//! assert!(x[0] > x[1]);               // worker 1 pays fixed cost, gets less data
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod dp;
pub mod model;
pub mod planner;
pub mod policy;
pub mod round;
pub mod shard;
pub mod sweep;
pub mod theorem;

pub use dp::{dp0, dp1, dp1_step, dp2, WorkerClass};
pub use model::CostModel;
pub use planner::{plan, replan_survivors, PartitionPlan, StrategyChoice};
pub use policy::{adapt, Adaptation, EpochTimes, PartitionMode};
pub use round::{Edge, RoundPlan, Step};
pub use shard::ShardRouter;
pub use sweep::{perturbation_cost, sweep_lambda};
pub use theorem::equalize;
