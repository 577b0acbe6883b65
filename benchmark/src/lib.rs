//! The repo benchmark: five seeded train/serve workloads, end-to-end
//! metrics measured with tracing off, and per-layer attribution measured
//! from outside the program in a separate traced pass. `BENCHMARK.json` at
//! the repo root is the list of both.
//!
//! See `README.md` in this directory for the workloads, the metric
//! definitions and the interaction table.

pub mod compare;
pub mod inputs;
pub mod layers;
pub mod lifecycle;
pub mod openloop;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod workloads;
