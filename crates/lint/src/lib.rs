//! `hcc-lint`: the workspace invariant checker.
//!
//! The correctness of HCC-MF's hot paths rests on contracts the compiler
//! cannot see: Hogwild kernels and telemetry rings document *why* their
//! `unsafe` is sound, lock-free structures choose specific memory
//! orderings, and library crates promise typed errors instead of panics.
//! This crate turns those comment-level contracts into CI-enforced rules
//! (R1–R8, see [`rules`]) with a reasoned escape hatch
//! ([`allow`], `lint-allow.toml` at the workspace root). R8 (SeqCst /
//! `static mut`) has no escape hatch, and R6 resolves Release/Acquire
//! pairs across files within each crate.
//!
//! The crate is a library: `cargo run -p hcc-check -- --deny` (stage 1 of
//! the concurrency verifier, and CI's `lint-invariants` job) runs this scan
//! plus the `hcc-sync` routing guard; see DESIGN.md §11 and §15 for the
//! full policy.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod allow;
pub mod rules;
pub mod source;
pub mod workspace;

pub use allow::Allowlist;
pub use rules::Violation;
pub use workspace::{run, Report};
