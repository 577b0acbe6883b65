//! Extracted interleaving models of the workspace's four lock-free
//! protocols.
//!
//! Each module distills one real protocol to the handful of shared cells
//! and ordering edges its safety argument actually rests on, states the
//! invariant as an assertion, and exposes `body(weakened)`:
//!
//! * `weakened == false` — the protocol as shipped; the explorer must
//!   exhaust every schedule without a violation.
//! * `weakened == true` — exactly one ordering (or one critical-section
//!   boundary) is weakened; the explorer must find a violating schedule.
//!   This is the mutation test proving the checker has teeth: if a future
//!   edit weakens the real code the same way, the suite fails the same way.
//!
//! | model | real code | invariant |
//! |-------|-----------|-----------|
//! | [`heartbeat`] | `crates/core/src/supervisor.rs` | an observed beat implies consistent worker stats — no false `dead` mark with settled state |
//! | [`snapshot`] | `crates/serve/src/engine.rs` | a query never sees a mixed P/Q snapshot across a reload |
//! | [`admission`] | `crates/serve/src/admission.rs` | queue depth never exceeds capacity; exactly one merger sees every partial |
//! | [`delta_base`] | `crates/core/src/server.rs` | published base seq is monotone and a consumer at seq `n` sees the matching payload |

pub mod admission;
pub mod delta_base;
pub mod heartbeat;
pub mod snapshot;

/// A model's test body, ready to hand to `hcc_sync::model::explore`.
pub type ModelBody = Box<dyn Fn() + Send + Sync>;

/// Constructor taking `weakened` and returning the body to explore.
pub type ModelCtor = fn(bool) -> ModelBody;

/// `(name, body-constructor)` for every model, for suite-wide loops.
pub fn all() -> Vec<(&'static str, ModelCtor)> {
    vec![
        ("heartbeat", heartbeat::boxed_body),
        ("snapshot", snapshot::boxed_body),
        ("admission", admission::boxed_body),
        ("delta_base", delta_base::boxed_body),
    ]
}
