//! `hcc-check`: the two-stage concurrency verifier.
//!
//! The workspace's lock-free cores rest on hand-argued protocols; this
//! crate machine-checks them in two complementary ways (DESIGN.md §15):
//!
//! * **Stage 1 — static protocol rules.** The `hcc-check` binary runs the
//!   full `hcc-lint` rule set, including its cross-file protocol rules:
//!   R6 (every `Release` store pairs with an `Acquire`/`AcqRel` read of
//!   the same atomic field somewhere in the crate), R7 (`unsafe`
//!   raw-pointer/`UnsafeCell` regions carry a `// SHARED:` comment naming
//!   the cells they touch, and the named cells have an explicitly-shared
//!   type), and R8 (no new `SeqCst`, no new `static mut` — not
//!   allowlistable). It also guards the routing set: the modules in
//!   [`ROUTED_MODULES`] must keep importing their synchronization from
//!   `hcc-sync`, or the model suite silently stops covering them.
//! * **Stage 2 — deterministic interleaving exploration.** Under
//!   `--features model`, `tests/model_check.rs` builds the shipped
//!   `HeartbeatBoard`, `ServeEngine` and `Telemetry` inside
//!   `hcc_sync::explore`, compiled against the instrumented types, and
//!   asserts their invariants over every schedule within the preemption
//!   bound.

#![deny(unsafe_op_in_unsafe_fn)]

use std::path::Path;

/// The files defining the types the model suite explores. Each must keep
/// importing its synchronization from `hcc-sync`, or the suite runs the
/// production types instead of the instrumented ones. CI fails if a file
/// disappears or drops the import.
pub const ROUTED_MODULES: &[&str] = &[
    "crates/core/src/supervisor.rs",
    "crates/serve/src/engine.rs",
    "crates/telemetry/src/lib.rs",
];

/// Checks the routing guard at `root`; returns one message per breach.
pub fn routing_violations(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for rel in ROUTED_MODULES {
        let path = root.join(rel);
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                if !text.contains("use hcc_sync") {
                    out.push(format!(
                        "{rel}: no `use hcc_sync` import — the module left the model-checked \
                         routing set (re-route it, or update hcc-check's ROUTED_MODULES and \
                         tests/model_check.rs together)"
                    ));
                }
            }
            Err(_) => out.push(format!(
                "{rel}: file missing — the model-checked routing set shrank (update \
                 hcc-check's ROUTED_MODULES alongside the refactor)"
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_guard_passes_on_this_tree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let v = routing_violations(root);
        assert!(v.is_empty(), "routing guard tripped:\n{}", v.join("\n"));
    }

    #[test]
    fn routing_guard_reports_missing_files() {
        let v = routing_violations(Path::new("/nonexistent-hcc-root"));
        assert_eq!(v.len(), ROUTED_MODULES.len());
        assert!(v[0].contains("missing"));
    }
}
