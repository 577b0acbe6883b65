//! `hcc-check`: the two-stage concurrency verifier.
//!
//! The workspace's lock-free cores rest on hand-argued protocols; this
//! crate machine-checks them in two complementary ways (DESIGN.md §15):
//!
//! * **Stage 1 — static protocol rules.** The `hcc-check` binary runs the
//!   full `hcc-lint` rule set, which PR 10 extends with cross-file
//!   protocol rules: R6 (every `Release` store pairs with an
//!   `Acquire`/`AcqRel` read of the same atomic field somewhere in the
//!   crate), R7 (`unsafe` raw-pointer/`UnsafeCell` regions carry a
//!   `// SHARED:` comment naming the cells they touch, and the named
//!   cells have an explicitly-shared type), and R8 (no new `SeqCst`, no
//!   new `static mut` — not allowlistable). It also guards the routing
//!   set: the modules in [`ROUTED_MODULES`] must keep importing their
//!   synchronization from `hcc-sync`, or the model suite silently stops
//!   covering them.
//! * **Stage 2 — deterministic interleaving exploration.** Under
//!   `--features model`, the `models` module holds small extracted models of the
//!   four protocols (heartbeat board, serve snapshot swap, admission
//!   capacity + merger election, delta-base publish) written against the
//!   `hcc_sync` facade. The suite in
//!   `tests/model_check.rs` exhausts their interleavings (bounded
//!   preemption, seeded deterministic order) and additionally *weakens*
//!   one ordering per model to prove the checker would catch the
//!   regression.

#![deny(unsafe_op_in_unsafe_fn)]

use std::path::Path;

#[cfg(feature = "model")]
pub mod models;

/// The modules whose synchronization is routed through `hcc-sync`, each
/// with a model in the `models` module (or, for the SIMD backend cache, covered by
/// the racy-init argument R2 documents). CI fails if this set shrinks:
/// every file must exist and keep importing `hcc_sync`.
pub const ROUTED_MODULES: &[&str] = &[
    "crates/core/src/supervisor.rs",
    "crates/core/src/server.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/admission.rs",
    "crates/sgd/src/simd.rs",
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
                         routing set (re-route it or update hcc-check's ROUTED_MODULES with a \
                         replacement model)"
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
