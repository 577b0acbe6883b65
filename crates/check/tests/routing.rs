//! Guard: the set of `hcc-sync`-routed modules must not shrink.
//!
//! Stage 2's model suite only runs the instrumented types while the files
//! of the types it explores keep importing their synchronization from the
//! facade. This test (and the same check inside the `hcc-check` binary,
//! which CI runs with `--deny`) fails when a routed file disappears or
//! drops its `use hcc_sync` import without the routing set being updated.

use std::path::Path;

#[test]
fn routed_module_set_has_not_shrunk() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let violations = hcc_check::routing_violations(root);
    assert!(
        violations.is_empty(),
        "hcc-sync routing set shrank:\n{}",
        violations.join("\n")
    );
    assert!(
        hcc_check::ROUTED_MODULES.len() >= 3,
        "the routed-module floor is 3: the files of HeartbeatBoard, ServeEngine and \
         Telemetry, the shipped types the model suite explores"
    );
}
