//! The committed `results/` cannot drift from the code: every deterministic
//! simulator-backed experiment binary is re-run and its stdout compared
//! byte for byte with the archived `results/<name>.txt` (and
//! `cluster_scaling`'s JSON with `results/BENCH_cluster.json`).
//!
//! Binaries that time real training or kernels on the local machine
//! (`fig7_convergence`, `related_work`, `table5_comm`, `hotpath`, `serving*`,
//! `telemetry`, `model_validation --measured`) are not reproducible and are
//! skipped. To accept a deliberate change, regenerate the file as
//! `results/README.md` describes.

use std::path::{Path, PathBuf};
use std::process::Command;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn stdout_of(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("experiment output is UTF-8")
}

fn assert_matches_committed(name: &str, fresh: &str) {
    let path = results_dir().join(name);
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if committed == fresh {
        return;
    }
    let line = committed
        .lines()
        .zip(fresh.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| committed.lines().count().min(fresh.lines().count()));
    panic!(
        "results/{name} is stale (first difference at line {}):\n committed: {:?}\n fresh:     {:?}",
        line + 1,
        committed.lines().nth(line).unwrap_or("<end of file>"),
        fresh.lines().nth(line).unwrap_or("<end of file>"),
    );
}

#[test]
fn simulator_backed_text_results_are_fresh() {
    for (name, exe) in [
        ("fig3_platforms", env!("CARGO_BIN_EXE_fig3_platforms")),
        ("table2_bandwidth", env!("CARGO_BIN_EXE_table2_bandwidth")),
        ("fig5_timelines", env!("CARGO_BIN_EXE_fig5_timelines")),
        ("fig8_partition", env!("CARGO_BIN_EXE_fig8_partition")),
        ("table4_power", env!("CARGO_BIN_EXE_table4_power")),
        ("fig9_scaling", env!("CARGO_BIN_EXE_fig9_scaling")),
        ("table6_limitation", env!("CARGO_BIN_EXE_table6_limitation")),
        ("ablation_lambda", env!("CARGO_BIN_EXE_ablation_lambda")),
        ("ablation_streams", env!("CARGO_BIN_EXE_ablation_streams")),
        ("ablation_k", env!("CARGO_BIN_EXE_ablation_k")),
        ("bus_contention", env!("CARGO_BIN_EXE_bus_contention")),
        ("model_validation", env!("CARGO_BIN_EXE_model_validation")),
    ] {
        assert_matches_committed(&format!("{name}.txt"), &stdout_of(exe, &[]));
    }
}

#[test]
fn cluster_scaling_text_and_json_are_fresh() {
    let json = std::env::temp_dir().join(format!("hcc_results_fresh_{}.json", std::process::id()));
    let json_arg = json.to_str().expect("temp path is UTF-8");
    let stdout = stdout_of(env!("CARGO_BIN_EXE_cluster_scaling"), &["--out", json_arg]);
    let fresh_json = std::fs::read_to_string(&json).expect("cluster_scaling wrote its --out file");
    std::fs::remove_file(&json).ok();
    assert_matches_committed("cluster_scaling.txt", &stdout);
    assert_matches_committed("BENCH_cluster.json", &fresh_json);
}
