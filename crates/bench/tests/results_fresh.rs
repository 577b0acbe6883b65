//! The committed `results/` cannot drift from the code: every
//! [`Archive::Pinned`] row of `hcc_bench::EXPERIMENTS` is re-run and its
//! stdout compared byte for byte with the archived `results/<name>.txt`,
//! and every file under `results/` must belong to a row.
//!
//! [`Archive::WallClock`] rows time real training or transports on the
//! local machine; their archives are records and are not compared. To
//! accept a deliberate change, regenerate the file as `results/README.md`
//! describes.

use hcc_bench::{Archive, EXPERIMENTS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn hcc_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hcc-bench"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running hcc-bench {args:?}: {e}"))
}

fn stdout_of(args: &[&str]) -> String {
    let out = hcc_bench(args);
    assert!(
        out.status.success(),
        "hcc-bench {args:?} failed:\n{}",
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
    for e in EXPERIMENTS.iter().filter(|e| e.archive == Archive::Pinned) {
        assert_matches_committed(&format!("{}.txt", e.name), &stdout_of(&[e.name]));
    }
}

/// `results/` holds exactly what the table says it does: no archive of a
/// deleted experiment lingers, and no archived experiment lacks its file.
#[test]
fn every_archive_belongs_to_an_experiment_and_every_experiment_has_its_archive() {
    let mut claimed: Vec<String> = vec!["README.md".into()];
    for e in EXPERIMENTS.iter().filter(|e| e.archive != Archive::None) {
        claimed.push(format!("{}.txt", e.name));
        claimed.extend(e.also.iter().map(|f| f.to_string()));
    }
    let mut present: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|f| {
            f.expect("readable entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .collect();
    claimed.sort();
    present.sort();
    assert_eq!(
        present, claimed,
        "left: results/, right: hcc_bench::EXPERIMENTS"
    );
}

/// A command line the table does not accept ends in the usage text on
/// stderr and exit code 2, never in a panic.
#[test]
fn bad_command_lines_print_the_usage_and_exit_2() {
    for args in [
        &["fig99_nothing"][..],
        &["hcc_sim", "--quick"],
        &["hcc_sim", "--epochs"],
        &["hcc_sim", "--streams", "0"],
        &["hcc_sim", "--epochs", "0"],
        &["fig3_platforms", "--epochs", "3"],
        &[],
    ] {
        let out = hcc_bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: hcc-bench") && !stderr.contains("panicked"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed results");
    }
}
