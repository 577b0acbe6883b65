//! The experiments that regenerate the paper's tables and figures, as one
//! `hcc-bench <name> [flags]` binary driven by [`EXPERIMENTS`].
//!
//! ```sh
//! cargo run --release -p hcc-bench -- --list
//! cargo run --release -p hcc-bench -- table4_power > results/table4_power.txt
//! ```
//!
//! Each experiment prints the paper's reported values next to ours so the
//! *shape* comparison (who wins, by what factor) is immediate; the full
//! paper-vs-measured record lives in `EXPERIMENTS.md`. Wall-clock
//! performance is not measured here: that is `benchmark/`'s job.

#![deny(unsafe_op_in_unsafe_fn)]

use hcc_hetsim::{
    cost_model_for, standalone_times, virtual_measure_total, worker_classes, Platform, SimConfig,
    Workload,
};
use hcc_partition::{PartitionPlan, PartitionPlanner};

/// The flags an experiment was given, read by name (`get`, `parsed`).
pub use hcc_mf::cli::Flags;

/// What `results/` holds for an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Archive {
    /// Virtual time: stdout is pinned byte for byte as `results/<name>.txt`
    /// (`tests/results_fresh.rs`).
    Pinned,
    /// Times this machine: `results/<name>.txt` records one run and is not
    /// compared.
    WallClock,
    /// Answers what its flags ask; nothing is archived.
    None,
}

/// One row of [`EXPERIMENTS`].
pub struct Experiment {
    /// The `<name>` of `hcc-bench <name>` and of `results/<name>.txt`.
    pub name: &'static str,
    /// What `results/` holds for it.
    pub archive: Archive,
    /// The flags it takes, as `(flag, value placeholder)`; a switch has an
    /// empty placeholder.
    pub flags: &'static [(&'static str, &'static str)],
    /// Further files under `results/` that one of its flags produces.
    pub also: &'static [&'static str],
    /// Runs it, printing to stdout.
    pub run: fn(&Flags) -> Result<(), String>,
}

/// Declares the experiment modules and [`EXPERIMENTS`] from one list, so a
/// name is written once. A row is `name: Archive [flags] + [further files];`
/// with both brackets optional.
macro_rules! experiments {
    ($($name:ident: $archive:ident
        $([$($flag:literal $value:literal),*])? $(+ [$($also:literal),*])?;)*) => {
        mod experiments {
            $(pub mod $name;)*
        }

        /// Every experiment, in the order `--list` prints them.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            archive: Archive::$archive,
            flags: &[$($(($flag, $value)),*)?],
            also: &[$($($also),*)?],
            run: experiments::$name::run,
        }),*];
    };
}

experiments! {
    fig3_platforms: Pinned;
    table2_bandwidth: Pinned;
    fig5_timelines: Pinned;
    fig7_convergence: WallClock;
    fig8_partition: Pinned;
    table4_power: Pinned;
    table5_comm: WallClock;
    fig9_scaling: Pinned;
    table6_limitation: Pinned;
    ablation_lambda: Pinned;
    ablation_streams: Pinned;
    ablation_k: Pinned;
    bus_contention: Pinned;
    related_work: WallClock;
    model_validation: Pinned ["--measured" ""] + ["model_validation_measured.txt"];
    cluster_scaling: Pinned ["--epochs" "N", "--out" "FILE.json"] + ["BENCH_cluster.json"];
    hcc_sim: None [
        "--dataset" "netflix|r1|r1star|r2|movielens",
        "--workers" "testbed4|testbed3|overall|6242,2080s,...",
        "--strategy" "pq|q|halfq", "--streams" "N", "--epochs" "N", "--csv" "PREFIX"
    ];
}

/// Runs `hcc-bench <args>`. An `Err` is a command line the table does not
/// accept (or an experiment's own failure); `main` prints it with
/// [`usage`] and exits 2.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let (name, rest) = args.split_first().ok_or("no experiment named")?;
    if name == "--list" {
        for e in EXPERIMENTS {
            let mark = if e.archive == Archive::WallClock {
                "  (wall-clock)"
            } else {
                ""
            };
            println!("{}{mark}", e.name);
        }
        return Ok(());
    }
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment {name}"))?;
    let flags = Flags::parse(experiment.flags, rest)?;
    if let Some(arg) = flags.positionals().first() {
        return Err(format!("unexpected argument {arg}"));
    }
    (experiment.run)(&flags)
}

/// The usage text, generated from [`EXPERIMENTS`].
pub fn usage() -> String {
    let mut text = String::from("usage: hcc-bench --list | <experiment> [flags]\n\nexperiments:\n");
    for e in EXPERIMENTS {
        text += &format!("  {}", e.name);
        for (flag, value) in e.flags {
            text += &match *value {
                "" => format!(" [{flag}]"),
                _ => format!(" [{flag} {value}]"),
            };
        }
        text.push('\n');
    }
    text
}

/// Plans a partition for a platform/workload/config triple on the virtual
/// platform (DP0 seed → DP1 → λ dispatch to DP2), exactly as the framework
/// does on real hardware. The measurement callback reports compute plus
/// *exposed* communication, so Strategy-3 pipelining (which hides GPU
/// transfers but not plain-CPU ones) is visible to the balancer — Theorem 1
/// with per-worker fixed costs.
pub fn plan(platform: &Platform, workload: &Workload, config: &SimConfig) -> PartitionPlan {
    let model = cost_model_for(platform, workload, config);
    PartitionPlanner::default().plan(
        &model,
        &standalone_times(platform, workload),
        &worker_classes(platform),
        virtual_measure_total(platform, workload, config),
    )
}

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(c, cell)| format!("{:<width$}", cell, width = widths[c.min(cols - 1)]))
            .collect();
        parts.join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 10.0 {
        format!("{s:.1}s")
    } else if s >= 0.1 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Formats updates/s in millions.
pub fn fmt_mups(rate: f64) -> String {
    format!("{:.0}M", rate / 1e6)
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.0}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_sparse::DatasetProfile;

    #[test]
    fn plan_produces_valid_partition() {
        let platform = Platform::paper_testbed_4workers();
        let wl = Workload::from_profile(&DatasetProfile::netflix());
        let p = plan(&platform, &wl, &SimConfig::default());
        assert_eq!(p.fractions.len(), 4);
        assert!((p.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    fn dispatch_err(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        dispatch(&args).expect_err("rejected before anything runs")
    }

    #[test]
    fn dispatcher_rejects_unknown_names_unknown_flags_and_missing_values() {
        assert_eq!(dispatch_err(&[]), "no experiment named");
        assert_eq!(dispatch_err(&["fig99"]), "unknown experiment fig99");
        assert_eq!(
            dispatch_err(&["cluster_scaling", "--quick"]),
            "unknown flag --quick"
        );
        assert_eq!(
            dispatch_err(&["table4_power", "--out", "x"]),
            "unknown flag --out"
        );
        assert_eq!(
            dispatch_err(&["cluster_scaling", "--epochs"]),
            "--epochs needs a value (N)"
        );
        assert_eq!(
            dispatch_err(&["hcc_sim", "--streams", "many"]),
            "--streams many: invalid digit found in string"
        );
        assert_eq!(
            dispatch_err(&["table4_power", "extra"]),
            "unexpected argument extra"
        );
    }

    #[test]
    fn flags_keep_values_and_switches_apart() {
        let spec: &[(&str, &str)] = &[("--epochs", "N"), ("--measured", "")];
        let args = ["--measured", "--epochs", "7"].map(String::from);
        let flags = Flags::parse(spec, &args).unwrap();
        assert_eq!(flags.get("--measured"), Some(""));
        assert_eq!(flags.parsed("--epochs", 20usize), Ok(7));
        assert_eq!(flags.get("--out"), None);
        assert_eq!(
            Flags::parse(spec, &[]).unwrap().parsed("--epochs", 20usize),
            Ok(20)
        );
    }

    #[test]
    fn usage_and_names_come_from_the_table() {
        let text = usage();
        for e in EXPERIMENTS {
            assert!(text.contains(&format!("\n  {}", e.name)), "{}", e.name);
            assert_eq!(EXPERIMENTS.iter().filter(|o| o.name == e.name).count(), 1);
        }
        assert!(text.contains("cluster_scaling [--epochs N] [--out FILE.json]\n"));
        assert!(text.contains("model_validation [--measured]\n"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(12.34), "12.3s");
        assert_eq!(fmt_secs(1.234), "1.23s");
        assert_eq!(fmt_secs(0.012), "12.0ms");
        assert_eq!(fmt_mups(1.5e8), "150M");
        assert_eq!(fmt_pct(0.861), "86%");
    }
}
