//! Trace export: turn [`EpochTrace`]s into CSV for external plotting.
//!
//! The Fig. 5 / Fig. 8 artifacts are timelines and stacked bars; this
//! module emits the raw spans and totals in a spreadsheet-friendly form so
//! the figures can be redrawn with any plotting tool.

use crate::engine::{EpochTrace, Phase};
use crate::platform::Platform;
use std::fmt::Write as _;

/// Phase label as written to CSV.
fn phase_label(phase: Phase) -> &'static str {
    match phase {
        Phase::Pull => "pull",
        Phase::Compute => "compute",
        Phase::Push => "push",
        Phase::Sync => "sync",
    }
}

/// Renders the span timeline as CSV:
/// `worker,worker_name,phase,start_s,end_s,duration_s`.
pub fn spans_to_csv(platform: &Platform, trace: &EpochTrace) -> String {
    let names = platform.worker_names();
    let mut out = String::from("worker,worker_name,phase,start_s,end_s,duration_s\n");
    for span in &trace.spans {
        let name = names.get(span.worker).copied().unwrap_or("?");
        let _ = writeln!(
            out,
            "{},{},{},{:.9},{:.9},{:.9}",
            span.worker,
            name,
            phase_label(span.phase),
            span.start,
            span.end,
            span.duration()
        );
    }
    out
}

/// Renders per-worker totals as CSV:
/// `worker,worker_name,pull_s,compute_s,push_s,total_s`.
pub fn totals_to_csv(platform: &Platform, trace: &EpochTrace) -> String {
    let names = platform.worker_names();
    let mut out = String::from("worker,worker_name,pull_s,compute_s,push_s,total_s\n");
    for (w, t) in trace.totals.iter().enumerate() {
        let name = names.get(w).copied().unwrap_or("?");
        let _ = writeln!(
            out,
            "{},{},{:.9},{:.9},{:.9},{:.9}",
            w,
            name,
            t.pull,
            t.compute,
            t.push,
            t.sum()
        );
    }
    out
}

/// Writes both CSVs next to each other: `<prefix>_spans.csv` and
/// `<prefix>_totals.csv`.
pub fn write_csvs(
    prefix: &str,
    platform: &Platform,
    trace: &EpochTrace,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    let spans_path = std::path::PathBuf::from(format!("{prefix}_spans.csv"));
    let totals_path = std::path::PathBuf::from(format!("{prefix}_totals.csv"));
    std::fs::write(&spans_path, spans_to_csv(platform, trace))?;
    std::fs::write(&totals_path, totals_to_csv(platform, trace))?;
    Ok((spans_path, totals_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_epoch, SimConfig, Workload};
    use hcc_sparse::DatasetProfile;

    fn trace_and_platform() -> (Platform, EpochTrace) {
        let platform = Platform::paper_testbed_3workers();
        let wl = Workload::from_profile(&DatasetProfile::netflix());
        let paper = hcc_partition::RoundPlan::paper(3, wl.n as usize, 1);
        let trace = simulate_epoch(
            &platform,
            &wl,
            &SimConfig::default(),
            &paper,
            &[0.2, 0.4, 0.4],
        );
        (platform, trace)
    }

    #[test]
    fn spans_csv_has_header_and_all_rows() {
        let (platform, trace) = trace_and_platform();
        let csv = spans_to_csv(&platform, &trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "worker,worker_name,phase,start_s,end_s,duration_s"
        );
        assert_eq!(lines.len(), trace.spans.len() + 1);
        // 3 workers × (pull+compute+push) + 3 syncs = 12 spans.
        assert_eq!(trace.spans.len(), 12);
        assert!(csv.contains("RTX 2080S"));
        assert!(csv.contains(",sync,"));
    }

    #[test]
    fn totals_csv_is_parseable() {
        let (platform, trace) = trace_and_platform();
        let csv = totals_to_csv(&platform, &trace);
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), 6);
            let pull: f64 = cells[2].parse().unwrap();
            let compute: f64 = cells[3].parse().unwrap();
            let push: f64 = cells[4].parse().unwrap();
            let total: f64 = cells[5].parse().unwrap();
            assert!((pull + compute + push - total).abs() < 1e-9);
        }
    }

    #[test]
    fn files_written_to_disk() {
        let (platform, trace) = trace_and_platform();
        let dir = std::env::temp_dir().join("hcc_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("trace").to_string_lossy().into_owned();
        let (spans, totals) = write_csvs(&prefix, &platform, &trace).unwrap();
        assert!(spans.exists());
        assert!(totals.exists());
        std::fs::remove_file(spans).ok();
        std::fs::remove_file(totals).ok();
    }
}
