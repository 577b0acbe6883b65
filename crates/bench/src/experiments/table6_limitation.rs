//! Table 6 — the MovieLens-20m limitation: adding a second GPU halves the
//! compute time but the near-square matrix keeps communication constant,
//! so the total barely moves (§4.6).

use crate::{fmt_secs, plan, print_table, Flags};
use hcc_hetsim::{simulate_training, Platform, ProcessorProfile, SimConfig, Workload};
use hcc_sparse::DatasetProfile;

pub fn run(_: &Flags) -> Result<(), String> {
    let profile = DatasetProfile::movielens_20m();
    let wl = Workload::from_profile(&profile);
    let cfg = SimConfig::default();
    let epochs = 20;

    let single = Platform::single(ProcessorProfile::rtx_2080_super());
    let pair = Platform::pair(
        ProcessorProfile::rtx_2080_super(),
        ProcessorProfile::rtx_2080(),
    );

    let mut rows = Vec::new();
    let mut totals = Vec::new();
    for platform in [&single, &pair] {
        let p = plan(platform, &wl, &cfg);
        let sim = simulate_training(platform, &wl, &cfg, &p.fractions, epochs);
        let e = epochs as f64;
        for (w, t) in sim.epoch.totals.iter().enumerate() {
            rows.push(vec![
                platform.name.clone(),
                platform.worker_names()[w].to_string(),
                fmt_secs(t.pull * e),
                fmt_secs(t.compute * e),
                fmt_secs(t.push * e),
                fmt_secs(sim.total_time),
            ]);
        }
        totals.push(sim.total_time);
    }

    // The CuMF_SGD reference: the single 2080S with no framework at all.
    let standalone =
        wl.nnz as f64 * epochs as f64 / ProcessorProfile::rtx_2080_super().rates.movielens;
    rows.push(vec![
        "CuMF_SGD".into(),
        "RTX 2080S".into(),
        "n/a".into(),
        fmt_secs(standalone),
        "n/a".into(),
        fmt_secs(standalone),
    ]);

    print_table(
        "Table 6: MovieLens-20m 20-epoch cost (seconds; paper reports the same totals)",
        &["config", "worker", "pull", "compute", "push", "epoch"],
        &rows,
    );
    println!(
        "speedup from the 2nd GPU: {:.2}x (paper: 0.559s -> 0.449s = 1.24x over 20 epochs). The matrix is \
         near-square, so nnz/(m+n) = {:.0} < 10^3: communication ~ computation and extra \
         processors can't reduce it (§4.6).",
        totals[0] / totals[1],
        profile.nnz_per_dim(),
    );
    Ok(())
}
