//! Table 4 — per-processor "computing power" (Eq. 8), the platform ideal,
//! HCC-MF's achieved power, and the utilization percentage, per dataset.

use crate::{fmt_mups, fmt_pct, plan, print_table, Flags};
use hcc_hetsim::{ideal_computing_power, simulate_training, Platform, SimConfig, Workload};
use hcc_sparse::DatasetProfile;

pub fn run(_: &Flags) -> Result<(), String> {
    let epochs = 20;

    // Paper Table 4 utilization for comparison.
    let paper_util = [
        ("Netflix", 0.86),
        ("Yahoo! Music R1", 0.62),
        ("Yahoo! Music R2", 0.88),
        ("MovieLens-20m", 0.46),
    ];

    let mut rows = Vec::new();
    for profile in [
        DatasetProfile::netflix(),
        DatasetProfile::yahoo_r1(),
        DatasetProfile::yahoo_r2(),
        DatasetProfile::movielens_20m(),
    ] {
        let wl = Workload::from_profile(&profile);
        // §4.2 configuration: the overall testbed. On R1 the paper runs the
        // asynchronous computing-transmission strategy, which occupies the
        // server CPU (no time-sharing worker) and pipelines 4 streams.
        let (platform, cfg) = if profile.name.contains("R1") {
            (
                Platform::paper_testbed_3workers(),
                SimConfig {
                    streams: 4,
                    ..Default::default()
                },
            )
        } else {
            (Platform::paper_testbed_overall(), SimConfig::default())
        };

        let per_worker: Vec<String> = platform
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{}={}",
                    w.profile.name,
                    fmt_mups(w.profile.rates.rate(&wl.name, wl.m, wl.n, wl.nnz))
                )
            })
            .collect();

        let p = plan(&platform, &wl, &cfg);
        let sim = simulate_training(&platform, &wl, &cfg, &p.fractions, epochs);
        let ideal = ideal_computing_power(&platform, &wl);
        let util = sim.computing_power / ideal;
        let paper = paper_util
            .iter()
            .find(|(n, _)| *n == profile.name)
            .map(|(_, u)| fmt_pct(*u))
            .unwrap_or_default();
        rows.push(vec![
            profile.name.to_string(),
            per_worker.join(" "),
            fmt_mups(ideal),
            fmt_mups(sim.computing_power),
            fmt_pct(util),
            paper,
        ]);
    }

    print_table(
        "Table 4: computing power over 20 epochs (updates/s)",
        &[
            "dataset",
            "standalone rates",
            "ideal",
            "HCC",
            "util (ours)",
            "util (paper)",
        ],
        &rows,
    );
    println!(
        "shape: Netflix and R2 land near 85–90%, R1 well below them, MovieLens lowest \
         (communication-bound, §4.6)."
    );
    Ok(())
}
