//! Figure 8 — cumulative 20-epoch pull/compute/push time per data-partition
//! strategy: DP0 vs DP1 on Netflix and R2 (3 and 4 workers), DP1 vs DP2 on
//! R1* (3 and 4 workers).

use crate::{fmt_secs, paper, print_table, Flags};
use hcc_hetsim::{
    cost_model_for, simulate_training, standalone_times, virtual_measure, worker_classes, Platform,
    SimConfig, Workload,
};
use hcc_partition::{dp0, dp1, dp2};
use hcc_sparse::DatasetProfile;

pub fn run(_: &Flags) -> Result<(), String> {
    let epochs = 20;
    let cfg = SimConfig::default();

    for (profile, strategies) in [
        (DatasetProfile::netflix(), ["DP0", "DP1"]),
        (DatasetProfile::yahoo_r2(), ["DP0", "DP1"]),
        (DatasetProfile::r1_star(), ["DP1", "DP2"]),
    ] {
        let wl = Workload::from_profile(&profile);
        for workers in [3usize, 4] {
            let platform = if workers == 3 {
                Platform::paper_testbed_3workers()
            } else {
                Platform::paper_testbed_4workers()
            };
            let mut rows = Vec::new();
            let mut totals = Vec::new();
            for name in strategies {
                let x = partition(name, &platform, &wl, &cfg);
                let sim = simulate_training(&platform, &wl, &cfg, &paper(&platform, &wl, 1), &x, epochs);
                let e = epochs as f64;
                for (w, t) in sim.epoch.totals.iter().enumerate() {
                    rows.push(vec![
                        name.to_string(),
                        platform.worker_names()[w].to_string(),
                        fmt_secs(t.pull * e),
                        fmt_secs(t.compute * e),
                        fmt_secs(t.push * e),
                    ]);
                }
                rows.push(vec![
                    name.to_string(),
                    "TOTAL COST".into(),
                    String::new(),
                    String::new(),
                    fmt_secs(sim.total_time),
                ]);
                totals.push(sim.total_time);
            }
            print_table(
                &format!("Fig 8: {} — {} workers, 20 epochs", profile.name, workers),
                &["strategy", "worker", "pull", "compute", "push"],
                &rows,
            );
            println!(
                "{} improves total cost by {:.1}% over {}  (paper: DP1 −12.2% on Netflix-4W, \
                 −10% on R2; DP2 −12.1% on R1*-4W)",
                strategies[1],
                100.0 * (totals[0] - totals[1]) / totals[0],
                strategies[0],
            );
        }
    }
    Ok(())
}

fn partition(name: &str, platform: &Platform, wl: &Workload, cfg: &SimConfig) -> Vec<f64> {
    let x0 = dp0(&standalone_times(platform, wl));
    match name {
        "DP0" => x0,
        "DP1" => dp1(&x0, &worker_classes(platform), virtual_measure(platform, wl)),
        "DP2" => {
            let x1 = dp1(&x0, &worker_classes(platform), virtual_measure(platform, wl));
            let mut measure = virtual_measure(platform, wl);
            let t = measure(&x1);
            let model = cost_model_for(platform, wl, cfg, &paper(platform, wl, 1));
            dp2(&x1, &t, model.sync_time_per_worker())
        }
        other => panic!("unknown strategy {other}"),
    }
}
