//! Plan and simulate the paper's multi-CPU/GPU testbed.
//!
//! This example runs entirely on the virtual platform (`hcc-hetsim`): it
//! plans data partitions with DP0/DP1/DP2, shows the λ-rule choosing a
//! strategy per dataset, and prints the simulated epoch timeline — the
//! workflow of §3.2–3.3 without needing the paper's hardware.
//!
//! ```sh
//! cargo run --release --example heterogeneous_platform
//! ```

use hcc_hetsim::{
    cost_model_for, ideal_computing_power, simulate_training, standalone_times, virtual_measure,
    Phase, Platform, SimConfig, Workload,
};
use hcc_partition::{dp0, CostModel, RoundPlan};
use hcc_sparse::DatasetProfile;

fn main() {
    let platform = Platform::paper_testbed_4workers();
    println!(
        "platform: {} (${:.0})",
        platform.name,
        platform.total_price()
    );
    for (i, w) in platform.workers.iter().enumerate() {
        println!(
            "  worker {i}: {:<10} bus {:?}{}",
            w.profile.name,
            w.bus,
            if w.timeshare_server {
                " (time-shares with server)"
            } else {
                ""
            }
        );
    }

    let config = SimConfig::default();
    for profile in [
        DatasetProfile::netflix(),
        DatasetProfile::yahoo_r1(),
        DatasetProfile::yahoo_r2(),
    ] {
        let workload = Workload::from_profile(&profile);
        println!(
            "\n=== {} (m={}, n={}, nnz={}) ===",
            profile.name, profile.m, profile.n, profile.nnz
        );

        // DP0 seed from standalone execution times.
        let standalone = standalone_times(&platform, &workload);
        let x0 = dp0(&standalone);
        println!("DP0 shares: {}", fmt_fractions(&x0));

        // Full planning: DP1 refinement, then the λ rule.
        let rounds = RoundPlan::paper(platform.worker_count(), workload.n as usize, 1);
        let model = cost_model_for(&platform, &workload, &config, &rounds);
        let plan = hcc_partition::plan(
            &model,
            &rounds,
            CostModel::LAMBDA,
            &standalone,
            &hcc_hetsim::measure::worker_classes(&platform),
            virtual_measure(&platform, &workload),
        );
        println!(
            "planner: {:?} (max_T/T_sync = {:.1}, λ = 10) -> {}",
            plan.strategy,
            plan.sync_ratio,
            fmt_fractions(&plan.fractions)
        );

        // Simulate 20 epochs with the planned partition.
        let sim = simulate_training(&platform, &workload, &config, &rounds, &plan.fractions, 20);
        let ideal = ideal_computing_power(&platform, &workload);
        println!(
            "20 epochs: {:.2}s — {:.0}M updates/s of {:.0}M ideal ({:.0}% utilization)",
            sim.total_time,
            sim.computing_power / 1e6,
            ideal / 1e6,
            100.0 * sim.computing_power / ideal
        );

        // A text timeline of the first epoch (Fig. 5-style).
        println!("epoch timeline:");
        for (w, name) in platform.worker_names().iter().enumerate() {
            let spans = sim.epoch.worker_spans(w);
            let row: Vec<String> = spans
                .iter()
                .map(|s| {
                    let tag = match s.phase {
                        Phase::Pull => "pull",
                        Phase::Compute => "comp",
                        Phase::Push => "push",
                        Phase::Sync => "sync",
                    };
                    format!("{tag} {:.0}–{:.0}ms", s.start * 1e3, s.end * 1e3)
                })
                .collect();
            println!("  {name:<10} {}", row.join(" | "));
        }
    }
}

fn fmt_fractions(x: &[f64]) -> String {
    let parts: Vec<String> = x.iter().map(|v| format!("{:.1}%", v * 100.0)).collect();
    parts.join(" / ")
}
