//! Figure 9 — computing power stacked as workers are added one by one, per
//! dataset, against the ideal stack.

use crate::{fmt_mups, fmt_pct, plan, print_table, Flags};
use hcc_hetsim::{
    ideal_computing_power, simulate_training, BusKind, Platform, ProcessorProfile, SimConfig,
    Workload,
};
use hcc_sparse::DatasetProfile;

pub fn run(_: &Flags) -> Result<(), String> {
    let epochs = 20;

    for profile in [
        DatasetProfile::netflix(),
        DatasetProfile::yahoo_r2(),
        DatasetProfile::yahoo_r1(),
        DatasetProfile::r1_star(),
    ] {
        // On the communication-heavy R1/R1* the paper runs Strategy 3
        // (asynchronous computing-transmission, 4 streams on the GPUs).
        let cfg = if profile.name.contains("R1") {
            SimConfig {
                streams: 4,
                ..Default::default()
            }
        } else {
            SimConfig::default()
        };
        let wl = Workload::from_profile(&profile);
        // Fig. 9 adds workers in the order 2080S, 6242, 2080, 6242L; the R1
        // panel has no 6242L (the async strategy occupies the server).
        let additions: Vec<(ProcessorProfile, BusKind, bool)> = vec![
            (ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16, false),
            (ProcessorProfile::xeon_6242_24t(), BusKind::Upi, false),
            (ProcessorProfile::rtx_2080(), BusKind::PciE3x16, false),
            (
                ProcessorProfile::xeon_6242_10t(),
                BusKind::ServerLocal,
                true,
            ),
        ];
        let steps = if profile.name.contains("R1") { 3 } else { 4 };

        let mut rows = Vec::new();
        let mut prev_power = 0.0;
        for count in 1..=steps {
            let mut platform = Platform::new(&format!("{count} workers"));
            for (prof, bus, timeshare) in additions.iter().take(count) {
                platform = if *timeshare {
                    platform.with_server_worker(prof.clone())
                } else {
                    platform.with_worker(prof.clone(), *bus)
                };
            }
            let p = plan(&platform, &wl, &cfg);
            let sim = simulate_training(&platform, &wl, &cfg, &p.fractions, epochs);
            let ideal = ideal_computing_power(&platform, &wl);
            let added = additions[count - 1].0.clone();
            let standalone = added.rates.rate(&wl.name, wl.m, wl.n, wl.nnz);
            let marginal = sim.computing_power - prev_power;
            rows.push(vec![
                format!("+{}", added.name),
                fmt_mups(sim.computing_power),
                fmt_mups(ideal),
                fmt_pct(sim.computing_power / ideal),
                fmt_pct((marginal / standalone).max(0.0)),
            ]);
            prev_power = sim.computing_power;
        }
        print_table(
            &format!("Fig 9: {} — power as workers are added", profile.name),
            &[
                "worker added",
                "HCC power",
                "ideal",
                "utilization",
                "marginal/standalone",
            ],
            &rows,
        );
    }
    println!(
        "\npaper shape: power always grows with workers; ordinary workers contribute >80% of \
         their standalone power on Netflix/R2, ~45% on R1/R1*; the server-sharing worker >70%."
    );
    Ok(())
}
