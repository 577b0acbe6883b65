//! Ablation — Strategy 3's stream count.
//!
//! Fig. 6 claims asynchronous computing–transmission reduces exposed
//! transfer cost toward `1/streams` without touching compute. This sweep
//! verifies the scaling law on the simulator for the communication-heavy
//! workloads, and shows the diminishing returns past ~4 streams.

use crate::{fmt_secs, plan, print_table, Flags};
use hcc_hetsim::{simulate_epoch, Platform, SimConfig, Workload};
use hcc_sparse::DatasetProfile;

pub fn run(_: &Flags) -> Result<(), String> {
    for profile in [DatasetProfile::yahoo_r1(), DatasetProfile::movielens_20m()] {
        let platform = Platform::paper_testbed_3workers();
        let wl = Workload::from_profile(&profile);
        let base = simulate_epoch(
            &platform,
            &wl,
            &SimConfig::default(),
            &plan(&platform, &wl, &SimConfig::default()).fractions,
        );
        let base_exposed =
            base.epoch_time - base.totals.iter().map(|t| t.compute).fold(0.0f64, f64::max);

        let mut rows = Vec::new();
        for streams in [1usize, 2, 4, 8, 16] {
            let cfg = SimConfig {
                streams,
                ..Default::default()
            };
            let p = plan(&platform, &wl, &cfg);
            let trace = simulate_epoch(&platform, &wl, &cfg, &p.fractions);
            let max_compute = trace
                .totals
                .iter()
                .map(|t| t.compute)
                .fold(0.0f64, f64::max);
            let exposed = (trace.epoch_time - max_compute).max(0.0);
            rows.push(vec![
                streams.to_string(),
                fmt_secs(trace.epoch_time),
                fmt_secs(max_compute),
                fmt_secs(exposed),
                format!("{:.2}", exposed / base_exposed.max(1e-12)),
            ]);
        }
        print_table(
            &format!(
                "stream sweep — {} (Fig. 6: exposed transfer → 1/streams; GPUs cap at 4 streams)",
                profile.name
            ),
            &[
                "streams",
                "epoch",
                "max compute",
                "exposed comm+sync",
                "vs 1 stream",
            ],
            &rows,
        );
    }
    println!(
        "\nreading: exposed non-compute time falls steeply to 4 streams (the GPUs' copy-engine \
         limit in the profiles) and flattens after — matching Fig. 6's 1/streams argument with \
         a hardware ceiling."
    );
    Ok(())
}
