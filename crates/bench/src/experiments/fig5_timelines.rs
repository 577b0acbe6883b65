//! Figure 5 — epoch timing sequences under the three regimes:
//! unoptimized, DP1 (balanced, sync negligible), and DP2 (staggered,
//! sync hidden), rendered as ASCII timelines from simulator traces.

use crate::{plan, Flags};
use hcc_comm::TransferStrategy;
use hcc_hetsim::{simulate_epoch, EpochTrace, Phase, Platform, SimConfig, Workload};
use hcc_partition::{dp0, dp2};
use hcc_sparse::DatasetProfile;

const WIDTH: usize = 72;

pub fn run(_: &Flags) -> Result<(), String> {
    let platform = Platform::paper_testbed_4workers();

    // Left sub-figure: original timing, no optimization — uniform split,
    // full P&Q transfers.
    let wl = Workload::from_profile(&DatasetProfile::netflix());
    let cfg = SimConfig {
        strategy: TransferStrategy::FullPq,
        ..Default::default()
    };
    let trace = simulate_epoch(&platform, &wl, &cfg, &[0.25; 4]);
    render(
        "unoptimized: uniform partition, P&Q transfers (Netflix)",
        &platform,
        &trace,
    );

    // Middle: optimized without considering sync — DP1 partition, Q-only.
    let cfg = SimConfig::default();
    let p = plan(&platform, &wl, &cfg);
    let trace = simulate_epoch(&platform, &wl, &cfg, &p.fractions);
    render("DP1: balanced compute, Q-only (Netflix)", &platform, &trace);

    // Right: sync-aware — DP2 staggering on the R1* workload where the
    // sync tail is material.
    let wl = Workload::from_profile(&DatasetProfile::r1_star());
    let x0 = dp0(&hcc_hetsim::standalone_times(&platform, &wl));
    let mut measure = hcc_hetsim::virtual_measure(&platform, &wl);
    let t = measure(&x0);
    let model = hcc_hetsim::cost_model_for(&platform, &wl, &cfg);
    let x2 = dp2(&x0, &t, model.sync_time_per_worker());
    let trace = simulate_epoch(&platform, &wl, &cfg, &x2);
    render("DP2: staggered compute hides sync (R1*)", &platform, &trace);
    Ok(())
}

fn render(title: &str, platform: &Platform, trace: &EpochTrace) {
    println!("\n== {title} ==");
    println!("epoch = {:.1} ms", trace.epoch_time * 1e3);
    let scale = WIDTH as f64 / trace.epoch_time;
    for (w, name) in platform.worker_names().iter().enumerate() {
        let mut line = [b' '; WIDTH + 1];
        for span in trace.worker_spans(w) {
            let ch = match span.phase {
                Phase::Pull => b'<',
                Phase::Compute => b'#',
                Phase::Push => b'>',
                Phase::Sync => b'S',
            };
            let lo = (span.start * scale).floor() as usize;
            let hi = ((span.end * scale).ceil() as usize).min(WIDTH);
            for cell in line.iter_mut().take(hi.max(lo + 1).min(WIDTH + 1)).skip(lo) {
                *cell = ch;
            }
        }
        println!(
            "  {:<10} |{}|",
            name,
            String::from_utf8_lossy(&line[..WIDTH])
        );
    }
    println!("  {:<10}  < pull   # compute   > push   S server sync", "");
}
