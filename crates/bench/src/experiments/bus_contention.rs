//! What-if — shared PCI-E links.
//!
//! §2.2 asserts that "as long as these connection channels are sufficient,
//! processors can communicate in parallel without losing bandwidth", and
//! every evaluation result leans on that independence. This experiment
//! quantifies what happens when it *doesn't* hold: both GPUs behind one
//! x16 switch (a common workstation board layout).

use crate::{fmt_pct, fmt_secs, plan, print_table, Flags};
use hcc_hetsim::{
    ideal_computing_power, simulate_training, BusKind, EpochTrace, Phase, Platform,
    ProcessorProfile, SimConfig, Workload,
};
use hcc_sparse::DatasetProfile;

/// Seconds `worker`'s transfers spent on, or queued for, its link in one
/// epoch. A pull is requested when the previous chunk's pull ends (the
/// first at 0), a push when its chunk's compute ends; `EpochTrace::totals`
/// holds only the time on the link, which a shared link does not change.
fn link_time(trace: &EpochTrace, worker: usize) -> f64 {
    let spans = trace.worker_spans(worker);
    let ends = |phase| {
        spans
            .iter()
            .filter(move |s| s.phase == phase)
            .map(|s| s.end)
    };
    let pulling = ends(Phase::Pull).fold(0.0, f64::max);
    let pushing: f64 = ends(Phase::Push)
        .zip(ends(Phase::Compute))
        .map(|(pushed, computed)| pushed - computed)
        .sum();
    pulling + pushing
}

pub fn run(_: &Flags) -> Result<(), String> {
    for profile in [DatasetProfile::netflix(), DatasetProfile::yahoo_r1()] {
        let wl = Workload::from_profile(&profile);
        // R1 runs the async strategy, as in the paper.
        let cfg = if profile.name.contains("R1") {
            SimConfig {
                streams: 4,
                ..Default::default()
            }
        } else {
            SimConfig::default()
        };

        let dedicated = Platform::new("dedicated x16 per GPU")
            .with_worker(ProcessorProfile::xeon_6242_24t(), BusKind::Upi)
            .with_worker(ProcessorProfile::rtx_2080(), BusKind::PciE3x16)
            .with_worker(ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16);
        let shared = Platform::new("GPUs behind one x16 switch")
            .with_worker(ProcessorProfile::xeon_6242_24t(), BusKind::Upi)
            .with_worker_on_shared_bus(ProcessorProfile::rtx_2080(), BusKind::PciE3x16, 0)
            .with_worker_on_shared_bus(ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16, 0);

        let mut rows = Vec::new();
        for platform in [&dedicated, &shared] {
            let p = plan(platform, &wl, &cfg);
            let sim = simulate_training(platform, &wl, &cfg, &p.fractions, 20);
            let ideal = ideal_computing_power(platform, &wl);
            // Workers 1 and 2 are the GPUs.
            let comm = (link_time(&sim.epoch, 1) + link_time(&sim.epoch, 2)) * 20.0;
            rows.push(vec![
                platform.name.clone(),
                fmt_secs(sim.total_time),
                fmt_secs(comm),
                fmt_pct(sim.computing_power / ideal),
            ]);
        }
        print_table(
            &format!("bus contention — {} (20 epochs)", profile.name),
            &["topology", "total time", "GPU link time", "utilization"],
            &rows,
        );
    }
    println!(
        "\nreading: GPU link time is what the two GPUs' transfers spent on or queued for their \
         link. On Netflix the Q-only payload is tiny, so sharing the link barely registers; on \
         R1 the transfers of one GPU wait behind the other's even through the 4-stream pipeline \
         — the Fig.-2 channel-independence assumption matters exactly where communication is \
         already the bottleneck."
    );
    Ok(())
}
