//! Figure 3 — SGD-based MF performance across platforms, and their prices.
//!
//! (a) 20-epoch Netflix training time on single processors, on good
//!     collaborations (planned partition + Q-only COMM), and on the three
//!     deliberately bad configurations of §2.4.
//! (b) the hardware price catalog.

use crate::{fmt_secs, paper, plan, print_table, Flags};
use hcc_comm::TransferStrategy;
use hcc_hetsim::{simulate_training, Platform, ProcessorProfile, SimConfig, Workload};
use hcc_sparse::DatasetProfile;

pub fn run(_: &Flags) -> Result<(), String> {
    let wl = Workload::from_profile(&DatasetProfile::netflix());
    let epochs = 20;
    let cfg = SimConfig::default();

    let mut rows = Vec::new();

    // Single processors: no communication, standalone rate.
    for profile in [
        ProcessorProfile::xeon_6242_24t(),
        ProcessorProfile::rtx_2080(),
        ProcessorProfile::rtx_2080_super(),
        ProcessorProfile::tesla_v100(),
    ] {
        let rate = profile.rates.netflix;
        let time = wl.nnz as f64 * epochs as f64 / rate;
        rows.push(vec![profile.name.clone(), "single".into(), fmt_secs(time)]);
    }

    // Good collaborations: planned partition, Q-only, shared COMM.
    let pairs = [
        Platform::pair(
            ProcessorProfile::xeon_6242_16t(),
            ProcessorProfile::rtx_2080(),
        ),
        Platform::pair(
            ProcessorProfile::xeon_6242_16t(),
            ProcessorProfile::rtx_2080_super(),
        ),
        Platform::pair(
            ProcessorProfile::rtx_2080(),
            ProcessorProfile::rtx_2080_super(),
        ),
    ];
    for platform in &pairs {
        let rounds = paper(platform, &wl, 1);
        let p = plan(platform, &wl, &cfg, &rounds);
        let sim = simulate_training(platform, &wl, &cfg, &rounds, &p.fractions, epochs);
        rows.push(vec![
            platform.name.clone(),
            "good collab".into(),
            fmt_secs(sim.total_time),
        ]);
    }

    // Bad collaborations, all on 6242 + 2080S.
    let bad_platform = Platform::pair(
        ProcessorProfile::xeon_6242_16t(),
        ProcessorProfile::rtx_2080_super(),
    );
    // Bad communication: unoptimized P&Q over the ps-lite transport.
    let bad_comm_cfg = SimConfig {
        strategy: TransferStrategy::FullPq,
        transport_efficiency: 0.15,
        ..Default::default()
    };
    let rounds = paper(&bad_platform, &wl, 1);
    let p = plan(&bad_platform, &wl, &bad_comm_cfg, &rounds);
    let sim = simulate_training(&bad_platform, &wl, &bad_comm_cfg, &rounds, &p.fractions, epochs);
    rows.push(vec![
        format!("{} (bad communication)", bad_platform.name),
        "bad collab".into(),
        fmt_secs(sim.total_time),
    ]);
    // Unbalanced data: uniform split despite a ~4× rate gap.
    let sim = simulate_training(&bad_platform, &wl, &cfg, &rounds, &[0.5, 0.5], epochs);
    rows.push(vec![
        format!("{} (unbalanced data)", bad_platform.name),
        "bad collab".into(),
        fmt_secs(sim.total_time),
    ]);
    // Bad thread configuration: the CPU crippled to 10 threads but loaded
    // as if it had 16.
    let crippled = Platform::pair(
        ProcessorProfile::xeon_6242_10t(),
        ProcessorProfile::rtx_2080_super(),
    );
    let p16 = plan(&bad_platform, &wl, &cfg, &rounds); // partition planned for 16T
    let sim = simulate_training(&crippled, &wl, &cfg, &rounds, &p16.fractions, epochs);
    rows.push(vec![
        format!("{} (bad threads conf)", bad_platform.name),
        "bad collab".into(),
        fmt_secs(sim.total_time),
    ]);

    print_table(
        "Fig 3(a): Netflix, 20 epochs, k = 128 (simulated on calibrated profiles)",
        &["platform", "kind", "time"],
        &rows,
    );
    println!(
        "paper shape: GPUs ≈ 2–3× faster than the CPU; every good collaboration beats \
         its best single member; bad configs erase the benefit."
    );

    // Fig 3(b): prices.
    let mut price_rows = Vec::new();
    for profile in [
        ProcessorProfile::xeon_6242_16t(),
        ProcessorProfile::rtx_2080(),
        ProcessorProfile::rtx_2080_super(),
        ProcessorProfile::tesla_v100(),
    ] {
        price_rows.push(vec![
            profile.name.clone(),
            format!("${:.0}", profile.price_usd),
        ]);
    }
    for platform in &pairs {
        price_rows.push(vec![
            platform.name.clone(),
            format!("${:.0}", platform.total_price()),
        ]);
    }
    print_table(
        "Fig 3(b): platform prices (catalog estimates)",
        &["platform", "price"],
        &price_rows,
    );
    let combo = Platform::pair(
        ProcessorProfile::xeon_6242_16t(),
        ProcessorProfile::rtx_2080_super(),
    )
    .total_price();
    println!(
        "6242+2080S at ${combo:.0} is {:.0}% of a V100's price — the paper's economy argument.",
        100.0 * combo / ProcessorProfile::tesla_v100().price_usd
    );
    Ok(())
}
