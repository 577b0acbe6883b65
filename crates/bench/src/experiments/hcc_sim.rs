//! Interactive access to the virtual platform: plan a partition and
//! simulate an epoch for any dataset/worker/strategy combination, e.g.
//! `hcc-bench hcc_sim --dataset r1 --workers 6242,2080s --streams 4`.
//! Worker lists are built from `6242`, `6242-16t`, `6242l` (server-hosted),
//! `2080`, `2080s` and `v100`.

use crate::{fmt_mups, fmt_pct, fmt_secs, paper, plan, Flags};
use hcc_comm::TransferStrategy;
use hcc_hetsim::{
    export, ideal_computing_power, simulate_training, BusKind, Platform,
    ProcessorProfile, SimConfig, Workload,
};
use hcc_sparse::DatasetProfile;

pub fn run(flags: &Flags) -> Result<(), String> {
    let strategy = match flags.get("--strategy").unwrap_or("q") {
        "pq" => TransferStrategy::FullPq,
        "q" => TransferStrategy::QOnly,
        "halfq" => TransferStrategy::HalfQ,
        other => return Err(format!("unknown strategy {other}")),
    };
    let streams: usize = flags.parsed("--streams", 1)?;
    if streams == 0 {
        return Err("--streams 0: must be at least 1".into());
    }
    let epochs: usize = flags.parsed("--epochs", 20)?;
    if epochs == 0 {
        return Err("--epochs 0: must be at least 1".into());
    }

    let profile = match flags.get("--dataset").unwrap_or("netflix") {
        "netflix" => DatasetProfile::netflix(),
        "r1" => DatasetProfile::yahoo_r1(),
        "r1star" => DatasetProfile::r1_star(),
        "r2" => DatasetProfile::yahoo_r2(),
        "movielens" => DatasetProfile::movielens_20m(),
        other => return Err(format!("unknown dataset {other}")),
    };
    let platform = parse_platform(flags.get("--workers").unwrap_or("testbed4"))?;
    let wl = Workload::from_profile(&profile);
    let cfg = SimConfig {
        strategy,
        ..Default::default()
    };
    let rounds = paper(&platform, &wl, streams);

    println!(
        "platform: {} ({} workers, ${:.0})",
        platform.name,
        platform.worker_count(),
        platform.total_price()
    );
    println!(
        "workload: {} (m={}, n={}, nnz={}); strategy {}, {} stream(s)",
        profile.name,
        wl.m,
        wl.n,
        wl.nnz,
        strategy.label(),
        streams
    );

    let p = plan(&platform, &wl, &cfg, &rounds);
    println!(
        "\nplanned partition ({:?}, sync ratio {:.1}):",
        p.strategy, p.sync_ratio
    );
    for (w, name) in platform.worker_names().iter().enumerate() {
        println!("  {name:<12} {:5.1}%", p.fractions[w] * 100.0);
    }

    let sim = simulate_training(&platform, &wl, &cfg, &rounds, &p.fractions, epochs);
    let trace = &sim.epoch;
    println!("\nper-epoch phase totals:");
    println!(
        "  {:<12} {:>9} {:>9} {:>9}",
        "worker", "pull", "compute", "push"
    );
    for (w, name) in platform.worker_names().iter().enumerate() {
        let t = &trace.totals[w];
        println!(
            "  {:<12} {:>9} {:>9} {:>9}",
            name,
            fmt_secs(t.pull),
            fmt_secs(t.compute),
            fmt_secs(t.push)
        );
    }
    println!("  server sync total: {}", fmt_secs(trace.sync_total));
    println!("  epoch makespan:    {}", fmt_secs(trace.epoch_time));

    let ideal = ideal_computing_power(&platform, &wl);
    println!(
        "\n{epochs} epochs: {} — {} of {} ideal ({})",
        fmt_secs(sim.total_time),
        fmt_mups(sim.computing_power),
        fmt_mups(ideal),
        fmt_pct(sim.computing_power / ideal)
    );

    if let Some(prefix) = flags.get("--csv") {
        let (spans, totals) =
            export::write_csvs(prefix, &platform, trace).map_err(|e| e.to_string())?;
        println!(
            "trace CSVs written: {} / {}",
            spans.display(),
            totals.display()
        );
    }
    Ok(())
}

fn parse_platform(spec: &str) -> Result<Platform, String> {
    match spec {
        "testbed4" => return Ok(Platform::paper_testbed_4workers()),
        "testbed3" => return Ok(Platform::paper_testbed_3workers()),
        "overall" => return Ok(Platform::paper_testbed_overall()),
        _ => {}
    }
    let mut platform = Platform::new(spec);
    for part in spec.split(',') {
        platform = match part {
            "6242" => platform.with_worker(ProcessorProfile::xeon_6242_24t(), BusKind::Upi),
            "6242-16t" => platform.with_worker(ProcessorProfile::xeon_6242_16t(), BusKind::Upi),
            "6242l" => platform.with_server_worker(ProcessorProfile::xeon_6242_10t()),
            "2080" => platform.with_worker(ProcessorProfile::rtx_2080(), BusKind::PciE3x16),
            "2080s" => platform.with_worker(ProcessorProfile::rtx_2080_super(), BusKind::PciE3x16),
            "v100" => platform.with_worker(ProcessorProfile::tesla_v100(), BusKind::PciE3x16),
            other => return Err(format!("unknown worker {other}")),
        };
    }
    Ok(platform)
}
