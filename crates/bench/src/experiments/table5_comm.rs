//! Table 5 — 20-epoch communication time per strategy and transport.
//!
//! Two parts:
//! 1. a *real* bandwidth probe of this machine's COMM vs COMM-P transports
//!    (which fixes the COMM-P efficiency ratio honestly, instead of assuming
//!    the paper's ~7×), and
//! 2. paper-scale communication times from the simulator using the probed
//!    ratio, with speedups relative to the unoptimized P&Q row — the shape
//!    Table 5 reports.

use crate::{fmt_secs, print_table, Flags};
use hcc_comm::{CommP, CommShared, Precision, TransferStrategy, Transport};
use hcc_hetsim::{simulate_training, standalone_times, Platform, SimConfig, Workload};
use hcc_partition::dp0;
use hcc_sparse::DatasetProfile;
use std::time::Instant;

pub fn run(_: &Flags) -> Result<(), String> {
    // --- Part 1: probe real transports -----------------------------------
    let elems = 8 << 20; // 32 MiB of f32
    let payload: Vec<f32> = (0..elems).map(|j| (j % 1009) as f32 * 0.003).collect();

    let mut probe_rows = Vec::new();
    let mut rates = Vec::new();
    for (name, transport) in [
        (
            "COMM",
            Box::new(CommShared::new(1, elems, elems, Precision::Fp32)) as Box<dyn Transport>,
        ),
        ("COMM-P", Box::new(CommP::new(1, Precision::Fp32))),
    ] {
        let gbps = probe(transport.as_ref(), &payload);
        rates.push(gbps);
        probe_rows.push(vec![name.to_string(), format!("{gbps:.2} GB/s")]);
    }
    let commp_efficiency = (rates[1] / rates[0]).clamp(0.01, 1.0);
    print_table(
        "transport probe (32 MiB FP32 roundtrips)",
        &["transport", "bandwidth"],
        &probe_rows,
    );
    println!(
        "probed COMM-P efficiency: {:.2}× of COMM (paper Table 5 implies ~0.15×)",
        commp_efficiency
    );

    // --- Part 2: paper-scale communication times --------------------------
    // "Communication time" in Table 5 = cumulative pull+push across workers
    // over 20 epochs, on the 4-worker testbed (R1_NEW is the paper's label
    // for the R1 run in this table).
    let epochs = 20;
    for profile in [
        DatasetProfile::netflix(),
        DatasetProfile::yahoo_r1(),
        DatasetProfile::yahoo_r2(),
    ] {
        let wl = Workload::from_profile(&profile);
        let platform = Platform::paper_testbed_4workers();
        let x = dp0(&standalone_times(&platform, &wl));

        let mut rows = Vec::new();
        for (comm_name, efficiency) in [("COMM", 1.0), ("COMM-P", commp_efficiency)] {
            let mut base_time = None;
            for strategy in TransferStrategy::ALL {
                let cfg = SimConfig {
                    strategy,
                    transport_efficiency: efficiency,
                    ..Default::default()
                };
                let sim = simulate_training(&platform, &wl, &cfg, &x, epochs);
                let comm: f64 = sim
                    .epoch
                    .totals
                    .iter()
                    .map(|t| (t.pull + t.push) * epochs as f64)
                    .sum();
                let speedup = match base_time {
                    None => {
                        base_time = Some(comm);
                        1.0
                    }
                    Some(base) => base / comm,
                };
                rows.push(vec![
                    comm_name.to_string(),
                    strategy.label().to_string(),
                    fmt_secs(comm),
                    format!("{speedup:.1}x"),
                ]);
            }
        }
        print_table(
            &format!("Table 5: {} — 20-epoch communication time", profile.name),
            &["transport", "strategy", "time", "speedup"],
            &rows,
        );
    }
    println!(
        "\npaper speedups (COMM): Netflix 18.3x/58x, R1 2.9x/9.6x, R2 7.5x/22.6x for Q/half-Q \
         over P&Q; COMM-P is uniformly ~6–7x slower than COMM."
    );
    Ok(())
}

/// Measures publish→pull→push→collect bandwidth for one worker.
fn probe(transport: &dyn Transport, payload: &[f32]) -> f64 {
    let mut local = vec![0f32; payload.len()];
    let rounds = 8;
    // Warm-up.
    transport.publish(payload);
    transport.pull(0, &mut local);
    transport.push(0, &local);
    transport.collect(0, &mut local);
    let start = Instant::now();
    for _ in 0..rounds {
        transport.publish(payload);
        transport.pull(0, &mut local);
        transport.push(0, &local);
        transport.collect(0, &mut local);
    }
    let secs = start.elapsed().as_secs_f64();
    let bytes = payload.len() as f64 * 4.0 * 4.0 * rounds as f64;
    bytes / secs / 1e9
}
