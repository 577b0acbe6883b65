//! Model validation — §4.3's claim that "the actual execution process of
//! HCC-MF is consistent with the proposed time cost model".
//!
//! The closed-form model (Eqs. 1–4) predicts the epoch makespan from the
//! partition vector; the discrete-event simulator executes the full
//! pipeline with stream overlap and a serialized sync queue. This binary
//! compares the two across datasets and partitions and reports the
//! relative error — small errors mean the paper's analytical planning on
//! top of the model is sound.
//!
//! With `--measured`, a real heterogeneous 4-worker training run executes
//! with telemetry enabled and the *measured* per-worker `t_comp` is scored
//! against the model's prediction from the partition fractions — the
//! workflow described in DESIGN.md §9.3. `results/model_validation.txt`
//! archives the deterministic simulator section and
//! `results/model_validation_measured.txt` the wall-clock one.

use crate::{fmt_secs, paper, plan, print_table, Flags};
use hcc_hetsim::{cost_model_for, simulate_epoch, standalone_times, Platform, SimConfig, Workload};
use hcc_partition::dp0;
use hcc_sparse::DatasetProfile;

/// Trains for real (no simulation) with telemetry on, and prints the
/// measured-vs-model report for each partition strategy.
fn measured_section() -> Result<(), String> {
    use hcc_mf::{HccConfig, HccMf, PartitionMode, WorkerSpec};
    use hcc_sparse::{GenConfig, SyntheticDataset};

    println!("\n== measured-vs-model validation (real training, telemetry on) ==");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host parallelism: {cores} core(s) for 5 threads (4 workers + server){}",
        if cores < 5 {
            " — workers timeshare cores, so wall-clock t_comp includes descheduled \
             time and the per-worker-constant-bandwidth assumption degrades"
        } else {
            ""
        }
    );
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 2_000,
        cols: 1_000,
        nnz: 80_000,
        seed: 17,
        ..GenConfig::default()
    });
    let scratch = std::env::temp_dir().join("hcc_model_validation.jsonl");
    for (name, mode) in [
        ("DP0", PartitionMode::Dp0),
        ("DP1", PartitionMode::Dp1),
        ("DP2", PartitionMode::Dp2),
    ] {
        let config = HccConfig::builder()
            .k(16)
            .epochs(6)
            .workers(vec![
                WorkerSpec::cpu(1),
                WorkerSpec::cpu(1).throttled(0.5),
                WorkerSpec::cpu(2),
                WorkerSpec::cpu(1),
            ])
            .partition(mode)
            .seed(17)
            .telemetry(&scratch)
            .build();
        let report = HccMf::new(config)
            .train(&ds.matrix)
            .map_err(|e| e.to_string())?;
        println!("\n[{name}]");
        match hcc_mf::observe::model_validation(&report) {
            Some(v) => print!("{}", hcc_mf::observe::model_validation_text(&v)),
            None => println!("too few comparable epochs to score"),
        }
    }
    std::fs::remove_file(&scratch).ok();
    Ok(())
}

pub fn run(flags: &Flags) -> Result<(), String> {
    let cfg = SimConfig::default();
    let mut rows = Vec::new();
    let mut worst: f64 = 0.0;

    for profile in [
        DatasetProfile::netflix(),
        DatasetProfile::yahoo_r1(),
        DatasetProfile::yahoo_r2(),
        DatasetProfile::movielens_20m(),
    ] {
        let platform = Platform::paper_testbed_4workers();
        let wl = Workload::from_profile(&profile);
        let rounds = paper(&platform, &wl, 1);
        let model = cost_model_for(&platform, &wl, &cfg, &rounds);

        let uniform = vec![0.25; 4];
        let x0 = dp0(&standalone_times(&platform, &wl));
        let planned = plan(&platform, &wl, &cfg, &rounds).fractions;

        for (name, x) in [("uniform", &uniform), ("DP0", &x0), ("planned", &planned)] {
            let trace = simulate_epoch(&platform, &wl, &cfg, &rounds, x);
            // Eq. 4 with every sync trailing the slowest worker — an upper
            // bound; and with one trailing sync — a lower bound. The
            // discrete-event result must land between them, near the
            // single-sync form when workers are staggered.
            let t_upper = model.epoch_time(&rounds, x, platform.worker_count());
            let t_lower = model.epoch_time(&rounds, x, 1);
            let sim = trace.epoch_time;
            let mid = 0.5 * (t_upper + t_lower);
            let err = (sim - mid).abs() / mid;
            worst = worst.max(err);
            // The model evaluates B_i at full-data bandwidth; the executed
            // pipeline enjoys the Table-2 bandwidth lift on small GPU
            // shards, so the simulation may undercut the lower bound by
            // that ~1-3% — exactly the neglect DP1 compensates. Allow it.
            let inside = sim >= t_lower * 0.96 && sim <= t_upper * 1.02;
            rows.push(vec![
                profile.name.to_string(),
                name.to_string(),
                fmt_secs(t_lower),
                fmt_secs(sim),
                fmt_secs(t_upper),
                format!("{}", if inside { "yes" } else { "NO" }),
                format!("{:.1}%", err * 100.0),
            ]);
        }
    }

    print_table(
        "time-cost model vs discrete-event simulation (one epoch, 4-worker testbed)",
        &[
            "dataset",
            "partition",
            "model (1 sync)",
            "simulated",
            "model (p syncs)",
            "in bounds",
            "err vs midpoint",
        ],
        &rows,
    );
    println!(
        "\nworst midpoint error {:.1}% — the closed-form model (Eq. 4) brackets the executed \
         pipeline to within the GPU bandwidth-shift it deliberately neglects (Table 2, the \
         effect DP1 corrects), validating planning on the model (§4.3).",
        worst * 100.0
    );

    if flags.get("--measured").is_some() {
        measured_section()?;
    }
    Ok(())
}
