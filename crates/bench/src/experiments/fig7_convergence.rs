//! Figure 7 — convergence: RMSE vs epoch (a–c) and RMSE vs training time
//! with speedups (d–f), HCC-MF vs FPSGD vs CuMF_SGD.
//!
//! Parts (a–c) run *real training* on laptop-scale datasets with each
//! dataset's paper shape; the claim under test is §4.2's "equivalent
//! convergence rate". Parts (d–f) report measured wall-clock on this
//! machine plus the paper-scale speedup the calibrated simulator predicts
//! (this box has no GPU — see DESIGN.md).

use crate::{fmt_secs, paper, plan, print_table, Flags};
use hcc_hetsim::{simulate_training, Platform, ProcessorProfile, SimConfig, Workload};
use hcc_mf::{HccConfig, HccMf, LearningRate, WorkerSpec};
use hcc_sgd::baselines::{Comparator, TrainConfig};
use hcc_sparse::{DatasetProfile, SyntheticDataset};

pub fn run(_: &Flags) -> Result<(), String> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("running real training on {cores} core(s); k = 16, 40 epochs, scaled datasets");
    if cores == 1 {
        println!("NOTE: single-core machine — wall-clock speedups between solvers are not");
        println!("meaningful here; convergence curves are. Paper-scale speedups below come");
        println!("from the calibrated simulator.");
    }

    let epochs = 40;
    let threads = cores.clamp(1, 4);

    for (profile, scale) in [
        (DatasetProfile::netflix(), 600.0),
        (DatasetProfile::yahoo_r1(), 800.0),
        (DatasetProfile::yahoo_r2(), 2500.0),
    ] {
        let gen = profile.scaled_gen_config(scale, 42);
        let ds = SyntheticDataset::generate(gen.clone());
        println!(
            "\n=== {} (scaled {:.0}x: {}×{}, {} nnz) ===",
            profile.name,
            scale,
            ds.matrix.rows(),
            ds.matrix.cols(),
            ds.matrix.nnz()
        );

        // The paper's own hyper-parameters (Table 3): γ = 0.005 everywhere,
        // λ = 1 on R1 (which is what keeps the 0–100-scale ratings stable).
        let lr = LearningRate::Constant(profile.learning_rate);
        let lambda = profile.lambda;

        // FPSGD and CuMF_SGD-sim baselines.
        let base_cfg = TrainConfig {
            k: 16,
            epochs,
            learning_rate: lr,
            lambda_p: lambda,
            lambda_q: lambda,
            threads,
            seed: 1,
            track_rmse: true,
        };
        let t0 = std::time::Instant::now();
        let fpsgd = Comparator::Fpsgd.train(&ds.matrix, &base_cfg);
        let fpsgd_time = t0.elapsed();
        let t0 = std::time::Instant::now();
        let cumf = Comparator::CumfSgd.train(&ds.matrix, &base_cfg);
        let cumf_time = t0.elapsed();

        // HCC-MF with a heterogeneous worker set.
        let hcc_cfg = HccConfig::builder()
            .k(16)
            .epochs(epochs)
            .learning_rate(lr)
            .lambda(lambda)
            .workers(vec![
                WorkerSpec::cpu(threads.div_ceil(2)),
                WorkerSpec::gpu_sim(threads),
            ])
            .track_rmse(true)
            .build();
        let t0 = std::time::Instant::now();
        let hcc = HccMf::new(hcc_cfg)
            .train(&ds.matrix)
            .map_err(|e| e.to_string())?;
        let hcc_time = t0.elapsed();

        // (a–c): RMSE vs epoch, sampled.
        let mut rows = Vec::new();
        for e in [0usize, 4, 9, 19, 29, 39] {
            rows.push(vec![
                format!("{}", e + 1),
                format!("{:.4}", hcc.rmse_history[e]),
                format!("{:.4}", fpsgd.rmse_history[e]),
                format!("{:.4}", cumf.rmse_history[e]),
            ]);
        }
        print_table(
            &format!("Fig 7(a–c): {} — RMSE by epoch", profile.name),
            &["epoch", "HCC", "FPSGD", "CuMF_SGD"],
            &rows,
        );
        let final_gap = (hcc.rmse_history[epochs - 1] - fpsgd.rmse_history[epochs - 1]).abs()
            / fpsgd.rmse_history[epochs - 1];
        println!(
            "final-RMSE gap HCC vs FPSGD: {:.1}% (paper: convergence rates equivalent)",
            100.0 * final_gap
        );

        // (d–f): measured wall time + simulated paper-scale speedups.
        let wl = Workload::from_profile(&profile);
        let (platform, streams) = if profile.name.contains("R1") {
            (Platform::paper_testbed_3workers(), 4)
        } else {
            (Platform::paper_testbed_overall(), 1)
        };
        let (sim_cfg, rounds) = (SimConfig::default(), paper(&platform, &wl, streams));
        let p = plan(&platform, &wl, &sim_cfg, &rounds);
        let hcc_sim = simulate_training(&platform, &wl, &sim_cfg, &rounds, &p.fractions, 20);
        let cumf_sim_time = wl.nnz as f64 * 20.0
            / ProcessorProfile::rtx_2080_super()
                .rates
                .rate(&wl.name, wl.m, wl.n, wl.nnz);
        let fpsgd_sim_time = wl.nnz as f64 * 20.0
            / ProcessorProfile::xeon_6242_24t()
                .rates
                .rate(&wl.name, wl.m, wl.n, wl.nnz);
        print_table(
            &format!("Fig 7(d–f): {} — training time", profile.name),
            &[
                "solver",
                "measured (this box)",
                "paper-scale sim (20 ep)",
                "sim speedup vs HCC",
            ],
            &[
                vec![
                    "HCC".into(),
                    fmt_secs(hcc_time.as_secs_f64()),
                    fmt_secs(hcc_sim.total_time),
                    "1.0x".into(),
                ],
                vec![
                    "CuMF_SGD (2080S)".into(),
                    fmt_secs(cumf_time.as_secs_f64()),
                    fmt_secs(cumf_sim_time),
                    format!("{:.2}x", cumf_sim_time / hcc_sim.total_time),
                ],
                vec![
                    "FPSGD (6242)".into(),
                    fmt_secs(fpsgd_time.as_secs_f64()),
                    fmt_secs(fpsgd_sim_time),
                    format!("{:.2}x", fpsgd_sim_time / hcc_sim.total_time),
                ],
            ],
        );
        println!(
            "paper speedups (HCC over CuMF / FPSGD): Netflix 2.3x/5.75x, R1 1.43x/6.96x, \
             R2 2.9x/3.13x"
        );
    }
    Ok(())
}
