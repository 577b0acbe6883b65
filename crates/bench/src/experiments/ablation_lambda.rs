//! Ablation — the λ threshold of Eq. 5.
//!
//! The paper fixes λ = 10 ("its value should change with the scale of
//! execution time… we take its value as 10"). This sweep shows, per
//! dataset, which λ values flip the DP1/DP2 choice and what each choice
//! costs, plus the partition's robustness to measurement noise (DP1 plans
//! from wall-clock measurements that jitter).

use crate::{fmt_secs, paper, print_table, Flags};
use hcc_hetsim::{
    cost_model_for, standalone_times, virtual_measure, worker_classes, Platform, SimConfig,
    Workload,
};
use hcc_partition::{equalize, perturbation_cost, sweep_lambda};
use hcc_sparse::DatasetProfile;

pub fn run(_: &Flags) -> Result<(), String> {
    let cfg = SimConfig::default();
    let lambdas = [0.5, 2.0, 5.0, 10.0, 20.0, 50.0, 200.0];

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
        let results = sweep_lambda(
            &model,
            &rounds,
            &standalone_times(&platform, &wl),
            &worker_classes(&platform),
            virtual_measure(&platform, &wl),
            &lambdas,
        );
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|(lambda, choice, epoch)| {
                vec![format!("{lambda}"), format!("{choice:?}"), fmt_secs(*epoch)]
            })
            .collect();
        print_table(
            &format!("λ sweep — {} (paper uses λ = 10)", profile.name),
            &["lambda", "choice", "predicted epoch"],
            &rows,
        );
    }

    // Partition noise robustness: perturb the Theorem-1 solution by moving
    // eps of the data between workers and report the worst-case slowdown.
    let platform = Platform::paper_testbed_4workers();
    let wl = Workload::from_profile(&DatasetProfile::netflix());
    let model = cost_model_for(&platform, &wl, &cfg, &paper(&platform, &wl, 1));
    let (a, b) = model.linear_coefficients();
    let x = equalize(&a, &b);
    let cost = |eps| perturbation_cost(&a, &b, &x, eps) * 100.0;
    let rows: Vec<Vec<String>> = [0.005, 0.01, 0.02, 0.05, 0.1]
        .iter()
        .map(|&eps| {
            vec![
                format!("{:.1}%", eps * 100.0),
                format!("{:.2}%", cost(eps)),
            ]
        })
        .collect();
    print_table(
        "partition noise robustness (Netflix, Theorem-1 optimum)",
        &["data moved", "worst-case epoch increase"],
        &rows,
    );
    println!(
        "reading: moving 1% of the data costs {:.1}% of epoch time and 10% costs {:.0}% — data \
         moved onto a worker with a small share raises its time by roughly the moved data over \
         that share.",
        cost(0.01),
        cost(0.1)
    );
    Ok(())
}
