//! A MovieLens-shaped recommender, end to end: generate a dataset with the
//! MovieLens-20m shape (scaled to laptop size), train HCC-MF, evaluate on a
//! held-out split, and serve recommendations.
//!
//! MovieLens is the paper's *limitation* dataset (§4.6): near-square, so
//! the Q-only optimization saves little — watch the wire-bytes line.
//!
//! ```sh
//! cargo run --release --example movielens_recommend
//! ```

use hcc_mf::{HccConfig, HccMf, ServeEngine, ServedModel, TransferStrategy, WorkerSpec};
use hcc_sparse::{train_test_split, DatasetProfile, SyntheticDataset};

fn main() {
    // MovieLens-20m shape, scaled 200× down: ~9.8k users × 9.3k items, 100k
    // ratings on the 0.5–5 scale.
    let profile = DatasetProfile::movielens_20m();
    let gen = profile.scaled_gen_config(200.0, 7);
    println!(
        "generating {}-shaped data: {} × {} with {} ratings",
        profile.name, gen.rows, gen.cols, gen.nnz
    );
    let dataset = SyntheticDataset::generate(gen);
    let (train, test) = train_test_split(&dataset.matrix, 0.1, 7).unwrap();

    // `FullPq` (P and Q both ways) is the paper's unoptimized baseline: the
    // engine does not run it, so its bytes come from the byte model, a
    // pull and a push of each of the two workers an epoch.
    let (m, n, k, epochs) = (u64::from(train.rows()), u64::from(train.cols()), 32, 15);
    let full = TransferStrategy::FullPq;
    let per_epoch = 2 * (full.pull_bytes(m, n, k) + full.push_bytes(m / 2, n, k));
    println!(
        "{:>6}: wire {:>7.1} MiB by the byte model (not trained)",
        format!("{full:?}"),
        (epochs * per_epoch) as f64 / (1024.0 * 1024.0),
    );
    for strategy in [TransferStrategy::QOnly, TransferStrategy::HalfQ] {
        let config = HccConfig::builder()
            .k(32)
            .epochs(epochs as usize)
            .learning_rate(hcc_mf::LearningRate::Constant(0.02))
            .lambda(profile.lambda.min(0.05))
            .workers(vec![WorkerSpec::cpu(2), WorkerSpec::gpu_sim(4)])
            .strategy(strategy)
            .track_rmse(true)
            .build();
        let report = HccMf::new(config).train(&train).expect("training failed");
        let test_rmse = hcc_sgd::rmse(test.entries(), &report.p, &report.q);
        println!(
            "{:>6}: {:>6.2?} total, wire {:>7.1} MiB, train RMSE {:.4}, test RMSE {:.4}",
            format!("{strategy:?}"),
            report.total_time(),
            report.wire_bytes as f64 / (1024.0 * 1024.0),
            report.final_rmse().unwrap(),
            test_rmse,
        );
        // On a near-square matrix Q-only saves roughly half the volume, not
        // the 96% it saves on Netflix — the §4.6 limitation in one line.
    }

    // Serve recommendations from a final Q-only model.
    let config = HccConfig::builder()
        .k(32)
        .epochs(20)
        .learning_rate(hcc_mf::LearningRate::Constant(0.02))
        .lambda(0.02)
        .workers(vec![WorkerSpec::cpu(2), WorkerSpec::gpu_sim(4)])
        .track_rmse(true)
        .build();
    let report = HccMf::new(config).train(&train).expect("training failed");
    let model = ServedModel::build(report.p, report.q, Some(&train), 1).expect("shapes agree");
    let rec = ServeEngine::new(model);
    for user in [0u32, 1, 2] {
        let top = rec.top_k(user, 3).expect("user within model");
        let picks: Vec<String> = top.iter().map(|(i, s)| format!("#{i} ({s:.2})")).collect();
        println!("user {user}: {}", picks.join(", "));
    }
}
