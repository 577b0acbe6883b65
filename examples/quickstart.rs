//! Quickstart: train SGD-based MF collaboratively and predict a rating.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hcc_mf::{HccConfig, HccMf, ServeEngine, ServedModel, WorkerSpec};
use hcc_sparse::{train_test_split, GenConfig, SyntheticDataset};

fn main() {
    // 1. A synthetic rating matrix from a planted low-rank model: 2,000
    //    users × 800 items, 60k observed ratings on a 1–5 scale.
    let dataset = SyntheticDataset::generate(GenConfig {
        rows: 2_000,
        cols: 800,
        nnz: 60_000,
        planted_rank: 8,
        noise: 0.1,
        ..GenConfig::default()
    });
    let (train, test) = train_test_split(&dataset.matrix, 0.1, 42).unwrap();
    println!(
        "dataset: {} users × {} items, {} train / {} test ratings",
        train.rows(),
        train.cols(),
        train.nnz(),
        test.nnz()
    );

    // 2. An HCC-MF platform: two CPU workers plus one wide "GPU-class"
    //    worker, auto partition (DP1/DP2 by the λ rule), Q-only transfers.
    let config = HccConfig::builder()
        .k(32)
        .epochs(25)
        .learning_rate(hcc_mf::LearningRate::Constant(0.02))
        .lambda(0.02)
        .workers(vec![
            WorkerSpec::cpu(2),
            WorkerSpec::cpu(2),
            WorkerSpec::gpu_sim(4),
        ])
        .track_rmse(true)
        .build();

    // 3. Train.
    let report = HccMf::new(config).train(&train).expect("training failed");
    println!(
        "trained {} epochs in {:.2?} — {:.1}M updates/s, strategy {:?}",
        report.epoch_times.len(),
        report.total_time(),
        report.computing_power() / 1e6,
        report.strategy_used,
    );
    println!(
        "train RMSE: {:.4} -> {:.4}",
        report.rmse_history.first().unwrap(),
        report.rmse_history.last().unwrap()
    );
    let rmse = hcc_sgd::rmse(test.entries(), &report.p, &report.q);
    println!("held-out RMSE: {rmse:.4}");

    // 4. Recommend: top-5 unseen items for user 0.
    let model = ServedModel::build(report.p, report.q, Some(&train), 1).expect("shapes agree");
    let engine = ServeEngine::new(model);
    println!("top-5 recommendations for user 0:");
    for (item, score) in engine.top_k(0, 5).expect("user 0 exists") {
        println!("  item {item:>4}  predicted rating {score:.2}");
    }
}
