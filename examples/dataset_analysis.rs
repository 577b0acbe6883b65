//! Analyze a dataset before training: shape statistics, the §4.6
//! collaboration verdict, and a biased-vs-plain MF comparison.
//!
//! ```sh
//! cargo run --release --example dataset_analysis
//! ```

use hcc_sgd::{biased_hogwild_epoch, hogwild_epoch, BiasedModel, HogwildConfig};
use hcc_sparse::stats::row_count_quantiles;
use hcc_sparse::{DatasetProfile, MatrixStats, SyntheticDataset};

fn main() {
    println!(
        "{:<18} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8}",
        "dataset", "aspect", "nnz/dim", "nnz/min", "row-gini", "col-gini", "verdict"
    );
    for profile in DatasetProfile::all() {
        // The verdict indicators are computed at *full* scale (down-scaling
        // shrinks nnz/min(m,n) by sqrt(factor)); the skew statistics come
        // from generated data, whose Zipf shape is scale-free.
        let factor = (profile.nnz as f64 / 120_000.0).max(1.0);
        let ds = SyntheticDataset::generate(profile.scaled_gen_config(factor, 11));
        let s = MatrixStats::compute(&ds.matrix);
        let nnz_per_dim = profile.nnz as f64 / (profile.m + profile.n) as f64;
        let nnz_per_min = profile.nnz as f64 / profile.m.min(profile.n) as f64;
        println!(
            "{:<18} {:>9.2} {:>9.0} {:>8.0} {:>9.2} {:>9.2} {:>8}",
            profile.name,
            profile.m as f64 / profile.n as f64,
            nnz_per_dim,
            nnz_per_min,
            s.row_gini,
            s.col_gini,
            if nnz_per_min >= 1e3 { "good" } else { "poor" },
        );
    }
    println!("\nverdict = post-Q-only communication indicator nnz/min(m,n) >= 1e3 (§3.4/§4.6):");
    println!(
        "Netflix/R2-shaped data suits multi-worker HCC-MF; R1/MovieLens shapes are comm-bound."
    );

    // Row-count tail: what the grid partitioner has to cope with.
    let ds = SyntheticDataset::generate(DatasetProfile::netflix().scaled_gen_config(600.0, 11));
    let (p50, p90, p99, max) = row_count_quantiles(&ds.matrix);
    println!("\nNetflix-shaped row-count quantiles: p50={p50} p90={p90} p99={p99} max={max}");

    // Biased vs plain MF on the same data, budget and Hogwild config.
    let entries = ds.matrix.entries();
    let (m, n) = (ds.matrix.rows() as usize, ds.matrix.cols() as usize);
    let cfg = HogwildConfig {
        learning_rate: 0.02,
        ..HogwildConfig::with_threads(2, 0.01)
    };
    let model = BiasedModel::init(m, n, 16, ds.matrix.mean_rating() as f32, 5);
    for _ in 0..20 {
        biased_hogwild_epoch(entries, &model, &cfg, 0.01);
    }
    let biased_rmse = model.rmse(entries);

    let p = hcc_sgd::SharedFactors::from_matrix(&hcc_sgd::FactorMatrix::random(m, 16, 5));
    let q = hcc_sgd::SharedFactors::from_matrix(&hcc_sgd::FactorMatrix::random(n, 16, 6));
    for _ in 0..20 {
        hogwild_epoch(entries, &p, &q, &cfg);
    }
    let plain_rmse = hcc_sgd::rmse(entries, &p.snapshot(), &q.snapshot());
    println!(
        "\n20-epoch k=16 training RMSE: biased MF {biased_rmse:.4} vs plain MF {plain_rmse:.4} \
         (biases absorb user/item offsets)"
    );
}
