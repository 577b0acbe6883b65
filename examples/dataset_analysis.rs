//! Analyze a dataset before training: shape statistics, the §4.6
//! collaboration verdict, and the row-count tail.
//!
//! ```sh
//! cargo run --release --example dataset_analysis
//! ```

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
}
