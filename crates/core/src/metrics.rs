//! Ranking metrics for trained recommenders.
//!
//! RMSE (what the paper's Fig. 7 reports) measures rating reconstruction;
//! a deployed recommender is judged on ranking. This module evaluates a
//! [`ServeEngine`] against a held-out test set with the standard top-k
//! metrics: precision@k, recall@k and NDCG@k.

use hcc_serve::{ServeEngine, ServeError};
use hcc_sparse::{CooMatrix, CsrMatrix};

/// Aggregated ranking metrics over all evaluable test users.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingMetrics {
    /// Mean precision@k.
    pub precision: f64,
    /// Mean recall@k.
    pub recall: f64,
    /// Mean NDCG@k (binary relevance).
    pub ndcg: f64,
    /// Users with at least one relevant test item (the averaging base).
    pub users_evaluated: usize,
    /// The cut-off used.
    pub k: usize,
}

/// Evaluates top-k recommendations against `test`. An item is *relevant*
/// for a user when its held-out rating is `>= relevance_threshold`. Users
/// with no relevant test items are skipped. A test matrix whose shape is
/// not the served model's is a [`ServeError::DimMismatch`].
///
/// # Panics
/// Panics if `k == 0`.
pub fn evaluate_ranking(
    engine: &ServeEngine,
    test: &CooMatrix,
    k: usize,
    relevance_threshold: f32,
) -> Result<RankingMetrics, ServeError> {
    assert!(k > 0, "cut-off k must be non-zero");
    let model = engine.model();
    if (test.rows() as usize, test.cols() as usize) != (model.users(), model.items()) {
        return Err(ServeError::DimMismatch(format!(
            "test matrix is {}x{}, model serves {} users x {} items",
            test.rows(),
            test.cols(),
            model.users(),
            model.items()
        )));
    }

    let test_csr = CsrMatrix::from(test);
    let mut precision_sum = 0.0;
    let mut recall_sum = 0.0;
    let mut ndcg_sum = 0.0;
    let mut users = 0usize;

    for u in 0..test.rows() {
        let (items, ratings) = test_csr.row(u);
        let mut relevant: Vec<u32> = items
            .iter()
            .zip(ratings)
            .filter(|&(_, &r)| r >= relevance_threshold)
            .map(|(&i, _)| i)
            .collect();
        if relevant.is_empty() {
            continue;
        }
        relevant.sort_unstable();
        users += 1;

        let top = engine.top_k(u, k)?;
        let hits: Vec<bool> = top
            .iter()
            .map(|(i, _)| relevant.binary_search(i).is_ok())
            .collect();
        let hit_count = hits.iter().filter(|&&h| h).count();

        precision_sum += hit_count as f64 / k as f64;
        recall_sum += hit_count as f64 / relevant.len() as f64;

        // Binary-relevance NDCG: DCG = Σ hit_j / log2(j+2); ideal DCG uses
        // min(k, |relevant|) leading hits.
        let dcg: f64 = hits
            .iter()
            .enumerate()
            .filter(|(_, &h)| h)
            .map(|(j, _)| 1.0 / ((j as f64 + 2.0).log2()))
            .sum();
        let ideal: f64 = (0..relevant.len().min(k))
            .map(|j| 1.0 / ((j as f64 + 2.0).log2()))
            .sum();
        ndcg_sum += if ideal > 0.0 { dcg / ideal } else { 0.0 };
    }

    let base = users.max(1) as f64;
    Ok(RankingMetrics {
        precision: precision_sum / base,
        recall: recall_sum / base,
        ndcg: ndcg_sum / base,
        users_evaluated: users,
        k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_serve::ServedModel;
    use hcc_sgd::FactorMatrix;
    use hcc_sparse::Rating;

    fn engine(p: FactorMatrix, q: FactorMatrix, train: &CooMatrix) -> ServeEngine {
        ServeEngine::new(ServedModel::build(p, q, Some(train), 1).unwrap())
    }

    /// Build a 2-user, 4-item recommender with k=1 factors whose scores
    /// rank items 3 > 2 > 1 > 0 for both users.
    fn fixture() -> (ServeEngine, CooMatrix) {
        let p = FactorMatrix::from_vec(2, 1, vec![1.0, 1.0]);
        let q = FactorMatrix::from_vec(4, 1, vec![0.1, 0.2, 0.3, 0.4]);
        // Neither user has seen anything during training.
        let train = CooMatrix::new(2, 4, vec![]).unwrap();
        let rec = engine(p, q, &train);
        // Test: user 0 loves items 3 and 0; user 1 loves item 1 only.
        let test = CooMatrix::new(
            2,
            4,
            vec![
                Rating::new(0, 3, 5.0),
                Rating::new(0, 0, 5.0),
                Rating::new(1, 1, 5.0),
                Rating::new(1, 2, 1.0), // below threshold: irrelevant
            ],
        )
        .unwrap();
        (rec, test)
    }

    #[test]
    fn metrics_hand_computed() {
        let (rec, test) = fixture();
        let m = evaluate_ranking(&rec, &test, 2, 4.0).unwrap();
        assert_eq!(m.users_evaluated, 2);
        // User 0: top-2 = {3, 2}; relevant {3, 0} → P = 1/2, R = 1/2.
        // User 1: top-2 = {3, 2}; relevant {1}   → P = 0,   R = 0.
        assert!((m.precision - 0.25).abs() < 1e-12, "{m:?}");
        assert!((m.recall - 0.25).abs() < 1e-12, "{m:?}");
        // User 0 NDCG: hit at rank 0 → DCG = 1/log2(2) = 1; ideal (2 rel,
        // k=2) = 1 + 1/log2(3) ≈ 1.6309 → 0.6131. User 1: 0.
        assert!((m.ndcg - 0.6131 / 2.0).abs() < 1e-3, "{m:?}");
    }

    #[test]
    fn perfect_recommender_scores_one() {
        let p = FactorMatrix::from_vec(1, 1, vec![1.0]);
        let q = FactorMatrix::from_vec(3, 1, vec![3.0, 2.0, 1.0]);
        let train = CooMatrix::new(1, 3, vec![]).unwrap();
        let rec = engine(p, q, &train);
        let test =
            CooMatrix::new(1, 3, vec![Rating::new(0, 0, 5.0), Rating::new(0, 1, 5.0)]).unwrap();
        let m = evaluate_ranking(&rec, &test, 2, 4.0).unwrap();
        assert!((m.precision - 1.0).abs() < 1e-12);
        assert!((m.recall - 1.0).abs() < 1e-12);
        assert!((m.ndcg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn users_without_relevant_items_are_skipped() {
        let (rec, _) = fixture();
        let test = CooMatrix::new(2, 4, vec![Rating::new(0, 1, 1.0)]).unwrap();
        let m = evaluate_ranking(&rec, &test, 2, 4.0).unwrap();
        assert_eq!(m.users_evaluated, 0);
        assert_eq!(m.precision, 0.0);
    }

    #[test]
    fn a_test_matrix_of_another_shape_is_a_typed_error() {
        let (rec, _) = fixture();
        let test = CooMatrix::new(3, 4, vec![Rating::new(2, 1, 5.0)]).unwrap();
        let err = evaluate_ranking(&rec, &test, 2, 4.0).unwrap_err();
        assert!(matches!(err, ServeError::DimMismatch(_)), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "cut-off")]
    fn zero_k_panics() {
        let (rec, test) = fixture();
        evaluate_ranking(&rec, &test, 0, 4.0).ok();
    }

    #[test]
    fn trained_model_beats_random_on_ranking() {
        use crate::{HccConfig, HccMf, WorkerSpec};
        use hcc_sparse::{train_test_split, GenConfig, SyntheticDataset};
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 200,
            cols: 100,
            nnz: 8_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let (train, test) = train_test_split(&ds.matrix, 0.2, 1).unwrap();
        let threshold = (ds.matrix.mean_rating() + 0.5) as f32;

        let cfg = HccConfig::builder()
            .k(8)
            .epochs(20)
            .learning_rate(hcc_sgd::LearningRate::Constant(0.02))
            .workers(vec![WorkerSpec::cpu(2)])
            .build();
        let report = HccMf::new(cfg).train(&train).unwrap();
        let trained = engine(report.p, report.q, &train);
        let trained_m = evaluate_ranking(&trained, &test, 10, threshold).unwrap();

        let random = engine(
            FactorMatrix::random(200, 8, 99),
            FactorMatrix::random(100, 8, 100),
            &train,
        );
        let random_m = evaluate_ranking(&random, &test, 10, threshold).unwrap();
        assert!(
            trained_m.ndcg > random_m.ndcg * 1.3,
            "trained {:?} vs random {:?}",
            trained_m,
            random_m
        );
    }
}
