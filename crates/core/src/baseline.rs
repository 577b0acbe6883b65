//! Baseline predictor + residual training: biased MF for the framework.
//!
//! The production way to add bias terms without touching the distributed
//! epoch loop (Koren's classic recipe): fit the *baseline predictor*
//! `b_ui = μ + b_u + c_i` with damped means, train plain HCC-MF on the
//! residuals `r_ui − b_ui`, and add the baseline back at prediction time.
//! Residuals are near-zero-mean and de-skewed, which also helps the SGD
//! (the factors no longer have to encode "this user rates high").

use crate::error::HccError;
use crate::report::HccReport;
use crate::train::HccMf;
use hcc_serve::{ServeEngine, ServeError, ServedModel};
use hcc_sparse::{CooMatrix, Rating};

/// The fitted `μ + b_u + c_i` baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselinePredictor {
    /// Global mean rating.
    pub mu: f32,
    /// Per-user offsets (length m).
    pub user_bias: Vec<f32>,
    /// Per-item offsets (length n).
    pub item_bias: Vec<f32>,
    /// The damping strength used at fit time.
    pub damping: f32,
}

impl BaselinePredictor {
    /// Fits damped-mean biases: `c_i = Σ_{u∈R(i)} (r_ui − μ) / (|R(i)| + β)`
    /// then `b_u = Σ_{i∈R(u)} (r_ui − μ − c_i) / (|R(u)| + β)`. The damping
    /// β shrinks sparsely observed users/items toward zero offset.
    ///
    /// # Panics
    /// Panics if `damping` is negative or non-finite.
    pub fn fit(matrix: &CooMatrix, damping: f32) -> BaselinePredictor {
        assert!(
            damping >= 0.0 && damping.is_finite(),
            "damping must be non-negative"
        );
        let m = matrix.rows() as usize;
        let n = matrix.cols() as usize;
        let mu = matrix.mean_rating() as f32;

        let mut item_sum = vec![0f64; n];
        let mut item_count = vec![0u32; n];
        for e in matrix.entries() {
            item_sum[e.i as usize] += (e.r - mu) as f64;
            item_count[e.i as usize] += 1;
        }
        let item_bias: Vec<f32> = item_sum
            .iter()
            .zip(&item_count)
            .map(|(&s, &c)| (s / (c as f64 + damping as f64)) as f32)
            .collect();

        let mut user_sum = vec![0f64; m];
        let mut user_count = vec![0u32; m];
        for e in matrix.entries() {
            user_sum[e.u as usize] += (e.r - mu - item_bias[e.i as usize]) as f64;
            user_count[e.u as usize] += 1;
        }
        let user_bias: Vec<f32> = user_sum
            .iter()
            .zip(&user_count)
            .map(|(&s, &c)| (s / (c as f64 + damping as f64)) as f32)
            .collect();

        BaselinePredictor {
            mu,
            user_bias,
            item_bias,
            damping,
        }
    }

    /// The baseline prediction `μ + b_u + c_i`.
    #[inline]
    pub fn predict(&self, u: u32, i: u32) -> f32 {
        self.mu + self.user_bias[u as usize] + self.item_bias[i as usize]
    }

    /// The residual matrix `r_ui − b_ui` (same dimensions and sparsity).
    pub fn residual_matrix(&self, matrix: &CooMatrix) -> CooMatrix {
        let mut residuals = matrix.clone();
        for e in residuals.entries_mut() {
            e.r -= self.predict(e.u, e.i);
        }
        residuals
    }

    /// RMSE of the baseline alone over `entries`.
    pub fn rmse(&self, entries: &[Rating]) -> f64 {
        if entries.is_empty() {
            return 0.0;
        }
        let sum: f64 = entries
            .iter()
            .map(|e| {
                let d = e.r as f64 - self.predict(e.u, e.i) as f64;
                d * d
            })
            .sum();
        (sum / entries.len() as f64).sqrt()
    }
}

/// A trained biased model: baseline + factors over residuals.
#[derive(Debug)]
pub struct BiasedRecommender {
    baseline: BaselinePredictor,
    inner: ServeEngine,
}

impl BiasedRecommender {
    /// Assembles from a fitted baseline, a residual-training report, and the
    /// original training matrix (for seen-item exclusion); factors that do
    /// not fit the matrix are a [`ServeError::DimMismatch`].
    pub fn new(
        baseline: BaselinePredictor,
        report: &HccReport,
        train: &CooMatrix,
    ) -> Result<BiasedRecommender, ServeError> {
        let model = ServedModel::build(report.p.clone(), report.q.clone(), Some(train), 1)?;
        Ok(BiasedRecommender {
            baseline,
            inner: ServeEngine::new(model),
        })
    }

    /// Full prediction `μ + b_u + c_i + p_u·q_i`; an out-of-range id is a
    /// typed error.
    pub fn predict(&self, u: u32, i: u32) -> Result<f32, ServeError> {
        Ok(self.baseline.predict(u, i) + self.inner.predict(u, i)?)
    }

    /// RMSE of the full model over `entries`.
    pub fn rmse(&self, entries: &[Rating]) -> Result<f64, ServeError> {
        if entries.is_empty() {
            return Ok(0.0);
        }
        let mut sum = 0.0f64;
        for e in entries {
            let d = e.r as f64 - self.predict(e.u, e.i)? as f64;
            sum += d * d;
        }
        Ok((sum / entries.len() as f64).sqrt())
    }

    /// Top-k unseen items by full prediction; an out-of-range user is a
    /// typed error.
    pub fn top_k(&self, user: u32, count: usize) -> Result<Vec<(u32, f32)>, ServeError> {
        // Rank by residual score + item bias (the user terms are constant
        // per user and don't affect ordering).
        let mut scored: Vec<(u32, f32)> = self
            .inner
            .top_k(user, self.baseline.item_bias.len())? // all unseen, residual-ranked
            .into_iter()
            .map(|(i, s)| (i, s + self.baseline.item_bias[i as usize]))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(count);
        scored
            .into_iter()
            .map(|(i, _)| Ok((i, self.predict(user, i)?)))
            .collect()
    }

    /// The fitted baseline.
    pub fn baseline(&self) -> &BaselinePredictor {
        &self.baseline
    }
}

impl HccMf {
    /// Biased training: fits a damped baseline predictor, trains the
    /// framework on the residuals, and returns both plus a ready-to-serve
    /// [`BiasedRecommender`]. RMSE history in the report is measured on the
    /// *residuals*.
    pub fn train_biased(
        &self,
        matrix: &CooMatrix,
        damping: f32,
    ) -> Result<(BaselinePredictor, HccReport, BiasedRecommender), HccError> {
        let baseline = BaselinePredictor::fit(matrix, damping);
        let residuals = baseline.residual_matrix(matrix);
        let report = self.train(&residuals)?;
        let rec = BiasedRecommender::new(baseline.clone(), &report, matrix)?;
        Ok((baseline, report, rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HccConfig, WorkerSpec};
    use hcc_sgd::LearningRate;
    use hcc_sparse::{GenConfig, SyntheticDataset};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn baseline_fits_pure_bias_data_exactly_without_damping() {
        // r = μ + b_u + c_i with every cell observed → zero residual RMSE.
        let m = 6u32;
        let n = 5u32;
        let mu = 3.0f32;
        let ub: Vec<f32> = (0..m).map(|u| (u as f32 - 2.5) * 0.2).collect();
        let cb: Vec<f32> = (0..n).map(|i| (i as f32 - 2.0) * 0.3).collect();
        let entries: Vec<Rating> = (0..m)
            .flat_map(|u| {
                let ub = &ub;
                let cb = &cb;
                (0..n).map(move |i| Rating::new(u, i, mu + ub[u as usize] + cb[i as usize]))
            })
            .collect();
        let matrix = CooMatrix::new(m, n, entries).unwrap();
        let baseline = BaselinePredictor::fit(&matrix, 0.0);
        assert!(
            baseline.rmse(matrix.entries()) < 1e-5,
            "{}",
            baseline.rmse(matrix.entries())
        );
    }

    #[test]
    fn damping_shrinks_rare_user_bias() {
        // One user with a single extreme rating.
        let entries = vec![
            Rating::new(0, 0, 5.0),
            Rating::new(1, 0, 3.0),
            Rating::new(1, 1, 3.0),
            Rating::new(1, 2, 3.0),
        ];
        let matrix = CooMatrix::new(2, 3, entries).unwrap();
        let loose = BaselinePredictor::fit(&matrix, 0.0);
        let damped = BaselinePredictor::fit(&matrix, 5.0);
        assert!(damped.user_bias[0].abs() < loose.user_bias[0].abs());
    }

    #[test]
    fn residual_matrix_has_near_zero_mean() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 100,
            cols: 60,
            nnz: 2_000,
            ..GenConfig::default()
        });
        let baseline = BaselinePredictor::fit(&ds.matrix, 5.0);
        let residuals = baseline.residual_matrix(&ds.matrix);
        assert!(
            residuals.mean_rating().abs() < 0.1,
            "{}",
            residuals.mean_rating()
        );
        assert_eq!(residuals.nnz(), ds.matrix.nnz());
    }

    #[test]
    fn biased_training_beats_plain_on_bias_heavy_data() {
        // Planted model = strong biases + weak interaction + noise.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let m = 150u32;
        let n = 90u32;
        let ub: Vec<f32> = (0..m).map(|_| rng.random_range(-1.5f32..1.5)).collect();
        let cb: Vec<f32> = (0..n).map(|_| rng.random_range(-1.5f32..1.5)).collect();
        let mut entries = Vec::new();
        for _ in 0..5_000 {
            let u = rng.random_range(0..m);
            let i = rng.random_range(0..n);
            let interaction = 0.2 * ((u + i) % 7) as f32 / 7.0;
            entries.push(Rating::new(
                u,
                i,
                3.0 + ub[u as usize] + cb[i as usize] + interaction,
            ));
        }
        let matrix = CooMatrix::new(m, n, entries).unwrap();

        let config = HccConfig::builder()
            .k(4)
            .epochs(15)
            .learning_rate(LearningRate::Constant(0.02))
            .lambda(0.01)
            .workers(vec![WorkerSpec::cpu(2)])
            .track_rmse(true)
            .build();
        let trainer = HccMf::new(config);
        let (_, _, biased) = trainer.train_biased(&matrix, 5.0).unwrap();
        let plain = trainer.train(&matrix).unwrap();
        let plain_rmse = hcc_sgd::rmse(matrix.entries(), &plain.p, &plain.q);
        let biased_rmse = biased.rmse(matrix.entries()).unwrap();
        assert!(
            biased_rmse < plain_rmse * 0.8,
            "biased {biased_rmse} vs plain {plain_rmse}"
        );
    }

    #[test]
    fn biased_recommender_serves_topk() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 80,
            cols: 50,
            nnz: 1_500,
            ..GenConfig::default()
        });
        let config = HccConfig::builder()
            .k(4)
            .epochs(5)
            .workers(vec![WorkerSpec::cpu(1)])
            .build();
        let (_, _, rec) = HccMf::new(config).train_biased(&ds.matrix, 5.0).unwrap();
        // User 0 is the Zipf-heaviest and may have rated every item; use a
        // mid-tail user that certainly has unseen items.
        let top = rec.top_k(40, 5).unwrap();
        assert_eq!(top.len(), 5);
        // Descending by full prediction.
        for pair in top.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        assert!(rec.baseline().mu > 0.0);
    }

    #[test]
    fn empty_entries_rmse_zero() {
        let matrix = CooMatrix::new(2, 2, vec![Rating::new(0, 0, 1.0)]).unwrap();
        let baseline = BaselinePredictor::fit(&matrix, 1.0);
        assert_eq!(baseline.rmse(&[]), 0.0);
    }
}
