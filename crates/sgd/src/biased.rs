//! Biased matrix factorization: `r̂_ui = μ + b_u + c_i + p_u·q_i`.
//!
//! The paper trains the plain inner-product model (Fig. 1); bias terms are
//! the standard first extension every production MF adds (they absorb the
//! "user rates generously / item is popular" signal so the factors only
//! model interaction). This module provides the biased update rule, a
//! Hogwild epoch over shared state (the one driver, as for every rule), and
//! evaluation.

use crate::factors::SharedFactors;
use crate::hogwild::{drive, HogwildConfig, Shard};
use crate::kernel::dot;
use crate::FactorMatrix;
use hcc_sparse::Rating;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A shared bias vector (relaxed-atomic f32 cells), the 1-D sibling of
/// [`SharedFactors`].
#[derive(Debug, Clone)]
pub struct SharedBias {
    cells: Arc<[AtomicU32]>,
}

impl SharedBias {
    /// Zero biases of length `len`.
    pub fn zeros(len: usize) -> SharedBias {
        SharedBias {
            cells: (0..len).map(|_| AtomicU32::new(0f32.to_bits())).collect(),
        }
    }

    /// Number of biases.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Loads bias `j`.
    #[inline]
    pub fn load(&self, j: usize) -> f32 {
        // ordering: Relaxed — Hogwild bias cells, same contract as
        // `SharedFactors::load`: per-cell atomicity, no cross-cell order.
        f32::from_bits(self.cells[j].load(Ordering::Relaxed))
    }

    /// Stores bias `j`.
    #[inline]
    pub fn store(&self, j: usize, v: f32) {
        // ordering: Relaxed — see `load`; staleness is tolerated by the
        // Hogwild convergence argument.
        self.cells[j].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Snapshots to a plain vector.
    pub fn snapshot(&self) -> Vec<f32> {
        // ordering: Relaxed — snapshots run after the training scope joins,
        // which is the publication edge.
        self.cells
            .iter()
            .map(|c| f32::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }
}

/// The complete biased model state shared across Hogwild threads.
#[derive(Debug)]
pub struct BiasedModel {
    /// Global rating mean μ.
    pub mu: f32,
    /// User factors (m × k).
    pub p: SharedFactors,
    /// Item factors (n × k).
    pub q: SharedFactors,
    /// User biases b (length m).
    pub user_bias: SharedBias,
    /// Item biases c (length n).
    pub item_bias: SharedBias,
}

impl BiasedModel {
    /// Initializes a model: factors random, biases zero, μ from the data.
    pub fn init(m: usize, n: usize, k: usize, mu: f32, seed: u64) -> BiasedModel {
        BiasedModel {
            mu,
            p: SharedFactors::from_matrix(&FactorMatrix::random(m, k, seed)),
            q: SharedFactors::from_matrix(&FactorMatrix::random(n, k, seed ^ 0x9e37)),
            user_bias: SharedBias::zeros(m),
            item_bias: SharedBias::zeros(n),
        }
    }

    /// Prediction for `(u, i)`.
    pub fn predict(&self, u: usize, i: usize) -> f32 {
        let k = self.p.k();
        let mut pu = vec![0f32; k];
        let mut qi = vec![0f32; k];
        self.p.load_row_into(u, &mut pu);
        self.q.load_row_into(i, &mut qi);
        self.mu + self.user_bias.load(u) + self.item_bias.load(i) + dot(&pu, &qi)
    }

    /// RMSE over entries.
    pub fn rmse(&self, entries: &[Rating]) -> f64 {
        if entries.is_empty() {
            return 0.0;
        }
        let sum: f64 = entries
            .iter()
            .map(|e| {
                let err = e.r as f64 - self.predict(e.u as usize, e.i as usize) as f64;
                err * err
            })
            .sum();
        (sum / entries.len() as f64).sqrt()
    }
}

/// One biased SGD update: `config.lambda_p` / `config.lambda_q` regularize
/// the factor rows, `lambda_bias` the two biases. Returns the pre-update
/// error.
#[inline]
pub(crate) fn sgd_step_biased(
    model: &BiasedModel,
    e: &Rating,
    config: &HogwildConfig,
    lambda_bias: f32,
    scratch: &mut [f32],
) -> f32 {
    let k = model.p.k();
    debug_assert_eq!(scratch.len(), 2 * k);
    let (u, i) = (e.u as usize, e.i as usize);
    let (pu, qi) = scratch.split_at_mut(k);
    model.p.load_row_into(u, pu);
    model.q.load_row_into(i, qi);
    let bu = model.user_bias.load(u);
    let ci = model.item_bias.load(i);
    let err = e.r - (model.mu + bu + ci + dot(pu, qi));

    let lr = config.learning_rate;
    model.user_bias.store(u, bu + lr * (err - lambda_bias * bu));
    model.item_bias.store(i, ci + lr * (err - lambda_bias * ci));
    let p_cells = model.p.row_cells(u);
    let q_cells = model.q.row_cells(i);
    // ordering: Relaxed — the Hogwild update itself: racing writers may
    // interleave per cell, which the convergence analysis tolerates; no
    // other data is published through these stores.
    for j in 0..k {
        let p_old = pu[j];
        let p_new = p_old + lr * (err * qi[j] - config.lambda_p * p_old);
        let q_new = qi[j] + lr * (err * p_old - config.lambda_q * qi[j]);
        p_cells[j].store(p_new.to_bits(), Ordering::Relaxed); // ordering: above
        q_cells[j].store(q_new.to_bits(), Ordering::Relaxed); // ordering: above
    }
    err
}

/// One Hogwild epoch of biased MF over `entries`, with the biases
/// regularized by `lambda_bias`. Returns summed squared pre-update errors
/// (a running training loss).
pub fn biased_hogwild_epoch(
    entries: &[Rating],
    model: &BiasedModel,
    config: &HogwildConfig,
    lambda_bias: f32,
) -> f64 {
    let shard = Shard::new(entries, config.schedule, model.p.view(), model.q.view());
    drive(shard, config.threads, 2 * model.p.k(), |e, scratch| {
        sgd_step_biased(model, e, config, lambda_bias, scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_sparse::{GenConfig, SyntheticDataset};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const LAMBDA_BIAS: f32 = 0.01;

    fn config(threads: usize) -> HogwildConfig {
        HogwildConfig {
            learning_rate: 0.02,
            ..HogwildConfig::with_threads(threads, 0.01)
        }
    }

    #[test]
    fn shared_bias_roundtrip() {
        let b = SharedBias::zeros(4);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        b.store(2, 1.5);
        assert_eq!(b.load(2), 1.5);
        assert_eq!(b.snapshot(), vec![0.0, 0.0, 1.5, 0.0]);
        let alias = b.clone();
        alias.store(0, -1.0);
        assert_eq!(b.load(0), -1.0);
    }

    #[test]
    fn biased_model_converges() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 150,
            cols: 100,
            nnz: 4_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let entries = ds.matrix.entries();
        let model = BiasedModel::init(150, 100, 8, ds.matrix.mean_rating() as f32, 1);
        let before = model.rmse(entries);
        let cfg = config(2);
        for _ in 0..20 {
            biased_hogwild_epoch(entries, &model, &cfg, LAMBDA_BIAS);
        }
        let after = model.rmse(entries);
        assert!(after < before * 0.5, "{before} -> {after}");
    }

    #[test]
    fn one_thread_epochs_land_on_pinned_bits() {
        // FNV-1a over the `to_bits()` of P, Q and both bias vectors after
        // five one-thread epochs on the scalar backend. Recorded before the
        // biased sweep moved into the shared Hogwild driver.
        const PINNED: u64 = 0xb91a_c9bc_2dfd_ca19;
        let _guard = crate::simd::test_lock();
        crate::simd::set_backend(crate::simd::Backend::Scalar).unwrap();
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 150,
            cols: 100,
            nnz: 4_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let entries = ds.matrix.entries();
        let model = BiasedModel::init(150, 100, 8, ds.matrix.mean_rating() as f32, 1);
        for _ in 0..5 {
            biased_hogwild_epoch(entries, &model, &config(1), LAMBDA_BIAS);
        }
        crate::simd::reset_backend();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let (p, q) = (model.p.snapshot(), model.q.snapshot());
        let (b, c) = (model.user_bias.snapshot(), model.item_bias.snapshot());
        for v in [p.as_slice(), q.as_slice(), &b, &c].into_iter().flatten() {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(hash, PINNED, "got {hash:#018x}");
    }

    #[test]
    fn biases_absorb_additive_structure() {
        // Data = μ + b_u + c_i + noise, NO interaction: the biased model at
        // k=1 should fit it much better than the unbiased inner product can
        // from tiny factors in the same number of epochs.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m = 80u32;
        let n = 60u32;
        let user_b: Vec<f32> = (0..m).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        let item_b: Vec<f32> = (0..n).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        let mut entries = Vec::new();
        for _ in 0..4_000 {
            let u = rng.random_range(0..m);
            let i = rng.random_range(0..n);
            entries.push(Rating::new(
                u,
                i,
                3.0 + user_b[u as usize] + item_b[i as usize],
            ));
        }
        let cfg = config(1);
        let mu = entries.iter().map(|e| e.r as f64).sum::<f64>() / entries.len() as f64;
        let model = BiasedModel::init(m as usize, n as usize, 1, mu as f32, 7);
        for _ in 0..30 {
            biased_hogwild_epoch(&entries, &model, &cfg, LAMBDA_BIAS);
        }
        let biased_rmse = model.rmse(&entries);
        assert!(biased_rmse < 0.15, "biased rmse {biased_rmse}");

        // Unbiased model on the same data and budget.
        let p = SharedFactors::from_matrix(&FactorMatrix::random(m as usize, 1, 7));
        let q = SharedFactors::from_matrix(&FactorMatrix::random(n as usize, 1, 8));
        for _ in 0..30 {
            crate::hogwild::hogwild_epoch(&entries, &p, &q, &cfg);
        }
        let unbiased_rmse = crate::loss::rmse(&entries, &p.snapshot(), &q.snapshot());
        assert!(
            biased_rmse < unbiased_rmse * 0.7,
            "biased {biased_rmse} vs unbiased {unbiased_rmse}"
        );
    }

    #[test]
    fn predict_composes_terms() {
        let model = BiasedModel::init(2, 2, 2, 3.0, 1);
        model.user_bias.store(0, 0.5);
        model.item_bias.store(1, -0.25);
        model.p.store_row(0, &[1.0, 2.0]);
        model.q.store_row(1, &[0.5, 0.25]);
        let expect = 3.0 + 0.5 - 0.25 + (1.0 * 0.5 + 2.0 * 0.25);
        assert!((model.predict(0, 1) - expect).abs() < 1e-6);
    }

    #[test]
    fn empty_entries_are_noop() {
        let model = BiasedModel::init(2, 2, 2, 0.0, 1);
        assert_eq!(
            biased_hogwild_epoch(&[], &model, &config(2), LAMBDA_BIAS),
            0.0
        );
        assert_eq!(model.rmse(&[]), 0.0);
    }
}
