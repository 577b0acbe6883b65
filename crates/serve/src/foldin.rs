//! Online fold-in of unseen users.
//!
//! A user who signed up after training has no `P` row, but retraining the
//! whole model for one user is absurd. Fold-in runs the *training* update
//! rule ([`hcc_sgd::kernel::sgd_step`]) on a fresh user row against the
//! served model's **frozen** `Q`: each step copies the item row into
//! scratch, lets the fused kernel update both rows, and discards the
//! scratch — so the learned `P` row sees exactly the gradients training
//! would have produced, while the shared snapshot never mutates and
//! concurrent queries need no synchronization against fold-ins.

use crate::error::ServeError;
use crate::model::ServedModel;
use hcc_sgd::kernel::sgd_step;
use hcc_sgd::FactorMatrix;

/// Hyperparameters for folding one user in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldInConfig {
    /// Full passes over the user's ratings.
    pub epochs: u32,
    /// Learning rate γ.
    pub lr: f32,
    /// Regularization λ on the folded row (`Q` is frozen, so only λ1
    /// matters).
    pub lambda: f32,
    /// Seed for the row's random init (same init family as training).
    pub seed: u64,
}

impl Default for FoldInConfig {
    fn default() -> FoldInConfig {
        FoldInConfig {
            epochs: 30,
            lr: 0.05,
            lambda: 0.05,
            seed: 0x0f01d,
        }
    }
}

/// Trains a user row on `ratings` (`(item, rating)` pairs) against the
/// model's frozen `Q` and returns it. Every item must exist in the model;
/// `ratings` must be non-empty.
pub fn fold_in(
    model: &ServedModel,
    ratings: &[(u32, f32)],
    config: &FoldInConfig,
) -> Result<Vec<f32>, ServeError> {
    if ratings.is_empty() {
        return Err(ServeError::EmptyFoldIn);
    }
    // Resolve every item row before the first update so a bad rating list
    // cannot leave a half-trained row. Rows come back dequantized — on a
    // reduced-precision model the fold-in trains against the same values
    // the scans score with.
    let rows: Vec<Vec<f32>> = ratings
        .iter()
        .map(|&(item, _)| model.item_row(item))
        .collect::<Result<_, ServeError>>()?;
    let k = model.k();
    let mut p_row = FactorMatrix::random(1, k, config.seed).row(0).to_vec();
    let mut scratch = vec![0f32; k];
    for _ in 0..config.epochs {
        for (&(_, r), row) in ratings.iter().zip(&rows) {
            // Copy-out keeps Q frozen: the kernel updates the scratch copy
            // and we throw it away.
            scratch.copy_from_slice(row);
            sgd_step(&mut p_row, &mut scratch, r, config.lr, config.lambda, 0.0);
        }
    }
    Ok(p_row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_sgd::dot;

    fn constant_q_model() -> ServedModel {
        // 1 existing user, 4 items, k=1, all q rows = 2.0.
        ServedModel::build(
            FactorMatrix::from_vec(1, 1, vec![0.1]),
            FactorMatrix::from_vec(4, 1, vec![2.0; 4]),
            None,
            2,
        )
        .unwrap()
    }

    #[test]
    fn folded_row_converges_toward_the_ratings() {
        let model = constant_q_model();
        // Every item rated 4.0 with q=2.0 ⇒ the ideal p is 2.0.
        let ratings: Vec<(u32, f32)> = (0..4).map(|i| (i, 4.0)).collect();
        let cfg = FoldInConfig {
            epochs: 200,
            lambda: 0.0,
            ..FoldInConfig::default()
        };
        let row = fold_in(&model, &ratings, &cfg).unwrap();
        let pred = dot(&row, &model.item_row(0).unwrap());
        assert!((pred - 4.0).abs() < 1e-2, "predicted {pred}");
    }

    #[test]
    fn q_stays_frozen() {
        let model = constant_q_model();
        fold_in(&model, &[(0, 4.0), (1, 1.0)], &FoldInConfig::default()).unwrap();
        for i in 0..4 {
            assert_eq!(model.item_row(i).unwrap(), &[2.0]);
        }
    }

    #[test]
    fn empty_and_unknown_items_are_typed() {
        let model = constant_q_model();
        assert_eq!(
            fold_in(&model, &[], &FoldInConfig::default()),
            Err(ServeError::EmptyFoldIn)
        );
        assert!(matches!(
            fold_in(&model, &[(0, 1.0), (9, 1.0)], &FoldInConfig::default()),
            Err(ServeError::UnknownItem { item: 9, items: 4 })
        ));
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let model = constant_q_model();
        let ratings = [(0u32, 3.0f32), (2, 1.5)];
        let cfg = FoldInConfig::default();
        assert_eq!(
            fold_in(&model, &ratings, &cfg).unwrap(),
            fold_in(&model, &ratings, &cfg).unwrap()
        );
    }
}
