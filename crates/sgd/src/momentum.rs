//! Momentum (heavy-ball) Hogwild SGD.
//!
//! The third member of the optimizer family next to plain SGD and
//! [`adagrad`](crate::adagrad): velocity buffers smooth the Hogwild
//! gradient noise, `v ← β·v + g`, `θ ← θ + γ·v`. Useful on noisy
//! skewed-popularity data where plain SGD's per-entry steps jitter.

use crate::factors::SharedFactors;
use crate::hogwild::{drive, HogwildConfig, Shard};
use crate::kernel::dot;
use crate::shared::SharedRows;
use hcc_sparse::Rating;
use std::sync::atomic::Ordering;

/// Velocity buffers for `P` and `Q`, and the momentum coefficient β that
/// decays them.
#[derive(Debug)]
pub struct MomentumState {
    velocity_p: SharedFactors,
    velocity_q: SharedFactors,
    beta: f32,
}

impl MomentumState {
    /// Zeroed velocities for `m × k` user and `n × k` item factors, decayed
    /// by `beta` each step.
    ///
    /// # Panics
    /// Panics if `beta` is outside `[0, 1)`.
    pub fn new(m: usize, n: usize, k: usize, beta: f32) -> MomentumState {
        assert!((0.0..1.0).contains(&beta), "beta must be in [0, 1)");
        MomentumState {
            velocity_p: SharedFactors::zeros(m, k),
            velocity_q: SharedFactors::zeros(n, k),
            beta,
        }
    }
}

/// One momentum update of row `e.u` of `p` and row `e.i` of `q`. Returns
/// the pre-update error.
#[inline]
pub(crate) fn momentum_step(
    p: SharedRows<'_>,
    q: SharedRows<'_>,
    state: &MomentumState,
    e: &Rating,
    config: &HogwildConfig,
    scratch: &mut [f32],
) -> f32 {
    let k = p.k();
    let (u, i) = (e.u as usize, e.i as usize);
    let (pl, ql) = scratch.split_at_mut(k);
    let p_cells = p.row_cells(u);
    let q_cells = q.row_cells(i);
    let vp_cells = state.velocity_p.row_cells(u);
    let vq_cells = state.velocity_q.row_cells(i);
    // ordering: Relaxed throughout — Hogwild factor and velocity cells:
    // per-cell atomicity only, racing interleavings are tolerated by the
    // asynchronous-SGD convergence argument.
    for j in 0..k {
        pl[j] = f32::from_bits(p_cells[j].load(Ordering::Relaxed));
        ql[j] = f32::from_bits(q_cells[j].load(Ordering::Relaxed));
    }
    let err = e.r - dot(pl, ql);
    let (lr, beta) = (config.learning_rate, state.beta);
    for j in 0..k {
        let gp = err * ql[j] - config.lambda_p * pl[j];
        let gq = err * pl[j] - config.lambda_q * ql[j];
        // ordering: Relaxed — see the note above.
        let vp = beta * f32::from_bits(vp_cells[j].load(Ordering::Relaxed)) + gp;
        let vq = beta * f32::from_bits(vq_cells[j].load(Ordering::Relaxed)) + gq;
        vp_cells[j].store(vp.to_bits(), Ordering::Relaxed);
        vq_cells[j].store(vq.to_bits(), Ordering::Relaxed);
        p_cells[j].store((pl[j] + lr * vp).to_bits(), Ordering::Relaxed);
        q_cells[j].store((ql[j] + lr * vq).to_bits(), Ordering::Relaxed);
    }
    err
}

/// One Hogwild epoch with momentum steps. Returns summed squared pre-update
/// errors.
///
/// # Panics
/// Panics if `config.threads == 0`.
pub fn momentum_hogwild_epoch<'a>(
    entries: &[Rating],
    p: impl Into<SharedRows<'a>>,
    q: impl Into<SharedRows<'a>>,
    state: &MomentumState,
    config: &HogwildConfig,
) -> f64 {
    let (p, q) = (p.into(), q.into());
    let shard = Shard::new(entries, config.schedule, p, q);
    drive(shard, config.threads, 2 * p.k(), |e, scratch| {
        momentum_step(p, q, state, e, config, scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::rmse;
    use crate::FactorMatrix;
    use hcc_sparse::{GenConfig, SyntheticDataset};

    fn setup() -> (
        SyntheticDataset,
        SharedFactors,
        SharedFactors,
        MomentumState,
    ) {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 200,
            cols: 100,
            nnz: 5_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let p = SharedFactors::from_matrix(&FactorMatrix::random(200, 8, 21));
        let q = SharedFactors::from_matrix(&FactorMatrix::random(100, 8, 22));
        (ds, p, q, MomentumState::new(200, 100, 8, 0.9))
    }

    #[test]
    fn momentum_converges() {
        let (ds, p, q, state) = setup();
        let cfg = HogwildConfig::with_threads(2, 0.01);
        let before = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        for _ in 0..15 {
            momentum_hogwild_epoch(ds.matrix.entries(), &p, &q, &state, &cfg);
        }
        let after = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        assert!(after < before * 0.5, "{before} -> {after}");
    }

    #[test]
    fn zero_beta_equals_plain_sgd() {
        // β = 0 degenerates to plain SGD (single thread, same order).
        let (ds, p, q, _) = setup();
        let entries = &ds.matrix.entries()[..200];
        let cfg = HogwildConfig {
            threads: 1,
            learning_rate: 0.01,
            lambda_p: 0.02,
            lambda_q: 0.03,
            schedule: Default::default(),
        };
        let state = MomentumState::new(200, 100, 8, 0.0);
        momentum_hogwild_epoch(entries, &p, &q, &state, &cfg);

        let p2 = SharedFactors::from_matrix(&FactorMatrix::random(200, 8, 21));
        let q2 = SharedFactors::from_matrix(&FactorMatrix::random(100, 8, 22));
        crate::hogwild::hogwild_epoch(entries, &p2, &q2, &cfg);
        let a = p.snapshot();
        let b = p2.snapshot();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn invalid_beta_panics() {
        MomentumState::new(200, 100, 8, 1.0);
    }

    #[test]
    fn empty_entries_noop() {
        let (_, p, q, state) = setup();
        assert_eq!(
            momentum_hogwild_epoch(&[], &p, &q, &state, &HogwildConfig::with_threads(1, 0.01)),
            0.0
        );
    }
}
