//! Momentum (heavy-ball) Hogwild SGD.
//!
//! The third member of the optimizer family next to plain SGD and
//! [`adagrad`](crate::adagrad): velocity buffers smooth the Hogwild
//! gradient noise, `v ← β·v + g`, `θ ← θ + γ·v`. Useful on noisy
//! skewed-popularity data where plain SGD's per-entry steps jitter.

use crate::factors::SharedFactors;
use crate::kernel::dot;
use crate::shared::SharedRows;
use hcc_sparse::Rating;
use std::sync::atomic::Ordering;

/// Velocity buffers for `P` and `Q`.
#[derive(Debug)]
pub struct MomentumState {
    velocity_p: SharedFactors,
    velocity_q: SharedFactors,
}

impl MomentumState {
    /// Zeroed velocities for `m × k` user and `n × k` item factors.
    pub fn new(m: usize, n: usize, k: usize) -> MomentumState {
        MomentumState {
            velocity_p: SharedFactors::zeros(m, k),
            velocity_q: SharedFactors::zeros(n, k),
        }
    }
}

/// Momentum epoch configuration.
#[derive(Debug, Clone, Copy)]
pub struct MomentumConfig {
    /// Hogwild threads.
    pub threads: usize,
    /// Learning rate γ.
    pub learning_rate: f32,
    /// Momentum coefficient β ∈ [0, 1).
    pub beta: f32,
    /// L2 on `P`.
    pub lambda_p: f32,
    /// L2 on `Q`.
    pub lambda_q: f32,
}

impl Default for MomentumConfig {
    fn default() -> Self {
        MomentumConfig {
            threads: 1,
            learning_rate: 0.005,
            beta: 0.9,
            lambda_p: 0.01,
            lambda_q: 0.01,
        }
    }
}

/// One Hogwild epoch with momentum steps. Returns summed squared pre-update
/// errors.
///
/// # Panics
/// Panics if `threads == 0` or `beta` is outside `[0, 1)`.
pub fn momentum_hogwild_epoch<'a>(
    entries: &[Rating],
    p: impl Into<SharedRows<'a>>,
    q: impl Into<SharedRows<'a>>,
    state: &MomentumState,
    cfg: &MomentumConfig,
) -> f64 {
    let (p, q) = (p.into(), q.into());
    assert!(cfg.threads > 0, "thread count must be non-zero");
    assert!((0.0..1.0).contains(&cfg.beta), "beta must be in [0, 1)");
    if entries.is_empty() {
        return 0.0;
    }
    let threads = cfg.threads.min(entries.len());
    let k = p.k();
    let sweep = |offset: usize| {
        let mut scratch = vec![0f32; 2 * k];
        let mut acc = 0.0f64;
        let mut idx = offset;
        while idx < entries.len() {
            let e = entries[idx];
            let (u, i) = (e.u as usize, e.i as usize);
            let (pl, ql) = scratch.split_at_mut(k);
            let p_cells = p.row_cells(u);
            let q_cells = q.row_cells(i);
            let vp_cells = state.velocity_p.row_cells(u);
            let vq_cells = state.velocity_q.row_cells(i);
            // ordering: Relaxed throughout — Hogwild factor and velocity
            // cells: per-cell atomicity only, racing interleavings are
            // tolerated by the asynchronous-SGD convergence argument.
            for j in 0..k {
                pl[j] = f32::from_bits(p_cells[j].load(Ordering::Relaxed));
                ql[j] = f32::from_bits(q_cells[j].load(Ordering::Relaxed));
            }
            let err = e.r - dot(pl, ql);
            for j in 0..k {
                let gp = err * ql[j] - cfg.lambda_p * pl[j];
                let gq = err * pl[j] - cfg.lambda_q * ql[j];
                // ordering: Relaxed — see the loop-level note above.
                let vp = cfg.beta * f32::from_bits(vp_cells[j].load(Ordering::Relaxed)) + gp;
                let vq = cfg.beta * f32::from_bits(vq_cells[j].load(Ordering::Relaxed)) + gq;
                vp_cells[j].store(vp.to_bits(), Ordering::Relaxed);
                vq_cells[j].store(vq.to_bits(), Ordering::Relaxed);
                p_cells[j].store(
                    (pl[j] + cfg.learning_rate * vp).to_bits(),
                    Ordering::Relaxed,
                );
                q_cells[j].store(
                    (ql[j] + cfg.learning_rate * vq).to_bits(),
                    Ordering::Relaxed,
                );
            }
            acc += (err as f64) * (err as f64);
            idx += threads;
        }
        acc
    };
    if threads == 1 {
        return sweep(0);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || sweep(t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .sum()
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
        (ds, p, q, MomentumState::new(200, 100, 8))
    }

    #[test]
    fn momentum_converges() {
        let (ds, p, q, state) = setup();
        let cfg = MomentumConfig {
            threads: 2,
            learning_rate: 0.005,
            ..Default::default()
        };
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
        let (ds, p, q, state) = setup();
        let entries = &ds.matrix.entries()[..200];
        let cfg = MomentumConfig {
            threads: 1,
            learning_rate: 0.01,
            beta: 0.0,
            lambda_p: 0.02,
            lambda_q: 0.03,
        };
        momentum_hogwild_epoch(entries, &p, &q, &state, &cfg);

        let p2 = SharedFactors::from_matrix(&FactorMatrix::random(200, 8, 21));
        let q2 = SharedFactors::from_matrix(&FactorMatrix::random(100, 8, 22));
        let hw = crate::hogwild::HogwildConfig {
            threads: 1,
            learning_rate: 0.01,
            lambda_p: 0.02,
            lambda_q: 0.03,
            schedule: Default::default(),
        };
        crate::hogwild::hogwild_epoch(entries, &p2, &q2, &hw);
        let a = p.snapshot();
        let b = p2.snapshot();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn invalid_beta_panics() {
        let (ds, p, q, state) = setup();
        let cfg = MomentumConfig {
            beta: 1.0,
            ..Default::default()
        };
        momentum_hogwild_epoch(ds.matrix.entries(), &p, &q, &state, &cfg);
    }

    #[test]
    fn empty_entries_noop() {
        let (_, p, q, state) = setup();
        assert_eq!(
            momentum_hogwild_epoch(&[], &p, &q, &state, &MomentumConfig::default()),
            0.0
        );
    }
}
