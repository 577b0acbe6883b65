//! AdaGrad-scaled Hogwild SGD.
//!
//! The original CuMF_SGD ships both vanilla SGD and AdaGrad kernels; the
//! HCC-MF paper trains with a fixed γ (Table 3), but per-parameter adaptive
//! steps `η_t = η₀ / √(Σ g²+ε)` remove the learning-rate tuning burden and
//! converge faster in the skewed-popularity regime (hot items see many
//! updates and get small steps; cold ones keep large steps). Provided as a
//! drop-in alternative update rule with its own accumulator state, swept by
//! the one Hogwild driver like every other rule.

use crate::factors::SharedFactors;
use crate::hogwild::{drive, HogwildConfig, Shard};
use crate::kernel::dot;
use crate::shared::SharedRows;
use hcc_sparse::Rating;
use std::sync::atomic::Ordering;

/// Per-parameter squared-gradient accumulators, and the stabilizer ε added
/// to them under the square root.
#[derive(Debug)]
pub struct AdaGradState {
    accum_p: SharedFactors,
    accum_q: SharedFactors,
    epsilon: f32,
}

impl AdaGradState {
    /// Zeroed accumulators for `m × k` user and `n × k` item factors, with
    /// stabilizer `epsilon` (1e-8 is typical).
    pub fn new(m: usize, n: usize, k: usize, epsilon: f32) -> AdaGradState {
        AdaGradState {
            accum_p: SharedFactors::zeros(m, k),
            accum_q: SharedFactors::zeros(n, k),
            epsilon,
        }
    }

    /// Mean accumulated squared gradient over `P` (diagnostic; grows
    /// monotonically with updates).
    pub fn mean_accum_p(&self) -> f64 {
        let snap = self.accum_p.snapshot();
        let s = snap.as_slice();
        if s.is_empty() {
            return 0.0;
        }
        s.iter().map(|&v| v as f64).sum::<f64>() / s.len() as f64
    }
}

/// One AdaGrad update of row `e.u` of `p` and row `e.i` of `q`, with base
/// step `config.learning_rate`. Returns the pre-update error.
#[inline]
pub(crate) fn adagrad_step(
    p: SharedRows<'_>,
    q: SharedRows<'_>,
    state: &AdaGradState,
    e: &Rating,
    config: &HogwildConfig,
    scratch: &mut [f32],
) -> f32 {
    let k = p.k();
    debug_assert_eq!(scratch.len(), 2 * k);
    let (pl, ql) = scratch.split_at_mut(k);
    let (u, i) = (e.u as usize, e.i as usize);
    let p_cells = p.row_cells(u);
    let q_cells = q.row_cells(i);
    let ap_cells = state.accum_p.row_cells(u);
    let aq_cells = state.accum_q.row_cells(i);
    // ordering: Relaxed throughout this kernel — Hogwild cells (factor and
    // AdaGrad accumulator alike) carry no cross-cell ordering; racing
    // read-modify-write interleavings lose increments at worst, which the
    // asynchronous-SGD convergence argument tolerates.
    for j in 0..k {
        pl[j] = f32::from_bits(p_cells[j].load(Ordering::Relaxed));
        ql[j] = f32::from_bits(q_cells[j].load(Ordering::Relaxed));
    }
    let err = e.r - dot(pl, ql);
    let eta0 = config.learning_rate;
    for j in 0..k {
        let gp = err * ql[j] - config.lambda_p * pl[j];
        let gq = err * pl[j] - config.lambda_q * ql[j];
        // ordering: Relaxed — see the kernel-level note above.
        let ap = f32::from_bits(ap_cells[j].load(Ordering::Relaxed)) + gp * gp;
        let aq = f32::from_bits(aq_cells[j].load(Ordering::Relaxed)) + gq * gq;
        ap_cells[j].store(ap.to_bits(), Ordering::Relaxed);
        aq_cells[j].store(aq.to_bits(), Ordering::Relaxed);
        let p_new = pl[j] + eta0 * gp / (ap + state.epsilon).sqrt();
        let q_new = ql[j] + eta0 * gq / (aq + state.epsilon).sqrt();
        // ordering: Relaxed — see the kernel-level note above.
        p_cells[j].store(p_new.to_bits(), Ordering::Relaxed);
        q_cells[j].store(q_new.to_bits(), Ordering::Relaxed);
    }
    err
}

/// One Hogwild epoch with AdaGrad steps. `config.learning_rate` is the base
/// step η₀, which tolerates much larger values than plain SGD's γ
/// (0.05–0.1 is typical). Returns summed squared pre-update errors.
pub fn adagrad_hogwild_epoch<'a>(
    entries: &[Rating],
    p: impl Into<SharedRows<'a>>,
    q: impl Into<SharedRows<'a>>,
    state: &AdaGradState,
    config: &HogwildConfig,
) -> f64 {
    let (p, q) = (p.into(), q.into());
    let shard = Shard::new(entries, config.schedule, p, q);
    drive(shard, config.threads, 2 * p.k(), |e, scratch| {
        adagrad_step(p, q, state, e, config, scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::rmse;
    use crate::FactorMatrix;
    use hcc_sparse::{GenConfig, SyntheticDataset};

    fn config(threads: usize, eta0: f32) -> HogwildConfig {
        HogwildConfig {
            learning_rate: eta0,
            ..HogwildConfig::with_threads(threads, 0.01)
        }
    }

    fn setup() -> (SyntheticDataset, SharedFactors, SharedFactors, AdaGradState) {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 200,
            cols: 100,
            nnz: 5_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let p = SharedFactors::from_matrix(&FactorMatrix::random(200, 8, 11));
        let q = SharedFactors::from_matrix(&FactorMatrix::random(100, 8, 12));
        let state = AdaGradState::new(200, 100, 8, 1e-8);
        (ds, p, q, state)
    }

    #[test]
    fn adagrad_converges() {
        let (ds, p, q, state) = setup();
        let cfg = config(2, 0.05);
        let before = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        for _ in 0..15 {
            adagrad_hogwild_epoch(ds.matrix.entries(), &p, &q, &state, &cfg);
        }
        let after = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        assert!(after < before * 0.5, "{before} -> {after}");
    }

    #[test]
    fn adagrad_beats_plain_sgd_in_few_epochs() {
        // With the same (aggressive) base step, plain SGD oscillates where
        // AdaGrad's per-parameter damping keeps progress steady.
        let (ds, p, q, state) = setup();
        let cfg = config(1, 0.1);
        for _ in 0..5 {
            adagrad_hogwild_epoch(ds.matrix.entries(), &p, &q, &state, &cfg);
        }
        let ada = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());

        let p2 = SharedFactors::from_matrix(&FactorMatrix::random(200, 8, 11));
        let q2 = SharedFactors::from_matrix(&FactorMatrix::random(100, 8, 12));
        for _ in 0..5 {
            crate::hogwild::hogwild_epoch(ds.matrix.entries(), &p2, &q2, &cfg);
        }
        let sgd = rmse(ds.matrix.entries(), &p2.snapshot(), &q2.snapshot());
        assert!(ada < sgd, "adagrad {ada} vs sgd {sgd}");
    }

    #[test]
    fn accumulators_grow_monotonically() {
        let (ds, p, q, state) = setup();
        let cfg = config(1, 0.05);
        let mut last = 0.0;
        for _ in 0..3 {
            adagrad_hogwild_epoch(ds.matrix.entries(), &p, &q, &state, &cfg);
            let now = state.mean_accum_p();
            assert!(now > last, "accumulator did not grow: {now} <= {last}");
            last = now;
        }
    }

    #[test]
    fn empty_entries_noop() {
        let (_, p, q, state) = setup();
        let cfg = config(1, 0.05);
        assert_eq!(adagrad_hogwild_epoch(&[], &p, &q, &state, &cfg), 0.0);
        assert_eq!(state.mean_accum_p(), 0.0);
    }
}
