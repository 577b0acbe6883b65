//! The threaded engine's partition policy, one training epoch at a time.
//!
//! After each accepted epoch the engine hands [`adapt`] what it observed —
//! every worker's compute seconds and the epoch's sync seconds — and gets
//! back the partition for the next epoch. No clock is read here, so the
//! policy is tested on recorded timings. Algorithm 1 takes one step per
//! epoch (the next epoch is line 12's measurement); at the last adaptation
//! epoch Eq. 5 decides whether DP2 staggers the partition (Eq. 7).

use crate::dp::{dp1_step, dp2, WorkerClass, DP1_TOLERANCE};
use crate::model::{choose, sync_ratio, CostModel};
use crate::planner::StrategyChoice;

/// How the server partitions data among workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMode {
    /// Equal shares — the "unbalanced data" straw man of Fig. 3(a) when the
    /// platform is heterogeneous.
    Uniform,
    /// DP0 only: proportional to calibrated standalone speed (Eq. 6).
    Dp0,
    /// DP0 + Algorithm-1 compensation during the first epochs.
    Dp1,
    /// DP1 + hidden-synchronization staggering (Eq. 7).
    Dp2,
    /// The paper's λ dispatch (Eq. 5): DP1 when sync is negligible, else DP2.
    Auto,
}

impl PartitionMode {
    /// The strategy a run reports until [`adapt`] revises it.
    pub fn initial_strategy(self) -> StrategyChoice {
        match self {
            PartitionMode::Uniform | PartitionMode::Dp0 => StrategyChoice::Dp0,
            PartitionMode::Dp1 | PartitionMode::Auto => StrategyChoice::Dp1,
            PartitionMode::Dp2 => StrategyChoice::Dp2,
        }
    }
}

/// One epoch's observed timings, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct EpochTimes<'a> {
    /// Each worker's compute time.
    pub compute: &'a [f64],
    /// The server's total synchronization time.
    pub sync: f64,
}

/// What [`adapt`] decides for the next epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Adaptation {
    /// The strategy to report.
    pub strategy: StrategyChoice,
    /// The next partition, or `None` to keep the current one.
    pub fractions: Option<Vec<f64>>,
}

/// The partition after training epoch `epoch` (of `epochs`), given the
/// current fractions `x`, the workers' classes and the epoch's timings.
///
/// Returns `None` — keep partition and reported strategy — for `Uniform`
/// and `Dp0`, outside the first `adapt_epochs` epochs, at the last training
/// epoch, and when `last` does not match the fleet (a worker died this
/// epoch). Otherwise one Algorithm-1 step, except at the last adaptation
/// epoch, where `Dp2` always staggers and `Auto` staggers when Eq. 5's
/// ratio is below λ.
pub fn adapt(
    mode: PartitionMode,
    epoch: usize,
    epochs: usize,
    adapt_epochs: usize,
    x: &[f64],
    classes: &[WorkerClass],
    last: EpochTimes,
) -> Option<Adaptation> {
    if matches!(mode, PartitionMode::Uniform | PartitionMode::Dp0)
        || epoch + 1 >= epochs
        || epoch >= adapt_epochs
        || last.compute.len() != x.len()
    {
        return None;
    }
    let t: Vec<f64> = last.compute.iter().map(|&c| c.max(1e-9)).collect();
    if epoch + 1 == adapt_epochs && mode != PartitionMode::Dp1 {
        let max_t = t.iter().cloned().fold(0.0f64, f64::max);
        if mode == PartitionMode::Dp2
            || choose(sync_ratio(max_t, last.sync), CostModel::LAMBDA) == StrategyChoice::Dp2
        {
            return Some(Adaptation {
                strategy: StrategyChoice::Dp2,
                fractions: Some(dp2(x, &t, last.sync / x.len() as f64)),
            });
        }
    }
    Some(Adaptation {
        strategy: mode.initial_strategy(),
        fractions: dp1_step(x, &t, classes, DP1_TOLERANCE),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use PartitionMode::{Auto, Dp0, Dp1, Dp2, Uniform};
    use StrategyChoice as S;
    use WorkerClass::{Cpu, Gpu};

    /// (case, mode, epoch, epochs, adapt_epochs, classes, compute, sync, want)
    type Case<'a> = (
        &'a str,
        PartitionMode,
        usize,
        usize,
        usize,
        [WorkerClass; 2],
        &'a [f64],
        f64,
        Option<Adaptation>,
    );

    fn some(strategy: S, fractions: Option<Vec<f64>>) -> Option<Adaptation> {
        Some(Adaptation {
            strategy,
            fractions,
        })
    }

    #[test]
    fn policy_on_recorded_timings() {
        let x = [0.5, 0.5];
        let hetero = [Cpu, Gpu];
        // Worker 0 is 2.5x slower: Algorithm 1 moves data off it.
        let t = [2.5, 1.0];
        let step = dp1_step(&x, &t, &hetero, DP1_TOLERANCE);
        assert!(step.is_some());
        let stagger = |sync: f64, t: &[f64]| Some(dp2(&x, t, sync / 2.0));
        #[rustfmt::skip]
        let cases: [Case; 15] = [
            ("uniform", Uniform, 0, 5, 3, hetero, &t, 0.5, None),
            ("dp0", Dp0, 0, 5, 3, hetero, &t, 0.5, None),
            ("adapt_epochs 0 freezes", Dp1, 0, 5, 0, hetero, &t, 0.5, None),
            ("past the adaptation window", Auto, 3, 5, 3, hetero, &t, 0.5, None),
            ("last training epoch", Dp1, 4, 5, 9, hetero, &t, 0.5, None),
            ("a worker died", Dp1, 0, 5, 3, hetero, &[1.0], 0.5, None),
            ("all-CPU fleet", Dp1, 0, 5, 3, [Cpu, Cpu], &t, 0.5, some(S::Dp1, None)),
            ("cpu+gpu step", Dp1, 0, 5, 3, hetero, &t, 0.5, some(S::Dp1, step.clone())),
            ("dp1 at the last adapt epoch", Dp1, 2, 5, 3, hetero, &t, 0.5, some(S::Dp1, step.clone())),
            ("auto before the last adapt epoch", Auto, 1, 5, 3, hetero, &t, 0.5, some(S::Dp1, step.clone())),
            ("dp2 before the last adapt epoch", Dp2, 1, 5, 3, hetero, &t, 0.5, some(S::Dp2, step.clone())),
            ("auto, ratio 5 < λ", Auto, 2, 5, 3, hetero, &t, 0.5, some(S::Dp2, stagger(0.5, &t))),
            ("auto, ratio 20 ≥ λ", Auto, 2, 5, 3, hetero, &t, 0.125, some(S::Dp1, step.clone())),
            ("auto, ratio == λ", Auto, 2, 5, 3, hetero, &t, 0.25, some(S::Dp1, step.clone())),
            ("dp2, ratio 20 and a zero time floored", Dp2, 2, 5, 3, hetero, &[2.5, 0.0], 0.125,
                some(S::Dp2, stagger(0.125, &[2.5, 1e-9]))),
        ];
        for (case, mode, epoch, epochs, adapt_epochs, classes, compute, sync, want) in cases {
            let got = adapt(
                mode,
                epoch,
                epochs,
                adapt_epochs,
                &x,
                &classes,
                EpochTimes { compute, sync },
            );
            assert_eq!(got, want, "{case}");
        }
        assert_eq!(sync_ratio(2.5, 0.25), CostModel::LAMBDA);
    }
}
