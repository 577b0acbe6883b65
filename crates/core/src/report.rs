//! Training report: everything the evaluation section measures.

use hcc_partition::StrategyChoice;
use hcc_sgd::FactorMatrix;
use std::time::Duration;

/// Per-worker, per-epoch phase timings (the Fig. 8 raw data).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkerEpochStats {
    /// Time spent pulling the feature matrix.
    pub pull: Duration,
    /// Time spent computing SGD updates.
    pub compute: Duration,
    /// Time spent pushing results.
    pub push: Duration,
    /// SGD updates performed this epoch.
    pub updates: u64,
}

impl WorkerEpochStats {
    /// pull + compute + push.
    pub fn total(&self) -> Duration {
        self.pull + self.compute + self.push
    }
}

/// The result of an HCC-MF training run.
#[derive(Debug, Clone)]
pub struct HccReport {
    /// Final user factors (`m × k`, original orientation).
    pub p: FactorMatrix,
    /// Final item factors (`n × k`).
    pub q: FactorMatrix,
    /// Per-epoch training RMSE (empty unless tracking was enabled).
    pub rmse_history: Vec<f64>,
    /// Per-epoch wall-clock time (includes pull/compute/push/sync).
    pub epoch_times: Vec<Duration>,
    /// `stats[epoch][worker]` phase timings.
    pub worker_stats: Vec<Vec<WorkerEpochStats>>,
    /// Per-epoch server synchronization time.
    pub sync_times: Vec<Duration>,
    /// The partition in force during each epoch.
    pub partition_history: Vec<Vec<f64>>,
    /// Which partition strategy the run settled on.
    pub strategy_used: StrategyChoice,
    /// Total SGD updates across all workers and epochs.
    pub total_updates: u64,
    /// Bytes that crossed the COMM wire.
    pub wire_bytes: u64,
    /// True if the input was transposed internally (column grid: `n > m`).
    pub transposed: bool,
    /// `health_history[epoch][worker]` classification (empty unless the
    /// fault-tolerance supervisor was enabled). Worker indices follow the
    /// fleet as of that epoch — the list shrinks when dead workers are
    /// removed.
    pub health_history: Vec<Vec<crate::supervisor::WorkerHealth>>,
    /// Divergence rollbacks performed by the supervisor.
    pub rollbacks: usize,
    /// First epoch this run executed (> 0 when resumed from a checkpoint).
    pub start_epoch: usize,
    /// The recorded telemetry timeline (`Some` only when
    /// `HccConfig::telemetry_path` was set).
    pub timeline: Option<hcc_telemetry::Timeline>,
}

impl HccReport {
    /// Total wall-clock training time.
    pub fn total_time(&self) -> Duration {
        self.epoch_times.iter().sum()
    }

    /// The paper's Eq. 8 "computing power": updates per second.
    pub fn computing_power(&self) -> f64 {
        let secs = self.total_time().as_secs_f64();
        if secs > 0.0 {
            self.total_updates as f64 / secs
        } else {
            0.0
        }
    }

    /// Final training RMSE, if tracked.
    pub fn final_rmse(&self) -> Option<f64> {
        self.rmse_history.last().copied()
    }

    /// The final partition vector.
    pub fn final_partition(&self) -> Option<&[f64]> {
        self.partition_history.last().map(|v| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> HccReport {
        let stats = vec![
            vec![
                WorkerEpochStats {
                    pull: Duration::from_millis(1),
                    compute: Duration::from_millis(10),
                    push: Duration::from_millis(2),
                    updates: 100,
                },
                WorkerEpochStats {
                    pull: Duration::from_millis(2),
                    compute: Duration::from_millis(11),
                    push: Duration::from_millis(1),
                    updates: 200,
                },
            ];
            3
        ];
        HccReport {
            p: FactorMatrix::zeros(1, 1),
            q: FactorMatrix::zeros(1, 1),
            rmse_history: vec![1.0, 0.8],
            epoch_times: vec![Duration::from_millis(20); 3],
            worker_stats: stats,
            sync_times: vec![Duration::from_millis(1); 3],
            partition_history: vec![vec![0.4, 0.6]],
            strategy_used: StrategyChoice::Dp1,
            total_updates: 900,
            wire_bytes: 4_096,
            transposed: false,
            health_history: Vec::new(),
            rollbacks: 0,
            start_epoch: 0,
            timeline: None,
        }
    }

    #[test]
    fn totals_and_power() {
        let r = report();
        assert_eq!(r.total_time(), Duration::from_millis(60));
        assert!((r.computing_power() - 900.0 / 0.060).abs() < 1.0);
        assert_eq!(r.final_rmse(), Some(0.8));
        assert_eq!(r.final_partition(), Some(&[0.4, 0.6][..]));
    }

    #[test]
    fn worker_epoch_total() {
        let s = WorkerEpochStats {
            pull: Duration::from_millis(1),
            compute: Duration::from_millis(2),
            push: Duration::from_millis(3),
            updates: 0,
        };
        assert_eq!(s.total(), Duration::from_millis(6));
    }
}
