//! Communication optimization strategies and their volume accounting.
//!
//! The ratio of communication to computation in HCC-MF is governed entirely
//! by how much of the feature data moves per epoch (§3.4). These strategies
//! reduce the per-epoch payload:
//!
//! * `FullPq` — no optimization: both `P` (k·m floats) and `Q` (k·n floats)
//!   are pulled and pushed every epoch.
//! * `QOnly` — with a row grid, each worker owns its `P` rows outright, so
//!   only `Q` needs to travel (except the final epoch, which pushes `P` rows
//!   once). Reduces volume to `n/(m+n)` of the original.
//! * `HalfQ` — `QOnly` plus FP16 compression: half the bytes again.

/// Which feature data a worker exchanges with the server each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferStrategy {
    /// Transmit both `P` and `Q` in FP32 (the unoptimized baseline).
    FullPq,
    /// Transmit only `Q` in FP32 ("Transmitting Q matrix only").
    QOnly,
    /// Transmit only `Q`, FP16-compressed ("Transmitting FP16 Data").
    HalfQ,
}

impl TransferStrategy {
    /// All strategies, in the order Table 5 reports them.
    pub const ALL: [TransferStrategy; 3] = [
        TransferStrategy::FullPq,
        TransferStrategy::QOnly,
        TransferStrategy::HalfQ,
    ];

    /// Short label as used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            TransferStrategy::FullPq => "P&Q",
            TransferStrategy::QOnly => "Q",
            TransferStrategy::HalfQ => "half-Q",
        }
    }

    /// Bytes per element on the wire.
    pub fn bytes_per_element(&self) -> u64 {
        match self {
            TransferStrategy::FullPq | TransferStrategy::QOnly => 4,
            TransferStrategy::HalfQ => 2,
        }
    }

    /// Whether the FP16 codec applies.
    pub fn is_compressed(&self) -> bool {
        matches!(self, TransferStrategy::HalfQ)
    }

    /// Elements pulled by one worker per mid-training epoch. `m`/`n` are the
    /// rating-matrix dimensions, `k` the latent dimension. (Every worker
    /// pulls the full shared matrix; per-worker `P` rows never travel under
    /// `QOnly`/`HalfQ`.)
    pub fn pull_elements(&self, m: u64, n: u64, k: u64) -> u64 {
        match self {
            TransferStrategy::FullPq => k * (m + n),
            TransferStrategy::QOnly | TransferStrategy::HalfQ => k * n,
        }
    }

    /// Elements pushed by one worker per mid-training epoch. Under `FullPq`
    /// a worker pushes only its own `P` rows (`m_assigned`) plus `Q`; under
    /// the optimized strategies just `Q`.
    pub fn push_elements(&self, m_assigned: u64, n: u64, k: u64) -> u64 {
        match self {
            TransferStrategy::FullPq => k * (m_assigned + n),
            TransferStrategy::QOnly | TransferStrategy::HalfQ => k * n,
        }
    }

    /// Bytes pulled per mid-training epoch.
    pub fn pull_bytes(&self, m: u64, n: u64, k: u64) -> u64 {
        self.pull_elements(m, n, k) * self.bytes_per_element()
    }

    /// Bytes pushed per mid-training epoch.
    pub fn push_bytes(&self, m_assigned: u64, n: u64, k: u64) -> u64 {
        self.push_elements(m_assigned, n, k) * self.bytes_per_element()
    }

    /// Extra bytes pushed once at the end of training: the optimized
    /// strategies must finally deliver each worker's `P` rows (in FP32 —
    /// the final model is not compressed).
    pub fn final_push_extra_bytes(&self, m_assigned: u64, k: u64) -> u64 {
        match self {
            TransferStrategy::FullPq => 0,
            TransferStrategy::QOnly | TransferStrategy::HalfQ => 4 * k * m_assigned,
        }
    }

    /// The paper's theoretical communication speedup of `QOnly` over
    /// `FullPq` for a 20-epoch run: `20(m+n) / (m + 20n)` (the one `P` push
    /// still happens).
    pub fn q_only_theoretical_speedup(m: u64, n: u64, epochs: u64) -> f64 {
        (epochs as f64 * (m + n) as f64) / (m as f64 + epochs as f64 * n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(TransferStrategy::FullPq.label(), "P&Q");
        assert_eq!(TransferStrategy::QOnly.label(), "Q");
        assert_eq!(TransferStrategy::HalfQ.label(), "half-Q");
    }

    #[test]
    fn q_only_volume_ratio() {
        // Netflix: m=480190, n=17771 → QOnly transmits n/(m+n) ≈ 3.57% of
        // FullPq — the paper's "~96.4% reduction".
        let (m, n, k) = (480_190u64, 17_771, 128);
        let full = TransferStrategy::FullPq.pull_bytes(m, n, k);
        let qonly = TransferStrategy::QOnly.pull_bytes(m, n, k);
        let ratio = qonly as f64 / full as f64;
        assert!((ratio - n as f64 / (m + n) as f64).abs() < 1e-12);
        assert!(ratio < 0.04, "ratio {ratio}");
    }

    #[test]
    fn half_q_halves_bytes() {
        let (m, n, k) = (1000u64, 500, 32);
        assert_eq!(
            TransferStrategy::HalfQ.pull_bytes(m, n, k) * 2,
            TransferStrategy::QOnly.pull_bytes(m, n, k)
        );
    }

    #[test]
    fn full_pq_pushes_only_assigned_rows() {
        let k = 16u64;
        let push = TransferStrategy::FullPq.push_bytes(100, 500, k);
        assert_eq!(push, 4 * k * 600);
        let push_small = TransferStrategy::FullPq.push_bytes(10, 500, k);
        assert!(push_small < push);
    }

    #[test]
    fn final_push_only_for_optimized() {
        assert_eq!(TransferStrategy::FullPq.final_push_extra_bytes(100, 8), 0);
        assert_eq!(
            TransferStrategy::QOnly.final_push_extra_bytes(100, 8),
            4 * 8 * 100
        );
        assert_eq!(
            TransferStrategy::HalfQ.final_push_extra_bytes(100, 8),
            4 * 8 * 100
        );
    }

    #[test]
    fn theoretical_speedups_match_paper_values() {
        // Paper §4.4 quotes 19.4 / 2.5 / 6.1 for Netflix / R1 / R2 at 20
        // epochs. Its own formula `20(m+n)/(m+20n)` reproduces R1 and R2
        // exactly but yields 11.9 for Netflix — the paper's Netflix figure
        // is internally inconsistent (see EXPERIMENTS.md); we assert the
        // formula.
        let netflix = TransferStrategy::q_only_theoretical_speedup(480_190, 17_771, 20);
        assert!((netflix - 11.9).abs() < 0.1, "netflix {netflix}");
        let r1 = TransferStrategy::q_only_theoretical_speedup(1_948_883, 1_101_750, 20);
        assert!((r1 - 2.5).abs() < 0.1, "r1 {r1}");
        let r2 = TransferStrategy::q_only_theoretical_speedup(1_000_000, 136_736, 20);
        assert!((r2 - 6.1).abs() < 0.1, "r2 {r2}");
    }
}
