//! The time-cost model (Eqs. 1–5, Table 1).
//!
//! One training epoch costs
//!
//! ```text
//! T = max_i { T_i_pull + T_i_c + T_i_push }  +  T_sync            (Eq. 1)
//! T_i ≈ x_i·nnz·(16k+4)/B_i + 2·V_bus/B_bus_i                     (Eq. 2)
//! T_sync = Σ_t 3·V_sync/B_server                                  (Eq. 3)
//! ```
//!
//! where `(16k+4)` bytes is the memory traffic of one SGD update (read+write
//! of the two k-vectors in f32, plus the 4-byte rating), `V_bus` is the
//! per-direction transfer volume (strategy-dependent: `4k(m+n)` unoptimized,
//! `4kn` for Q-only, `2kn` for half-Q), and `V_sync` the *decompressed*
//! payload the server merges with 3 memory ops + 1 FMA per element. The
//! compute term dominates `7k/P_i` arithmetic because `P_i ≫ B_i` (the
//! paper drops that term; we do too).

/// All Table-1 parameters needed to evaluate the model, in byte/second units.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Observed ratings.
    pub nnz: u64,
    /// Rating-matrix rows.
    pub m: u64,
    /// Rating-matrix columns.
    pub n: u64,
    /// Latent dimension.
    pub k: u64,
    /// Effective memory bandwidth of each worker during SGD, bytes/s
    /// (`B_i`; "effective" because caches make it exceed DRAM bandwidth).
    pub worker_bandwidth: Vec<f64>,
    /// Bus bandwidth between each worker and the server, bytes/s (`B_bus_i`).
    pub bus_bandwidth: Vec<f64>,
    /// Server memory bandwidth, bytes/s (`B_server`).
    pub server_bandwidth: f64,
    /// Per-direction transfer volume in bytes (`V_bus`), set from the active
    /// communication strategy.
    pub transfer_bytes: u64,
    /// Per-worker sync payload in bytes (`V_sync`, always FP32).
    pub sync_bytes: u64,
}

impl CostModel {
    /// The paper's λ threshold: synchronization is negligible when
    /// `max{T_i} / T_sync ≥ λ`.
    pub const LAMBDA: f64 = 10.0;

    /// Memory traffic of one SGD update in bytes: `16k + 4`.
    pub fn bytes_per_update(&self) -> f64 {
        16.0 * self.k as f64 + 4.0
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.worker_bandwidth.len()
    }

    /// Compute time of worker `i` given its data fraction `x_i` (Eq. 2,
    /// first term).
    pub fn compute_time(&self, i: usize, x_i: f64) -> f64 {
        x_i * self.nnz as f64 * self.bytes_per_update() / self.worker_bandwidth[i]
    }

    /// Pull (or push — symmetric) time of worker `i` (Eq. 2, second term /2).
    pub fn transfer_time(&self, i: usize) -> f64 {
        self.transfer_bytes as f64 / self.bus_bandwidth[i]
    }

    /// Full per-worker epoch cost `T_i` (Eq. 2).
    pub fn worker_time(&self, i: usize, x_i: f64) -> f64 {
        self.compute_time(i, x_i) + 2.0 * self.transfer_time(i)
    }

    /// Time the server needs to merge one worker's push (one term of Eq. 3):
    /// 3 memory operations per parameter (read local, read global, write
    /// global) at `B_server` — the `k(m+n)/P_server` FMA term is dropped as
    /// in the paper.
    pub fn sync_time_per_worker(&self) -> f64 {
        3.0 * self.sync_bytes as f64 / self.server_bandwidth
    }

    /// Epoch cost (Eq. 4) given partition `x` and the number of
    /// synchronizations `t` that land *after* the slowest worker finishes.
    pub fn epoch_time(&self, x: &[f64], trailing_syncs: usize) -> f64 {
        assert_eq!(x.len(), self.workers(), "partition length mismatch");
        let max_worker = (0..self.workers())
            .map(|i| self.worker_time(i, x[i]))
            .fold(0.0f64, f64::max);
        max_worker + trailing_syncs as f64 * self.sync_time_per_worker()
    }

    /// `max{T_i} / T_sync`, the ratio Eq. 5 compares against λ. `T_sync`
    /// here is the total trailing synchronization burden in the worst case
    /// (all `p` workers' merges trailing). Returns `f64::INFINITY` when sync
    /// is free.
    pub fn sync_ratio(&self, x: &[f64]) -> f64 {
        let max_worker = (0..self.workers())
            .map(|i| self.worker_time(i, x[i]))
            .fold(0.0f64, f64::max);
        let total_sync = self.workers() as f64 * self.sync_time_per_worker();
        if total_sync <= 0.0 {
            f64::INFINITY
        } else {
            max_worker / total_sync
        }
    }

    /// Whether Eq. 5 says synchronization can be ignored (→ DP1).
    pub fn sync_negligible(&self, x: &[f64]) -> bool {
        self.sync_ratio(x) >= Self::LAMBDA
    }

    /// Per-unit-fraction compute cost `a_i = nnz·(16k+4)/B_i` and fixed cost
    /// `b_i = 2·V_bus/B_bus_i`, the coefficients Theorem 1 equalizes.
    pub fn linear_coefficients(&self) -> (Vec<f64>, Vec<f64>) {
        let a = (0..self.workers())
            .map(|i| self.nnz as f64 * self.bytes_per_update() / self.worker_bandwidth[i])
            .collect();
        let b = (0..self.workers())
            .map(|i| 2.0 * self.transfer_time(i))
            .collect();
        (a, b)
    }

    /// The paper's §3.4 rule of thumb: communication and computation are the
    /// same order of magnitude when `nnz/(m+n) < 10³`.
    pub fn comm_bound_indicator(&self) -> f64 {
        self.nnz as f64 / (self.m + self.n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel {
            nnz: 1_000_000,
            m: 10_000,
            n: 1_000,
            k: 32,
            worker_bandwidth: vec![50e9, 100e9],
            bus_bandwidth: vec![16e9, 16e9],
            server_bandwidth: 60e9,
            transfer_bytes: 4 * 32 * 1_000, // Q-only FP32
            sync_bytes: 4 * 32 * 1_000,
        }
    }

    #[test]
    fn bytes_per_update_formula() {
        assert_eq!(model().bytes_per_update(), 16.0 * 32.0 + 4.0);
    }

    #[test]
    fn compute_time_scales_with_fraction_and_bandwidth() {
        let m = model();
        let t_half = m.compute_time(0, 0.5);
        let t_full = m.compute_time(0, 1.0);
        assert!((t_full / t_half - 2.0).abs() < 1e-12);
        // Worker 1 is 2× faster.
        assert!((m.compute_time(0, 0.5) / m.compute_time(1, 0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn worker_time_adds_two_transfers() {
        let m = model();
        let t = m.worker_time(0, 0.0);
        assert!((t - 2.0 * m.transfer_time(0)).abs() < 1e-15);
    }

    #[test]
    fn epoch_time_takes_max_plus_syncs() {
        let m = model();
        let x = [0.9, 0.1];
        let t0 = m.worker_time(0, 0.9);
        let t1 = m.worker_time(1, 0.1);
        assert!(t0 > t1);
        let epoch = m.epoch_time(&x, 2);
        assert!((epoch - (t0 + 2.0 * m.sync_time_per_worker())).abs() < 1e-12);
    }

    #[test]
    fn sync_ratio_drives_negligibility() {
        let mut m = model();
        // Tiny sync payload → negligible.
        m.sync_bytes = 4;
        assert!(m.sync_negligible(&[0.5, 0.5]));
        // Enormous sync payload → not negligible.
        m.sync_bytes = 1 << 34;
        assert!(!m.sync_negligible(&[0.5, 0.5]));
    }

    #[test]
    fn zero_sync_gives_infinite_ratio() {
        let mut m = model();
        m.sync_bytes = 0;
        assert_eq!(m.sync_ratio(&[0.5, 0.5]), f64::INFINITY);
    }

    #[test]
    fn linear_coefficients_match_times() {
        let m = model();
        let (a, b) = m.linear_coefficients();
        for i in 0..2 {
            let x = 0.3;
            assert!((a[i] * x + b[i] - m.worker_time(i, x)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_partition_length_panics() {
        model().epoch_time(&[1.0], 0);
    }
}
