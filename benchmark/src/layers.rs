//! Single-layer measurements the traced pass adds: a memory-copy ceiling,
//! the plain one-thread kernel, and a bare round trip on each transport.
//! Each calls one shipped crate directly, outside any training session.

use crate::stats;
use hcc_comm::{CommShared, CommSocket, Precision, Transport};
use hcc_sgd::{hogwild_epoch, FactorMatrix, HogwildConfig, SharedFactors};
use hcc_sparse::CooMatrix;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Bytes the SGD kernel moves per update, *computed* from the update rule
/// rather than measured: read and write one `P` row and one `Q` row of `k`
/// floats (4·k·4 bytes) plus the 12-byte rating triple.
pub fn bytes_per_update(k: usize) -> f64 {
    (4 * k * 4 + 12) as f64
}

/// STREAM-style copy ceiling in GB/s (read + write bytes counted), median
/// of several passes over a buffer far larger than the last-level cache.
pub fn stream_copy_gbps() -> f64 {
    const LEN: usize = 8 << 20; // 8 Mi f32 = 32 MiB per buffer
    let src = vec![1.0f32; LEN];
    let mut dst = vec![0.0f32; LEN];
    let mut rates = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        rates.push(2.0 * (LEN * 4) as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    stats::median(&mut rates)
}

/// Updates per second of `hogwild_epoch` on one thread over the whole
/// matrix: the plain single-worker baseline (Table 4's denominator).
pub fn standalone_updates_per_s(matrix: &CooMatrix, k: usize, seed: u64) -> f64 {
    let p = SharedFactors::from_matrix(&FactorMatrix::random(matrix.rows() as usize, k, seed));
    let q = SharedFactors::from_matrix(&FactorMatrix::random(matrix.cols() as usize, k, seed ^ 1));
    let config = HogwildConfig::with_threads(1, 0.01);
    let mut rates = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        black_box(hogwild_epoch(matrix.entries(), &p, &q, &config));
        rates.push(matrix.nnz() as f64 / t0.elapsed().as_secs_f64());
    }
    stats::median(&mut rates)
}

/// Median µs of one publish→pull→push→collect round of `len` floats, for
/// one worker, over at least 20 rounds and at most `budget`.
fn rpc_round_us(transport: &dyn Transport, len: usize, budget: Duration) -> f64 {
    let src = vec![0.5f32; len];
    let mut dst = vec![0.0f32; len];
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.len() < 20 || (start.elapsed() < budget && rounds.len() < 2_000) {
        let t0 = Instant::now();
        transport.publish(&src);
        transport.pull(0, &mut dst);
        transport.push(0, &src);
        transport.collect(0, &mut dst);
        rounds.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    black_box(&dst);
    stats::median(&mut rounds)
}

/// `(shared, uds, tcp)` round-trip medians in µs at the workload's payload
/// length. A transport that cannot be built reports an error: the training
/// run itself would have failed the same way.
pub fn rpc_medians(len: usize) -> Result<(f64, f64, f64), String> {
    let budget = Duration::from_millis(250);
    let shared = CommShared::new(1, len, len, Precision::Fp32);
    let uds = CommSocket::new(1, len, len, Precision::Fp32).map_err(|e| format!("uds: {e}"))?;
    let tcp = CommSocket::new_tcp(1, len, len, Precision::Fp32).map_err(|e| format!("tcp: {e}"))?;
    Ok((
        rpc_round_us(&shared, len, budget),
        rpc_round_us(&uds, len, budget),
        rpc_round_us(&tcp, len, budget),
    ))
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
