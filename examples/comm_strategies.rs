//! Compare the COMM layer's strategies and transports on real transfers.
//!
//! Reproduces the *mechanism* behind Table 5: the same feature payload moves
//! through the shared-memory COMM and the ps-lite-style COMM-P under each
//! communication strategy; we print measured times, effective bandwidth,
//! and wire volume. Both come from link bytes — the payload bytes the
//! workers pulled and pushed (`Transport::wire_bytes`); the server's
//! publish and its view of each push are not link traffic, so GB/s is
//! "bytes that crossed a worker link per second". (Absolute numbers depend on this machine's memory
//! system; the orderings — COMM > COMM-P, Q ≫ P&Q, half-Q > Q — are the
//! paper's Table 5 shape.)
//!
//! ```sh
//! cargo run --release --example comm_strategies
//! ```

use hcc_comm::{CommP, CommShared, Precision, TransferStrategy, Transport};
use std::sync::Barrier;
use std::time::Instant;

fn main() {
    // Netflix-shaped payloads at k = 64 (scaled from the paper's 128 to
    // keep this example quick): Q is n×k, P&Q is (m+n)×k.
    let (m, n, k) = (480_190usize, 17_771usize, 64usize);
    let workers = 4;
    let rounds = 10; // pull+push per round

    println!(
        "payloads: P&Q = {:.1} MiB, Q = {:.1} MiB (FP32)",
        mib((m + n) * k),
        mib(n * k)
    );
    println!(
        "{:<8} {:<8} {:>10} {:>12} {:>12}",
        "comm", "strategy", "time", "bandwidth", "wire"
    );

    let mut comm_times = Vec::new();
    for strategy in TransferStrategy::ALL {
        let elems = match strategy {
            TransferStrategy::FullPq => (m + n) * k,
            TransferStrategy::QOnly | TransferStrategy::HalfQ => n * k,
        };
        let precision = if strategy.is_compressed() {
            Precision::Fp16
        } else {
            Precision::Fp32
        };
        let payload: Vec<f32> = (0..elems).map(|j| (j % 997) as f32 * 0.01).collect();

        // COMM: shared single-copy buffers.
        let shared = CommShared::new(workers, elems, elems, precision);
        let t = run(&shared, workers, rounds, &payload);
        comm_times.push(t);
        report("COMM", strategy, t, &shared);

        // COMM-P: serialize → channel → staging copies.
        let commp = CommP::new(workers, precision);
        let t = run(&commp, workers, rounds, &payload);
        report("COMM-P", strategy, t, &commp);
    }

    println!(
        "\nQ-only speedup over P&Q on COMM: {:.1}x (volume ratio (m+n)/n = {:.1}x)",
        comm_times[0] / comm_times[1],
        (m + n) as f64 / n as f64,
    );
    println!(
        "half-Q speedup over P&Q on COMM: {:.1}x",
        comm_times[0] / comm_times[2]
    );
}

/// `rounds` epochs of communication with persistent worker threads: the
/// server publishes, every worker pulls then pushes, the server merges each
/// push where it landed.
fn run(transport: &dyn Transport, workers: usize, rounds: usize, payload: &[f32]) -> f64 {
    let start_barrier = Barrier::new(workers + 1);
    let round_barrier = Barrier::new(workers + 1);
    let mut merged = vec![0f32; payload.len()];

    let mut elapsed = 0.0;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let transport = &transport;
            let start_barrier = &start_barrier;
            let round_barrier = &round_barrier;
            scope.spawn(move || {
                let mut local = vec![0f32; payload.len()];
                for _ in 0..rounds {
                    start_barrier.wait();
                    transport.pull(w, &mut local);
                    transport.push(w, &local);
                    round_barrier.wait();
                }
            });
        }
        let start = Instant::now();
        for _ in 0..rounds {
            transport.publish(payload);
            start_barrier.wait();
            for w in 0..workers {
                let merge = &mut |pushed: &[f32]| {
                    for (acc, v) in merged.iter_mut().zip(pushed) {
                        *acc += 0.25 * v;
                    }
                };
                transport
                    .collect_with(w, None, merge)
                    .expect("in-process links deliver every push");
            }
            round_barrier.wait();
        }
        elapsed = start.elapsed().as_secs_f64();
    });
    elapsed
}

fn report(name: &str, strategy: TransferStrategy, secs: f64, transport: &dyn Transport) {
    let wire = transport.wire_bytes();
    let bw = wire as f64 / secs / 1e9;
    println!(
        "{:<8} {:<8} {:>9.3}s {:>9.2} GB/s {:>9.1} MiB",
        name,
        strategy.label(),
        secs,
        bw,
        wire as f64 / (1024.0 * 1024.0),
    );
}

fn mib(elems: usize) -> f64 {
    elems as f64 * 4.0 / (1024.0 * 1024.0)
}
