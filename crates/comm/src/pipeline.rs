//! Asynchronous computing–transmission pipeline (Strategy 3, §3.4).
//!
//! The paper hides pull/push latency behind computation by running several
//! CUDA-stream-style "pull → compute → push" pipelines per worker. The CPU
//! analog here is a three-stage thread pipeline connected by *bounded*
//! channels whose capacity plays the role of the stream count: at most
//! `streams` chunks are in flight, pulls for chunk `s+1` overlap computation
//! of chunk `s`, and pushes trail behind — so, as Fig. 6 puts it,
//! transmission cost drops toward `1/streams` of its synchronous value
//! while compute time is unchanged.

use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// Per-stage busy times and wall-clock of one pipelined epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineStats {
    /// Chunks processed.
    pub chunks: usize,
    /// Total time the pull stage spent working.
    pub pull_busy: Duration,
    /// Total time the compute stage spent working.
    pub compute_busy: Duration,
    /// Total time the push stage spent working.
    pub push_busy: Duration,
    /// End-to-end wall-clock time of the pipeline.
    pub wall: Duration,
}

/// Runs `chunks` work items through a pull → compute → push pipeline with at
/// most `streams` chunks in flight per stage boundary.
///
/// Stage closures receive the chunk index; `pull` produces the chunk's
/// input, `compute` transforms it, `push` consumes the result. Ordering is
/// preserved (chunk `s` completes each stage before `s+1` enters it), which
/// matches the in-order semantics of a single CUDA stream per pipeline.
///
/// # Panics
/// Panics if `streams == 0` or a stage panics (propagated).
pub fn run_pipeline<T, U, P, C, S>(
    chunks: usize,
    streams: usize,
    mut pull: P,
    mut compute: C,
    mut push: S,
) -> PipelineStats
where
    T: Send,
    U: Send,
    P: FnMut(usize) -> T + Send,
    C: FnMut(usize, T) -> U + Send,
    S: FnMut(usize, U) + Send,
{
    assert!(streams > 0, "stream count must be non-zero");
    let (pull_tx, pull_rx) = sync_channel::<(usize, T)>(streams);
    let (comp_tx, comp_rx) = sync_channel::<(usize, U)>(streams);

    let start = Instant::now();
    let (pull_busy, compute_busy, push_busy) = std::thread::scope(|scope| {
        let puller = scope.spawn(move || {
            let mut busy = Duration::ZERO;
            for s in 0..chunks {
                let t0 = Instant::now();
                let item = pull(s);
                busy += t0.elapsed();
                if pull_tx.send((s, item)).is_err() {
                    break; // downstream panicked; unwind quietly
                }
            }
            busy
        });
        let computer = scope.spawn(move || {
            let mut busy = Duration::ZERO;
            for (s, item) in pull_rx.iter() {
                let t0 = Instant::now();
                let out = compute(s, item);
                busy += t0.elapsed();
                if comp_tx.send((s, out)).is_err() {
                    break;
                }
            }
            busy
        });
        let pusher = scope.spawn(move || {
            let mut busy = Duration::ZERO;
            for (s, out) in comp_rx.iter() {
                let t0 = Instant::now();
                push(s, out);
                busy += t0.elapsed();
            }
            busy
        });
        (
            puller
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            computer
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            pusher
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e)),
        )
    });

    PipelineStats {
        chunks,
        pull_busy,
        compute_busy,
        push_busy,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn processes_all_chunks_in_order() {
        let order = parking_lot::Mutex::new(Vec::new());
        let stats = run_pipeline(
            10,
            3,
            |s| s * 2,
            |s, x| {
                assert_eq!(x, s * 2);
                x + 1
            },
            |s, y| {
                assert_eq!(y, s * 2 + 1);
                order.lock().push(s);
            },
        );
        assert_eq!(stats.chunks, 10);
        assert_eq!(*order.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_chunks_is_noop() {
        let stats = run_pipeline(0, 2, |_| (), |_, _| (), |_, _| ());
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.pull_busy, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "stream count")]
    fn zero_streams_panics() {
        run_pipeline(1, 0, |_| (), |_, _| (), |_, _| ());
    }

    #[test]
    fn overlap_hides_transfer_time() {
        // pull/push sleep 5ms each, compute sleeps 10ms, 8 chunks, 4 streams.
        // Synchronous cost would be 8·(5+10+5) = 160ms; pipelined should be
        // ≈ 8·10 + 2·5 = 90ms. Assert well under the synchronous bound.
        let naptime = Duration::from_millis(5);
        let stats = run_pipeline(
            8,
            4,
            |_| std::thread::sleep(naptime),
            |_, _| std::thread::sleep(2 * naptime),
            |_, _| std::thread::sleep(naptime),
        );
        let sync_cost = Duration::from_millis(160);
        assert!(stats.wall < sync_cost * 3 / 4, "wall {:?}", stats.wall);
        // Fraction of transfer time hidden behind compute.
        let exposed = stats.wall.saturating_sub(stats.compute_busy);
        let hidden =
            1.0 - exposed.as_secs_f64() / (stats.pull_busy + stats.push_busy).as_secs_f64();
        assert!(hidden > 0.5, "hidden {hidden}");
    }

    #[test]
    fn bounded_streams_limit_in_flight_chunks() {
        // With streams = 1 the puller can run at most 2 chunks ahead of the
        // pusher (one in each channel slot); verify the high-water mark.
        let pulled = AtomicUsize::new(0);
        let pushed = AtomicUsize::new(0);
        let max_gap = AtomicUsize::new(0);
        run_pipeline(
            16,
            1,
            |_| {
                let gap = pulled.fetch_add(1, Ordering::SeqCst) + 1 - pushed.load(Ordering::SeqCst);
                max_gap.fetch_max(gap, Ordering::SeqCst);
            },
            |_, _| std::thread::sleep(Duration::from_micros(200)),
            |_, _| {
                pushed.fetch_add(1, Ordering::SeqCst);
            },
        );
        // 1 slot in each channel + 1 in each stage = at most 4 in flight.
        assert!(
            max_gap.load(Ordering::SeqCst) <= 4,
            "gap {}",
            max_gap.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn stats_busy_times_accumulate() {
        let stats = run_pipeline(
            4,
            2,
            |_| std::thread::sleep(Duration::from_millis(2)),
            |_, _| std::thread::sleep(Duration::from_millis(2)),
            |_, _| std::thread::sleep(Duration::from_millis(2)),
        );
        assert!(stats.pull_busy >= Duration::from_millis(8));
        assert!(stats.compute_busy >= Duration::from_millis(8));
        assert!(stats.push_busy >= Duration::from_millis(8));
        assert!(stats.wall >= Duration::from_millis(8));
    }
}
