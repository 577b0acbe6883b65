//! Peak OS threads of a training run. A socket link is one serving thread,
//! so a run over TCP with a sharded server adds at most `p + p·(shards +
//! 1)` threads — `p` workers, and for each worker one thread a server shard
//! and one for the peer link it is handed bands over — and leaves none
//! behind. This is the only test of its binary, so no other test's threads
//! are counted.

use hcc_mf::{HccConfig, HccMf, PartitionMode, TransportKind, WorkerSpec};
use hcc_sparse::{GenConfig, SyntheticDataset};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The process's OS thread count, as the kernel reports it.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn a_sharded_tcp_run_adds_one_thread_a_link_and_leaves_none_behind() {
    let (p, shards) = (4, 2);
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 1_200,
        cols: 600,
        nnz: 30_000,
        planted_rank: 6,
        ..GenConfig::default()
    });
    let config = HccConfig::builder()
        .k(16)
        .epochs(6)
        .workers(vec![WorkerSpec::cpu(1); p])
        .partition(PartitionMode::Uniform)
        .adapt_epochs(0)
        .transport(TransportKind::Tcp)
        .server_shards(shards)
        .build();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            // ordering: Acquire — pairs with the Release store below; the
            // flag guards no data, so either would do.
            while !stop.load(Ordering::Acquire) {
                peak = peak.max(threads());
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        });
        // The sampler is counted here and in every sample.
        let before = threads();
        HccMf::new(config).train(&ds.matrix).unwrap();
        // A joined thread can be counted for a moment after its join.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut after = threads();
        while after != before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            after = threads();
        }
        // ordering: Release — pairs with the sampler's Acquire load.
        stop.store(true, Ordering::Release);
        let peak = sampler.join().unwrap();
        let bound = p + p * (shards + 1);
        assert!(
            peak - before <= bound,
            "the run peaked at {peak} threads, {} over the {before} before it; \
             at most {bound} expected",
            peak - before
        );
        assert_eq!(after, before, "the run left threads behind");
    });
}
