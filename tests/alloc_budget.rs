//! Allocation budget of the epoch loop: every region-sized buffer is
//! allocated where its owner is built — the session, its workers, the
//! endpoints — so an epoch after the first allocates no block as large as
//! one shard's payload, on any thread, over any wire.
//!
//! Deterministic and clock-free: a counting `#[global_allocator]` compares
//! a one-epoch run with a five-epoch run of the same configuration. The
//! data is the sparse regime the wire path matters in (`Q` is 128 KiB, a
//! worker's shard of ratings 24 KiB), so nothing but a region, a frame or a
//! delta reaches the threshold. One `#[test]`: the counter is process-wide.

use hcc_mf::{
    HccConfig, HccMf, LearningRate, PartitionMode, TransferStrategy, TransportKind, WorkerSpec,
};
use hcc_sparse::{GenConfig, SyntheticDataset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

const COLS: usize = 2_048;
const K: usize = 16;
/// One shard's payload on the wire: half of `Q`'s rows at four bytes an
/// element (`Tcp` × 2 shards), or all of them at two (`HalfQ`).
const THRESHOLD: usize = COLS / 2 * K * 4;

static BIG_BLOCKS: AtomicU64 = AtomicU64::new(0);

struct Counting;

impl Counting {
    fn note(size: usize) {
        if size >= THRESHOLD {
            // ordering: Relaxed — a count read after the run's threads joined.
            BIG_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the only addition is a relaxed counter increment.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Blocks of at least `THRESHOLD` bytes one `train` call allocates.
fn big_blocks(config: HccConfig, dataset: &SyntheticDataset) -> u64 {
    // ordering: Relaxed — see `Counting::note`.
    let before = BIG_BLOCKS.load(Ordering::Relaxed);
    HccMf::new(config).train(&dataset.matrix).unwrap();
    // ordering: Relaxed — see `Counting::note`.
    BIG_BLOCKS.load(Ordering::Relaxed) - before
}

#[test]
fn epochs_after_the_first_allocate_no_region_sized_block() {
    let dataset = SyntheticDataset::generate(GenConfig {
        rows: 3_000,
        cols: COLS as u32,
        nnz: 4_000,
        planted_rank: 4,
        noise: 0.0,
        ..GenConfig::default()
    });
    let base = |epochs: usize| {
        HccConfig::builder()
            .k(K)
            .epochs(epochs)
            .learning_rate(LearningRate::Constant(0.02))
            .workers(vec![WorkerSpec::cpu(1), WorkerSpec::cpu(1)])
            .partition(PartitionMode::Uniform)
            .adapt_epochs(0)
            .track_rmse(false)
    };
    type Case = (
        &'static str,
        fn(hcc_mf::HccConfigBuilder) -> hcc_mf::HccConfigBuilder,
    );
    let cases: [Case; 3] = [
        ("tcp x 2 shards", |b| {
            b.transport(TransportKind::Tcp).server_shards(2)
        }),
        ("socket x half-q", |b| {
            b.transport(TransportKind::Socket)
                .strategy(TransferStrategy::HalfQ)
        }),
        ("shared x 2 streams", |b| {
            b.transport(TransportKind::Shared).streams(2)
        }),
    ];
    for (name, with) in cases {
        let one = big_blocks(with(base(1)).build(), &dataset);
        let five = big_blocks(with(base(5)).build(), &dataset);
        assert!(one > 0, "{name}: the counter saw no set-up allocation");
        assert_eq!(
            five,
            one,
            "{name}: epochs 2..=5 allocated {} blocks of >= {THRESHOLD} bytes",
            five.saturating_sub(one)
        );
    }
}
