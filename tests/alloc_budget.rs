//! Allocation budget of a training session: every region-sized buffer is
//! allocated where its owner is built — the session, its workers, the
//! endpoints — so an epoch after the first allocates no block as large as
//! one shard's payload, on any thread, over any wire; and what the session
//! holds at its peak is one `P`, one `Q` a worker and the ratings twice.
//!
//! Deterministic and clock-free: a counting `#[global_allocator]` compares
//! a one-epoch run with a five-epoch run of the same configuration, and
//! keeps the high-water mark of live bytes (allocated − freed). The data is
//! the sparse regime the wire path matters in (`Q` is 128 KiB, a worker's
//! shard of ratings 24 KiB), so nothing but a region, a frame or a delta
//! reaches the threshold. The counters are process-wide: the tests take
//! [`COUNTERS`] in turn.

use hcc_mf::{
    HccConfig, HccConfigBuilder, HccMf, LearningRate, PartitionMode, TransferStrategy,
    TransportKind, WorkerSpec,
};
use hcc_sparse::{GenConfig, SyntheticDataset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const ROWS: usize = 3_000;
const COLS: usize = 2_048;
const NNZ: usize = 4_000;
const K: usize = 16;
/// One shard's payload on the wire: half of `Q`'s rows at four bytes an
/// element (`Tcp` × 2 shards), or all of them at two (`HalfQ`).
const THRESHOLD: usize = COLS / 2 * K * 4;

static BIG_BLOCKS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and the most that ever was.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Serialises the tests: one run's counts must not land in another's.
static COUNTERS: Mutex<()> = Mutex::new(());

struct Counting;

impl Counting {
    /// A block of `old` bytes (0: none) became one of `new` bytes (0: none).
    fn note(old: usize, new: usize) {
        if new >= THRESHOLD {
            // ordering: Relaxed — a count read after the run's threads joined.
            BIG_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        // ordering: Relaxed — two statistics read after the run's threads
        // joined. Wrapping add of the difference: `LIVE` never goes below 0.
        let grown = (new as u64).wrapping_sub(old as u64);
        let live = LIVE.fetch_add(grown, Ordering::Relaxed).wrapping_add(grown);
        if new > old {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the only addition is relaxed counter arithmetic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(0, layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(0, layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(layout.size(), new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::note(layout.size(), 0);
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

/// Bytes by which one `train` call raises the live heap at its highest.
fn peak_live_bytes(config: HccConfig, dataset: &SyntheticDataset) -> u64 {
    // ordering: Relaxed — see `Counting::note`; no other thread is running.
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    HccMf::new(config).train(&dataset.matrix).unwrap();
    PEAK.load(Ordering::Relaxed) - before
}

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(GenConfig {
        rows: ROWS as u32,
        cols: COLS as u32,
        nnz: NNZ,
        planted_rank: 4,
        noise: 0.0,
        ..GenConfig::default()
    })
}

fn base(epochs: usize) -> HccConfigBuilder {
    HccConfig::builder()
        .k(K)
        .epochs(epochs)
        .learning_rate(LearningRate::Constant(0.02))
        .workers(vec![WorkerSpec::cpu(1), WorkerSpec::cpu(1)])
        .partition(PartitionMode::Uniform)
        .adapt_epochs(0)
        .track_rmse(false)
}

type Case = (&'static str, fn(HccConfigBuilder) -> HccConfigBuilder, f64);

/// The three wires the budgets are pinned over, with what each one's
/// endpoints hold, in units of `R` (`Q`'s bytes at f32).
const CASES: [Case; 3] = [
    // ShardedServer: published, rebuilt, encoded (3 R); each of two links
    // carries half of `Q`: published H, 2 slots H, server and client wire
    // buffers 2 H each a worker — 7 H a link. A push is a row delta, which
    // can run to 1 + 1/K of its rows (the indices), on eight of those R.
    (
        "tcp x 2 shards",
        |b| b.transport(TransportKind::Tcp).server_shards(2),
        3.0 + 7.0 + 0.5,
    ),
    // One link at two bytes an element on the wire: published R, 2 slots R,
    // and an fp16 wire buffer each side a worker (4 H).
    (
        "socket x half-q",
        |b| {
            b.transport(TransportKind::Socket)
                .strategy(TransferStrategy::HalfQ)
        },
        3.0 + 2.0,
    ),
    // Two chunk endpoints of R/2: published and 2 slots each.
    (
        "shared x 2 streams",
        |b| b.transport(TransportKind::Shared).streams(2),
        3.0,
    ),
];

#[test]
fn epochs_after_the_first_allocate_no_region_sized_block() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = dataset();
    for (name, with, _) in CASES {
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

#[test]
fn a_session_holds_one_p_one_q_a_worker_and_the_ratings_twice() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = dataset();
    let r = (COLS * K * 4) as f64;
    let p = (ROWS * K * 4) as f64;
    let ratings = (NNZ * std::mem::size_of::<hcc_sparse::Rating>()) as f64;
    for (name, with, wire) in CASES {
        let peak = peak_live_bytes(with(base(2)).build(), &dataset) as f64;
        // `P` once; `Q`, its merge accumulator and one region a worker;
        // `work` and the fleet's shards; the wire; and a tenth of `R` for
        // everything small (row counts of the grid, thread handles, frames'
        // headers, the report).
        let budget = p + (2.0 + 2.0) * r + 2.0 * ratings + wire * r + 0.1 * r;
        assert!(
            peak <= budget,
            "{name}: peak live heap {peak} bytes, budget {budget} (R = {r}, P = {p}, \
             ratings = {ratings}): {:.2} R over",
            (peak - budget) / r
        );
        // The budget is tight: a second `P`, or a second `Q` a worker,
        // would not fit in it.
        assert!(
            peak > budget - r,
            "{name}: peak {peak} is more than R under {budget}; tighten the budget"
        );
    }
}

#[test]
fn a_run_that_repartitions_peaks_no_higher_than_one_epoch() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = dataset();
    // A 2:1 fleet under `Auto`: the five-epoch run re-plans after each of
    // its first three epochs, and a re-plan frees the old fleet's ratings,
    // regions and endpoints before it builds their successors.
    let auto = |epochs: usize| {
        base(epochs)
            .workers(vec![WorkerSpec::cpu(1), WorkerSpec::cpu(1).throttled(0.5)])
            .partition(PartitionMode::Auto)
            .adapt_epochs(3)
            .transport(TransportKind::Tcp)
            .build()
    };
    let one = peak_live_bytes(auto(1), &dataset);
    let five = peak_live_bytes(auto(5), &dataset);
    // What five epochs add to one is the report's per-epoch rows.
    let bookkeeping = 4 * 1_024;
    assert!(
        five <= one + bookkeeping,
        "five epochs with repartitions peak at {five} bytes, one epoch at {one}"
    );
}
