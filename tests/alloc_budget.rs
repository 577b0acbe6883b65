//! Allocation budget of a training session: every region-sized buffer is
//! allocated where its owner is built — the session, its workers, the
//! endpoints — so an epoch after the first allocates no block as large as
//! one shard's payload, on any thread, over any wire; and what the session
//! holds at its peak is one `P`, one `Q` a worker and the ratings twice.
//!
//! Deterministic and clock-free: a counting `#[global_allocator]` compares
//! a one-epoch run with a five-epoch run of the same configuration, and
//! keeps the high-water mark of live bytes (allocated − freed). The data is
//! the sparse regime the wire path matters in (`Q` is 1 MiB, a worker's
//! shard of ratings 24 KiB), so nothing but a region, a shard's slot or a
//! delta reaches the threshold, and a shard's frame is longer than the
//! block a socket link streams it through. One socket link is also
//! measured on its own, at three region sizes. The counters are
//! process-wide: the tests take [`COUNTERS`] in turn.
//!
//! The second half budgets the rest of the lifecycle the same way, on a
//! model of [`MODEL`] bytes: a checkpoint crosses the disk through one
//! block, and a serving model is built with nothing of `Q`'s size beside
//! `Q` and the shards it becomes.

use hcc_comm::{CommSocket, Precision as CommPrecision, Transport};
use hcc_mf::{
    load_checkpoint, load_model, reload_from_checkpoint, save_model, HccConfig, HccConfigBuilder,
    HccError, HccMf, LearningRate, PartitionMode, TransferStrategy, TransportKind, WorkerSpec,
};
use hcc_serve::{Precision, ServeEngine, ServedModel};
use hcc_sgd::FactorMatrix;
use hcc_sparse::{GenConfig, SyntheticDataset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const ROWS: usize = 20_000;
const COLS: usize = 16_384;
const NNZ: usize = 4_000;
const K: usize = 16;
/// One shard's payload on the wire: half of `Q`'s rows at four bytes an
/// element (`Tcp` × 2 shards), or all of them at two (`HalfQ`).
const THRESHOLD: usize = COLS / 2 * K * 4;

static BIG_BLOCKS: AtomicU64 = AtomicU64::new(0);
/// The largest single block asked for since the counter was last zeroed.
static LARGEST: AtomicU64 = AtomicU64::new(0);
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
        // ordering: Relaxed — statistics read after the run's threads
        // joined. Wrapping add of the difference: `LIVE` never goes below 0.
        LARGEST.fetch_max(new as u64, Ordering::Relaxed);
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

/// Bytes by which `run` raises the live heap at its highest, the largest
/// block it asks for, and what it returns (still alive, so that dropping it
/// is not part of the measurement).
fn peak_of<T>(run: impl FnOnce() -> T) -> (u64, u64, T) {
    // ordering: Relaxed — see `Counting::note`; no other thread is running.
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    let out = run();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    (peak, LARGEST.load(Ordering::Relaxed), out)
}

/// Bytes by which one `train` call raises the live heap at its highest.
fn peak_live_bytes(config: HccConfig, dataset: &SyntheticDataset) -> u64 {
    peak_of(|| HccMf::new(config).train(&dataset.matrix).unwrap()).0
}

fn dataset() -> SyntheticDataset {
    dataset_of(ROWS, COLS)
}

/// [`NNZ`] ratings of a `rows × cols` matrix.
fn dataset_of(rows: usize, cols: usize) -> SyntheticDataset {
    SyntheticDataset::generate(GenConfig {
        rows: rows as u32,
        cols: cols as u32,
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
/// endpoints hold, in units of `R` (`Q`'s bytes at f32). At this shape a
/// link's block (`hcc_comm::block::BLOCK`, 256 KiB) is a quarter of `R`.
const CASES: [Case; 3] = [
    // ShardedServer: published, rebuilt, encoded (3 R). Each of two links
    // carries half of `Q`: published H and 2 slots H — 3 H a link — plus a
    // block each end a worker (4 blocks = R a link). A push is a row
    // delta, which can run to 1 + 1/K of its rows (the indices), on three
    // of those R.
    (
        "tcp x 2 shards",
        |b| b.transport(TransportKind::Tcp).server_shards(2),
        3.0 + 3.0 + 2.0 + 0.25,
    ),
    // One link at two bytes an element on the wire: published R, 2 slots
    // R, and a block each side a worker (4 blocks = R; the fp16 frame is
    // R/2, twice a block).
    (
        "socket x half-q",
        |b| {
            b.transport(TransportKind::Socket)
                .strategy(TransferStrategy::HalfQ)
        },
        3.0 + 1.0,
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

#[test]
fn a_socket_link_holds_its_regions_and_one_block_a_worker_at_each_end() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    const W: usize = 2;
    const LINK_SMALL: u64 = 16 * 1_024;
    let block = hcc_comm::block::BLOCK;
    // A frame inside one block, one a block and a half long, one of
    // sixteen blocks: the link's own buffers must not grow with it.
    for elems in [block / 16, 3 * block / 8, 4 * block] {
        let mut local = vec![0.25f32; elems];
        let (peak, _, link) = peak_of(|| {
            let t = CommSocket::new_tcp(W, elems, elems, CommPrecision::Fp32).unwrap();
            t.publish(&local);
            for w in 0..W {
                t.pull(w, &mut local);
                t.push(w, &local);
                t.collect(w, &mut local);
            }
            t
        });
        assert_eq!(link.wire_bytes(), (2 * W * elems * 4) as u64);
        drop(link);
        // `published` and a slot a worker, all f32; one block a worker at
        // each end, a whole frame when that is smaller.
        let regions = ((1 + W) * elems * 4) as u64;
        let blocks = (2 * W * block.min(elems * 4 + 24)) as u64;
        assert!(
            peak >= regions && peak <= regions + blocks + LINK_SMALL,
            "{elems} elements: the link peaked at {peak} live bytes; regions {regions}, \
             blocks {blocks}: {} over",
            peak as i64 - (regions + blocks) as i64
        );
    }
}

// ------------------------------------------------------------------------
// checkpoint → load → build → serve
// ------------------------------------------------------------------------

const USERS: usize = 16_384;
const ITEMS: usize = 131_072;
/// `P` (1 MiB) and `Q` (8 MiB) at f32: what a checkpoint of the model holds.
const P_BYTES: u64 = (USERS * K * 4) as u64;
const Q_BYTES: u64 = (ITEMS * K * 4) as u64;
const MODEL: u64 = P_BYTES + Q_BYTES;
/// The checkpoint codec's one buffer.
const BLOCK: u64 = hcc_comm::block::BLOCK as u64;
/// Everything small a phase allocates: paths, error strings, `k`-sized
/// scratch rows, per-shard headers.
const SMALL: u64 = 16 * 1_024;

fn model() -> (FactorMatrix, FactorMatrix) {
    (
        FactorMatrix::random(USERS, K, 1),
        FactorMatrix::random(ITEMS, K, 2),
    )
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("hcc_alloc_budget");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// What a built model keeps of `Q` at `precision`: the encoded rows, the
/// two id ↔ position maps and a norm a block of 64.
fn stored_bytes(precision: Precision) -> u64 {
    let element = match precision {
        Precision::F32 => 4,
        Precision::Fp16 => 2,
        Precision::Int8 => 1,
    };
    (ITEMS * K * element + 2 * ITEMS * 4 + ITEMS / 64 * 4) as u64
}

#[test]
fn a_checkpoint_crosses_the_disk_through_one_block() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (p, q) = model();
    let path = tmp("one_block.hccmf");

    let (peak, largest, saved) = peak_of(|| save_model(&path, &p, &q));
    saved.unwrap();
    assert!(
        largest < MODEL / 8,
        "save_model allocated a block of {largest} bytes; the model is {MODEL}"
    );
    assert!(peak <= BLOCK + SMALL, "save_model peaked at {peak} bytes");

    let (peak, _, loaded) = peak_of(|| load_checkpoint(&path));
    let loaded = loaded.unwrap();
    assert_eq!((loaded.p.rows(), loaded.q.rows()), (USERS, ITEMS));
    assert!(
        peak <= MODEL + 2 * BLOCK,
        "load_checkpoint peaked at {peak} bytes for a model of {MODEL}: {:.2} models over",
        (peak - MODEL - 2 * BLOCK) as f64 / MODEL as f64
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn an_absurd_header_is_refused_before_anything_is_allocated_for_it() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    // A v1 file (no CRC to catch it) of 3×2 and 2×2 factors that claims
    // 2^60 rows of `P`.
    let mut bytes = b"HCCMF1\n".to_vec();
    for dim in [1u64 << 60, 2, 2] {
        bytes.extend_from_slice(&dim.to_le_bytes());
    }
    bytes.extend_from_slice(&[0u8; (3 * 2 + 2 * 2) * 4]);
    let path = tmp("absurd.hccmf");
    std::fs::write(&path, &bytes).unwrap();
    let (peak, largest, loaded) = peak_of(|| load_checkpoint(&path));
    assert!(matches!(loaded, Err(HccError::CorruptCheckpoint(_))));
    assert!(
        peak <= SMALL && largest <= SMALL,
        "refusing the header took {peak} live bytes, {largest} in one block"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_serving_model_is_built_with_nothing_of_qs_size_beside_q_and_the_shards() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let train = dataset_of(USERS, ITEMS);
    for precision in [Precision::F32, Precision::Fp16, Precision::Int8] {
        for shards in [1, 3] {
            let (p, q) = model();
            // `P` and `Q` are alive before the build and through it.
            let (peak, _, built) = peak_of(|| {
                ServedModel::build_with(p, q, Some(&train.matrix), shards, precision, true)
            });
            built.unwrap();
            let seen = (NNZ * 8 + (USERS + 2) * 8) as u64;
            let budget = stored_bytes(precision) + seen + Q_BYTES / 10;
            assert!(
                peak <= budget,
                "{precision} x {shards}: build_with peaked {peak} bytes over P + Q, budget {budget}: \
                 {:.2} Q over",
                (peak - budget) as f64 / Q_BYTES as f64
            );
        }
    }
}

#[test]
fn a_reload_beside_a_live_engine_peaks_at_one_incoming_model() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (p, q) = model();
    let path = tmp("reload.hccmf");
    save_model(&path, &p, &q).unwrap();
    drop((p, q));
    for precision in [Precision::F32, Precision::Int8] {
        let (p, q) = load_model(&path).unwrap();
        let engine =
            ServeEngine::new(ServedModel::build_with(p, q, None, 2, precision, true).unwrap());
        // The old model is alive before the reload and until the swap; the
        // incoming one costs its factors, its shards and the build's slack.
        let (peak, _, reloaded) = peak_of(|| reload_from_checkpoint(&engine, &path, None, 2));
        assert_eq!(reloaded.unwrap(), 1);
        let budget = MODEL + stored_bytes(precision) + Q_BYTES / 10;
        assert!(
            peak <= budget,
            "{precision}: a reload peaked {peak} bytes over the serving model, budget {budget}: \
             {:.2} Q over",
            (peak - budget) as f64 / Q_BYTES as f64
        );
    }
    std::fs::remove_file(&path).ok();
}
