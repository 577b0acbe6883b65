//! The serving engine: snapshot queries, pruned shard scans, hot reload.
//!
//! ## Snapshot discipline
//!
//! The live model is an `Arc<ServedModel>` behind a `parking_lot::RwLock`
//! that is only ever held long enough to clone or replace the `Arc` — never
//! across a scan. Every query (and every batch) clones the `Arc` once up
//! front and answers entirely from that snapshot, so:
//!
//! * a reload never blocks behind a long scan and a scan never observes a
//!   half-installed model (the swap is a single pointer store);
//! * a whole batch is answered against *one* model even if a reload lands
//!   mid-batch — no torn batches;
//! * the old model is freed when the last in-flight query drops its `Arc`.
//!
//! ## Query plan
//!
//! Every path — a single query, a batch, an admission micro-batch — runs
//! one tile-major scan (`scan_shard_batch`): a shard is walked in tiles
//! of `NORM_BLOCK` item rows, and while a tile sits in L1 every query of the
//! group scores it with the precision tier's multi-row dot kernel and
//! offers into its own size-`k` heap. The item matrix is streamed once per
//! query group instead of once per query; a single query is a group of one.
//! On a pruned model the rows come in descending-norm order with per-block
//! norm maxima, so once a query's heap is full the scan checks
//! `‖p_u‖ · block_norm < heap floor` per block and the query leaves the
//! group at the first block that cannot beat its floor — the Cauchy–Schwarz
//! bound makes the early exit *exact* (any remaining item's score is
//! bounded by the product of norms). On realistic factor distributions
//! this skips the large majority of items; [`ServeStats::scan_frac`]
//! reports the measured fraction actually scored.
//!
//! Calls on this type run the scan on the caller's thread; the concurrent
//! fan-out lives in [`crate::AdmissionPipeline`], which feeds persistent
//! per-shard workers through a bounded admission queue (replacing the old
//! per-batch `std::thread::scope` spawn, whose thread startup cost was
//! paid on every batch and whose unbounded concurrency collapsed tail
//! latency under overload).

use crate::error::ServeError;
use crate::foldin::{fold_in, FoldInConfig};
use crate::model::{ItemShard, ServedModel, ShardData, NORM_BLOCK};
use crate::topk::TopK;
use hcc_sgd::{int8, simd};
use hcc_sync::{Arc, AtomicU64, Mutex, Ordering, RwLock};
use hcc_telemetry::{Phase, Telemetry, Timeline};
use std::time::Instant;

/// Aggregate serving statistics since the engine was built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Queries answered (each user of a batch counts once).
    pub queries: u64,
    /// Completed hot reloads.
    pub reloads: u64,
    /// Median per-query latency, µs (0 with no traffic). Batch queries
    /// report amortized per-user latency.
    pub p50_us: u64,
    /// 99th-percentile per-query latency, µs.
    pub p99_us: u64,
    /// 99.9th-percentile per-query latency, µs.
    pub p999_us: u64,
    /// Queries per second over the engine's lifetime.
    pub qps: f64,
    /// Fraction of candidate items actually scored (scored ÷ scannable);
    /// `1 − scan_frac` is the pruning skip rate. 0 with no traffic.
    pub scan_frac: f64,
}

/// An in-process serving engine over an item-sharded factor snapshot.
pub struct ServeEngine {
    current: RwLock<Arc<ServedModel>>,
    telemetry: Telemetry,
    /// Bounded reservoir of per-query latencies in µs (amortized for
    /// batches). Serving-path bookkeeping, not hot relative to an
    /// `O(items · k)` scan. This mutex also serializes writes to the
    /// telemetry server lane — see [`ServeEngine::note_queries`].
    latencies: Mutex<LatencyReservoir>,
    queries: AtomicU64,
    reloads: AtomicU64,
    /// Items scored across all queries (pruned and seen items excluded).
    scanned: AtomicU64,
    /// Items an exhaustive scan would have visited (`model.items()` summed
    /// per query) — the denominator of [`ServeStats::scan_frac`].
    scannable: AtomicU64,
    started: Instant,
}

/// Fixed-memory uniform sample of per-query latencies (Vitter's
/// algorithm R). A serving process answers queries indefinitely, so the
/// stats store must not grow with traffic; a reservoir keeps percentile
/// estimates representative of the whole run in `CAP` slots. Runs
/// shorter than `CAP` queries (every test, most benches) see exact
/// percentiles because nothing has been evicted yet.
struct LatencyReservoir {
    sample: Vec<u64>,
    /// Total latencies offered, including evicted ones.
    seen: u64,
    /// xorshift64* state — cheap in-crate PRNG; determinism across runs
    /// is fine (this only picks eviction slots), seed must be nonzero.
    rng: u64,
}

impl LatencyReservoir {
    const CAP: usize = 4096;

    fn new() -> LatencyReservoir {
        LatencyReservoir {
            sample: Vec::new(),
            seen: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn record(&mut self, us: u64) {
        self.seen += 1;
        if self.sample.len() < Self::CAP {
            self.sample.push(us);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if (j as usize) < Self::CAP {
            self.sample[j as usize] = us;
        }
    }
}

/// A query row quantized for the int8 tier: symmetric per-row scale, and
/// the norm of the *dequantized* row — the scan scores
/// `scale_i·scale_u·⟨q_u, q_i⟩ = ⟨û, q̂_i⟩`, so the pruning bound must use
/// `‖û‖`, not `‖u‖`.
struct QuantRow {
    row: Vec<i8>,
    scale: f32,
    norm: f32,
}

impl QuantRow {
    fn new(row: &[f32]) -> QuantRow {
        let scale = int8::scale_for(row);
        let mut q = vec![0i8; row.len()];
        int8::quantize(row, scale, &mut q);
        let norm = scale * (int8::dot_i8_scalar(&q, &q) as f32).sqrt();
        QuantRow {
            row: q,
            scale,
            norm,
        }
    }
}

/// One query's state across the shards of a scan: its user row, its seen
/// items, its heap and its scored-item count.
///
/// The row in a tier's scoring representation is derived from the f32 row
/// where a shard of that tier is scanned (`float_norm`, `quant`) and kept
/// for the next shard, so a query can only ever be scored in the
/// representation the shard in hand stores.
pub(crate) struct QueryScan<'a> {
    row: &'a [f32],
    /// Ascending scan ranks (`ServedModel::seen_ranks`) of the items to
    /// skip, and not count as scored.
    seen: &'a [u32],
    /// The part of `seen` inside the shard being scanned that the scan has
    /// not passed yet.
    seen_ahead: &'a [u32],
    best: TopK,
    visited: u64,
    /// ‖row‖, the user-side norm of the f32 and fp16 tiers' bound.
    float_norm: Option<f32>,
    quant: Option<QuantRow>,
}

impl<'a> QueryScan<'a> {
    /// A query for the `count` best items of `row` outside `seen_ranks`
    /// (ascending scan ranks).
    pub(crate) fn new(row: &'a [f32], seen_ranks: &'a [u32], count: usize) -> QueryScan<'a> {
        QueryScan {
            row,
            seen: seen_ranks,
            seen_ahead: &[],
            best: TopK::new(count),
            visited: 0,
            float_norm: None,
            quant: None,
        }
    }

    /// The best-first answer and the number of items scored for it.
    pub(crate) fn finish(self) -> (Vec<(u32, f32)>, u64) {
        (self.best.into_sorted(), self.visited)
    }

    fn quant(&mut self) -> &QuantRow {
        let row = self.row;
        self.quant.get_or_insert_with(|| QuantRow::new(row))
    }

    /// ‖û‖ in the representation `data`'s tier scores in.
    fn norm(&mut self, data: &ShardData) -> f32 {
        match data {
            ShardData::F32(_) | ShardData::Fp16(_) => {
                let row = self.row;
                *self
                    .float_norm
                    .get_or_insert_with(|| simd::dot(row, row).sqrt())
            }
            ShardData::Int8 { .. } => self.quant().norm,
        }
    }

    /// Whether no row of a block whose largest stored norm is `block_norm`
    /// can enter this query's heap. Only a *full* heap has a floor to
    /// miss, and only a bound *strictly below* it may skip: a candidate
    /// tying the floor would need to be scored (equal scores win on
    /// smaller item id).
    fn cannot_enter(&mut self, data: &ShardData, block_norm: f32) -> bool {
        if !self.best.is_full() {
            return false;
        }
        match self.best.floor() {
            // k = 0: nothing can ever enter the heap.
            None => true,
            Some(floor) => self.norm(data) * block_norm < floor,
        }
    }

    /// Offers the unseen items of the tile at scan ranks `lo..lo + ids.len()`
    /// in scan order. Tiles of a shard arrive in ascending order, so the
    /// seen ranks of this tile are the head of `seen_ahead`.
    fn offer(&mut self, lo: u32, ids: &[u32], scores: &[f32]) {
        let mut seen = 0u64;
        while let Some((&rank, rest)) = self.seen_ahead.split_first() {
            if rank - lo >= ids.len() as u32 {
                break;
            }
            seen |= 1 << (rank - lo);
            self.seen_ahead = rest;
        }
        let mut unseen = !seen & (u64::MAX >> (TILE_BITS - ids.len()));
        self.visited += u64::from(unseen.count_ones());
        if let (true, Some(floor)) = (self.best.is_full(), self.best.floor()) {
            // The floor only rises, so a score below it now would be
            // refused by `TopK::offer` anyway; a tie or a NaN is left to it.
            let mut below = 0u64;
            for (i, &score) in scores.iter().enumerate() {
                below |= u64::from(score < floor) << i;
            }
            unseen &= !below;
        }
        while unseen != 0 {
            let i = unseen.trailing_zeros() as usize;
            unseen &= unseen - 1;
            self.best.offer(ids[i], scores[i]);
        }
    }
}

/// A tile's seen set is one `u64`, a bit per row.
const TILE_BITS: usize = u64::BITS as usize;
const _: () = assert!(NORM_BLOCK <= TILE_BITS);

impl ServeEngine {
    /// An engine serving `model`, with telemetry off.
    pub fn new(model: ServedModel) -> ServeEngine {
        ServeEngine::with_telemetry(model, Telemetry::disabled())
    }

    /// An engine recording a [`Phase::Query`] span per answered query on
    /// the given telemetry handle (use [`finish_telemetry`] to drain it).
    ///
    /// [`finish_telemetry`]: ServeEngine::finish_telemetry
    pub fn with_telemetry(model: ServedModel, telemetry: Telemetry) -> ServeEngine {
        ServeEngine {
            current: RwLock::new(Arc::new(model)),
            telemetry,
            latencies: Mutex::new(LatencyReservoir::new()),
            queries: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            scanned: AtomicU64::new(0),
            scannable: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The current model snapshot (queries in flight may still hold older
    /// snapshots).
    pub fn model(&self) -> Arc<ServedModel> {
        self.current.read().clone()
    }

    /// Atomically installs a new model; returns the reload count. Queries
    /// already running finish on the model they started with; the swap
    /// itself is a pointer store under a briefly held write lock, so there
    /// is zero query downtime. Validation happens in
    /// [`ServedModel::build`] — by the time a model exists it is servable,
    /// and a failed build/load leaves the old model in place untouched.
    pub fn reload(&self, model: ServedModel) -> u64 {
        let incoming = Arc::new(model);
        // The write guard lives for this statement only. When the engine
        // held the last reference, the outgoing model is freed — every shard
        // unmapped — by the drop below, with `current` readable again.
        let outgoing = std::mem::replace(&mut *self.current.write(), incoming);
        drop(outgoing);
        // ordering: Relaxed — reload counter is a statistic; the RwLock
        // write above is what publishes the new model.
        self.reloads.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Predicted score for `(user, item)` on the current snapshot, at the
    /// snapshot's storage precision.
    pub fn predict(&self, user: u32, item: u32) -> Result<f32, ServeError> {
        let model = self.model();
        let item_row = model.item_row(item)?;
        Ok(simd::dot(model.user_row(user)?, &item_row))
    }

    /// The `count` highest-scored unseen items for `user`, best first.
    pub fn top_k(&self, user: u32, count: usize) -> Result<Vec<(u32, f32)>, ServeError> {
        let model = self.model();
        let t0 = Instant::now();
        let (result, visited) = top_k_counted(&model, user, count)?;
        self.note_scan(visited, model.items() as u64);
        self.note_queries(1, t0);
        Ok(result)
    }

    /// Answers a batch of top-k queries against one snapshot, serially on
    /// the calling thread. Any unknown user fails the whole batch before
    /// any scoring work happens. For concurrent batch execution route
    /// through [`crate::AdmissionPipeline`], which keeps persistent
    /// per-shard workers instead of spawning threads per batch.
    pub fn top_k_batch(
        &self,
        users: &[u32],
        count: usize,
    ) -> Result<Vec<Vec<(u32, f32)>>, ServeError> {
        let model = self.model();
        let t0 = Instant::now();
        // Resolve every user row up front: validates the whole batch before
        // any scoring work.
        let mut queries = users
            .iter()
            .map(|&u| {
                Ok(QueryScan::new(
                    model.user_row(u)?,
                    model.seen_ranks(u),
                    count,
                ))
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        scan_model(&model, &mut queries);
        let (result, visited) = finish_all(queries);
        self.note_scan(visited, (users.len() * model.items()) as u64);
        self.note_queries(users.len() as u64, t0);
        Ok(result)
    }

    /// Folds an unseen user into the current snapshot: trains a fresh `P`
    /// row on `ratings` against the frozen `Q` and returns it (the model
    /// itself stays immutable). Feed the row to
    /// [`top_k_folded`](ServeEngine::top_k_folded).
    pub fn fold_in(
        &self,
        ratings: &[(u32, f32)],
        config: &FoldInConfig,
    ) -> Result<Vec<f32>, ServeError> {
        fold_in(&self.model(), ratings, config)
    }

    /// Top-k for a caller-supplied user row (typically from
    /// [`fold_in`](ServeEngine::fold_in)); `exclude` lists item ids to skip
    /// (the fold-in user's own ratings, in any order).
    pub fn top_k_folded(
        &self,
        user_row: &[f32],
        count: usize,
        exclude: &[u32],
    ) -> Result<Vec<(u32, f32)>, ServeError> {
        let model = self.model();
        if user_row.len() != model.k() {
            return Err(ServeError::DimMismatch(format!(
                "fold-in row has k={}, model has k={}",
                user_row.len(),
                model.k()
            )));
        }
        let t0 = Instant::now();
        let seen = model.scan_ranks(exclude);
        let (result, visited) = scan_one(&model, user_row, &seen, count);
        self.note_scan(visited, model.items() as u64);
        self.note_queries(1, t0);
        Ok(result)
    }

    /// Serving statistics so far. Percentiles come from a bounded
    /// uniform reservoir of per-query latencies (`LatencyReservoir`),
    /// exact until the reservoir first fills (4096 queries).
    pub fn stats(&self) -> ServeStats {
        let mut lat = self.latencies.lock().sample.clone();
        lat.sort_unstable();
        let pick = |p: f64| -> u64 {
            if lat.is_empty() {
                0
            } else {
                lat[((lat.len() - 1) as f64 * p) as usize]
            }
        };
        // ordering: Relaxed — statistics snapshot; counts may trail
        // in-flight queries by design.
        let queries = self.queries.load(Ordering::Relaxed);
        let reloads = self.reloads.load(Ordering::Relaxed);
        let scanned = self.scanned.load(Ordering::Relaxed);
        let scannable = self.scannable.load(Ordering::Relaxed);
        ServeStats {
            queries,
            reloads,
            p50_us: pick(0.50),
            p99_us: pick(0.99),
            p999_us: pick(0.999),
            qps: queries as f64 / self.started.elapsed().as_secs_f64().max(1e-9),
            scan_frac: if scannable == 0 {
                0.0
            } else {
                scanned as f64 / scannable as f64
            },
        }
    }

    /// Consumes the engine and drains its telemetry timeline (`None` if the
    /// engine was built with telemetry disabled).
    pub fn finish_telemetry(self) -> Option<Timeline> {
        self.telemetry.finish()
    }

    /// The engine's telemetry handle (for the admission pipeline's own
    /// lane writes; query spans keep going through
    /// [`note_queries`](Self::note_queries)).
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Adds to the scanned/scannable item counters behind
    /// [`ServeStats::scan_frac`].
    pub(crate) fn note_scan(&self, visited: u64, possible: u64) {
        // ordering: Relaxed — statistics counters; no other memory is
        // published through them.
        self.scanned.fetch_add(visited, Ordering::Relaxed);
        self.scannable.fetch_add(possible, Ordering::Relaxed);
    }

    /// Records `n` answered queries that together took `t0.elapsed()`.
    ///
    /// Telemetry spans are recorded while holding the `latencies` mutex:
    /// the server lane is a single-writer ring (`hcc-telemetry`'s safety
    /// protocol requires at most one writing thread at a time, with a
    /// happens-before edge between successive writers), and `ServeEngine`
    /// is `Sync` — queries run concurrently from many threads. The mutex
    /// provides exactly that exclusion and ordering; the final drain in
    /// [`finish_telemetry`](ServeEngine::finish_telemetry) is ordered
    /// because it consumes the engine by value.
    fn note_queries(&self, n: u64, t0: Instant) {
        let total_us = t0.elapsed().as_micros() as u64;
        let per_query = total_us / n.max(1);
        // ordering: Relaxed — query counter is a statistic; latency and
        // telemetry recording below are serialized by the mutex.
        self.queries.fetch_add(n, Ordering::Relaxed);
        let mut lat = self.latencies.lock();
        for _ in 0..n {
            lat.record(per_query);
        }
        if self.telemetry.is_enabled() {
            let lane = self.telemetry.server_lane();
            // Writer handoff: the mutex held above orders this thread
            // after the previous recording thread (debug builds assert
            // the discipline via the lane's owner check).
            self.telemetry.adopt_lane(lane);
            let start = self.telemetry.now_us().saturating_sub(total_us);
            for i in 0..n {
                self.telemetry.phase(
                    lane,
                    0,
                    i as u32,
                    Phase::Query,
                    start + i * per_query,
                    std::time::Duration::from_micros(per_query),
                );
            }
        }
    }

    /// Records individually measured per-query latencies (the admission
    /// pipeline measures enqueue→answer wall time per query, so tail
    /// percentiles include queue wait). Same server-lane serialization
    /// argument as [`note_queries`](Self::note_queries): the telemetry
    /// writes happen under the `latencies` mutex.
    pub(crate) fn note_latencies(&self, lat_us: &[u64]) {
        // ordering: Relaxed — statistics counter, as in `note_queries`.
        self.queries
            .fetch_add(lat_us.len() as u64, Ordering::Relaxed);
        let mut lat = self.latencies.lock();
        for &us in lat_us {
            lat.record(us);
        }
        if self.telemetry.is_enabled() {
            let lane = self.telemetry.server_lane();
            // Writer handoff under the mutex, as in `note_queries`.
            self.telemetry.adopt_lane(lane);
            let now = self.telemetry.now_us();
            for (i, &us) in lat_us.iter().enumerate() {
                self.telemetry.phase(
                    lane,
                    0,
                    i as u32,
                    Phase::Query,
                    now.saturating_sub(us),
                    std::time::Duration::from_micros(us),
                );
            }
        }
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let model = self.model();
        f.debug_struct("ServeEngine")
            .field("users", &model.users())
            .field("items", &model.items())
            .field("shards", &model.shard_count())
            .field("precision", &model.precision())
            // ordering: Relaxed — debug statistics.
            .field("queries", &self.queries.load(Ordering::Relaxed))
            .field("reloads", &self.reloads.load(Ordering::Relaxed))
            .finish()
    }
}

/// Single-query top-k on a snapshot, plus the number of items actually
/// scored (for the engine's scan-fraction statistic).
fn top_k_counted(
    model: &ServedModel,
    user: u32,
    count: usize,
) -> Result<(Vec<(u32, f32)>, u64), ServeError> {
    let row = model.user_row(user)?;
    Ok(scan_one(model, row, model.seen_ranks(user), count))
}

/// A batch of one: the answer for `row` and the number of items scored.
fn scan_one(
    model: &ServedModel,
    row: &[f32],
    seen_ranks: &[u32],
    count: usize,
) -> (Vec<(u32, f32)>, u64) {
    let mut query = [QueryScan::new(row, seen_ranks, count)];
    scan_model(model, &mut query);
    let [query] = query;
    query.finish()
}

/// Scans every shard of `model`, in order, for every query.
fn scan_model(model: &ServedModel, queries: &mut [QueryScan<'_>]) {
    for shard in model.shards() {
        scan_shard_batch(shard, model.pruned(), queries);
    }
}

/// The answers in query order, and the items scored for them in total.
pub(crate) fn finish_all(queries: Vec<QueryScan<'_>>) -> (Vec<Vec<(u32, f32)>>, u64) {
    let mut visited = 0u64;
    let answers = queries
        .into_iter()
        .map(|q| {
            let (answer, scored) = q.finish();
            visited += scored;
            answer
        })
        .collect();
    (answers, visited)
}

/// Bytes of L1 one tile plus the f32 rows of one query group may occupy:
/// three quarters of a 32 KiB L1d (half of a 48 KiB one), which leaves the
/// rest to the heaps, the seen lists and the stack.
const TILE_GROUP_BYTES: usize = 24 << 10;

/// Queries scored against one resident tile before the scan moves on: as
/// many f32 rows as fit beside a tile in [`TILE_GROUP_BYTES`] (32 at
/// k = 64), within `[MIN_GROUP, MAX_GROUP]` — wide rows still share each
/// tile fetch among a few queries out of L2, and narrow ones do not grow
/// the per-group state without bound.
fn group_len(k: usize) -> usize {
    let row_bytes = (k * std::mem::size_of::<f32>()).max(1);
    (TILE_GROUP_BYTES / row_bytes)
        .saturating_sub(NORM_BLOCK)
        .clamp(MIN_GROUP, MAX_GROUP)
}

const MIN_GROUP: usize = 8;
const MAX_GROUP: usize = 64;

/// Scores one shard for every query, tile-major: for each [`NORM_BLOCK`]
/// tile of item rows, every still-active query of a group scores the tile
/// while it is cache-resident and offers the unseen items into its own heap.
/// Queries are walked in groups of [`group_len`], so the shard is streamed
/// once per group rather than once per query; each query's items are still
/// scored in scan order, so its answer, its ties and its scored-item count
/// are those of scanning alone.
///
/// On a pruned model the shard's rows are in descending stored-norm order:
/// a query leaves its group at the first block its full heap's floor rules
/// out (see `QueryScan::cannot_enter`) — every later block's bound is no
/// larger — and rejoins at the next shard.
pub(crate) fn scan_shard_batch(shard: &ItemShard, pruned: bool, queries: &mut [QueryScan<'_>]) {
    let end = shard.start + shard.len as u32;
    for group in queries.chunks_mut(group_len(shard.k)) {
        // A row of another width cannot come from this shard's model
        // (callers resolve rows against the snapshot they scan); it scores
        // nothing rather than reaching the kernels' shape check.
        let mut active = [0u8; MAX_GROUP];
        let mut n_active = 0;
        for (qi, q) in group.iter_mut().enumerate() {
            if q.row.len() != shard.k {
                continue;
            }
            let lo = q.seen.partition_point(|&s| s < shard.start);
            let hi = q.seen.partition_point(|&s| s < end);
            q.seen_ahead = &q.seen[lo..hi];
            active[n_active] = qi as u8;
            n_active += 1;
        }
        for (tile, &block_norm) in shard.block_norms.iter().enumerate() {
            if pruned {
                let mut kept = 0;
                for i in 0..n_active {
                    if !group[active[i] as usize].cannot_enter(&shard.data, block_norm) {
                        active[kept] = active[i];
                        kept += 1;
                    }
                }
                n_active = kept;
            }
            if n_active == 0 {
                break;
            }
            for pair in active[..n_active].chunks(2) {
                match *pair {
                    [a, b] => {
                        let (head, rest) = group.split_at_mut(b as usize);
                        scan_tile(shard, tile, [&mut head[a as usize], &mut rest[0]]);
                    }
                    [a] => scan_tile(shard, tile, [&mut group[a as usize]]),
                    _ => {}
                }
            }
        }
    }
}

/// Scores tile `tile` of `shard` for `NQ` queries with one multi-row kernel
/// call, then lets each query offer the tile's unseen items.
fn scan_tile<const NQ: usize>(
    shard: &ItemShard,
    tile: usize,
    mut queries: [&mut QueryScan<'_>; NQ],
) {
    let lo = tile * NORM_BLOCK;
    let hi = (lo + NORM_BLOCK).min(shard.len);
    let (n, span) = (hi - lo, lo * shard.k..hi * shard.k);
    let mut scores = [[0.0f32; NORM_BLOCK]; NQ];
    let out = scores.each_mut().map(|s| &mut s[..n]);
    match &shard.data {
        ShardData::F32(d) => simd::dot_rows(queries.each_ref().map(|q| q.row), &d[span], out),
        ShardData::Fp16(d) => simd::dot_rows_f16(queries.each_ref().map(|q| q.row), &d[span], out),
        ShardData::Int8 { data, scale } => {
            let rows = queries.each_mut().map(|q| q.quant());
            let mut dots = [[0i32; NORM_BLOCK]; NQ];
            simd::dot_rows_i8(
                rows.each_ref().map(|r| &r.row[..]),
                &data[span],
                dots.each_mut().map(|d| &mut d[..n]),
            );
            for ((scores, dots), row) in out.into_iter().zip(&dots).zip(rows) {
                for (score, &dot) in scores.iter_mut().zip(dots) {
                    *score = (scale * row.scale) * dot as f32;
                }
            }
        }
    }
    for (q, scores) in queries.iter_mut().zip(&scores) {
        q.offer(shard.start + lo as u32, &shard.ids[lo..hi], &scores[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::naive_top_k;
    use crate::precision::Precision;
    use hcc_sgd::FactorMatrix;
    use hcc_sparse::{CooMatrix, CsrMatrix, Rating};

    fn model(users: usize, items: usize, k: usize, shards: usize) -> ServedModel {
        ServedModel::build(
            FactorMatrix::random(users, k, 5),
            FactorMatrix::random(items, k, 6),
            None,
            shards,
        )
        .unwrap()
    }

    #[test]
    fn sharded_matches_oracle_on_a_fixed_model() {
        let p = FactorMatrix::random(20, 8, 5);
        let q = FactorMatrix::random(90, 8, 6);
        let train = CooMatrix::new(
            20,
            90,
            (0..40)
                .map(|i| Rating::new(i % 20, (i * 7) % 90, 1.0))
                .collect(),
        )
        .unwrap();
        let engine =
            ServeEngine::new(ServedModel::build(p.clone(), q.clone(), Some(&train), 4).unwrap());
        let seen = CsrMatrix::from(&train);
        for user in [0u32, 7, 19] {
            let got = engine.top_k(user, 10).unwrap();
            let want = naive_top_k(&p, &q, Some(&seen), user, 10);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0, w.0, "user {user}: {got:?} vs {want:?}");
                assert!((g.1 - w.1).abs() <= 1e-4 * (1.0 + w.1.abs()));
            }
        }
    }

    /// Pruning is exact for f32: the pruned scan must return identical
    /// ranks to an exhaustive build of the same factors, while scanning
    /// strictly fewer items when norms are spread out.
    #[test]
    fn pruned_scan_is_exact_and_actually_prunes() {
        let p = FactorMatrix::random(8, 16, 3);
        let q_base = FactorMatrix::random(400, 16, 4);
        // Spread the norms (popularity-like skew) so pruning has leverage.
        let k = q_base.k();
        let data: Vec<f32> = (0..q_base.rows())
            .flat_map(|r| {
                let scale = 1.0 / (1.0 + r as f32 * 0.05);
                q_base
                    .row(r)
                    .iter()
                    .map(move |&x| x * scale)
                    .collect::<Vec<_>>()
            })
            .collect();
        let q = FactorMatrix::from_vec(400, k, data);
        let pruned = ServeEngine::new(
            ServedModel::build_with(p.clone(), q.clone(), None, 3, Precision::F32, true).unwrap(),
        );
        let exhaustive = ServeEngine::new(
            ServedModel::build_with(p.clone(), q.clone(), None, 3, Precision::F32, false).unwrap(),
        );
        for u in 0..8u32 {
            assert_eq!(
                pruned.top_k(u, 10).unwrap(),
                exhaustive.top_k(u, 10).unwrap()
            );
        }
        let (sp, se) = (pruned.stats(), exhaustive.stats());
        assert!((se.scan_frac - 1.0).abs() < 1e-9, "exhaustive scans all");
        assert!(
            sp.scan_frac < 0.8,
            "pruning should skip items on skewed norms: {}",
            sp.scan_frac
        );
    }

    #[test]
    fn duplicate_ratings_never_leak_seen_items() {
        // The same (user, item) pair twice in training data must not break
        // seen filtering: items rated *after* a duplicate stay filtered.
        let p = FactorMatrix::random(2, 4, 1);
        let q = FactorMatrix::random(8, 4, 2);
        let train = CooMatrix::new(
            2,
            8,
            vec![
                Rating::new(0, 3, 5.0),
                Rating::new(0, 3, 4.0), // duplicate of the pair above
                Rating::new(0, 6, 3.0), // later item that must stay hidden
            ],
        )
        .unwrap();
        let seen = CsrMatrix::from(&train);
        let model = ServedModel::build(p.clone(), q.clone(), Some(&train), 3).unwrap();
        let engine = ServeEngine::new(model);
        let got = engine.top_k(0, 8).unwrap();
        assert!(got.iter().all(|(i, _)| *i != 3 && *i != 6), "{got:?}");
        let want = naive_top_k(&p, &q, Some(&seen), 0, 8);
        let got_items: Vec<u32> = got.iter().map(|e| e.0).collect();
        let want_items: Vec<u32> = want.iter().map(|e| e.0).collect();
        assert_eq!(got_items, want_items);
    }

    /// 2 users, 3 items, k = 1: scores are products of scalars.
    #[test]
    fn hand_computed_predictions_and_rankings() {
        let p = FactorMatrix::from_vec(2, 1, vec![1.0, 2.0]);
        let q = FactorMatrix::from_vec(3, 1, vec![3.0, 1.0, 2.0]);
        let train =
            CooMatrix::new(2, 3, vec![Rating::new(0, 0, 5.0), Rating::new(1, 2, 4.0)]).unwrap();
        let engine = ServeEngine::new(ServedModel::build(p, q, Some(&train), 1).unwrap());
        assert_eq!((engine.model().users(), engine.model().items()), (2, 3));
        assert_eq!(engine.predict(0, 0), Ok(3.0));
        assert_eq!(engine.predict(1, 2), Ok(4.0));
        // User 0 has seen item 0; remaining scores: item1=1, item2=2.
        assert_eq!(engine.top_k(0, 2).unwrap(), vec![(2, 2.0), (1, 1.0)]);
        assert_eq!(engine.top_k(0, 10).unwrap().len(), 2);
        // User 1 has seen item 2; remaining: item0=6, item1=2.
        assert_eq!(engine.top_k(1, 1).unwrap(), vec![(0, 6.0)]);
    }

    #[test]
    fn batch_agrees_with_singles() {
        let engine = ServeEngine::new(model(16, 64, 8, 3));
        let users: Vec<u32> = (0..16).collect();
        let batch = engine.top_k_batch(&users, 5).unwrap();
        for &u in &users {
            assert_eq!(batch[u as usize], engine.top_k(u, 5).unwrap());
        }
    }

    #[test]
    fn unknown_user_is_typed_not_a_panic() {
        let engine = ServeEngine::new(model(4, 8, 2, 2));
        assert!(matches!(
            engine.top_k(4, 3),
            Err(ServeError::UnknownUser { user: 4, users: 4 })
        ));
        // A bad user anywhere in a batch fails the batch up front.
        assert!(engine.top_k_batch(&[0, 1, 99], 3).is_err());
        assert!(engine.predict(0, 999).is_err());
    }

    #[test]
    fn reload_swaps_model_for_new_queries() {
        let engine = ServeEngine::new(model(4, 8, 2, 2));
        let before = engine.top_k(0, 3).unwrap();
        // Same factor seeds, different shard count: answers must not move.
        let gen = engine.reload(model(4, 8, 2, 1));
        assert_eq!(gen, 1);
        assert_eq!(engine.top_k(0, 3).unwrap(), before);
        assert_eq!(engine.model().shard_count(), 1);
        assert_eq!(engine.stats().reloads, 1);
    }

    #[test]
    fn a_reload_frees_the_model_it_replaced_after_releasing_current() {
        use crate::model::DROP_PROBE;
        let engine = Arc::new(ServeEngine::new(model(4, 8, 2, 2)));
        // The engine holds the only reference, so `reload` itself drops the
        // outgoing model, on this thread; the probe asks whether a reader
        // could take `current` at that moment.
        let readable = std::rc::Rc::new(std::cell::Cell::new(None));
        let (probed, seen) = (engine.clone(), readable.clone());
        DROP_PROBE.with(|probe| {
            *probe.borrow_mut() = Some(Box::new(move || {
                seen.set(Some(probed.current.try_read().is_some()));
            }));
        });
        engine.reload(model(4, 8, 2, 1));
        drop(DROP_PROBE.with(|probe| probe.borrow_mut().take()));
        assert_eq!(
            readable.get(),
            Some(true),
            "the outgoing model was dropped under the write lock (or not at all)"
        );
    }

    #[test]
    fn stats_count_queries_and_percentiles() {
        let engine = ServeEngine::new(model(8, 32, 4, 2));
        for u in 0..8u32 {
            engine.top_k(u, 3).unwrap();
        }
        engine.top_k_batch(&[0, 1, 2, 3], 3).unwrap();
        let s = engine.stats();
        assert_eq!(s.queries, 12);
        assert!(s.qps > 0.0);
        assert!(s.p99_us >= s.p50_us);
        assert!(s.p999_us >= s.p99_us);
        assert!(s.scan_frac > 0.0 && s.scan_frac <= 1.0);
    }

    #[test]
    fn telemetry_records_one_query_span_per_answer() {
        use hcc_telemetry::{Event, Header};
        let t = Telemetry::enabled(
            Header {
                workers: 2,
                k: 4,
                nnz: 0,
                strategy: "serve".into(),
                streams: 1,
                backend: "test".into(),
                schedule: "serve".into(),
            },
            256,
        );
        let engine = ServeEngine::with_telemetry(model(8, 32, 4, 2), t);
        engine.top_k(0, 3).unwrap();
        engine.top_k_batch(&[1, 2, 3], 3).unwrap();
        let timeline = engine.finish_telemetry().unwrap();
        let queries = timeline
            .events
            .iter()
            .filter(|e| matches!(e, Event::Phase { phase, .. } if *phase == Phase::Query))
            .count();
        assert_eq!(queries, 4);
    }

    /// Concurrent queries + hot reloads must never observe a torn model.
    /// Every installed model has constant factors `c`, so with k=1 every
    /// score is exactly `c²` — a reader seeing anything else caught a
    /// half-swapped state. This test is part of the nightly TSan matrix
    /// (`cargo +nightly test -p hcc-serve --lib` with
    /// `-Zsanitizer=thread`).
    #[test]
    fn concurrent_queries_and_reloads_never_tear() {
        fn constant_model(c: f32) -> ServedModel {
            ServedModel::build(
                FactorMatrix::from_vec(4, 1, vec![c; 4]),
                FactorMatrix::from_vec(16, 1, vec![c; 16]),
                None,
                4,
            )
            .unwrap()
        }
        let generations: Vec<f32> = (1..=5).map(|g| g as f32).collect();
        let valid: Vec<f32> = generations.iter().map(|c| c * c).collect();
        let engine = ServeEngine::new(constant_model(generations[0]));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let top = engine.top_k(0, 3).unwrap();
                        assert_eq!(top.len(), 3);
                        let score = top[0].1;
                        assert!(
                            top.iter().all(|&(_, s)| s == score),
                            "one snapshot, one constant: {top:?}"
                        );
                        assert!(
                            valid.contains(&score),
                            "torn model: score {score} is no installed generation"
                        );
                    }
                });
            }
            scope.spawn(|| {
                for &c in &generations[1..] {
                    engine.reload(constant_model(c));
                    std::thread::yield_now();
                }
            });
        });
        assert_eq!(engine.stats().reloads, 4);
    }

    /// Concurrent queries on a telemetry-enabled engine all record onto
    /// the single-writer server lane; the engine must serialize those
    /// writes (they go through the latencies mutex). Runs under the
    /// nightly TSan matrix like the torn-model test above — a race here
    /// is UB, not just lost events.
    #[test]
    fn concurrent_telemetry_recording_is_serialized_and_lossless() {
        use hcc_telemetry::{Event, Header};
        let t = Telemetry::enabled(
            Header {
                workers: 2,
                k: 4,
                nnz: 0,
                strategy: "serve".into(),
                streams: 1,
                backend: "test".into(),
                schedule: "serve".into(),
            },
            8192,
        );
        let engine = ServeEngine::with_telemetry(model(8, 32, 4, 2), t);
        const THREADS: u32 = 4;
        const SINGLES: u64 = 25;
        const BATCHES: u64 = 5;
        std::thread::scope(|scope| {
            for w in 0..THREADS {
                let engine = &engine;
                scope.spawn(move || {
                    for i in 0..SINGLES {
                        engine.top_k(((w as u64 + i) % 8) as u32, 3).unwrap();
                    }
                    for _ in 0..BATCHES {
                        engine.top_k_batch(&[0, 1, 2, 3], 3).unwrap();
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..4 {
                    engine.reload(model(8, 32, 4, 1));
                    std::thread::yield_now();
                }
            });
        });
        let expect = THREADS as u64 * (SINGLES + BATCHES * 4);
        assert_eq!(engine.stats().queries, expect);
        let timeline = engine.finish_telemetry().unwrap();
        assert_eq!(timeline.dropped, 0, "lane sized above the workload");
        let spans = timeline
            .events
            .iter()
            .filter(|e| matches!(e, Event::Phase { phase, .. } if *phase == Phase::Query))
            .count();
        assert_eq!(spans as u64, expect, "one Query span per answer, none lost");
    }

    #[test]
    fn latency_reservoir_is_bounded_and_exact_when_small() {
        let mut r = LatencyReservoir::new();
        for us in 0..100u64 {
            r.record(us);
        }
        assert_eq!(r.sample.len(), 100, "below capacity nothing is evicted");
        assert_eq!(r.seen, 100);
        for us in 0..20_000u64 {
            r.record(us);
        }
        assert_eq!(r.sample.len(), LatencyReservoir::CAP);
        assert_eq!(r.seen, 20_100);
    }
}
