//! The immutable, item-sharded factor store behind a serving engine.
//!
//! A [`ServedModel`] is a *snapshot*: once built it never mutates, so any
//! number of query threads may scan it without synchronization, and hot
//! reload is a pointer swap to a freshly built snapshot (see
//! [`crate::ServeEngine`]).
//!
//! `Q` is cut into contiguous item ranges using the same planning machinery
//! the trainer uses to cut the rating matrix: per-shard fractions come from
//! [`hcc_partition::dp0`] (equal virtual speeds → balanced shards) and,
//! when the training matrix is available, the split points come from
//! [`GridPartition`] over the *item* axis so shards balance seen-item
//! filtering work, not just item counts.
//!
//! ## Precision tiers and norm ordering
//!
//! Within each shard, item rows are stored at a chosen [`Precision`] (f32,
//! fp16, or int8-with-per-shard-scale) and — when pruning is enabled —
//! *reordered by descending stored-representation norm* ‖q̂_i‖, with the
//! per-block maxima kept in `ItemShard::block_norms`. The Cauchy–Schwarz
//! bound `score(u, i) = p_u·q̂_i ≤ ‖p_u‖·‖q̂_i‖` then lets a scan stop at
//! the first block whose bound cannot beat the current top-k heap floor:
//! every later block has an even smaller norm. Norms are computed from the
//! *dequantized* rows — the same values the scan kernels actually dot
//! against — so the bound is valid per representation, and pruning is
//! exact (never drops a true top-k item) rather than approximate.

use crate::error::ServeError;
use crate::precision::Precision;
use hcc_partition::dp0;
use hcc_sgd::{int8, mem, simd, FactorMatrix};
use hcc_sparse::{Axis, CooMatrix, GridPartition};

/// Items per pruning block: one norm bound check amortized over this many
/// scored rows. 64 keeps the check overhead under 2% of block work at
/// k = 64 while still stopping within ~64 items of the ideal cut.
pub(crate) const NORM_BLOCK: usize = 64;

/// Quantized row storage for one shard, laid out position-major (position
/// = norm rank when pruning, item order otherwise).
#[derive(Debug, Clone)]
pub(crate) enum ShardData {
    /// Full-precision rows.
    F32(Vec<f32>),
    /// binary16-encoded rows.
    Fp16(Vec<u16>),
    /// Symmetric int8 rows sharing one scale.
    Int8 {
        /// Quantized values, `len · k` of them.
        data: Vec<i8>,
        /// Dequantization scale: `x̂ = q · scale`.
        scale: f32,
    },
}

/// One contiguous item shard: global items `start..start + len`, stored in
/// scan-position order with the id↔position maps needed because pruning
/// reorders rows by norm.
#[derive(Debug, Clone)]
pub(crate) struct ItemShard {
    /// First global item id in this shard.
    pub start: u32,
    /// Items in this shard.
    pub len: usize,
    /// Latent dimension (row stride).
    pub k: usize,
    /// Scan position → global item id (descending stored-rep norm when
    /// the model was built with pruning; ascending id otherwise).
    pub ids: Vec<u32>,
    /// Local item offset (`id - start`) → scan position; inverse of `ids`.
    pub pos: Vec<u32>,
    /// Per-block maximum stored-representation norm ‖q̂_i‖, one entry per
    /// [`NORM_BLOCK`] positions. With norm-descending order this is the
    /// first norm of each block, and the sequence is non-increasing.
    pub block_norms: Vec<f32>,
    /// The rows themselves, position-major.
    pub data: ShardData,
}

impl ItemShard {
    /// The row at scan position `pos`, dequantized to f32.
    pub fn row_f32(&self, pos: usize) -> Vec<f32> {
        let (lo, hi) = (pos * self.k, (pos + 1) * self.k);
        match &self.data {
            ShardData::F32(d) => d[lo..hi].to_vec(),
            ShardData::Fp16(d) => {
                let mut out = vec![0.0f32; self.k];
                simd::decode_f16(&d[lo..hi], &mut out);
                out
            }
            ShardData::Int8 { data, scale } => {
                let mut out = vec![0.0f32; self.k];
                int8::dequantize(&data[lo..hi], *scale, &mut out);
                out
            }
        }
    }
}

/// An immutable snapshot of a servable model: `P`, sharded `Q`, and the
/// seen-item matrix used to exclude already-rated items from top-k answers.
#[derive(Debug, Clone)]
pub struct ServedModel {
    p: FactorMatrix,
    shards: Vec<ItemShard>,
    items: usize,
    precision: Precision,
    pruned: bool,
    /// Per-user seen items from the training matrix (`None` = serve
    /// everything, nothing is filtered).
    seen: Option<SeenItems>,
}

#[cfg(test)]
thread_local! {
    /// Runs on this thread whenever it drops a [`ServedModel`]: how the
    /// engine's tests see *when* a reload frees the model it replaced.
    pub(crate) static DROP_PROBE: std::cell::RefCell<Option<Box<dyn Fn()>>> =
        const { std::cell::RefCell::new(None) };
}

#[cfg(test)]
impl Drop for ServedModel {
    fn drop(&mut self) {
        DROP_PROBE.with(|probe| {
            if let Some(probe) = probe.borrow().as_ref() {
                probe();
            }
        });
    }
}

/// What each user rated, sorted once at build time so a query borrows its
/// lists instead of sorting a copy: as item ids, and as *scan ranks* for the
/// scan's seen filter.
///
/// An item's scan rank is its shard's `start` plus its scan position in
/// that shard. Shards tile the id space contiguously, so the ranks of one
/// shard fill exactly its id range: a user's seen items of a shard are one
/// window of the user's ascending ranks, in the order the scan meets them.
#[derive(Debug, Clone)]
struct SeenItems {
    /// `items[row_ptr[u]..row_ptr[u + 1]]` and the same range of `ranks`
    /// are user `u`'s runs, each ascending.
    row_ptr: Vec<usize>,
    items: Vec<u32>,
    ranks: Vec<u32>,
}

impl SeenItems {
    fn build(train: &CooMatrix, shards: &[ItemShard]) -> SeenItems {
        // One counting sort over the ratings, ids only. Counts go in two
        // slots up so that, after the prefix sum, slot `u + 1` is the cursor
        // of user `u`'s run: when every id is placed it has reached the
        // run's end, which is where `u + 1`'s begins.
        let users = train.rows() as usize;
        let mut row_ptr = vec![0usize; users + 2];
        for e in train.entries() {
            row_ptr[e.u as usize + 2] += 1;
        }
        for u in 2..row_ptr.len() {
            row_ptr[u] += row_ptr[u - 1];
        }
        let mut items = vec![0u32; train.nnz()];
        for e in train.entries() {
            let at = &mut row_ptr[e.u as usize + 1];
            items[*at] = e.i;
            *at += 1;
        }
        row_ptr.pop();

        let mut ranks = Vec::with_capacity(items.len());
        for run in row_ptr.windows(2) {
            let (lo, hi) = (run[0], run[1]);
            items[lo..hi].sort_unstable();
            // An id past the catalogue (only an unchecked matrix has one)
            // keeps its slot with a rank no shard's window reaches.
            let rank = |&i: &u32| scan_rank(shards, i).unwrap_or(u32::MAX);
            ranks.extend(items[lo..hi].iter().map(rank));
            ranks[lo..hi].sort_unstable();
        }
        SeenItems {
            row_ptr,
            items,
            ranks,
        }
    }

    /// User `user`'s run of `of` (`items` or `ranks`); empty out of range.
    fn run<'a>(&self, of: &'a [u32], user: u32) -> &'a [u32] {
        match self.row_ptr.get(user as usize..).and_then(|p| p.get(..2)) {
            Some(&[lo, hi]) => &of[lo..hi],
            _ => &[],
        }
    }
}

/// The shard owning `item`, `None` past the catalogue.
fn owner(shards: &[ItemShard], item: u32) -> Option<&ItemShard> {
    // Shards are contiguous and sorted by `start`: the owner is the last
    // shard starting at or before `item`.
    let last = shards.partition_point(|s| s.start <= item).checked_sub(1)?;
    let shard = &shards[last];
    (((item - shard.start) as usize) < shard.len).then_some(shard)
}

/// `item`'s scan rank (see [`SeenItems`]), `None` past the catalogue.
fn scan_rank(shards: &[ItemShard], item: u32) -> Option<u32> {
    let shard = owner(shards, item)?;
    Some(shard.start + shard.pos[(item - shard.start) as usize])
}

impl ServedModel {
    /// Builds a full-precision snapshot with norm pruning enabled — the
    /// default configuration (pruning at f32 is exact, so there is no
    /// reason to serve without it). See [`build_with`](Self::build_with).
    pub fn build(
        p: FactorMatrix,
        q: FactorMatrix,
        train: Option<&CooMatrix>,
        shards: usize,
    ) -> Result<ServedModel, ServeError> {
        ServedModel::build_with(p, q, train, shards, Precision::F32, true)
    }

    /// Builds a snapshot from trained factors.
    ///
    /// `train`, when given, must match the factor shapes; its entries
    /// become the seen-item filter and weight the shard split. `shards` is
    /// clamped to `[1, items]` (an empty `Q` yields a single empty shard).
    /// `precision` selects the item-factor storage tier and `prune`
    /// enables the norm-descending reorder that powers the scan's
    /// Cauchy–Schwarz early exit (`prune = false` keeps items in id order
    /// and scans exhaustively — the bench baseline configuration).
    pub fn build_with(
        p: FactorMatrix,
        q: FactorMatrix,
        train: Option<&CooMatrix>,
        shards: usize,
        precision: Precision,
        prune: bool,
    ) -> Result<ServedModel, ServeError> {
        if p.k() != q.k() {
            return Err(ServeError::DimMismatch(format!(
                "P has k={}, Q has k={}",
                p.k(),
                q.k()
            )));
        }
        if let Some(t) = train {
            if t.rows() as usize != p.rows() || t.cols() as usize != q.rows() {
                return Err(ServeError::DimMismatch(format!(
                    "training matrix is {}×{} but P/Q are {}×{}",
                    t.rows(),
                    t.cols(),
                    p.rows(),
                    q.rows()
                )));
            }
        }
        mem::map_model_buffers();
        let items = q.rows();
        let shards = shards.clamp(1, items.max(1));
        let boundaries = plan_item_boundaries(items, shards, train);
        let shard_stores: Vec<ItemShard> = boundaries
            .windows(2)
            .map(|w| build_shard(&q, w[0], w[1], precision, prune))
            .collect();
        let seen = train.map(|t| SeenItems::build(t, &shard_stores));
        Ok(ServedModel {
            p,
            shards: shard_stores,
            items,
            precision,
            pruned: prune,
            seen,
        })
    }

    /// Number of users (`P` rows).
    #[inline]
    pub fn users(&self) -> usize {
        self.p.rows()
    }

    /// Number of items (`Q` rows across all shards).
    #[inline]
    pub fn items(&self) -> usize {
        self.items
    }

    /// Latent dimension.
    #[inline]
    pub fn k(&self) -> usize {
        self.p.k()
    }

    /// Item-factor storage tier this snapshot was built with.
    #[inline]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Whether scans may early-exit on the block-norm bound.
    #[inline]
    pub fn pruned(&self) -> bool {
        self.pruned
    }

    /// Number of item shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard item counts (diagnostics; sums to [`items`](Self::items)).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len).collect()
    }

    /// User `u`'s factor row, or a typed error past the last row.
    #[inline]
    pub fn user_row(&self, user: u32) -> Result<&[f32], ServeError> {
        if (user as usize) < self.p.rows() {
            Ok(self.p.row(user as usize))
        } else {
            Err(ServeError::UnknownUser {
                user,
                users: self.p.rows(),
            })
        }
    }

    /// Item `i`'s factor row (resolved through its shard and the scan
    /// permutation), dequantized to f32 — the values the scan kernels
    /// score against, which for quantized tiers differ from the trained
    /// row by the representation's rounding error.
    pub fn item_row(&self, item: u32) -> Result<Vec<f32>, ServeError> {
        let shard = self.shard_of(item)?;
        let pos = shard.pos[(item - shard.start) as usize] as usize;
        Ok(shard.row_f32(pos))
    }

    /// The shard owning `item`, or a typed error for an out-of-range id.
    fn shard_of(&self, item: u32) -> Result<&ItemShard, ServeError> {
        owner(&self.shards, item).ok_or(ServeError::UnknownItem {
            item,
            items: self.items,
        })
    }

    /// The items `user` rated during training, sorted ascending (empty when
    /// no training matrix was attached or `user` is out of range).
    pub fn seen_items(&self, user: u32) -> &[u32] {
        self.seen
            .as_ref()
            .map_or(&[], |seen| seen.run(&seen.items, user))
    }

    /// [`seen_items`](Self::seen_items) as ascending scan ranks, the form
    /// the scan filters on.
    pub(crate) fn seen_ranks(&self, user: u32) -> &[u32] {
        self.seen
            .as_ref()
            .map_or(&[], |seen| seen.run(&seen.ranks, user))
    }

    /// The scan ranks of `items` (any order, ids past the catalogue
    /// dropped), ascending — a caller-supplied seen list in the scan's form.
    pub(crate) fn scan_ranks(&self, items: &[u32]) -> Vec<u32> {
        let mut ranks: Vec<u32> = items
            .iter()
            .filter_map(|&i| scan_rank(&self.shards, i))
            .collect();
        ranks.sort_unstable();
        ranks
    }

    #[inline]
    pub(crate) fn shards(&self) -> &[ItemShard] {
        &self.shards
    }
}

/// Builds one shard over global items `start..end` from the rows where they
/// lie in `q`: encodes them at `precision` into the store the shard keeps,
/// computes per-row stored-representation norms, orders the rows by them
/// (identity when `prune` is off) and folds the norms into per-block maxima.
/// Beside `q` and that one store, nothing of the shard's size exists at any
/// point: f32 rows are gathered from `q` straight into scan order, quantized
/// ones are encoded once and then reordered where they stand.
fn build_shard(
    q: &FactorMatrix,
    start: u32,
    end: u32,
    precision: Precision,
    prune: bool,
) -> ItemShard {
    let (lo, hi) = (start as usize, end as usize);
    let len = hi - lo;
    let k = q.k();
    let rows = &q.as_slice()[lo * k..hi * k];

    // The store in *original* order (f32: `q` itself stands in for it), and
    // the norms the scan's bound must use: of the rows as stored, i.e.
    // dequantized.
    let (mut data, norms): (ShardData, Vec<f32>) = match precision {
        Precision::F32 => {
            let norms = rows
                .chunks_exact(k)
                .map(|row| simd::dot(row, row).sqrt())
                .collect();
            (ShardData::F32(Vec::new()), norms)
        }
        Precision::Fp16 => {
            let mut enc = vec![0u16; rows.len()];
            simd::encode_f16(rows, &mut enc);
            let mut dec = vec![0.0f32; k];
            let norms = enc
                .chunks_exact(k)
                .map(|row| {
                    simd::decode_f16(row, &mut dec);
                    simd::dot(&dec, &dec).sqrt()
                })
                .collect();
            (ShardData::Fp16(enc), norms)
        }
        Precision::Int8 => {
            let scale = int8::scale_for(rows);
            let mut enc = vec![0i8; rows.len()];
            int8::quantize(rows, scale, &mut enc);
            let norms = enc
                .chunks_exact(k)
                .map(|row| scale * (int8::dot_i8_scalar(row, row) as f32).sqrt())
                .collect();
            (ShardData::Int8 { data: enc, scale }, norms)
        }
    };

    // Scan permutation: descending norm (ties toward the smaller id so
    // builds are deterministic), or identity for exhaustive models.
    let mut perm: Vec<u32> = (0..len as u32).collect();
    if prune {
        perm.sort_by(|&a, &b| {
            norms[b as usize]
                .total_cmp(&norms[a as usize])
                .then(a.cmp(&b))
        });
    }
    let mut pos = vec![0u32; len];
    for (p_idx, &local) in perm.iter().enumerate() {
        pos[local as usize] = p_idx as u32;
    }

    // Rows into permuted, position-major storage.
    match &mut data {
        ShardData::F32(out) => {
            out.reserve_exact(rows.len());
            for &local in &perm {
                let r = local as usize;
                out.extend_from_slice(&rows[r * k..(r + 1) * k]);
            }
        }
        ShardData::Fp16(enc) => permute_rows(enc, &perm, k),
        ShardData::Int8 { data: enc, .. } => permute_rows(enc, &perm, k),
    }

    let block_norms: Vec<f32> = perm
        .chunks(NORM_BLOCK)
        .map(|block| {
            block
                .iter()
                .fold(0.0f32, |m, &local| m.max(norms[local as usize]))
        })
        .collect();

    // The permutation becomes the position → id map where it stands.
    let mut ids = perm;
    for id in &mut ids {
        *id += start;
    }

    ItemShard {
        start,
        len,
        k,
        ids,
        pos,
        block_norms,
        data,
    }
}

/// Reorders the `k`-wide rows of `data` where they stand: row `i` becomes
/// what row `perm[i]` was. Each cycle of the permutation is walked once,
/// through one held row.
fn permute_rows<T: Copy + Default>(data: &mut [T], perm: &[u32], k: usize) {
    let mut placed = vec![false; perm.len()];
    let mut held = vec![T::default(); k];
    for first in 0..perm.len() {
        if placed[first] {
            continue;
        }
        held.copy_from_slice(&data[first * k..(first + 1) * k]);
        let mut to = first;
        loop {
            placed[to] = true;
            let from = perm[to] as usize;
            if from == first {
                data[to * k..(to + 1) * k].copy_from_slice(&held);
                break;
            }
            data.copy_within(from * k..(from + 1) * k, to * k);
            to = from;
        }
    }
}

/// Plans `shards + 1` item boundaries. With a training matrix the split
/// follows the entry distribution over the item axis (so the per-shard
/// seen-filtering work balances); otherwise items are split evenly. Target
/// fractions come from DP0 with equal virtual speeds.
fn plan_item_boundaries(items: usize, shards: usize, train: Option<&CooMatrix>) -> Vec<u32> {
    let fractions = dp0(&vec![1.0; shards]);
    match train {
        Some(t) if t.nnz() > 0 && t.cols() as usize == items => {
            GridPartition::boundaries(t, Axis::Col, &fractions)
        }
        _ => {
            let mut b = Vec::with_capacity(shards + 1);
            let mut acc = 0.0f64;
            b.push(0u32);
            for f in &fractions[..shards - 1] {
                acc += f;
                b.push((acc * items as f64).round() as u32);
            }
            b.push(items as u32);
            b
        }
    }
}

/// The builders this module replaced, kept as the oracle of the in-place
/// ones: a shard assembled from a flattened copy of its rows (encode all,
/// then gather), and the seen lists read off a CSR copy of the ratings.
#[cfg(test)]
mod reference {
    use super::*;
    use hcc_sparse::CsrMatrix;

    pub fn build_shard(
        q: &FactorMatrix,
        start: u32,
        end: u32,
        precision: Precision,
        prune: bool,
    ) -> ItemShard {
        let (lo, hi) = (start as usize, end as usize);
        let len = hi - lo;
        let k = q.k();
        let flat: Vec<f32> = (lo..hi).flat_map(|r| q.row(r).iter().copied()).collect();
        let (data, norms): (ShardData, Vec<f32>) = match precision {
            Precision::F32 => {
                let norms = (0..len)
                    .map(|r| simd::dot(&flat[r * k..(r + 1) * k], &flat[r * k..(r + 1) * k]).sqrt())
                    .collect();
                (ShardData::F32(flat.clone()), norms)
            }
            Precision::Fp16 => {
                let mut enc = vec![0u16; flat.len()];
                simd::encode_f16(&flat, &mut enc);
                let mut dec = vec![0.0f32; flat.len()];
                simd::decode_f16(&enc, &mut dec);
                let norms = (0..len)
                    .map(|r| simd::dot(&dec[r * k..(r + 1) * k], &dec[r * k..(r + 1) * k]).sqrt())
                    .collect();
                (ShardData::Fp16(enc), norms)
            }
            Precision::Int8 => {
                let scale = int8::scale_for(&flat);
                let mut enc = vec![0i8; flat.len()];
                int8::quantize(&flat, scale, &mut enc);
                let norms = (0..len)
                    .map(|r| {
                        let row = &enc[r * k..(r + 1) * k];
                        scale * (int8::dot_i8_scalar(row, row) as f32).sqrt()
                    })
                    .collect();
                (ShardData::Int8 { data: enc, scale }, norms)
            }
        };
        let mut perm: Vec<u32> = (0..len as u32).collect();
        if prune {
            perm.sort_by(|&a, &b| {
                norms[b as usize]
                    .total_cmp(&norms[a as usize])
                    .then(a.cmp(&b))
            });
        }
        let mut pos = vec![0u32; len];
        for (p_idx, &local) in perm.iter().enumerate() {
            pos[local as usize] = p_idx as u32;
        }
        let ids: Vec<u32> = perm.iter().map(|&local| start + local).collect();
        let data = match data {
            ShardData::F32(src) => ShardData::F32(gather(&src, &perm, k)),
            ShardData::Fp16(src) => ShardData::Fp16(gather(&src, &perm, k)),
            ShardData::Int8 { data: src, scale } => ShardData::Int8 {
                data: gather(&src, &perm, k),
                scale,
            },
        };
        let block_norms: Vec<f32> = (0..len.div_ceil(NORM_BLOCK))
            .map(|b| {
                let blo = b * NORM_BLOCK;
                let bhi = (blo + NORM_BLOCK).min(len);
                perm[blo..bhi]
                    .iter()
                    .fold(0.0f32, |m, &local| m.max(norms[local as usize]))
            })
            .collect();
        ItemShard {
            start,
            len,
            k,
            ids,
            pos,
            block_norms,
            data,
        }
    }

    fn gather<T: Copy>(src: &[T], perm: &[u32], k: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(src.len());
        for &local in perm {
            let r = local as usize;
            out.extend_from_slice(&src[r * k..(r + 1) * k]);
        }
        out
    }

    /// `(row_ptr, items, ranks)` of the seen lists.
    pub fn seen_items(train: &CooMatrix, shards: &[ItemShard]) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
        let csr = CsrMatrix::from(train);
        let mut items = Vec::with_capacity(csr.nnz());
        let mut ranks = Vec::with_capacity(csr.nnz());
        for u in 0..csr.rows() {
            let lo = items.len();
            items.extend_from_slice(csr.row(u).0);
            items[lo..].sort_unstable();
            let rank = |&i: &u32| scan_rank(shards, i).unwrap_or(u32::MAX);
            ranks.extend(items[lo..].iter().map(rank));
            ranks[lo..].sort_unstable();
        }
        (csr.row_ptr().to_vec(), items, ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_sparse::{GenConfig, Rating, SyntheticDataset};

    fn factors(users: usize, items: usize, k: usize) -> (FactorMatrix, FactorMatrix) {
        (
            FactorMatrix::random(users, k, 11),
            FactorMatrix::random(items, k, 22),
        )
    }

    #[test]
    fn shards_cover_items_contiguously() {
        let (p, q) = factors(10, 103, 8);
        let m = ServedModel::build(p, q.clone(), None, 4).unwrap();
        assert_eq!(m.shard_count(), 4);
        assert_eq!(m.shard_sizes().iter().sum::<usize>(), 103);
        // Every item row resolves to exactly the global Q row, through the
        // norm permutation.
        for i in 0..103u32 {
            assert_eq!(m.item_row(i).unwrap(), q.row(i as usize));
        }
    }

    #[test]
    fn item_rows_resolve_under_every_precision_and_ordering() {
        let (p, q) = factors(4, 61, 8);
        for precision in [Precision::F32, Precision::Fp16, Precision::Int8] {
            for prune in [false, true] {
                let m = ServedModel::build_with(p.clone(), q.clone(), None, 3, precision, prune)
                    .unwrap();
                assert_eq!(m.precision(), precision);
                assert_eq!(m.pruned(), prune);
                for i in 0..61u32 {
                    let got = m.item_row(i).unwrap();
                    let want = q.row(i as usize);
                    // Quantized rows differ by bounded rounding only.
                    let tol = match precision {
                        Precision::F32 => 0.0,
                        Precision::Fp16 => 1e-3,
                        Precision::Int8 => 0.05,
                    };
                    for (g, w) in got.iter().zip(want) {
                        assert!(
                            (g - w).abs() <= tol,
                            "{precision:?} prune={prune} item {i}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_shards_store_norms_descending_per_block() {
        let (_, q) = factors(1, 100, 8);
        let m = ServedModel::build(FactorMatrix::random(1, 8, 1), q, None, 2).unwrap();
        for shard in m.shards() {
            // Block norms are non-increasing (blocks ordered by norm rank).
            for w in shard.block_norms.windows(2) {
                assert!(w[0] >= w[1], "block norms must descend: {w:?}");
            }
            // ids/pos are inverse permutations.
            for (p_idx, &id) in shard.ids.iter().enumerate() {
                assert_eq!(shard.pos[(id - shard.start) as usize] as usize, p_idx);
            }
            // Per-row norms never exceed their block's stored maximum.
            for (p_idx, _) in shard.ids.iter().enumerate() {
                let row = shard.row_f32(p_idx);
                let n = row.iter().map(|x| x * x).sum::<f32>().sqrt();
                let b = shard.block_norms[p_idx / NORM_BLOCK];
                assert!(n <= b + 1e-5, "pos {p_idx}: norm {n} > block bound {b}");
            }
        }
    }

    /// Everything a scan reads of a shard, as bits.
    fn bits(shard: &ItemShard) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
        let data = match &shard.data {
            ShardData::F32(d) => d.iter().map(|x| x.to_bits()).collect(),
            ShardData::Fp16(d) => d.iter().map(|&x| u32::from(x)).collect(),
            ShardData::Int8 { data, scale } => std::iter::once(scale.to_bits())
                .chain(data.iter().map(|&x| x as u8 as u32))
                .collect(),
        };
        let norms = shard.block_norms.iter().map(|x| x.to_bits()).collect();
        (shard.ids.clone(), shard.pos.clone(), norms, data)
    }

    #[test]
    fn shards_built_in_place_equal_the_flattened_reference() {
        // 200 items: more than one norm block a shard, and a last block
        // that is not full. `k = 1` is the degenerate row.
        for k in [1, 8, 19] {
            let q = FactorMatrix::random(200, k, 31 + k as u64);
            // One to three shards, and an empty shard in the middle.
            for cuts in [vec![0, 200], vec![0, 77, 200], vec![0, 64, 64, 200]] {
                for precision in [Precision::F32, Precision::Fp16, Precision::Int8] {
                    for prune in [false, true] {
                        for w in cuts.windows(2) {
                            let got = build_shard(&q, w[0], w[1], precision, prune);
                            let want = reference::build_shard(&q, w[0], w[1], precision, prune);
                            assert_eq!((got.start, got.len, got.k), (want.start, want.len, k));
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "k={k} {precision:?} prune={prune} items {w:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn seen_lists_equal_the_csr_built_reference() {
        let data = SyntheticDataset::generate(GenConfig {
            rows: 90,
            cols: 150,
            nnz: 2_000,
            item_skew: 1.2,
            ..GenConfig::default()
        });
        let (p, q) = factors(90, 150, 4);
        for shards in 1..=3 {
            let m = ServedModel::build(p.clone(), q.clone(), Some(&data.matrix), shards).unwrap();
            let seen = m.seen.as_ref().unwrap();
            let (row_ptr, items, ranks) = reference::seen_items(&data.matrix, m.shards());
            assert_eq!(seen.row_ptr, row_ptr);
            assert_eq!(seen.items, items);
            assert_eq!(seen.ranks, ranks);
        }
    }

    #[test]
    fn more_shards_than_items_clamps() {
        let (p, q) = factors(3, 2, 4);
        let m = ServedModel::build(p, q, None, 9).unwrap();
        assert_eq!(m.shard_count(), 2);
        assert_eq!(m.items(), 2);
    }

    #[test]
    fn dim_mismatch_is_typed() {
        let p = FactorMatrix::random(3, 4, 1);
        let q = FactorMatrix::random(5, 8, 2);
        assert!(matches!(
            ServedModel::build(p, q, None, 2),
            Err(ServeError::DimMismatch(_))
        ));
        let (p, q) = factors(3, 5, 4);
        let train = CooMatrix::new(4, 5, vec![]).unwrap(); // 4 != 3 users
        assert!(ServedModel::build(p, q, Some(&train), 2).is_err());
    }

    #[test]
    fn out_of_range_lookups_are_typed() {
        let (p, q) = factors(3, 5, 4);
        let m = ServedModel::build(p, q, None, 2).unwrap();
        assert!(matches!(
            m.user_row(3),
            Err(ServeError::UnknownUser { user: 3, users: 3 })
        ));
        assert!(matches!(m.item_row(5), Err(ServeError::UnknownItem { .. })));
    }

    #[test]
    fn seen_items_come_back_sorted() {
        let (p, q) = factors(2, 6, 4);
        let train = CooMatrix::new(
            2,
            6,
            vec![
                Rating::new(0, 5, 1.0),
                Rating::new(0, 1, 1.0),
                Rating::new(0, 3, 1.0),
            ],
        )
        .unwrap();
        let m = ServedModel::build(p, q, Some(&train), 3).unwrap();
        assert_eq!(m.seen_items(0), vec![1, 3, 5]);
        assert!(m.seen_items(1).is_empty());
        assert!(m.seen_items(99).is_empty());
    }

    #[test]
    fn skewed_training_matrix_shifts_shard_boundaries() {
        // All entries on the first 10 items: an entry-weighted split gives
        // the first shard fewer items than an even split would.
        let (p, q) = factors(4, 100, 4);
        let mut entries = Vec::new();
        for u in 0..4u32 {
            for i in 0..10u32 {
                entries.push(Rating::new(u, i, 1.0));
            }
        }
        let train = CooMatrix::new(4, 100, entries).unwrap();
        let m = ServedModel::build(p, q, Some(&train), 2).unwrap();
        let sizes = m.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        assert!(
            sizes[0] < 50,
            "entry-weighted split should pull the boundary left: {sizes:?}"
        );
    }
}
