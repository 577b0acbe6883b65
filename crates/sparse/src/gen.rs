//! Synthetic dataset generation.
//!
//! The paper evaluates on Netflix, Yahoo! Music R1/R1*/R2 and MovieLens-20m,
//! none of which are redistributable. We generate datasets from a *planted
//! low-rank model*: draw ground-truth factors `P*` (m×k0) and `Q*` (k0×n),
//! sample observed cells with Zipf-skewed user and item popularity (real
//! rating data is heavily skewed), and set
//! `r_ui = clamp(p*_u · q*_i + noise, scale)`.
//!
//! Because ratings come from a genuinely low-rank signal, SGD-based MF must
//! converge on them — which is exactly the property the convergence
//! experiments (Fig. 7) need — while the Zipf skew reproduces the uneven row
//! weights that stress the grid partitioner.

use crate::coo::{CooMatrix, Rating};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration for the synthetic generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Users (rows of `R`).
    pub rows: u32,
    /// Items (columns of `R`).
    pub cols: u32,
    /// Observed entries to sample.
    pub nnz: usize,
    /// Rank of the planted factors.
    pub planted_rank: usize,
    /// Zipf exponent for user popularity (0 = uniform).
    pub user_skew: f64,
    /// Zipf exponent for item popularity (0 = uniform).
    pub item_skew: f64,
    /// Standard deviation of additive observation noise.
    pub noise: f32,
    /// Ratings are clamped to `[scale_min, scale_max]`.
    pub scale_min: f32,
    /// See `scale_min`.
    pub scale_max: f32,
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            rows: 1_000,
            cols: 500,
            nnz: 20_000,
            planted_rank: 8,
            user_skew: 1.0,
            item_skew: 1.0,
            noise: 0.1,
            scale_min: 1.0,
            scale_max: 5.0,
            seed: 0x5eed,
        }
    }
}

/// A generated dataset: the rating matrix plus the planted ground truth
/// (useful for oracle evaluations in tests).
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The observed rating matrix.
    pub matrix: CooMatrix,
    /// Planted user factors, row-major `rows × planted_rank`.
    pub true_p: Vec<f32>,
    /// Planted item factors, row-major `cols × planted_rank`.
    pub true_q: Vec<f32>,
    /// The configuration that produced this dataset.
    pub config: GenConfig,
}

impl SyntheticDataset {
    /// Generates a dataset from `config`. Deterministic in `config.seed`.
    ///
    /// Duplicate `(u, i)` draws are rejected against a `CellSet` of seen
    /// pairs, so the result has exactly `min(nnz, feasible)` distinct cells.
    /// Rejection is *not* rare: both marginals are Zipf, so the popular
    /// corner fills early, and on the five benchmark shapes (480 000–640 000
    /// cells at 0.1–1.6 % density) 42–61 % of all draws are duplicates —
    /// 1.64 M attempts for 640 000 cells on 50 000 × 800. The loop is
    /// therefore built to cost O(1) per *attempt*: a guide-table inverse CDF
    /// (`ZipfSampler::index_of`) and, for the 65–86 % of attempts that land
    /// in the samplers' hot corner, one bit of an L2-sized bitmap; the rest
    /// take one multiplicative-hash probe. It stays sequential because every
    /// accept draws the rating's noise from the same stream, so the RNG
    /// position of draw `t + 1` depends on whether draw `t` was accepted.
    pub fn generate(config: GenConfig) -> SyntheticDataset {
        assert!(
            config.rows > 0 && config.cols > 0,
            "dimensions must be non-zero"
        );
        assert!(config.planted_rank > 0, "planted rank must be non-zero");
        assert!(
            config.scale_min <= config.scale_max,
            "scale_min must not exceed scale_max"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let k = config.planted_rank;

        // Planted factors scaled so dot products land mid-scale on average:
        // E[p·q] ≈ k·mean², choose mean = sqrt(mid/k).
        let mid = 0.5 * (config.scale_min + config.scale_max);
        let amp = (mid.max(0.25) / k as f32).sqrt();
        let mut true_p = vec![0f32; config.rows as usize * k];
        let mut true_q = vec![0f32; config.cols as usize * k];
        for v in true_p.iter_mut() {
            *v = amp * (0.5 + rng.random::<f32>());
        }
        for v in true_q.iter_mut() {
            *v = amp * (0.5 + rng.random::<f32>());
        }

        let user_sampler = ZipfSampler::new(config.rows as usize, config.user_skew);
        let item_sampler = ZipfSampler::new(config.cols as usize, config.item_skew);

        let capacity = config.rows as u64 * config.cols as u64;
        let want = (config.nnz as u64).min(capacity) as usize;
        let mut seen = CellSet::new(&user_sampler, &item_sampler, want);
        let mut entries = Vec::with_capacity(want);
        // Rejection sampling on distinct cells. If the target density is high
        // the rejection rate climbs, so cap attempts and backfill by scanning.
        let mut attempts = 0u64;
        let max_attempts = (want as u64).saturating_mul(20).max(1024);
        while entries.len() < want && attempts < max_attempts {
            attempts += 1;
            let u = user_sampler.sample(&mut rng) as u32;
            let i = item_sampler.sample(&mut rng) as u32;
            if !seen.insert(u, i) {
                continue;
            }
            entries.push(make_rating(u, i, &true_p, &true_q, k, &config, &mut rng));
        }
        if entries.len() < want {
            // Dense regime: fill remaining cells deterministically.
            'fill: for u in 0..config.rows {
                for i in 0..config.cols {
                    if entries.len() >= want {
                        break 'fill;
                    }
                    if seen.insert(u, i) {
                        entries.push(make_rating(u, i, &true_p, &true_q, k, &config, &mut rng));
                    }
                }
            }
        }

        let matrix = CooMatrix::from_parts_unchecked(config.rows, config.cols, entries);
        SyntheticDataset {
            matrix,
            true_p,
            true_q,
            config,
        }
    }

    /// The planted prediction for cell `(u, i)` (noise-free).
    pub fn true_rating(&self, u: u32, i: u32) -> f32 {
        let k = self.config.planted_rank;
        let p = &self.true_p[u as usize * k..(u as usize + 1) * k];
        let q = &self.true_q[i as usize * k..(i as usize + 1) * k];
        let dot: f32 = p.iter().zip(q).map(|(a, b)| a * b).sum();
        dot.clamp(self.config.scale_min, self.config.scale_max)
    }
}

fn make_rating<R: Rng>(
    u: u32,
    i: u32,
    true_p: &[f32],
    true_q: &[f32],
    k: usize,
    config: &GenConfig,
    rng: &mut R,
) -> Rating {
    let p = &true_p[u as usize * k..(u as usize + 1) * k];
    let q = &true_q[i as usize * k..(i as usize + 1) * k];
    let dot: f32 = p.iter().zip(q).map(|(a, b)| a * b).sum();
    let noise = if config.noise > 0.0 {
        // Box–Muller: two uniforms → one standard normal.
        let u1: f32 = rng.random::<f32>().max(f32::MIN_POSITIVE);
        let u2: f32 = rng.random();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos() * config.noise
    } else {
        0.0
    };
    let r = (dot + noise).clamp(config.scale_min, config.scale_max);
    Rating::new(u, i, r)
}

/// Bits in the duplicate filter's exact corner: 2^23 bits, 1 MiB. The loop
/// also reads the samplers' tables on every draw (12 B a row: 600 KB for the
/// user sampler at 50 000 rows), and the corner must sit beside them in a
/// 2 MiB per-core L2 (the Xeon the budget was sized on; 1 MiB + 600 KB fits,
/// 2 MiB + 600 KB does not).
const CORNER_BITS: usize = 1 << 23;

/// The generator's duplicate filter. A set is a set — it answers "seen
/// before?" exactly as a `HashSet<(u32, u32)>` would, so the accept/reject
/// sequence does not depend on how it is built. It is built in two levels:
///
/// - an exact bitmap over rows `0..hr` × cols `0..hc`. The samplers put
///   popularity rank `j` at index `j`, so this corner is where draws, and
///   therefore duplicates, pile up. Its shape is the one of at most
///   `CORNER_BITS` cells that catches the most draws, read off the
///   samplers' own CDFs; every shape gets one, none larger than L2.
/// - behind it, a `KeyTable` of the cells outside the corner.
struct CellSet {
    corner: Vec<u64>,
    hr: u32,
    hc: u32,
    table: KeyTable,
}

impl CellSet {
    /// A set for the cells `users × items` can draw, of which at most
    /// `max_cells` are inserted.
    fn new(users: &ZipfSampler, items: &ZipfSampler, max_cells: usize) -> CellSet {
        let (rows, cols) = (users.len(), items.len());
        // The `hr × hc ≤ CORNER_BITS` corner with the most probability mass
        // (ties go to the widest; a matrix that fits is taken whole).
        let corner = |hc: usize| (rows.min(CORNER_BITS / hc), hc);
        let mass = |(hr, hc): (usize, usize)| users.cdf[hr - 1] * items.cdf[hc - 1];
        let (hr, hc) = (2..=cols.min(CORNER_BITS))
            .map(corner)
            .fold(corner(1), |a, b| if mass(b) >= mass(a) { b } else { a });
        CellSet::with_corner(rows as u32, cols as u32, (hr as u32, hc as u32), max_cells)
    }

    /// A set over `rows × cols` with an `hr × hc` corner.
    fn with_corner(rows: u32, cols: u32, (hr, hc): (u32, u32), max_cells: usize) -> CellSet {
        let outside = u64::from(rows) * u64::from(cols) - u64::from(hr) * u64::from(hc);
        CellSet {
            corner: vec![0; (hr as usize * hc as usize).div_ceil(64)],
            hr,
            hc,
            table: KeyTable::with_capacity((max_cells as u64).min(outside) as usize),
        }
    }

    /// Adds cell `(u, i)`; false if it was already present.
    fn insert(&mut self, u: u32, i: u32) -> bool {
        if u < self.hr && i < self.hc {
            let at = u as usize * self.hc as usize + i as usize;
            let (word, bit) = (at / 64, 1u64 << (at % 64));
            let fresh = self.corner[word] & bit == 0;
            self.corner[word] |= bit;
            return fresh;
        }
        self.table.insert(u64::from(u) << 32 | u64::from(i))
    }
}

/// A set of `(u << 32 | i)` cell keys in one flat open-addressing table
/// (multiplicative hash, linear probing, at most half full).
struct KeyTable {
    slots: Vec<u64>,
    shift: u32,
}

impl KeyTable {
    /// No cell has `u == u32::MAX` (`u < rows <= u32::MAX`).
    const EMPTY: u64 = u64::MAX;

    /// A table that will hold at most `max_keys` keys.
    fn with_capacity(max_keys: usize) -> KeyTable {
        let len = (max_keys * 2).next_power_of_two().max(2);
        KeyTable {
            slots: vec![Self::EMPTY; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// Adds `key`; false if it was already present.
    fn insert(&mut self, key: u64) -> bool {
        let mask = self.slots.len() - 1;
        let mut at = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        loop {
            match self.slots[at] {
                Self::EMPTY => {
                    self.slots[at] = key;
                    return true;
                }
                k if k == key => return false,
                _ => at = (at + 1) & mask,
            }
        }
    }
}

/// Zipf-distributed index sampler over `0..n` by exact inverse CDF.
///
/// `P(rank j) ∝ 1/(j+1)^s`. `s = 0` degenerates to uniform. The CDF table is
/// `n` doubles plus `n` guide entries, fine for the laptop-scale dataset
/// sizes used in real training (the simulator never samples entries at paper
/// scale).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    /// Cut points: `guide[g]` is the first index whose CDF reaches `g / n`.
    guide: Vec<u32>,
}

impl ZipfSampler {
    /// Builds a sampler over `0..n` with exponent `s >= 0`.
    ///
    /// # Panics
    /// Panics if `n == 0`, `n` exceeds `u32::MAX`, or `s` is
    /// negative/non-finite.
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "sampler domain must be non-empty");
        assert!(u32::try_from(n).is_ok(), "sampler domain must fit in u32");
        assert!(
            s >= 0.0 && s.is_finite(),
            "zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for j in 0..n {
            acc += 1.0 / ((j + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in cdf.iter_mut() {
            *v /= total;
        }
        // Guard against floating-point never reaching 1.0 (`n > 0`, so
        // there is a last entry).
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let mut j = 0;
        let guide = (0..n)
            .map(|g| {
                while cdf[j] < g as f64 / n as f64 {
                    j += 1;
                }
                j as u32
            })
            .collect();
        ZipfSampler { cdf, guide }
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.index_of(rng.random())
    }

    /// The inverse CDF: exactly `cdf.partition_point(|c| c < x).min(n - 1)`,
    /// in O(1) expected steps instead of `log2 n` dependent ones.
    ///
    /// The guide table only picks where the search *starts* (`⌊x·n⌋` lands
    /// in a bucket of width `1/n`, which holds one CDF point on average);
    /// the two walks then stop at the unique `j` with `cdf[j-1] < x <=
    /// cdf[j]`, which in a non-decreasing table is the partition point
    /// whatever the start was. So no rounding in `x·n` or `g/n` can change
    /// the result, only the length of the walk.
    fn index_of(&self, x: f64) -> usize {
        let n = self.cdf.len();
        let mut j = self.guide[((x * n as f64) as usize).min(n - 1)] as usize;
        while j > 0 && self.cdf[j - 1] >= x {
            j -= 1;
        }
        while j + 1 < n && self.cdf[j] < x {
            j += 1;
        }
        j
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false (the constructor rejects empty domains); provided for
    /// clippy's `len_without_is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_index(s: &ZipfSampler, x: f64) -> usize {
        s.cdf.partition_point(|&c| c < x).min(s.cdf.len() - 1)
    }

    /// The generator as it was before the guide table and the flat cell set
    /// (binary search, `HashSet`), kept verbatim as the bit-identity oracle.
    fn generate_reference(config: GenConfig) -> SyntheticDataset {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let k = config.planted_rank;
        let mid = 0.5 * (config.scale_min + config.scale_max);
        let amp = (mid.max(0.25) / k as f32).sqrt();
        let mut true_p = vec![0f32; config.rows as usize * k];
        let mut true_q = vec![0f32; config.cols as usize * k];
        for v in true_p.iter_mut() {
            *v = amp * (0.5 + rng.random::<f32>());
        }
        for v in true_q.iter_mut() {
            *v = amp * (0.5 + rng.random::<f32>());
        }

        let user_sampler = ZipfSampler::new(config.rows as usize, config.user_skew);
        let item_sampler = ZipfSampler::new(config.cols as usize, config.item_skew);

        let capacity = config.rows as u64 * config.cols as u64;
        let want = (config.nnz as u64).min(capacity) as usize;
        let mut seen = std::collections::HashSet::with_capacity(want * 2);
        let mut entries = Vec::with_capacity(want);
        let mut attempts = 0u64;
        let max_attempts = (want as u64).saturating_mul(20).max(1024);
        while entries.len() < want && attempts < max_attempts {
            attempts += 1;
            let u = reference_index(&user_sampler, rng.random()) as u32;
            let i = reference_index(&item_sampler, rng.random()) as u32;
            let key = (u as u64) << 32 | i as u64;
            if !seen.insert(key) {
                continue;
            }
            entries.push(make_rating(u, i, &true_p, &true_q, k, &config, &mut rng));
        }
        if entries.len() < want {
            'fill: for u in 0..config.rows {
                for i in 0..config.cols {
                    if entries.len() >= want {
                        break 'fill;
                    }
                    let key = (u as u64) << 32 | i as u64;
                    if seen.insert(key) {
                        entries.push(make_rating(u, i, &true_p, &true_q, k, &config, &mut rng));
                    }
                }
            }
        }

        let matrix = CooMatrix::from_parts_unchecked(config.rows, config.cols, entries);
        SyntheticDataset {
            matrix,
            true_p,
            true_q,
            config,
        }
    }

    #[test]
    fn generate_is_bit_identical_to_the_reference_loop() {
        let d = GenConfig::default;
        let shape = |rows, cols, nnz| GenConfig {
            rows,
            cols,
            nnz,
            ..d()
        };
        let mut grid = vec![
            d(),
            GenConfig { noise: 0.0, ..d() },
            shape(10, 10, 100),     // dense fill: the attempt cap and the backfill
            shape(5, 5, 1_000),     // over capacity
            shape(300, 150, 9_000), // tests/epoch_golden.rs
            // Thousands of rejected duplicates.
            GenConfig {
                user_skew: 1.2,
                item_skew: 1.2,
                seed: 3,
                ..shape(2_000, 1_000, 50_000)
            },
            // Past the corner's 2^23 cells: the bitmap, then the table.
            shape(5_000, 3_000, 40_000),
        ];
        for user_skew in [0.0, 0.5, 1.2, 2.0] {
            for item_skew in [0.0, 0.5, 1.2, 2.0] {
                grid.push(GenConfig {
                    user_skew,
                    item_skew,
                    ..d()
                });
            }
        }
        let mut levels = std::collections::BTreeSet::new();
        for cfg in grid {
            levels.insert(filter_levels(&cfg));
            let (got, want) = (
                SyntheticDataset::generate(cfg.clone()),
                generate_reference(cfg.clone()),
            );
            assert_eq!(got.matrix, want.matrix, "{cfg:?}");
            assert_eq!(got.true_p, want.true_p, "{cfg:?}");
            assert_eq!(got.true_q, want.true_q, "{cfg:?}");
        }
        assert_eq!(
            levels.into_iter().collect::<Vec<_>>(),
            ["bitmap", "bitmap + table"]
        );
    }

    /// Which levels of the duplicate filter `cfg`'s cells reach.
    fn filter_levels(cfg: &GenConfig) -> &'static str {
        let users = ZipfSampler::new(cfg.rows as usize, cfg.user_skew);
        let items = ZipfSampler::new(cfg.cols as usize, cfg.item_skew);
        let set = CellSet::new(&users, &items, cfg.nnz);
        if (set.hr, set.hc) == (cfg.rows, cfg.cols) {
            "bitmap"
        } else {
            "bitmap + table"
        }
    }

    /// The benchmark's five dataset shapes at three seeds, folded exactly as
    /// `benchmark/src/inputs.rs::dataset_hash` folds them. The constants
    /// were recorded at the commit before the generator's inner loop was
    /// rebuilt; they change only if the generated bits do.
    #[test]
    fn benchmark_shapes_keep_their_pinned_hashes() {
        const PINNED: [(u32, u32, usize, [u64; 3]); 5] = [
            (
                50_000,
                800,
                640_000,
                [0x0693f48fe177141e, 0xe650508ea737b220, 0xc9df40f7fa876a51],
            ),
            (
                16_000,
                16_000,
                480_000,
                [0x9fe6e1f0e8085a4a, 0x6d2f6b8de5970bbf, 0xa3a04c06e6c1b47e],
            ),
            (
                20_000,
                10_000,
                500_000,
                [0x4726e4adfb1c01ce, 0xc17d0377785667b9, 0x969aa7194e759c9d],
            ),
            (
                8_192,
                16_384,
                600_000,
                [0x7e2526e7d0cc8e33, 0x020ca6dcfe9940d5, 0xc341f999be8444d2],
            ),
            (
                8_192,
                65_536,
                500_000,
                [0xa7069af54936e090, 0xb21073fa7fc83eae, 0x8b0c07871816bc29],
            ),
        ];
        for (rows, cols, nnz, hashes) in PINNED {
            for (seed, pinned) in [1, 0x5eed, 0xbeef].into_iter().zip(hashes) {
                let ds = SyntheticDataset::generate(GenConfig {
                    rows,
                    cols,
                    nnz,
                    seed,
                    ..GenConfig::default()
                });
                // FNV-1a over the little-endian bytes of (key, rating bits).
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for e in ds.matrix.entries() {
                    for v in [
                        u64::from(e.u) << 32 | u64::from(e.i),
                        u64::from(e.r.to_bits()),
                    ] {
                        for b in v.to_le_bytes() {
                            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                        }
                    }
                }
                assert_eq!(
                    h, pinned,
                    "{rows}x{cols} nnz {nnz} seed {seed:#x}: got {h:#018x}"
                );
            }
        }
    }

    #[test]
    fn index_of_is_the_partition_point() {
        for n in [1usize, 2, 3, 10, 800, 65_536] {
            for s in [0.0, 1.0, 2.0] {
                let z = ZipfSampler::new(n, s);
                let check = |x: f64| {
                    assert_eq!(z.index_of(x), reference_index(&z, x), "n {n} s {s} x {x:e}")
                };
                check(0.0);
                check(1.0 - f64::EPSILON / 2.0); // 1 − 2⁻⁵³, the largest draw
                for &c in &z.cdf {
                    check(c.next_down());
                    check(c);
                    check(c.next_up());
                }
                let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
                for _ in 0..1_000_000 / 3 {
                    check(rng.random());
                }
            }
        }
    }

    #[test]
    fn cell_set_answers_like_a_hash_set() {
        // The largest matrix, with no corner (every cell, key 0 too, goes
        // to the table) and with a 16 × 10 one.
        let last = u32::MAX - 1;
        for corner in [(0, 0), (16, 10)] {
            let mut set = CellSet::with_corner(u32::MAX, u32::MAX, corner, 500);
            let mut reference = std::collections::HashSet::new();
            // The corner's own corners, the first cells past it, and the
            // matrix's last cell, each twice.
            for cell in [(0, 0), (15, 9), (16, 0), (0, 10), (last, last)] {
                for _ in 0..2 {
                    assert_eq!(set.insert(cell.0, cell.1), reference.insert(cell));
                }
            }
            // Cells from the first 40 × 25 so about half the inserts are
            // repeats, 16 % of them inside the 16 × 10 corner.
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            while reference.len() < 500 {
                let cell = (rng.random::<u32>() % 40, rng.random::<u32>() % 25);
                assert_eq!(
                    set.insert(cell.0, cell.1),
                    reference.insert(cell),
                    "{cell:?}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticDataset::generate(GenConfig::default());
        let b = SyntheticDataset::generate(GenConfig::default());
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.true_p, b.true_p);
    }

    #[test]
    fn seed_changes_output() {
        let a = SyntheticDataset::generate(GenConfig::default());
        let b = SyntheticDataset::generate(GenConfig {
            seed: 99,
            ..GenConfig::default()
        });
        assert_ne!(a.matrix, b.matrix);
    }

    #[test]
    fn nnz_and_bounds_respected() {
        let cfg = GenConfig {
            rows: 100,
            cols: 50,
            nnz: 2_000,
            ..GenConfig::default()
        };
        let ds = SyntheticDataset::generate(cfg.clone());
        assert_eq!(ds.matrix.nnz(), 2_000);
        assert_eq!(ds.matrix.rows(), 100);
        assert_eq!(ds.matrix.cols(), 50);
        for e in ds.matrix.entries() {
            assert!(e.r >= cfg.scale_min && e.r <= cfg.scale_max);
        }
    }

    #[test]
    fn no_duplicate_cells() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 50,
            cols: 40,
            nnz: 1_500,
            ..GenConfig::default()
        });
        let mut keys: Vec<u64> = ds
            .matrix
            .entries()
            .iter()
            .map(|e| (e.u as u64) << 32 | e.i as u64)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ds.matrix.nnz());
    }

    #[test]
    fn dense_request_fills_every_cell() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 10,
            cols: 10,
            nnz: 100,
            ..GenConfig::default()
        });
        assert_eq!(ds.matrix.nnz(), 100);
    }

    #[test]
    fn over_dense_request_caps_at_capacity() {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 5,
            cols: 5,
            nnz: 1_000,
            ..GenConfig::default()
        });
        assert_eq!(ds.matrix.nnz(), 25);
    }

    #[test]
    fn zipf_skews_toward_low_indices() {
        let sampler = ZipfSampler::new(1_000, 1.2);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut low = 0usize;
        const DRAWS: usize = 10_000;
        for _ in 0..DRAWS {
            if sampler.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        // With s = 1.2 the top-10 mass is large; uniform would give ~1%.
        assert!(low > DRAWS / 10, "low-index draws: {low}");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let sampler = ZipfSampler::new(10, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max < 2 * *min, "counts {counts:?}");
    }

    #[test]
    fn zipf_sample_always_in_domain() {
        let sampler = ZipfSampler::new(3, 2.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..1_000 {
            assert!(sampler.sample(&mut rng) < 3);
        }
    }

    #[test]
    fn true_rating_is_clamped() {
        let ds = SyntheticDataset::generate(GenConfig::default());
        let r = ds.true_rating(0, 0);
        assert!(r >= ds.config.scale_min && r <= ds.config.scale_max);
    }

    #[test]
    fn noise_free_ratings_match_planted_model() {
        let ds = SyntheticDataset::generate(GenConfig {
            noise: 0.0,
            rows: 30,
            cols: 30,
            nnz: 200,
            ..GenConfig::default()
        });
        for e in ds.matrix.entries().iter().take(50) {
            let expect = ds.true_rating(e.u, e.i);
            assert!(
                (e.r - expect).abs() < 1e-6,
                "({},{}) {} vs {}",
                e.u,
                e.i,
                e.r,
                expect
            );
        }
    }
}
