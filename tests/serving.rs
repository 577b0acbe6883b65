//! Differential and chaos tests for the serving stack (`hcc-serve` plus the
//! checkpoint glue in `hcc-mf`).
//!
//! The optimized path — item-sharded store, SIMD dot kernels, bounded
//! per-shard heaps, batched fan-out — must be *rank-equivalent* to
//! [`hcc_serve::naive_top_k`], the deliberately naive scalar full-sort
//! oracle. "Rank-equivalent" rather than bit-identical: SIMD reassociates
//! float sums, so scores may differ in the last bits, and items whose
//! oracle scores tie within that tolerance may legally swap places.

use hcc_mf::{
    load_served_model, reload_from_checkpoint, save_model, HccConfig, HccError, HccMf,
    LearningRate, PartitionMode, WorkerSpec,
};
use hcc_serve::{naive_top_k, FoldInConfig, Precision, ServeEngine, ServedModel};
use hcc_sgd::{int8, simd, FactorMatrix};
use hcc_sparse::{CooMatrix, CsrMatrix, GenConfig, Rating, SyntheticDataset};
use proptest::prelude::*;
use proptest::TestRng;
use rand::SeedableRng;
use std::fs;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------------
// Rank-equivalence checker
// ---------------------------------------------------------------------------

/// Absolute score tolerance: factor entries are O(1) and k ≤ 128, so scalar
/// and SIMD dots agree to far better than this; ties inside the band are
/// allowed to permute.
const SCORE_EPS: f32 = 1e-4;

/// Asserts `got` is the same ranking as `want` up to score ties: identical
/// length, scores elementwise within [`SCORE_EPS`], and within every run of
/// oracle scores closer than the tolerance the item *sets* match (order
/// inside a tie band is unspecified).
fn assert_rank_equivalent(got: &[(u32, f32)], want: &[(u32, f32)], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: result length");
    let mut i = 0;
    while i < want.len() {
        let mut j = i + 1;
        while j < want.len() && (want[j - 1].1 - want[j].1).abs() <= SCORE_EPS {
            j += 1;
        }
        let mut a: Vec<u32> = got[i..j].iter().map(|e| e.0).collect();
        let mut b: Vec<u32> = want[i..j].iter().map(|e| e.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{ctx}: tie group at ranks {i}..{j}");
        for t in i..j {
            assert!(
                (got[t].1 - want[t].1).abs() <= SCORE_EPS,
                "{ctx}: score at rank {t}: got {}, oracle {}",
                got[t].1,
                want[t].1
            );
        }
        i = j;
    }
}

// ---------------------------------------------------------------------------
// Property: sharded + SIMD + heap == naive oracle
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Scenario {
    users: u32,
    items: u32,
    k: usize,
    seed: u64,
    shards: usize,
    count: usize,
    ratings: Vec<(u32, u32, f32)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (1u32..24, 1u32..80, 1usize..12),
        // count_sel 13 maps to 100, exercising count ≫ items.
        (0u64..1 << 48, 1usize..7, 0usize..14),
    )
        .prop_flat_map(|((users, items, k), (seed, shards, count_sel))| {
            proptest::collection::vec((0..users, 0..items, 0.5f32..5.0), 0..200).prop_map(
                move |ratings| Scenario {
                    users,
                    items,
                    k,
                    seed,
                    shards,
                    count: if count_sel == 13 { 100 } else { count_sel },
                    ratings,
                },
            )
        })
}

/// The issue requires ≥256 cases; the vendored proptest shim's `proptest!`
/// macro runs 48 by default (env-tunable), so drive the strategy explicitly:
/// a deterministic per-case RNG, failure labelled with its case index and
/// full scenario (the shim has no shrinking).
const CASES: u64 = 256;

fn run_scenarios(salt: u64, f: impl Fn(&Scenario)) {
    let strat = scenario();
    for case in 0..CASES {
        let mut rng = TestRng::seed_from_u64(salt ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let s = Strategy::generate(&strat, &mut rng);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&s))) {
            eprintln!("failed at case {case}: {s:?}");
            resume_unwind(payload);
        }
    }
}

fn build_scenario(s: &Scenario) -> (FactorMatrix, FactorMatrix, Option<CooMatrix>) {
    let p = FactorMatrix::random(s.users as usize, s.k, s.seed);
    let q = FactorMatrix::random(s.items as usize, s.k, s.seed ^ 0x9e37_79b9);
    let train = (!s.ratings.is_empty()).then(|| {
        let entries = s
            .ratings
            .iter()
            .map(|&(u, i, r)| Rating::new(u, i, r))
            .collect();
        CooMatrix::new(s.users, s.items, entries).unwrap()
    });
    (p, q, train)
}

/// The tentpole invariant: for random shapes, shard counts, seen sets,
/// and k, every user's sharded top-k — single *and* batched — is
/// rank-equivalent to the scalar full-sort oracle.
#[test]
fn sharded_engine_matches_naive_oracle_over_256_cases() {
    run_scenarios(0x5e41_13c0, |s| {
        let (p, q, train) = build_scenario(s);
        let seen = train.as_ref().map(CsrMatrix::from);
        let model = ServedModel::build(p.clone(), q.clone(), train.as_ref(), s.shards).unwrap();
        assert!(model.shard_count() >= 1 && model.shard_count() <= s.items as usize);
        let engine = ServeEngine::new(model);

        let users: Vec<u32> = (0..s.users).collect();
        let mut singles = Vec::with_capacity(users.len());
        for &user in &users {
            let want = naive_top_k(&p, &q, seen.as_ref(), user, s.count);
            let got = engine.top_k(user, s.count).unwrap();
            assert_rank_equivalent(&got, &want, &format!("user {user}"));
            singles.push(got);
        }

        // The batched fan-out answers one snapshot and must agree with the
        // single-query path (same scan per shard, same merge order).
        let batch = engine.top_k_batch(&users, s.count).unwrap();
        assert_eq!(batch.len(), singles.len());
        for (user, (b, s1)) in users.iter().zip(batch.iter().zip(&singles)) {
            assert_rank_equivalent(b, s1, &format!("batch vs single, user {user}"));
        }
    });
}

/// Fold-in is deterministic and never mutates the served snapshot.
#[test]
fn fold_in_is_deterministic_and_pure_over_256_cases() {
    run_scenarios(0xf01d_ca5e, |s| {
        if s.ratings.is_empty() {
            return; // empty fold-in is a typed error, covered in unit tests
        }
        let (p, q, train) = build_scenario(s);
        let model = ServedModel::build(p.clone(), q.clone(), train.as_ref(), s.shards).unwrap();
        let engine = ServeEngine::new(model);
        let ratings: Vec<(u32, f32)> = s.ratings.iter().map(|&(_, i, r)| (i, r)).collect();
        let cfg = FoldInConfig {
            seed: s.seed,
            ..FoldInConfig::default()
        };
        let row_a = engine.fold_in(&ratings, &cfg).unwrap();
        let row_b = engine.fold_in(&ratings, &cfg).unwrap();
        assert_eq!(row_a, row_b);
        assert_eq!(row_a.len(), s.k);
        // Snapshot untouched: existing users still answer from the same Q.
        let want = naive_top_k(&p, &q, train.as_ref().map(CsrMatrix::from).as_ref(), 0, 5);
        assert_rank_equivalent(&engine.top_k(0, 5).unwrap(), &want, "post-fold-in query");
    });
}

// ---------------------------------------------------------------------------
// Property: quantized precision tiers
// ---------------------------------------------------------------------------

/// Round-trips a row through the int8 codec exactly the way the scan
/// and the shard builder do: per-row scale, quantize, dequantize.
fn int8_roundtrip(row: &[f32]) -> (Vec<f32>, f32) {
    let scale = int8::scale_for(row);
    let mut q = vec![0i8; row.len()];
    int8::quantize(row, scale, &mut q);
    let mut back = vec![0.0f32; row.len()];
    int8::dequantize(&q, scale, &mut back);
    (back, scale)
}

/// The factors a model of any tier actually scores with, for the oracle:
/// the user rows as the tier represents a query (int8 quantizes the query
/// row too, with its own scale; f32 and fp16 leave it f32), and the item
/// rows the shards stored, read back dequantized (which also exercises
/// `item_row` per tier).
fn effective_factors(model: &ServedModel, p: &FactorMatrix) -> (FactorMatrix, FactorMatrix) {
    let eff_p = match model.precision() {
        Precision::Int8 => {
            let data: Vec<f32> = (0..p.rows())
                .flat_map(|r| int8_roundtrip(p.row(r)).0)
                .collect();
            FactorMatrix::from_vec(p.rows(), p.k(), data)
        }
        _ => p.clone(),
    };
    let eff_q_data: Vec<f32> = (0..model.items() as u32)
        .flat_map(|i| model.item_row(i).unwrap())
        .collect();
    (
        eff_p,
        FactorMatrix::from_vec(model.items(), p.k(), eff_q_data),
    )
}

/// The int8 codec contract the serving tiers rest on: round-to-nearest
/// quantization against a per-row max-abs scale never moves any element by
/// more than half a quantization step.
#[test]
fn int8_round_trip_error_is_within_half_a_step_over_256_cases() {
    run_scenarios(0x1008_c0de, |s| {
        let (p, q, _) = build_scenario(s);
        for (mat, name) in [(&p, "P"), (&q, "Q")] {
            for r in 0..mat.rows() {
                let row = mat.row(r);
                let (back, scale) = int8_roundtrip(row);
                // Half a step plus a whisker of f32 rounding slack from the
                // quantize divide and dequantize multiply.
                let bound = scale * 0.5 * (1.0 + 1e-5) + f32::EPSILON;
                for (j, (&x, &y)) in row.iter().zip(&back).enumerate() {
                    assert!(
                        (x - y).abs() <= bound,
                        "{name}[{r}][{j}]: {x} -> {y} strayed past scale/2 = {}",
                        scale * 0.5
                    );
                }
            }
        }
    });
}

/// Rank equivalence for the quantized tiers, pruned and exhaustive. The
/// oracle is `naive_top_k` over the *dequantized* factors — the stored
/// representation the engine actually scores — because quantization
/// legitimately perturbs scores beyond the 1e-4 tie band, while the scan
/// order, pruning bound, and merge must not add any error of their own.
/// (f32 + pruned vs the raw-factor oracle is the earlier 256-case test.)
#[test]
fn quantized_tiers_match_their_dequantized_oracle_over_256_cases() {
    run_scenarios(0x0a17_f16e, |s| {
        let (p, q, train) = build_scenario(s);
        for precision in [Precision::Fp16, Precision::Int8] {
            for pruned in [false, true] {
                let model = ServedModel::build_with(
                    p.clone(),
                    q.clone(),
                    train.as_ref(),
                    s.shards,
                    precision,
                    pruned,
                )
                .unwrap();
                let (eff_p, eff_q) = effective_factors(&model, &p);
                let seen = train.as_ref().map(CsrMatrix::from);
                let engine = ServeEngine::new(model);

                let users: Vec<u32> = (0..s.users).collect();
                for &user in &users {
                    let want = naive_top_k(&eff_p, &eff_q, seen.as_ref(), user, s.count);
                    let got = engine.top_k(user, s.count).unwrap();
                    assert_rank_equivalent(
                        &got,
                        &want,
                        &format!("{} pruned={pruned}, user {user}", precision.name()),
                    );
                }
                let batch = engine.top_k_batch(&users, s.count).unwrap();
                for (user, b) in users.iter().zip(&batch) {
                    let want = naive_top_k(&eff_p, &eff_q, seen.as_ref(), *user, s.count);
                    assert_rank_equivalent(
                        b,
                        &want,
                        &format!("{} pruned={pruned}, batch user {user}", precision.name()),
                    );
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Differential: a batch of N is N batches of one
// ---------------------------------------------------------------------------

/// The tile-major scan scores a whole query group against each tile, a
/// single query being a group of one: a batch must therefore answer exactly
/// what its queries answer alone — same items, same score bits, same number
/// of items scored — and both must be rank-equivalent to the oracle.
///
/// The grid crosses every tier with pruned and exhaustive scans, 1 and 3
/// shards, batch sizes around the pair (1, 2, 3) and group (63, 64, 65,
/// 256) boundaries of the scan, and latent dimensions that exercise the
/// kernels' 16-chunk, 8-remainder and scalar-tail paths. Item norms are
/// skewed so pruned queries leave their group at different blocks; user 0
/// has seen all but three items; counts include 0 and more than the
/// catalogue holds.
fn batches_equal_singles_over_the_grid() {
    const USERS: u32 = 40;
    const ITEMS: u32 = 200;
    for k in [1usize, 7, 8, 16, 64, 100] {
        let p = FactorMatrix::random(USERS as usize, k, 0xba7c + k as u64);
        let flat = FactorMatrix::random(ITEMS as usize, k, 0x71e5 + k as u64);
        let skewed: Vec<f32> = (0..ITEMS as usize)
            .flat_map(|r| {
                let scale = 1.0 / (1.0 + ((r * 37) % ITEMS as usize) as f32 * 0.02);
                flat.row(r).iter().map(move |&x| x * scale)
            })
            .collect();
        let q = FactorMatrix::from_vec(ITEMS as usize, k, skewed);
        let mut rng = TestRng::seed_from_u64(k as u64);
        let strat = proptest::collection::vec((1..USERS, 0..ITEMS), 300..400);
        let mut entries: Vec<Rating> = Strategy::generate(&strat, &mut rng)
            .into_iter()
            .map(|(u, i)| Rating::new(u, i, 1.0))
            .collect();
        entries.extend((3..ITEMS).map(|i| Rating::new(0, i, 1.0)));
        let train = CooMatrix::new(USERS, ITEMS, entries).unwrap();
        let seen = CsrMatrix::from(&train);

        for precision in [Precision::F32, Precision::Fp16, Precision::Int8] {
            for pruned in [false, true] {
                for shards in [1usize, 3] {
                    let model = ServedModel::build_with(
                        p.clone(),
                        q.clone(),
                        Some(&train),
                        shards,
                        precision,
                        pruned,
                    )
                    .unwrap();
                    let (eff_p, eff_q) = effective_factors(&model, &p);
                    let batches = [1usize, 2, 3, 63, 64, 65, 256];
                    let counts = [10usize, 0, ITEMS as usize + 10, 1, 7, 10, 3];
                    for (n, count) in batches.into_iter().zip(counts) {
                        let ctx = format!(
                            "{} pruned={pruned} shards={shards} k={k} n={n} count={count}",
                            precision.name()
                        );
                        let users: Vec<u32> = (0..n as u32).map(|i| (i * 7) % USERS).collect();
                        let batched = ServeEngine::new(model.clone());
                        let single = ServeEngine::new(model.clone());
                        let batch = batched.top_k_batch(&users, count).unwrap();
                        assert_eq!(batch.len(), n, "{ctx}");
                        for (i, (&user, got)) in users.iter().zip(&batch).enumerate() {
                            let alone = single.top_k(user, count).unwrap();
                            let bits = |a: &[(u32, f32)]| -> Vec<(u32, u32)> {
                                a.iter().map(|&(i, s)| (i, s.to_bits())).collect()
                            };
                            assert_eq!(bits(got), bits(&alone), "{ctx} user {user}");
                            // Users repeat from position `USERS` on.
                            if i < USERS as usize {
                                let want = naive_top_k(&eff_p, &eff_q, Some(&seen), user, count);
                                assert_rank_equivalent(got, &want, &format!("{ctx} user {user}"));
                            }
                        }
                        // Same queries, same denominators: equal fractions
                        // are equal scored-item counts.
                        let (b, s) = (batched.stats(), single.stats());
                        assert_eq!(b.queries, s.queries, "{ctx}");
                        assert_eq!(b.scan_frac, s.scan_frac, "{ctx}: items scored");
                        if pruned && shards == 1 && (1..=10).contains(&count) {
                            assert!(b.scan_frac < 0.9, "{ctx}: skewed norms must prune");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_batch_of_n_is_n_batches_of_one_on_every_tier_and_shape() {
    batches_equal_singles_over_the_grid();
}

/// The same grid on the scalar kernels. The backend switch is process-wide
/// and other tests of this binary compare answers bit for bit across calls,
/// so the scalar pass runs in a child process of this test binary that runs
/// nothing else.
#[test]
fn a_batch_of_n_is_n_batches_of_one_on_the_scalar_backend() {
    const CHILD: &str = "HCC_SERVING_SCALAR_CHILD";
    if std::env::var_os(CHILD).is_some() {
        simd::set_backend(simd::Backend::Scalar).unwrap();
        batches_equal_singles_over_the_grid();
        return;
    }
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "a_batch_of_n_is_n_batches_of_one_on_the_scalar_backend",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .status()
        .unwrap();
    assert!(status.success(), "scalar-backend grid failed: {status}");
}

// ---------------------------------------------------------------------------
// Deterministic edge cases the proptest shrinker should never have to find
// ---------------------------------------------------------------------------

fn fixture(users: usize, items: usize, k: usize, seed: u64) -> (FactorMatrix, FactorMatrix) {
    (
        FactorMatrix::random(users, k, seed),
        FactorMatrix::random(items, k, seed + 1),
    )
}

#[test]
fn oracle_agreement_at_paper_scale_counts() {
    // k ∈ {1, 8, 100} from the issue, on a model big enough that every
    // shard holds many items and SIMD lanes are fully occupied.
    let (p, q) = fixture(50, 300, 16, 11);
    let entries: Vec<Rating> = (0..50u32)
        .flat_map(|u| (0..6u32).map(move |t| Rating::new(u, (u * 37 + t * 53) % 300, 3.0)))
        .collect();
    let train = CooMatrix::new(50, 300, entries).unwrap();
    let seen = CsrMatrix::from(&train);
    let engine =
        ServeEngine::new(ServedModel::build(p.clone(), q.clone(), Some(&train), 5).unwrap());
    for count in [1usize, 8, 100] {
        for user in [0u32, 17, 49] {
            let want = naive_top_k(&p, &q, Some(&seen), user, count);
            let got = engine.top_k(user, count).unwrap();
            assert_rank_equivalent(&got, &want, &format!("count {count}, user {user}"));
        }
    }
}

/// The precision x pruning grid on a catalogue with popularity-shaped item
/// norms (row `r` scaled by `(1 + r)^-0.8`, the skew norm pruning lives
/// on): 1 024 users x 4 096 items, k = 32, 8 shards, top-10 for the 512
/// multiplicative-hash users. Recall is scored against [`naive_top_k`] on
/// the f32 factors; a returned item counts when its true f32 score reaches
/// the oracle's 10th within 1e-4 relative, so swaps inside a near-tie are
/// not misses and a genuinely missing item is.
#[test]
fn precision_and_pruning_grid_keeps_recall_and_pruning_is_exact() {
    let (users, items, k, top) = (1_024usize, 4_096usize, 32usize, 10usize);
    let p = FactorMatrix::random(users, k, 1);
    let uniform = FactorMatrix::random(items, k, 2);
    let scaled: Vec<f32> = (0..items)
        .flat_map(|r| {
            let popularity = (1.0 + r as f32).powf(-0.8);
            uniform.row(r).iter().map(move |&x| x * popularity)
        })
        .collect();
    let q = FactorMatrix::from_vec(items, k, scaled);
    let mut queried: Vec<u32> = (0..512u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % users as u32)
        .collect();
    queried.sort_unstable();
    queried.dedup();
    let kth_score: Vec<f32> = queried
        .iter()
        .map(|&u| naive_top_k(&p, &q, None, u, top)[top - 1].1)
        .collect();

    for (precision, floor) in [
        (Precision::F32, 1.0),
        (Precision::Fp16, 0.99),
        (Precision::Int8, 0.99),
    ] {
        let [exhaustive, pruned] = [false, true].map(|prune| {
            let model = ServedModel::build_with(p.clone(), q.clone(), None, 8, precision, prune);
            ServeEngine::new(model.unwrap())
        });
        let mut hits = 0usize;
        for (&u, &kth) in queried.iter().zip(&kth_score) {
            let got = pruned.top_k(u, top).unwrap();
            assert_eq!(
                got,
                exhaustive.top_k(u, top).unwrap(),
                "{precision}: pruning changed user {u}'s answer"
            );
            let tol = 1e-4 * (1.0 + kth.abs());
            hits += got
                .iter()
                .filter(|(item, _)| {
                    simd::dot(p.row(u as usize), q.row(*item as usize)) >= kth - tol
                })
                .count();
        }
        let recall = hits as f64 / (queried.len() * top) as f64;
        assert!(
            recall >= floor,
            "{precision}: recall@{top} {recall:.4} < {floor}"
        );
        assert!(
            pruned.stats().scan_frac < 0.5 && exhaustive.stats().scan_frac == 1.0,
            "{precision}: pruned scanned {}, exhaustive {}",
            pruned.stats().scan_frac,
            exhaustive.stats().scan_frac
        );
    }
}

#[test]
fn fewer_items_than_shards_clamps_cleanly() {
    let (p, q) = fixture(4, 3, 2, 21);
    let model = ServedModel::build(p.clone(), q.clone(), None, 6).unwrap();
    assert!(model.shard_count() <= 3);
    let engine = ServeEngine::new(model);
    let got = engine.top_k(2, 10).unwrap();
    assert_rank_equivalent(&got, &naive_top_k(&p, &q, None, 2, 10), "items < shards");
    assert_eq!(got.len(), 3); // count clamps to the catalogue size
}

#[test]
fn all_items_seen_yields_empty_results() {
    let (p, q) = fixture(2, 4, 3, 31);
    let entries: Vec<Rating> = (0..4u32).map(|i| Rating::new(0, i, 4.0)).collect();
    let train = CooMatrix::new(2, 4, entries).unwrap();
    let engine = ServeEngine::new(ServedModel::build(p, q, Some(&train), 2).unwrap());
    assert!(engine.top_k(0, 5).unwrap().is_empty());
    // User 1 saw nothing; the batch mixes empty and full rows.
    let batch = engine.top_k_batch(&[0, 1], 5).unwrap();
    assert!(batch[0].is_empty());
    assert_eq!(batch[1].len(), 4);
}

#[test]
fn count_zero_is_a_valid_query() {
    let (p, q) = fixture(3, 10, 4, 41);
    let engine = ServeEngine::new(ServedModel::build(p, q, None, 3).unwrap());
    assert!(engine.top_k(1, 0).unwrap().is_empty());
    assert!(engine
        .top_k_batch(&[0, 1, 2], 0)
        .unwrap()
        .iter()
        .all(Vec::is_empty));
}

// ---------------------------------------------------------------------------
// Fold-in against a genuinely trained model
// ---------------------------------------------------------------------------

#[test]
fn folded_in_user_predicts_close_to_its_trained_row() {
    // Train a real model, then pretend user 0 arrived *after* training:
    // fold its ratings in against the frozen Q and demand the folded row
    // predicts user 0's own ratings about as well as the trained P row did.
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 200,
        cols: 100,
        nnz: 6_000,
        noise: 0.1,
        seed: 5,
        ..GenConfig::default()
    });
    let config = HccConfig::builder()
        .k(8)
        .epochs(12)
        .learning_rate(LearningRate::Constant(0.02))
        .lambda(0.01)
        .workers(vec![WorkerSpec::cpu(1); 2])
        .partition(PartitionMode::Uniform)
        .seed(5)
        .build();
    let report = HccMf::new(config).train(&ds.matrix).unwrap();

    let ratings: Vec<(u32, f32)> = ds
        .matrix
        .entries()
        .iter()
        .filter(|e| e.u == 0)
        .map(|e| (e.i, e.r))
        .collect();
    assert!(!ratings.is_empty(), "user 0 must have training ratings");

    let model =
        ServedModel::build(report.p.clone(), report.q.clone(), Some(&ds.matrix), 4).unwrap();
    let engine = ServeEngine::new(model);
    let cfg = FoldInConfig {
        epochs: 60,
        lr: 0.05,
        lambda: 0.01,
        seed: 7,
    };
    let row = engine.fold_in(&ratings, &cfg).unwrap();

    let user_rmse = |user_row: &[f32]| -> f64 {
        let se: f64 = ratings
            .iter()
            .map(|&(i, r)| {
                let pred: f32 = user_row
                    .iter()
                    .zip(report.q.row(i as usize))
                    .map(|(a, b)| a * b)
                    .sum();
                ((pred - r) as f64).powi(2)
            })
            .sum();
        (se / ratings.len() as f64).sqrt()
    };
    let trained = user_rmse(report.p.row(0));
    let folded = user_rmse(&row);
    assert!(
        folded <= trained + 0.3,
        "fold-in RMSE {folded:.4} vs trained-row RMSE {trained:.4}"
    );

    // And the folded row can be served: it must exclude the user's own items.
    let exclude: Vec<u32> = ratings.iter().map(|&(i, _)| i).collect();
    let mut distinct = exclude.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let top = engine.top_k_folded(&row, 10, &exclude).unwrap();
    assert_eq!(top.len(), 10.min(100 - distinct.len()));
    assert!(top.iter().all(|(i, _)| !exclude.contains(i)));
}

// ---------------------------------------------------------------------------
// Hot-reload chaos: corrupt deploy artifacts must never take the engine down
// ---------------------------------------------------------------------------

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("hcc_serving_it");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn hot_reload_survives_corruption_then_applies_a_good_checkpoint() {
    let path = tmp("deploy.hccmf");
    let (p1, q1) = fixture(12, 30, 4, 71);
    save_model(&path, &p1, &q1).unwrap();
    let engine = ServeEngine::new(load_served_model(&path, None, 3).unwrap());
    let before: Vec<_> = (0..12).map(|u| engine.top_k(u, 5).unwrap()).collect();

    // Bit-flip in the payload: CRC footer rejects it, nothing swaps.
    let good = fs::read(&path).unwrap();
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x08;
    fs::write(&path, &bad).unwrap();
    let err = reload_from_checkpoint(&engine, &path, None, 3).unwrap_err();
    assert!(matches!(err, HccError::CorruptCheckpoint(_)), "{err:?}");

    // Truncation: also rejected before the swap.
    fs::write(&path, &good[..good.len() / 3]).unwrap();
    assert!(reload_from_checkpoint(&engine, &path, None, 3).is_err());

    // The engine never wavered.
    for (u, want) in before.iter().enumerate() {
        assert_eq!(&engine.top_k(u as u32, 5).unwrap(), want, "user {u}");
    }
    assert_eq!(engine.stats().reloads, 0);

    // A good artifact with *different* factors finally lands.
    let (p2, q2) = fixture(12, 30, 4, 72);
    save_model(&path, &p2, &q2).unwrap();
    assert_eq!(reload_from_checkpoint(&engine, &path, None, 3).unwrap(), 1);
    let want = naive_top_k(&p2, &q2, None, 3, 5);
    assert_rank_equivalent(&engine.top_k(3, 5).unwrap(), &want, "post-reload");
    fs::remove_file(&path).ok();
}

#[test]
fn trained_checkpoint_serves_end_to_end() {
    // The full production path: train → save_model → load_served_model →
    // query, with the training matrix as the seen filter.
    let ds = SyntheticDataset::generate(GenConfig {
        rows: 60,
        cols: 40,
        nnz: 1_200,
        noise: 0.1,
        seed: 9,
        ..GenConfig::default()
    });
    let config = HccConfig::builder()
        .k(8)
        .epochs(5)
        .learning_rate(LearningRate::Constant(0.02))
        .lambda(0.01)
        .workers(vec![WorkerSpec::cpu(1); 2])
        .partition(PartitionMode::Uniform)
        .seed(9)
        .build();
    let report = HccMf::new(config).train(&ds.matrix).unwrap();
    let path = tmp("trained.hccmf");
    save_model(&path, &report.p, &report.q).unwrap();

    let model = load_served_model(&path, Some(&ds.matrix), 4).unwrap();
    let engine = ServeEngine::new(model);
    let seen = CsrMatrix::from(&ds.matrix);
    for user in [0u32, 30, 59] {
        let want = naive_top_k(&report.p, &report.q, Some(&seen), user, 10);
        let got = engine.top_k(user, 10).unwrap();
        assert_rank_equivalent(&got, &want, &format!("trained, user {user}"));
        // Recommendations never include already-rated items.
        let rated = seen.row(user).0;
        assert!(got.iter().all(|(i, _)| !rated.contains(i)));
    }
    let stats = engine.stats();
    assert_eq!(stats.queries, 3);
    fs::remove_file(&path).ok();
}
