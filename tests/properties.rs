//! Cross-crate property-based tests (proptest) on the invariants that hold
//! the reproduction together.

use hcc_comm::TransferStrategy;
use hcc_hetsim::{simulate_epoch, BusKind, Platform, ProcessorProfile, SimConfig, Workload};
use hcc_partition::{dp0, dp2, equalize, RoundPlan};
use hcc_sgd::fp16;
use hcc_sparse::{Axis, CooMatrix, CsrMatrix, GridPartition, Rating};
use proptest::prelude::*;

/// The paper's one-round epoch of `platform` on `workload`.
fn paper(platform: &Platform, workload: &Workload, streams: usize) -> RoundPlan {
    RoundPlan::paper(platform.worker_count(), workload.n as usize, streams)
}

fn arb_matrix() -> impl Strategy<Value = CooMatrix> {
    (2u32..40, 2u32..40, 1usize..300).prop_flat_map(|(rows, cols, nnz)| {
        proptest::collection::vec((0..rows, 0..cols, 0.5f32..5.0), nnz).prop_map(move |triples| {
            let entries = triples
                .into_iter()
                .map(|(u, i, r)| Rating::new(u, i, r))
                .collect();
            CooMatrix::new(rows, cols, entries).unwrap()
        })
    })
}

proptest! {
    #[test]
    fn grid_partition_is_a_partition(matrix in arb_matrix(), workers in 1usize..6) {
        for axis in [Axis::Row, Axis::Col] {
            let grid = GridPartition::build_uniform(&matrix, axis, workers);
            // Every entry lands in exactly one shard.
            let total: usize = grid.shard_sizes().iter().sum();
            prop_assert_eq!(total, matrix.nnz());
            // Ranges are contiguous and cover the axis.
            prop_assert_eq!(grid.range(0).start, 0);
            let len = match axis { Axis::Row => matrix.rows(), Axis::Col => matrix.cols() };
            prop_assert_eq!(grid.range(workers - 1).end, len);
            for w in 0..workers {
                let range = grid.range(w);
                for e in grid.shard(w) {
                    let key = match axis { Axis::Row => e.u, Axis::Col => e.i };
                    prop_assert!(range.contains(&key));
                }
            }
        }
    }

    #[test]
    fn csr_coo_roundtrip(matrix in arb_matrix()) {
        let csr = CsrMatrix::from(&matrix);
        prop_assert_eq!(csr.nnz(), matrix.nnz());
        let back = csr.to_coo();
        let mut a: Vec<_> = matrix.entries().iter()
            .map(|e| (e.u, e.i, e.r.to_bits())).collect();
        let mut b: Vec<_> = back.entries().iter()
            .map(|e| (e.u, e.i, e.r.to_bits())).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fp16_roundtrip_error_bound(x in -60000.0f32..60000.0) {
        let y = fp16::f16_to_f32(fp16::f32_to_f16(x));
        // Normal range: relative error ≤ 2^-11; near zero: absolute error
        // bounded by the largest subnormal step.
        if x.abs() >= fp16::F16_MIN_POSITIVE {
            prop_assert!(((y - x) / x).abs() <= 1.0 / 2048.0 + 1e-7, "{} -> {}", x, y);
        } else {
            prop_assert!((y - x).abs() <= 2.0f32.powi(-24), "{} -> {}", x, y);
        }
    }

    #[test]
    fn fp16_encoding_is_monotone(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
        // Order must be preserved (ties allowed after rounding).
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let dl = fp16::f16_to_f32(fp16::f32_to_f16(lo));
        let dh = fp16::f16_to_f32(fp16::f32_to_f16(hi));
        prop_assert!(dl <= dh, "{lo} -> {dl}, {hi} -> {dh}");
    }

    #[test]
    fn equalize_never_exceeds_any_single_worker_assignment(
        a in proptest::collection::vec(0.1f64..50.0, 2..6),
    ) {
        let b = vec![0.0; a.len()];
        let x = equalize(&a, &b);
        // Minimal max-cost can't beat the ideal parallel bound Σ(1/a)⁻¹ and
        // can't exceed the best single worker doing everything.
        let cost = x.iter().zip(&a).map(|(xi, ai)| xi * ai).fold(0.0f64, f64::max);
        let ideal = 1.0 / a.iter().map(|ai| 1.0 / ai).sum::<f64>();
        let best_single = a.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(cost >= ideal - 1e-9);
        prop_assert!(cost <= best_single + 1e-9);
    }

    #[test]
    fn dp0_dp2_compose_to_valid_partition(
        times in proptest::collection::vec(0.05f64..10.0, 2..6),
        sync in 0.0f64..0.5,
    ) {
        let x0 = dp0(&times);
        let t: Vec<f64> = x0.iter().zip(&times).map(|(x, t)| x * t).collect();
        let x2 = dp2(&x0, &t, sync);
        prop_assert!((x2.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(x2.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn simulated_epoch_time_is_monotone_in_load(
        rate in 1e7f64..1e9,
        nnz in 1_000_000u64..100_000_000,
        x in 0.1f64..1.0,
    ) {
        let platform = Platform::new("prop")
            .with_worker(ProcessorProfile::custom_cpu("w", 4, rate, 50e9), BusKind::PciE3x16);
        let wl = Workload { name: "prop".into(), m: 10_000, n: 1_000, nnz };
        let cfg = SimConfig::default();
        let t_small = simulate_epoch(&platform, &wl, &cfg, &paper(&platform, &wl, 1), &[x * 0.5]).epoch_time;
        let t_big = simulate_epoch(&platform, &wl, &cfg, &paper(&platform, &wl, 1), &[x]).epoch_time;
        prop_assert!(t_big >= t_small, "load up, time down: {t_small} -> {t_big}");
    }

    #[test]
    fn strategy_volumes_are_consistent(
        m in 1u64..1_000_000,
        n in 1u64..1_000_000,
        k in 1u64..256,
    ) {
        let full = TransferStrategy::FullPq.pull_bytes(m, n, k);
        let q = TransferStrategy::QOnly.pull_bytes(m, n, k);
        let half = TransferStrategy::HalfQ.pull_bytes(m, n, k);
        prop_assert!(q <= full);
        prop_assert_eq!(half * 2, q);
        prop_assert_eq!(full, 4 * k * (m + n));
    }
}

proptest! {
    #[test]
    fn triples_io_roundtrip(matrix in arb_matrix()) {
        // Dimensions are inferred from max indices, so compare entry sets.
        let mut buf = Vec::new();
        hcc_sparse::io::write_triples(&matrix, &mut buf).unwrap();
        let back = hcc_sparse::io::read_triples(&buf[..]).unwrap();
        let mut a: Vec<_> = matrix.entries().iter()
            .map(|e| (e.u, e.i, e.r.to_bits())).collect();
        let mut b: Vec<_> = back.entries().iter()
            .map(|e| (e.u, e.i, e.r.to_bits())).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn matrix_market_io_roundtrip(matrix in arb_matrix()) {
        let mut buf = Vec::new();
        hcc_sparse::io::write_matrix_market(&matrix, &mut buf).unwrap();
        let back = hcc_sparse::io::read_matrix_market(&buf[..]).unwrap();
        prop_assert_eq!(back.rows(), matrix.rows());
        prop_assert_eq!(back.cols(), matrix.cols());
        prop_assert_eq!(back.nnz(), matrix.nnz());
    }

    #[test]
    fn checkpoint_roundtrip_any_dims(
        m in 1usize..20,
        n in 1usize..20,
        k in 1usize..9,
        seed in 0u64..1000,
    ) {
        let p = hcc_mf::FactorMatrix::random(m, k, seed);
        let q = hcc_mf::FactorMatrix::random(n, k, seed + 1);
        let dir = std::env::temp_dir().join("hcc_prop_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("m{m}_n{n}_k{k}_{seed}.hccmf"));
        hcc_mf::save_model(&path, &p, &q).unwrap();
        let (p2, q2) = hcc_mf::load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(p, p2);
        prop_assert_eq!(q, q2);
    }

    #[test]
    fn corrupted_checkpoint_never_panics_and_never_loads(
        m in 1usize..16,
        n in 1usize..16,
        k in 1usize..6,
        seed in 0u64..500,
        // Corruption: either truncate to `cut` fraction of the file or flip
        // one bit at a fractional offset.
        truncate in 0u8..2,
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let truncate = truncate == 1;
        let p = hcc_mf::FactorMatrix::random(m, k, seed);
        let q = hcc_mf::FactorMatrix::random(n, k, seed + 1);
        let dir = std::env::temp_dir().join("hcc_prop_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("c{m}_{n}_{k}_{seed}.hccmf"));
        hcc_mf::save_model(&path, &p, &q).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        if truncate {
            let cut = ((bytes.len() as f64) * frac) as usize;
            bytes.truncate(cut);
        } else {
            let pos = (((bytes.len() - 1) as f64) * frac) as usize;
            bytes[pos] ^= 1 << bit;
        }
        std::fs::write(&path, &bytes).unwrap();
        // Must surface a typed error — a panic fails the test harness, and
        // Ok would mean corruption slipped past the CRC/shape checks.
        let loaded = hcc_mf::load_model(&path);
        std::fs::remove_file(&path).ok();
        prop_assert!(loaded.is_err(), "corrupted checkpoint loaded: trunc={truncate} frac={frac}");
    }

    #[test]
    fn dp1_step_never_increases_group_gap_under_linear_model(
        rates in proptest::collection::vec(1e5f64..1e7, 2..6),
        split in 1usize..5,
    ) {
        use hcc_partition::{dp0, dp1_step, WorkerClass};
        let n = rates.len();
        let split = split.min(n - 1);
        let classes: Vec<WorkerClass> = (0..n)
            .map(|i| if i < split { WorkerClass::Cpu } else { WorkerClass::Gpu })
            .collect();
        // Linear model: t_i = x_i / rate_i.
        let measure = |x: &[f64]| -> Vec<f64> {
            x.iter().zip(&rates).map(|(xi, r)| xi / r).collect()
        };
        let gap = |t: &[f64]| -> f64 {
            let cpu: Vec<f64> = t.iter().zip(&classes)
                .filter(|(_, c)| **c == WorkerClass::Cpu).map(|(v, _)| *v).collect();
            let gpu: Vec<f64> = t.iter().zip(&classes)
                .filter(|(_, c)| **c == WorkerClass::Gpu).map(|(v, _)| *v).collect();
            let mc = cpu.iter().sum::<f64>() / cpu.len() as f64;
            let mg = gpu.iter().sum::<f64>() / gpu.len() as f64;
            (mc - mg).abs() / mc.min(mg).max(f64::MIN_POSITIVE)
        };
        // Start from a deliberately bad partition: uniform.
        let x0 = vec![1.0 / n as f64; n];
        let t0 = measure(&x0);
        if let Some(x1) = dp1_step(&x0, &t0, &classes, 0.0) {
            let t1 = measure(&x1);
            prop_assert!(gap(&t1) <= gap(&t0) + 1e-9,
                "gap grew: {} -> {}", gap(&t0), gap(&t1));
        }
        // And DP0 from exact standalone times is already balanced.
        let standalone: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
        let x = dp0(&standalone);
        let t = measure(&x);
        prop_assert!(gap(&t) < 1e-9, "dp0 not balanced: {:?}", t);
    }

    #[test]
    fn more_streams_never_slow_the_simulated_epoch(
        rate in 1e8f64..1e9,
        bus_gb in 1.0f64..20.0,
        streams in 1usize..8,
    ) {
        let platform = Platform::new("prop").with_worker(
            ProcessorProfile::custom_gpu("g", rate, 400e9, 0.0),
            BusKind::Custom(bus_gb * 1e9),
        );
        let wl = Workload { name: "prop".into(), m: 100_000, n: 50_000, nnz: 30_000_000 };
        let cfg = SimConfig::default();
        let base = simulate_epoch(&platform, &wl, &cfg, &paper(&platform, &wl, 1), &[1.0]).epoch_time;
        let piped = simulate_epoch(&platform, &wl, &cfg, &paper(&platform, &wl, streams), &[1.0]).epoch_time;
        prop_assert!(piped <= base * 1.0001, "streams {streams}: {piped} > {base}");
    }

    #[test]
    fn gini_bounded(counts in proptest::collection::vec(0u32..1000, 1..50)) {
        let g = hcc_sparse::stats::gini(&counts);
        prop_assert!((0.0..=1.0).contains(&g), "gini {g}");
    }
}
