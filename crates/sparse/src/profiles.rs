//! Named dataset shape profiles.
//!
//! Table 3 of the paper records, for each evaluation dataset, the dimensions
//! `m × n`, entry count `nnz`, regularization `λ1 = λ2`, and (implicitly) the
//! rating scale. These shapes drive both the simulator (where only sizes and
//! bandwidth matter) and scaled-down real training runs.

use crate::gen::GenConfig;

/// Shape and training hyper-parameters of one evaluation dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Human-readable name as used in the paper.
    pub name: &'static str,
    /// Users.
    pub m: u64,
    /// Items.
    pub n: u64,
    /// Observed ratings.
    pub nnz: u64,
    /// L2 regularization (λ1 = λ2 in Table 3).
    pub lambda: f32,
    /// SGD learning rate γ (Table 3 caption: 0.005 for all datasets).
    pub learning_rate: f32,
    /// Rating scale lower bound.
    pub scale_min: f32,
    /// Rating scale upper bound.
    pub scale_max: f32,
}

impl DatasetProfile {
    /// Netflix Prize: 480,190 × 17,771, ~99.07 M ratings, λ = 0.01.
    pub fn netflix() -> Self {
        DatasetProfile {
            name: "Netflix",
            m: 480_190,
            n: 17_771,
            nnz: 99_072_112,
            lambda: 0.01,
            learning_rate: 0.005,
            scale_min: 1.0,
            scale_max: 5.0,
        }
    }

    /// Yahoo! Music R1: 1,948,883 × 1,101,750, ~115.58 M ratings, λ = 1.
    pub fn yahoo_r1() -> Self {
        DatasetProfile {
            name: "Yahoo! Music R1",
            m: 1_948_883,
            n: 1_101_750,
            nnz: 115_579_437,
            lambda: 1.0,
            learning_rate: 0.005,
            scale_min: 0.0,
            scale_max: 100.0,
        }
    }

    /// R1*: R1 densified with uniform additions to ~200 M ratings (used by
    /// the paper to stress the data-partition strategies).
    pub fn r1_star() -> Self {
        DatasetProfile {
            name: "R1*",
            m: 1_948_883,
            n: 1_101_750,
            nnz: 199_999_997,
            lambda: 1.0,
            learning_rate: 0.005,
            scale_min: 0.0,
            scale_max: 100.0,
        }
    }

    /// Yahoo! Music R2: 1,000,000 × 136,736, ~383.84 M ratings, λ = 0.01.
    /// (R2 is the song-rating set on a 1–5 scale — Fig. 7(c)'s RMSE range.)
    pub fn yahoo_r2() -> Self {
        DatasetProfile {
            name: "Yahoo! Music R2",
            m: 1_000_000,
            n: 136_736,
            nnz: 383_838_609,
            lambda: 0.01,
            learning_rate: 0.005,
            scale_min: 1.0,
            scale_max: 5.0,
        }
    }

    /// MovieLens-20m: 138,494 × 131,263, ~20 M ratings, λ = 0.01. The
    /// paper's "limitation" dataset: m ≈ n, so communication cannot shrink.
    pub fn movielens_20m() -> Self {
        DatasetProfile {
            name: "MovieLens-20m",
            m: 138_494,
            n: 131_263,
            nnz: 20_000_260,
            lambda: 0.01,
            learning_rate: 0.005,
            scale_min: 0.5,
            scale_max: 5.0,
        }
    }

    /// All five evaluation profiles, in Table-3 order.
    pub fn all() -> Vec<DatasetProfile> {
        vec![
            Self::netflix(),
            Self::yahoo_r1(),
            Self::r1_star(),
            Self::yahoo_r2(),
            Self::movielens_20m(),
        ]
    }

    /// `m + n`: the dimension sum governing communication volume.
    pub fn dim_sum(&self) -> u64 {
        self.m + self.n
    }

    /// `nnz / (m + n)`: the paper's rule of thumb — below ~10³ the
    /// communication and computation costs are the same order of magnitude.
    pub fn nnz_per_dim(&self) -> f64 {
        self.nnz as f64 / self.dim_sum() as f64
    }

    /// A generator config reproducing this dataset's *shape* scaled down by
    /// `factor` (e.g. 1000 → laptop scale). `nnz` scales by `factor`, the
    /// dimensions by `sqrt(factor)`, preserving density and aspect ratio.
    pub fn scaled_gen_config(&self, factor: f64, seed: u64) -> GenConfig {
        assert!(factor >= 1.0, "scale factor must be >= 1");
        let dim_scale = factor.sqrt();
        let rows = ((self.m as f64 / dim_scale).round() as u32).max(8);
        let cols = ((self.n as f64 / dim_scale).round() as u32).max(8);
        let nnz = ((self.nnz as f64 / factor).round() as usize).max(64);
        GenConfig {
            rows,
            cols,
            nnz: (nnz as u64).min(rows as u64 * cols as u64) as usize,
            planted_rank: 8,
            user_skew: 0.8,
            item_skew: 0.8,
            noise: 0.05 * (self.scale_max - self.scale_min),
            scale_min: self.scale_min,
            scale_max: self.scale_max,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SyntheticDataset;

    #[test]
    fn table3_shapes_are_encoded() {
        let n = DatasetProfile::netflix();
        assert_eq!(n.m, 480_190);
        assert_eq!(n.n, 17_771);
        assert_eq!(n.nnz, 99_072_112);
        assert_eq!(DatasetProfile::yahoo_r1().lambda, 1.0);
        assert_eq!(DatasetProfile::all().len(), 5);
    }

    #[test]
    fn movielens_is_near_square() {
        let ml = DatasetProfile::movielens_20m();
        let ratio = ml.m as f64 / ml.n as f64;
        assert!(ratio > 0.9 && ratio < 1.2, "ratio {ratio}");
        // The paper's limitation criterion: nnz/(m+n) < 1e3 for MovieLens...
        assert!(ml.nnz_per_dim() < 1e3);
        // ...but not for Netflix or R2.
        assert!(DatasetProfile::netflix().nnz_per_dim() > 1e2);
        assert!(DatasetProfile::yahoo_r2().nnz_per_dim() > 1e2);
    }

    #[test]
    fn scaled_config_preserves_aspect() {
        let p = DatasetProfile::netflix();
        let cfg = p.scaled_gen_config(10_000.0, 1);
        let orig_aspect = p.m as f64 / p.n as f64;
        let new_aspect = cfg.rows as f64 / cfg.cols as f64;
        assert!((orig_aspect / new_aspect - 1.0).abs() < 0.05);
        assert!(cfg.nnz as u64 <= cfg.rows as u64 * cfg.cols as u64);
    }

    #[test]
    fn scaled_config_generates() {
        let cfg = DatasetProfile::movielens_20m().scaled_gen_config(100_000.0, 2);
        let ds = SyntheticDataset::generate(cfg);
        assert!(ds.matrix.nnz() > 0);
    }
}
