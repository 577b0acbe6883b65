//! Processor profiles calibrated from the paper's measurements.
//!
//! Calibration sources:
//!
//! * **Table 4** — per-processor "computing power" (rating updates/s at
//!   k = 128) on each dataset. These are the paper's *measured* standalone
//!   rates, which bake in every cache/bandwidth effect.
//! * **Table 2** — runtime memory bandwidth (GB/s): "IW" (worker processes
//!   the full dataset) vs. "DP0" (worker processes its DP0 shard). GPU
//!   bandwidth *rises slightly* as the shard shrinks; CPU bandwidth is
//!   flat. We model `bw(x) = bw_iw + gain·(1 − x)` with `gain` fitted to
//!   the Table 2 pair, and scale the compute rate by `bw(x)/bw(1)` — this
//!   is precisely the second-order effect DP1's compensation corrects.
//! * **Fig. 3(b)** — hardware price catalog (approximate street prices).
//! * The Xeon 6242 at non-measured thread counts is scaled by the Table 2
//!   bandwidth ratio (the kernel is memory-bound, §3.2).

/// CPU or GPU, with its paper-relevant configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcKind {
    /// A CPU worker with this many SGD threads.
    Cpu { threads: u32 },
    /// A GPU worker with this many resident hardware threads (the paper
    /// configures 41,216 on the 2080 and 43,008 on the 2080S).
    Gpu { hw_threads: u32 },
}

impl ProcKind {
    /// True for GPU profiles.
    pub fn is_gpu(&self) -> bool {
        matches!(self, ProcKind::Gpu { .. })
    }
}

/// Interconnect between a worker and the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BusKind {
    /// PCI-E 3.0 x16: ~16 GB/s per direction.
    PciE3x16,
    /// Intel UPI: ~20.8 GB/s per direction.
    Upi,
    /// Same socket as the server (the time-sharing worker): transfers run
    /// at server memory-copy speed.
    ServerLocal,
    /// Custom bandwidth in bytes/s per direction.
    Custom(f64),
}

impl BusKind {
    /// Per-direction bandwidth in bytes/s.
    pub fn bandwidth(&self) -> f64 {
        match *self {
            BusKind::PciE3x16 => 16.0e9,
            BusKind::Upi => 20.8e9,
            BusKind::ServerLocal => 67.0e9,
            BusKind::Custom(b) => b,
        }
    }
}

/// Per-dataset standalone update rates (updates/s at k = 128).
///
/// Rates for the four Table 4 datasets are stored explicitly; unknown
/// workloads fall back to a nearest-shape match (see [`RateTable::rate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateTable {
    /// Netflix-class: tall matrix, moderate nnz (99 M).
    pub netflix: f64,
    /// Yahoo R1-class: huge dimensions (3 M total), 116 M nnz.
    pub r1: f64,
    /// Yahoo R2-class: very dense (384 M nnz).
    pub r2: f64,
    /// MovieLens-class: near-square, small (20 M nnz).
    pub movielens: f64,
}

impl RateTable {
    /// Uniform table (used for custom processors in tests/examples).
    pub fn uniform(rate: f64) -> RateTable {
        RateTable {
            netflix: rate,
            r1: rate,
            r2: rate,
            movielens: rate,
        }
    }

    /// Scales every rate by `factor`.
    pub fn scaled(&self, factor: f64) -> RateTable {
        RateTable {
            netflix: self.netflix * factor,
            r1: self.r1 * factor,
            r2: self.r2 * factor,
            movielens: self.movielens * factor,
        }
    }

    /// Rate for a workload, by dataset name when known, otherwise by shape:
    /// the nearest class in `(log nnz, aspect m/n, dim-sum m+n)` space.
    pub fn rate(&self, name: &str, m: u64, n: u64, nnz: u64) -> f64 {
        match name {
            "Netflix" => self.netflix,
            "Yahoo! Music R1" | "R1*" | "R1_NEW" => self.r1,
            "Yahoo! Music R2" => self.r2,
            "MovieLens-20m" => self.movielens,
            _ => {
                // Shape heuristic: huge dimension sum → R1 class (cache
                // misses dominate); near-square small → MovieLens class;
                // very dense → R2 class; else Netflix class.
                let dim_sum = (m + n) as f64;
                let density = nnz as f64 / (m as f64 * n as f64);
                if dim_sum > 2.0e6 {
                    self.r1
                } else if density > 2.0e-3 && nnz > 200_000_000 {
                    self.r2
                } else if (m as f64 / n as f64) < 4.0 && nnz < 50_000_000 {
                    self.movielens
                } else {
                    self.netflix
                }
            }
        }
    }
}

/// One processor: identity, rates, bandwidth behaviour, price.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorProfile {
    /// Display name ("RTX 2080S", "6242-16T", …).
    pub name: String,
    /// CPU/GPU and thread configuration.
    pub kind: ProcKind,
    /// Standalone update rates per dataset class.
    pub rates: RateTable,
    /// Memory bandwidth in bytes/s when processing the full dataset
    /// (Table 2 "IW" row).
    pub bandwidth_iw: f64,
    /// Bandwidth gain at vanishing shard size: `bw(x) = iw + gain·(1−x)`
    /// (fit to Table 2's DP0 row; ~0 for CPUs).
    pub bandwidth_gain: f64,
    /// Street price in USD (Fig. 3(b)).
    pub price_usd: f64,
    /// Independent DMA/copy streams available for Strategy 3 (GPUs have
    /// dedicated copy engines; a plain CPU has none — pipelining needs an
    /// iGPU BLT engine per §3.4).
    pub max_streams: usize,
}

impl ProcessorProfile {
    /// Runtime memory bandwidth when the worker holds fraction `x` of the
    /// data (Table 2 model).
    pub fn bandwidth_at(&self, x: f64) -> f64 {
        self.bandwidth_iw + self.bandwidth_gain * (1.0 - x.clamp(0.0, 1.0))
    }

    /// Standalone update rate on a workload when holding fraction `x`:
    /// the Table 4 rate scaled by the bandwidth shift.
    pub fn rate_at(&self, name: &str, m: u64, n: u64, nnz: u64, x: f64) -> f64 {
        let base = self.rates.rate(name, m, n, nnz);
        base * self.bandwidth_at(x) / self.bandwidth_at(1.0)
    }

    // --- Catalog ----------------------------------------------------------

    /// Intel Xeon Gold 6242 at 24 threads (both sockets' worth of workers in
    /// the overall-performance runs). Table 4 row 1.
    pub fn xeon_6242_24t() -> ProcessorProfile {
        ProcessorProfile {
            name: "6242-24T".into(),
            kind: ProcKind::Cpu { threads: 24 },
            rates: RateTable {
                netflix: 348_790_567.0,
                r1: 190_891_071.0,
                r2: 266_293_289.0,
                movielens: 261_609_815.0,
            },
            bandwidth_iw: 67.30e9,
            bandwidth_gain: 0.45e9, // Table 2: 67.30 → 67.75 GB/s
            price_usd: 2_000.0,
            max_streams: 1,
        }
    }

    /// Xeon Gold 6242 at 16 threads (CPU_0's max-performance config).
    pub fn xeon_6242_16t() -> ProcessorProfile {
        ProcessorProfile {
            name: "6242-16T".into(),
            kind: ProcKind::Cpu { threads: 16 },
            rates: RateTable {
                netflix: 272_502_189.0,
                r1: 191_469_061.0,
                r2: 212_851_540.0,
                movielens: 250_860_330.0,
            },
            ..Self::xeon_6242_24t()
        }
    }

    /// Xeon Gold 6242 limited to 10 threads ("6242l" in Table 2, "6242L" in
    /// Fig. 9) — the configuration the paper uses to increase heterogeneity.
    /// Rates are the 24T rates scaled by the Table 2 bandwidth ratio
    /// (39.32 / 67.30 — the kernel is memory-bound).
    pub fn xeon_6242_10t() -> ProcessorProfile {
        let ratio = 39.319_05 / 67.300_1;
        ProcessorProfile {
            name: "6242L-10T".into(),
            kind: ProcKind::Cpu { threads: 10 },
            rates: Self::xeon_6242_24t().rates.scaled(ratio),
            bandwidth_iw: 39.319_05e9,
            bandwidth_gain: 0.28e9, // Table 2: 39.32 → 39.60 GB/s
            price_usd: 2_000.0,
            max_streams: 1,
        }
    }

    /// NVIDIA RTX 2080 (41,216 resident threads in the paper's config).
    pub fn rtx_2080() -> ProcessorProfile {
        ProcessorProfile {
            name: "RTX 2080".into(),
            kind: ProcKind::Gpu { hw_threads: 41_216 },
            rates: RateTable {
                netflix: 918_333_483.0,
                r1: 801_190_194.0,
                r2: 339_096_219.0,
                movielens: 835_890_149.0,
            },
            bandwidth_iw: 378.616e9,
            bandwidth_gain: 15.8e9, // Table 2: 378.6 → 388.8 at the DP0 share
            price_usd: 700.0,
            max_streams: 4,
        }
    }

    /// NVIDIA RTX 2080 Super (43,008 resident threads).
    pub fn rtx_2080_super() -> ProcessorProfile {
        ProcessorProfile {
            name: "RTX 2080S".into(),
            kind: ProcKind::Gpu { hw_threads: 43_008 },
            rates: RateTable {
                netflix: 1_052_866_849.0,
                r1: 939_313_586.0,
                r2: 354_261_903.0,
                movielens: 905_200_490.0,
            },
            bandwidth_iw: 407.095e9,
            bandwidth_gain: 8.3e9, // Table 2: 407.1 → 412.0
            price_usd: 730.0,
            max_streams: 4,
        }
    }

    /// NVIDIA Tesla V100 — only appears in Fig. 3 as the expensive
    /// single-GPU alternative. Rates extrapolated at 1.11× the RTX 2080
    /// (matching Fig. 3(a)'s bar, where the V100 lands near the 6242+2080
    /// collaboration).
    pub fn tesla_v100() -> ProcessorProfile {
        ProcessorProfile {
            name: "Tesla V100".into(),
            kind: ProcKind::Gpu { hw_threads: 81_920 },
            rates: RateTable {
                netflix: 1_020_000_000.0,
                r1: 890_000_000.0,
                r2: 377_000_000.0,
                movielens: 929_000_000.0,
            },
            bandwidth_iw: 900.0e9,
            bandwidth_gain: 10.0e9,
            price_usd: 8_500.0,
            max_streams: 6,
        }
    }

    /// A custom uniform-rate processor (for tests and examples).
    pub fn custom_cpu(name: &str, threads: u32, rate: f64, bandwidth: f64) -> ProcessorProfile {
        ProcessorProfile {
            name: name.into(),
            kind: ProcKind::Cpu { threads },
            rates: RateTable::uniform(rate),
            bandwidth_iw: bandwidth,
            bandwidth_gain: 0.0,
            price_usd: 0.0,
            max_streams: 1,
        }
    }

    /// A custom uniform-rate GPU.
    pub fn custom_gpu(name: &str, rate: f64, bandwidth: f64, gain: f64) -> ProcessorProfile {
        ProcessorProfile {
            name: name.into(),
            kind: ProcKind::Gpu { hw_threads: 40_000 },
            rates: RateTable::uniform(rate),
            bandwidth_iw: bandwidth,
            bandwidth_gain: gain,
            price_usd: 0.0,
            max_streams: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_rates_encoded() {
        assert_eq!(
            ProcessorProfile::xeon_6242_24t().rates.netflix,
            348_790_567.0
        );
        assert_eq!(ProcessorProfile::rtx_2080_super().rates.r2, 354_261_903.0);
        assert_eq!(ProcessorProfile::rtx_2080().rates.movielens, 835_890_149.0);
    }

    #[test]
    fn bandwidth_rises_for_small_gpu_shards() {
        let gpu = ProcessorProfile::rtx_2080();
        assert!(gpu.bandwidth_at(0.3) > gpu.bandwidth_at(1.0));
        // Table 2 check: at the Netflix DP0 share (~0.354) the modeled
        // bandwidth lands near 388.8 GB/s.
        let dp0 = gpu.bandwidth_at(0.354);
        assert!((dp0 / 1e9 - 388.8).abs() < 2.0, "dp0 bw {}", dp0 / 1e9);
    }

    #[test]
    fn cpu_bandwidth_nearly_flat() {
        let cpu = ProcessorProfile::xeon_6242_24t();
        let rel = (cpu.bandwidth_at(0.2) - cpu.bandwidth_at(1.0)) / cpu.bandwidth_at(1.0);
        assert!(rel < 0.01, "rel {rel}");
    }

    #[test]
    fn rate_at_tracks_bandwidth() {
        let gpu = ProcessorProfile::rtx_2080();
        let full = gpu.rate_at("Netflix", 480_190, 17_771, 99_072_112, 1.0);
        let part = gpu.rate_at("Netflix", 480_190, 17_771, 99_072_112, 0.3);
        assert_eq!(full, gpu.rates.netflix);
        assert!(part > full);
        assert!(part / full < 1.05);
    }

    #[test]
    fn rate_lookup_by_name_and_shape() {
        let t = ProcessorProfile::rtx_2080().rates;
        assert_eq!(t.rate("Yahoo! Music R2", 0, 0, 0), t.r2);
        assert_eq!(t.rate("R1*", 0, 0, 0), t.r1);
        // Unknown huge-dimension dataset → R1 class.
        assert_eq!(t.rate("custom", 3_000_000, 500_000, 50_000_000), t.r1);
        // Unknown near-square small dataset → MovieLens class.
        assert_eq!(t.rate("custom", 140_000, 130_000, 20_000_000), t.movielens);
        // Unknown tall dataset → Netflix class.
        assert_eq!(t.rate("custom", 500_000, 20_000, 100_000_000), t.netflix);
    }

    #[test]
    fn bus_bandwidths() {
        assert_eq!(BusKind::PciE3x16.bandwidth(), 16.0e9);
        assert_eq!(BusKind::Upi.bandwidth(), 20.8e9);
        assert_eq!(BusKind::Custom(5.0).bandwidth(), 5.0);
        assert!(BusKind::ServerLocal.bandwidth() > BusKind::Upi.bandwidth());
    }

    #[test]
    fn the_2080s_collab_is_cheaper_than_v100() {
        // Fig. 3(b)'s point: 6242 + 2080S costs < 1/3 of a V100.
        let combo = ProcessorProfile::xeon_6242_16t().price_usd
            + ProcessorProfile::rtx_2080_super().price_usd;
        assert!(combo < ProcessorProfile::tesla_v100().price_usd / 3.0);
    }

    #[test]
    fn gpu_kind_flags() {
        assert!(ProcessorProfile::rtx_2080().kind.is_gpu());
        assert!(!ProcessorProfile::xeon_6242_16t().kind.is_gpu());
    }
}
