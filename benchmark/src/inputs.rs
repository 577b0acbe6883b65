//! Seeded inputs: the rating matrix and every query schedule.
//!
//! The program under test receives only these generated values; the seed
//! itself goes no further than this module and `HccConfig::seed`.

use crate::workloads::{Workload, BATCH, ROUNDS};
use hcc_sparse::{CooMatrix, GenConfig, SyntheticDataset};
use std::time::{Duration, Instant};

/// One open-loop arrival: when the query is due (ns after the phase
/// starts) and which user asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub user: u32,
}

/// Durations of the timed serve phases *of one round*, derived from
/// `--seconds`: each phase's share of the run, split over the rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    pub closed: Duration,
    pub batch: Duration,
    pub nominal: Duration,
    pub overload: Duration,
}

impl Phases {
    pub fn of(w: &Workload, seconds: f64) -> Phases {
        let d = |share: f64| Duration::from_secs_f64(share * seconds / ROUNDS as f64);
        Phases {
            closed: d(w.shares.closed),
            batch: d(w.shares.batch),
            nominal: d(w.shares.nominal),
            overload: d(w.shares.overload),
        }
    }
}

/// Everything one run feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub matrix: CooMatrix,
    /// Users of the closed-loop phase, cycled.
    pub closed_users: Vec<u32>,
    /// Users of each `top_k_batch` call, cycled in `BATCH`-sized chunks.
    pub batch_users: Vec<u32>,
    /// One open-loop schedule per round.
    pub nominal: Vec<Vec<Arrival>>,
    pub overload: Vec<Vec<Arrival>>,
    /// Wall time `SyntheticDataset::generate` took (the `sparse` layer).
    pub gen_time: Duration,
}

/// splitmix64: a tiny, well-mixed generator for the harness's own draws
/// (query users, Poisson gaps). The dataset uses the shipped generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

fn users(rng: &mut Rng, count: usize, rows: u32) -> Vec<u32> {
    (0..count).map(|_| rng.below(rows)).collect()
}

/// Poisson arrivals at `rate` per second over `span`.
pub fn poisson(rng: &mut Rng, rate: f64, span: Duration, rows: u32) -> Vec<Arrival> {
    let mut out = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Arrival {
            due_ns: (t * 1e9) as u64,
            user: rng.below(rows),
        });
    }
}

impl Inputs {
    /// Generates every input of `w` from `seed`.
    pub fn generate(w: &Workload, seed: u64, phases: &Phases) -> Inputs {
        let t0 = Instant::now();
        let matrix = SyntheticDataset::generate(GenConfig {
            rows: w.rows,
            cols: w.cols,
            nnz: w.nnz,
            seed,
            ..GenConfig::default()
        })
        .matrix;
        let gen_time = t0.elapsed();
        let mut rng = Rng::new(seed ^ 0x0b5e_55ed_c0ff_ee00);
        let closed_users = users(&mut rng, 1 << 16, w.rows);
        let batch_users = users(&mut rng, BATCH * 64, w.rows);
        let nominal = (0..ROUNDS)
            .map(|_| poisson(&mut rng, w.nominal_qps, phases.nominal, w.rows))
            .collect();
        let overload = (0..ROUNDS)
            .map(|_| poisson(&mut rng, w.overload_qps, phases.overload, w.rows))
            .collect();
        Inputs {
            matrix,
            closed_users,
            batch_users,
            nominal,
            overload,
            gen_time,
        }
    }

    /// FNV-1a over the rating triples, in generation order.
    pub fn dataset_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for e in self.matrix.entries() {
            h.write(u64::from(e.u) << 32 | u64::from(e.i));
            h.write(u64::from(e.r.to_bits()));
        }
        h.0
    }

    /// FNV-1a over every query schedule.
    pub fn schedule_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for &u in self.closed_users.iter().chain(&self.batch_users) {
            h.write(u64::from(u));
        }
        for a in self.nominal.iter().chain(&self.overload).flatten() {
            h.write(a.due_ns);
            h.write(u64::from(a.user));
        }
        h.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
