//! One run of one workload: set up (several times, for a steady `setup_s`),
//! measure, check, print every metric by name and the result line last.

use crate::inputs::{Inputs, Phases};
use crate::report;
use crate::spec::Spec;
use crate::trace::Trace;
use crate::{lifecycle, stats, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;

/// Parsed command line of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// `None`: `BENCHMARK.json`'s `run_seconds`.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 0x5eed;
        let mut seconds = None;
        let mut trace = false;
        let mut smoke = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => seed = parse_seed(value()?)?,
                "--seconds" => {
                    seconds = Some(
                        value()?
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0 && *s <= 600.0)
                            .ok_or("--seconds must be in (0, 600]")?,
                    );
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    };
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload NAME is required")?,
            seed,
            seconds,
            trace,
            smoke,
        })
    }
}

/// Accepts decimal or `0x`-prefixed seeds.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad seed {s}"))
}

/// `benchmark/out`, where traces, history and scratch files go. Everything
/// the benchmark writes stays under it.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Removes the run's scratch directory when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(args)?;
    let spec = Spec::load()?;
    let workload = workloads::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        format!(
            "unknown workload {}; known: {}",
            args.workload,
            names.join(", ")
        )
    })?;
    let workload = if args.smoke {
        workload.smoke()
    } else {
        workload
    };

    // The Unix-socket transport binds under `temp_dir()`. Point it inside
    // `out/` so nothing is written outside the checkout, and make the path
    // relative: a socket address holds at most 108 bytes.
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    std::env::set_current_dir(&out).map_err(|e| format!("entering {}: {e}", out.display()))?;
    let scratch = Scratch(PathBuf::from(format!("tmp.{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("creating scratch dir: {e}"))?;
    std::env::set_var("TMPDIR", &scratch.0);

    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let phases = Phases::of(&workload, seconds);
    let mut setup_s = Vec::with_capacity(SETUP_PASSES);
    let mut inputs = None;
    for _ in 0..SETUP_PASSES {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(Inputs::generate(&workload, args.seed, &phases));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up pass");

    let mut trace = Trace::new(args.trace);
    let mut outcome = lifecycle::run(
        &workload, &inputs, &phases, args.seed, &scratch.0, &mut trace,
    )?;
    outcome
        .end_to_end
        .set("setup_s", stats::median(&mut setup_s));
    if args.trace {
        let path = PathBuf::from(format!("trace_{}.jsonl", workload.name));
        trace
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let correct = outcome.checks.iter().all(|c| c.1);
    let attempted: u64 = outcome.tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = outcome.tallies.iter().map(|t| t.failed).sum();
    let (table, values) = if args.trace {
        (&spec.per_layer, &outcome.per_layer)
    } else {
        (&spec.end_to_end, &outcome.end_to_end)
    };
    let line = report::result_line(table, values, correct, attempted, failed)?;

    println!(
        "workload {} seed {:#x} seconds {} trace {} nproc {} simd {} virtual_time false",
        workload.name,
        args.seed,
        seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        hcc_sgd::simd::active_backend().name(),
    );
    print!("{}", report::listing(&spec.end_to_end, &outcome.end_to_end));
    print!("{}", report::listing(&spec.per_layer, &outcome.per_layer));
    for (name, samples) in &outcome.rounds {
        let samples: Vec<String> = samples.iter().map(|v| format!("{v:.6}")).collect();
        println!("  rounds {name:<26} {}", samples.join(" "));
    }
    for t in &outcome.tallies {
        println!(
            "  phase {:<16} attempted {:>9} failed {}",
            t.phase, t.attempted, t.failed
        );
    }
    for (name, ok, saw) in &outcome.checks {
        let verdict = if *ok { "ok" } else { "FAILED" };
        println!("  check {name:<32} {verdict:<6} {saw}");
    }
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
