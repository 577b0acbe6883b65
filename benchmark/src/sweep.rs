//! `sweep`: the acceptance procedure as one command. Runs every workload on
//! N seeds, each run a fresh process exactly as the driver starts it,
//! interleaved across workloads (A B C D E, A B C D E, …) so that slow
//! drift of the host lands on all of them alike; writes the runs to a set
//! file for `compare`; prints each metric's quartile spread against its
//! bound; appends one line of medians to `out/history.jsonl`.

use crate::run::parse_seed;
use crate::spec::{group, RunRecord, Spec};
use crate::stats;
use std::io::Write;
use std::process::{Command, ExitCode};
use std::time::Instant;

fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} seed {seed}: no output"))?;
    if !out.status.success() {
        eprintln!(
            "{workload} seed {seed}: exit {:?}\n{stdout}{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    RunRecord::from_result(workload, seed, traced, line)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let mut seeds = 10u64;
    let mut first_seed = 1u64;
    let seconds = spec.run_seconds;
    let mut traces = vec![false];
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seeds" => seeds = value()?.parse().map_err(|_| "--seeds N")?,
            "--first-seed" => first_seed = parse_seed(value()?)?,
            "--trace" => {
                traces = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    "both" => vec![false, true],
                    other => return Err(format!("--trace takes 0, 1 or both, not {other}")),
                }
            }
            "--out" => out_path = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let out_path = out_path.ok_or("sweep needs --out FILE.jsonl")?;
    let workloads = &spec.workloads;

    let started = Instant::now();
    let mut file = std::fs::File::create(&out_path).map_err(|e| format!("{out_path}: {e}"))?;
    let mut records = Vec::new();
    for seed in first_seed..first_seed + seeds {
        for &traced in &traces {
            for workload in workloads {
                let t0 = Instant::now();
                let record = child(workload, seed, seconds, traced)?;
                eprintln!(
                    "{workload} seed {seed} trace {} took {:.1}s correct {} failed {}",
                    u8::from(traced),
                    t0.elapsed().as_secs_f64(),
                    record.correct,
                    record.failed
                );
                writeln!(file, "{}", record.to_line()).map_err(|e| format!("{out_path}: {e}"))?;
                records.push(record);
            }
        }
    }

    let mut all_ok = records.iter().all(|r| r.correct && r.failed == 0);
    let mut medians = Vec::new();
    for &traced in &traces {
        let grouped = group(&records, traced);
        let table = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        println!(
            "\n{:<26} {:<38} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
            "workload", "metric", "q1", "median", "q3", "spread", "bound"
        );
        for workload in workloads {
            for m in table {
                let Some(values) = grouped.get(&(workload.clone(), m.name.clone())) else {
                    continue;
                };
                if values.len() < 2 {
                    continue;
                }
                let (q1, q2, q3) = stats::quartiles(values);
                let spread = stats::spread(values);
                // The acceptance rule wants every spread under its bound
                // (set-up time excepted) and, to be safe, under a third of it.
                let verdict = match m.bound {
                    None => "",
                    Some(_) if m.name == "setup_s" => "exempt",
                    Some(b) if spread > b => {
                        all_ok = false;
                        "TOO WIDE"
                    }
                    Some(b) if spread > b / 3.0 => "over a third",
                    Some(_) => "ok",
                };
                println!(
                    "{:<26} {:<38} {:>14.5} {:>14.5} {:>14.5} {:>8.4} {:>6}  {}",
                    workload,
                    m.name,
                    q1,
                    q2,
                    q3,
                    spread,
                    m.bound.map_or_else(String::new, |b| format!("{b}")),
                    verdict
                );
                medians.push(format!("\"{workload}.{}\": {q2}", m.name));
            }
        }
    }

    // One line of trajectory per sweep: every metric's median, end-to-end
    // and (from traced runs) per-layer. A one-seed sweep has none.
    if medians.is_empty() {
        return Ok(exit(all_ok));
    }
    let history = crate::run::out_dir().join("history.jsonl");
    let line = format!(
        "{{\"unix_time\": {}, \"git\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"simd\": \"{}\", \"virtual_time\": false, \"first_seed\": {first_seed}, \"seeds\": {seeds}, \"seconds\": {seconds}, \"wall_s\": {:.0}, \"medians\": {{{}}}}}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
        std::thread::available_parallelism().map_or(0, usize::from),
        hcc_sgd::simd::active_backend().name(),
        started.elapsed().as_secs_f64(),
        medians.join(", ")
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("{}: {e}", history.display()))?;
    Ok(exit(all_ok))
}

fn exit(all_ok: bool) -> ExitCode {
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
