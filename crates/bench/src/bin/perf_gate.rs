//! CI perf-regression gate: diffs fresh quick-mode bench runs against the
//! committed baselines and exits non-zero if any measured cell's
//! throughput dropped by more than the threshold.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin hotpath -- --quick --out hotpath.json
//! cargo run --release -p hcc-bench --bin serving -- --quick --out serving.json
//! cargo run --release -p hcc-bench --bin serving_quant -- --quick --out quant.json
//! cargo run --release -p hcc-bench --bin cluster_scaling -- --out cluster.json
//! cargo run --release -p hcc-bench --bin perf_gate -- [--threshold 0.15] \
//!     results/BENCH_hotpath_quick.json hotpath.json \
//!     results/BENCH_serving_quick.json serving.json \
//!     results/BENCH_serving_quant_quick.json quant.json \
//!     results/BENCH_cluster.json cluster.json
//! ```
//!
//! Arguments are `BASELINE CURRENT` pairs, any number of them. Each
//! artifact says what it is in its `"bench"` tag, so the gate works the
//! kind out of the files: `serving_quant` pairs also enforce the recall
//! floor and `cluster_scaling` pairs the 3.2x scaling floor. A pair whose
//! tags differ, or whose tag has no gate, fails.
//!
//! A cell that exists in a baseline but not in the current run (e.g. the
//! SIMD tier stopped being detected, or a batch size was dropped) also
//! fails the gate. CI runs this in the `perf-gate` job; a genuine
//! machine-variance false positive is overridden by applying the
//! `perf-override` label to the PR (documented in
//! `.github/workflows/ci.yml` and `results/README.md`).

use hcc_bench::gate::{gate_pair, Verdict};

const USAGE: &str = "usage: perf_gate [--threshold F] BASELINE CURRENT [BASELINE CURRENT ...]";

fn print_verdicts(verdicts: &[Verdict]) {
    for v in verdicts {
        match (v.current, v.ratio) {
            (Some(cur), Some(r)) => println!(
                "  {:<22} {:>10.0} -> {:>10.0} /s  ({:>5.1}%){}",
                v.cell,
                v.baseline,
                cur,
                r * 100.0,
                if v.regressed { "  REGRESSED" } else { "" }
            ),
            _ => println!(
                "  {:<22} {:>10.0} -> (missing)  REGRESSED",
                v.cell, v.baseline
            ),
        }
    }
}

fn main() {
    let mut threshold = 0.15f64;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threshold F (fraction, e.g. 0.15)")
            }
            flag if flag.starts_with("--") => panic!("unknown flag {flag}\n{USAGE}"),
            _ => paths.push(a),
        }
    }
    if paths.is_empty() || paths.len() % 2 != 0 {
        panic!(
            "expected BASELINE CURRENT pairs, got {} path(s)\n{USAGE}",
            paths.len()
        );
    }
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
    };
    println!(
        "perf gate: fail below {:.0}% of baseline",
        (1.0 - threshold) * 100.0
    );

    let mut pass = true;
    for pair in paths.chunks(2) {
        let (baseline_path, current_path) = (&pair[0], &pair[1]);
        match gate_pair(&read(baseline_path), &read(current_path), threshold) {
            Ok(outcome) => {
                println!(
                    "perf gate [{}]: {current_path} vs {baseline_path}",
                    outcome.kind
                );
                print_verdicts(&outcome.verdicts);
                for note in &outcome.notes {
                    println!("  {note}");
                }
                pass &= outcome.pass;
            }
            Err(e) => {
                println!("perf gate: {current_path} vs {baseline_path}: {e}  FAILED");
                pass = false;
            }
        }
    }

    if pass {
        println!("perf gate: PASS");
    } else {
        println!(
            "perf gate: FAIL — throughput regressed more than {:.0}%, or a pair could not be \
             gated. If this is machine variance rather than a real regression, apply the \
             `perf-override` label to the PR or regenerate the baseline with `cargo run \
             --release -p hcc-bench --bin hotpath -- --quick` / `--bin serving -- --quick`.",
            threshold * 100.0
        );
        std::process::exit(1);
    }
}
