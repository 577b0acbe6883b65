//! `hcc-benchmark`: run one workload, sweep them all, or compare two sweeps.
//!
//! ```text
//! hcc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! hcc-benchmark sweep --seeds N [--first-seed S] [--trace 0|1|both] --out FILE.jsonl
//! hcc-benchmark compare A.jsonl B.jsonl
//! ```

use hcc_benchmark::{compare, run, sweep};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sweep") => sweep::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => run::main(&args),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("hcc-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
