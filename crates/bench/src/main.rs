//! `hcc-bench <experiment> [flags]`: see [`hcc_bench::EXPERIMENTS`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match hcc_bench::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n{}", hcc_bench::usage());
            ExitCode::from(2)
        }
    }
}
