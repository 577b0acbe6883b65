//! `hcc` — the HCC-MF command line: train, analyze, recommend, serve.
//!
//! ```sh
//! hcc train ratings.txt --k 64 --workers cpu4,gpu8 --out model
//! hcc analyze ratings.txt
//! hcc recommend model.hccmf ratings.txt --user 7
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match hcc_mf::cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprint!("error: {msg}\n{}", hcc_mf::cli::usage());
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = std::io::stdout();
    match hcc_mf::cli::run(cmd, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
