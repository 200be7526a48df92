//! Regenerates the paper's tables and figures and the extension sweeps,
//! writing every CSV under `results/` (or `$DLT_RESULTS`).
//!
//! `cargo run --release -p dlt-experiments --bin all --
//! [ARTIFACT…] [--smoke] [--threads W]`
//!
//! Runs the named artifacts of [`dlt_experiments::artifacts::ARTIFACTS`]
//! (every one when none is named) at paper scale. `--smoke` runs each at
//! the smallest configuration that still exercises its runner, in
//! seconds even in a debug build. `--threads W` sizes the one worker
//! pool every artifact runs on (default `0` = all cores); every CSV is
//! byte-identical for any thread count. Any other argument prints `error: …` and exits
//! with status 2. A CSV that cannot be written stops the run: `all`
//! prints `error: could not write <path>: …` and exits with status 1.

use dlt_experiments::artifacts::parse_args;

fn main() {
    let (artifacts, settings) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    for artifact in artifacts {
        println!("== {} ==", artifact.title);
        if let Err(e) = (artifact.run)(settings) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    println!("all experiments done.");
}
