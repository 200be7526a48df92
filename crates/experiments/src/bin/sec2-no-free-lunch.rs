//! Regenerates the Section 2 analysis: fraction of work remaining after
//! one optimal DLT round of an `x^α` workload, closed form vs solver.
//!
//! `cargo run --release -p dlt-experiments --bin sec2-no-free-lunch --
//! [--n N] [--seed S] [--model FAMILY]`
//!
//! `--model` reruns the analysis under another cost-law family (see
//! [`dlt_experiments::models::ModelFamily::parse`] for the closed
//! grammar) and writes to a suffixed CSV so the committed default bytes
//! never change.

use dlt_experiments::models::model_family;
use dlt_experiments::runner::{flag_or, flags, parse_flags, write_and_print};
use dlt_experiments::sec2::{run_sec2, PAPER_ALPHAS};

fn main() {
    let flags = parse_flags(std::env::args().skip(1), flags::SEC2);
    let n: f64 = flag_or(&flags, "n", 4096.0);
    let seed: u64 = flag_or(&flags, "seed", 42);
    let family = model_family(&flags);
    let ps = [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let table = run_sec2(&ps, &PAPER_ALPHAS, n, seed, family);
    write_and_print(&table, &format!("sec2_no_free_lunch{}", family.suffix()));
    println!(
        "Reading: for α > 1 the remaining fraction 1 − 1/P^(α−1) tends to 1 —\n\
         a single DLT round leaves asymptotically all of the work undone\n\
         (the paper's no-free-lunch result). The α = 1 rows stay at 0."
    );
}
