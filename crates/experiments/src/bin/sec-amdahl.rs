//! Regenerates the Amdahl sweep: serial fraction × α × P at equal
//! aggregate power, remaining work after one optimal DLT round under
//! `s·x + (1−s)·x^α` vs the paper's pure `x^α` no-free-lunch bound.
//!
//! `cargo run --release -p dlt-experiments --bin sec-amdahl --
//! [--n N] [--seed S] [--threads W]`

use dlt_experiments::runner::{flag_or, flags, parse_flags, thread_count, write_and_print};
use dlt_experiments::sec2::PAPER_ALPHAS;
use dlt_experiments::sec_amdahl::{run_sec_amdahl, PAPER_SERIALS};

fn main() {
    let flags = parse_flags(std::env::args().skip(1), flags::SEC_AMDAHL);
    let n: f64 = flag_or(&flags, "n", 4096.0);
    let seed: u64 = flag_or(&flags, "seed", 42);
    let threads = thread_count(&flags);
    let ps = [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let table = run_sec_amdahl(&ps, &PAPER_SERIALS, &PAPER_ALPHAS, n, seed, threads);
    write_and_print(&table, "sec_amdahl");
    println!(
        "Reading: a serial fraction s caps the superlinear share of the work at\n\
         1 − s, so the remaining fraction no longer tends to 1 with P — the\n\
         no-free-lunch penalty applies only to the Amdahl-style parallelizable\n\
         part. s = 0 reproduces the paper's x^α rows; s = 1 is classical DLT."
    );
}
