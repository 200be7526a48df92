//! Competitive-ratio sweep: `cargo run --release -p dlt-experiments
//! --bin multiload-competitive -- [homogeneous|uniform|lognormal|all]
//! [--smoke] [--p P] [--trials T] [--n LOADS] [--seed S] [--threads W]
//! [--soak LOADS]`.
//!
//! For each profile, sweeps arrival regime × failure rate × admission
//! order × installment granularity, running every configuration online
//! and clairvoyantly on identical realized traces, printing the
//! online-vs-clairvoyant stretch-ratio table and writing
//! `results/multiload_competitive_<profile>.csv`. Results are
//! byte-identical for every `--threads` value; `--smoke` trims the grid
//! and trial count to seconds.
//!
//! `--soak LOADS` runs the deterministic fault-injection soak instead
//! (streamed bursty trace with seeded failure waves through the service
//! engine, asserting completion and bitwise ledger conservation) and
//! exits non-zero on any violation — the CI gate.

use dlt_experiments::competitive::{
    competitive_table, default_cells, run_competitive, run_soak, smoke_cells,
    DEFAULT_COMPETITIVE_LOADS, DEFAULT_COMPETITIVE_P, DEFAULT_COMPETITIVE_TRIALS,
};
use dlt_experiments::runner::{
    flag_or, flags, parse_flags, profiles, thread_count, write_and_print, Positive,
};

fn main() {
    let flags = parse_flags(std::env::args().skip(1), flags::MULTILOAD_COMPETITIVE);
    let seed: u64 = flag_or(&flags, "seed", 42);

    if flags.contains_key("soak") {
        let Positive(soak_loads) = flag_or(&flags, "soak", Positive(20_000));
        let Positive(p) = flag_or(&flags, "p", Positive(DEFAULT_COMPETITIVE_P));
        eprintln!("running fault-injection soak: {soak_loads} loads, p={p}, seed={seed} ...");
        match run_soak(soak_loads, p, seed) {
            Ok(s) => println!(
                "soak ok: {} loads, {} interruptions, {:.3} data units requeued, \
                 makespan {:.3}, peak pending {}",
                s.loads, s.interruptions, s.requeued_data, s.makespan, s.peak_pending
            ),
            Err(e) => {
                eprintln!("soak FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let smoke = flags.contains_key("smoke");
    let profiles = profiles(&flags, "all");
    let default_p = if smoke { 4 } else { DEFAULT_COMPETITIVE_P };
    let Positive(p) = flag_or(&flags, "p", Positive(default_p));
    let trials: usize = flag_or(
        &flags,
        "trials",
        if smoke { 2 } else { DEFAULT_COMPETITIVE_TRIALS },
    );
    let default_loads = if smoke { 8 } else { DEFAULT_COMPETITIVE_LOADS };
    let Positive(n_loads) = flag_or(&flags, "n", Positive(default_loads));
    let threads = thread_count(&flags);
    let cells = if smoke {
        smoke_cells()
    } else {
        default_cells()
    };

    for profile in profiles {
        let name = profile.name();
        eprintln!(
            "running multiload-competitive profile={name} p={p} trials={trials} \
             loads={n_loads} cells={} seed={seed} threads={threads} ...",
            cells.len()
        );
        let points = run_competitive(&profile, p, n_loads, &cells, trials, seed, threads);
        let table = competitive_table(name, p, n_loads, trials, &points);
        write_and_print(&table, &format!("multiload_competitive_{name}"));
    }
}
