//! Multi-load scheduling sweep: `cargo run --release -p dlt-experiments
//! --bin multiload -- [homogeneous|uniform|lognormal|all] [--p P]
//! [--trials T] [--n BASE_SIZE] [--chunks C] [--seed S] [--threads W]
//! [--model FAMILY]`.
//!
//! For each profile, sweeps load count × nonlinearity exponent with both
//! the FIFO/installment scheduler and the round-robin interleaved
//! scheduler of `dlt-multiload`, printing the table and writing
//! `results/multiload_<profile>.csv`. Results are byte-identical for
//! every `--threads` value.

use dlt_experiments::models::model_family;
use dlt_experiments::multiload::{
    multiload_table, run_multiload, DEFAULT_ALPHAS, DEFAULT_BASE_SIZE, DEFAULT_CHUNKS,
    DEFAULT_LOAD_COUNTS, DEFAULT_P,
};
use dlt_experiments::runner::{
    flag_or, flags, parse_flags, profiles, thread_count, write_and_print, Positive,
};

fn main() {
    let flags = parse_flags(std::env::args().skip(1), flags::MULTILOAD);
    let profiles = profiles(&flags, "all");
    let Positive(p) = flag_or(&flags, "p", Positive(DEFAULT_P));
    let trials: usize = flag_or(&flags, "trials", 50);
    let Positive(base_size) = flag_or(&flags, "n", Positive(DEFAULT_BASE_SIZE));
    let Positive(chunks) = flag_or(&flags, "chunks", Positive(DEFAULT_CHUNKS));
    let seed: u64 = flag_or(&flags, "seed", 42);
    let threads = thread_count(&flags);
    let family = model_family(&flags);

    for profile in profiles {
        let name = profile.name();
        eprintln!(
            "running multiload profile={name} p={p} trials={trials} n={base_size} \
             chunks={chunks} seed={seed} threads={threads} ..."
        );
        let points = run_multiload(
            &profile,
            p,
            &DEFAULT_LOAD_COUNTS,
            &DEFAULT_ALPHAS,
            base_size,
            chunks,
            trials,
            seed,
            threads,
            family,
        );
        let table = multiload_table(name, p, &points);
        write_and_print(&table, &format!("multiload_{name}{}", family.suffix()));
    }
}
