//! Admission-policy sweep: `cargo run --release -p dlt-experiments
//! --bin multiload-policy -- [homogeneous|uniform|lognormal|all] [--p P]
//! [--trials T] [--n BASE_SIZE] [--installments K]... [--seed S]
//! [--threads W] [--model FAMILY]`.
//!
//! For each profile, sweeps load count × nonlinearity exponent × admission
//! order (FIFO, SRPT, weighted stretch) × installment granularity with the
//! **online** policy scheduler of `dlt-multiload` (specs revealed at
//! release time), printing the table and writing
//! `results/multiload_policy_<profile>.csv`. Repeat `--installments` to
//! sweep several granularities; results are byte-identical for every
//! `--threads` value.

use dlt_experiments::models::model_family;
use dlt_experiments::multiload::{
    multiload_policy_table, run_multiload_policy, DEFAULT_ALPHAS, DEFAULT_BASE_SIZE,
    DEFAULT_INSTALLMENTS, DEFAULT_LOAD_COUNTS, DEFAULT_P,
};
use dlt_experiments::runner::{
    flag_list_or, flag_or, flags, parse_flags, profiles, thread_count, write_and_print, Positive,
};

fn main() {
    let flags = parse_flags(std::env::args().skip(1), flags::MULTILOAD_POLICY);
    let profiles = profiles(&flags, "all");
    let Positive(p) = flag_or(&flags, "p", Positive(DEFAULT_P));
    let trials: usize = flag_or(&flags, "trials", 50);
    let Positive(base_size) = flag_or(&flags, "n", Positive(DEFAULT_BASE_SIZE));
    let seed: u64 = flag_or(&flags, "seed", 42);
    let threads = thread_count(&flags);
    let family = model_family(&flags);
    let installments: Vec<usize> = flag_list_or(
        &flags,
        "installments",
        DEFAULT_INSTALLMENTS.map(Positive).to_vec(),
    )
    .into_iter()
    .map(|Positive(k)| k)
    .collect();

    for profile in profiles {
        let name = profile.name();
        eprintln!(
            "running multiload-policy profile={name} p={p} trials={trials} n={base_size} \
             installments={installments:?} seed={seed} threads={threads} ..."
        );
        let points = run_multiload_policy(
            &profile,
            p,
            &DEFAULT_LOAD_COUNTS,
            &DEFAULT_ALPHAS,
            base_size,
            &installments,
            trials,
            seed,
            threads,
            family,
        );
        let table = multiload_policy_table(name, p, &points);
        write_and_print(
            &table,
            &format!("multiload_policy_{name}{}", family.suffix()),
        );
    }
}
