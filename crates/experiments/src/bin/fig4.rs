//! Regenerates Figure 4: `cargo run --release -p dlt-experiments --bin
//! fig4 -- [homogeneous|uniform|lognormal|all] [--trials T] [--n N]
//! [--seed S] [--threads W]`.
//!
//! Defaults follow the paper: p ∈ {10,20,40,60,80,100}, 100 trials per
//! point, dispatched over all cores (`--threads 0`; results are identical
//! for every thread count). Prints the table, an ASCII rendition of the
//! figure, and writes `results/fig4_<profile>.csv`.

use dlt_experiments::fig4::{fig4_table, run_fig4, series_for, PAPER_P_VALUES, PAPER_TRIALS};
use dlt_experiments::runner::{
    flag_or, flags, parse_flags, profiles, thread_count, write_and_print,
};
use dlt_outer::Strategy;
use dlt_stats::AsciiPlot;

fn main() {
    let flags = parse_flags(std::env::args().skip(1), flags::FIG4);
    let profiles = profiles(&flags, "all");
    let trials: usize = flag_or(&flags, "trials", PAPER_TRIALS);
    let n: usize = flag_or(&flags, "n", 10_000);
    let seed: u64 = flag_or(&flags, "seed", 42);
    let threads = thread_count(&flags);

    for profile in profiles {
        let name = profile.name();
        eprintln!(
            "running fig4 profile={name} trials={trials} n={n} seed={seed} threads={threads} ..."
        );
        let points = run_fig4(&profile, &PAPER_P_VALUES, trials, n, seed, threads);
        let table = fig4_table(name, &points);
        write_and_print(&table, &format!("fig4_{name}"));

        let mut plot = AsciiPlot::new(
            &format!("Figure 4 ({name}): communication / lower bound vs p"),
            64,
            16,
        )
        .with_labels("number of processors", "ratio to LBComm");
        plot.series("Commhet", 'h', &series_for(&points, Strategy::HetRects));
        plot.series("Commhom", 'o', &series_for(&points, Strategy::HomBlocks));
        plot.series(
            "Commhom/k",
            'k',
            &series_for(
                &points,
                Strategy::HomBlocksRefined {
                    target: dlt_outer::strategies::PAPER_IMBALANCE_TARGET,
                },
            ),
        );
        println!("{}", plot.render());
    }
}
