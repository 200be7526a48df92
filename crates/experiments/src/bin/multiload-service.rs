//! Service-engine throughput sweep: `cargo run --release -p
//! dlt-experiments --bin multiload-service --
//! [homogeneous|uniform|lognormal|all] [--smoke] [--loads N] [--p P]
//! [--n BASE_SIZE] [--utilization U] [--seed S] [--trace FILE]
//! [--assert-peak-pending N] [--model FAMILY]`. `--model` applies to
//! generated traces only (a `--trace` file fixes each line's law via its
//! alpha column); non-default families write suffixed CSVs.
//!
//! Streams a Poisson arrival trace (default 10⁶ loads; `--trace FILE`
//! replays `size,alpha,release` lines instead) through the
//! `dlt-multiload` service engine, one cell per admission order ×
//! window × installment policy, printing the table and writing
//! `results/multiload_service_<profile>.csv`. Cells run serially so
//! decisions/sec is a clean single-core measurement. `--smoke` trims to
//! three cells, 2000 loads, p = 4 and the uniform profile (each
//! overridable) — the CI soak passes `--smoke --loads 100000
//! --assert-peak-pending N`, which fails the run if any cell's
//! pending-set high-water mark exceeds `N` (the steady-memory gate).

use dlt_experiments::models::model_family;
use dlt_experiments::multiload::{DEFAULT_ALPHAS, DEFAULT_BASE_SIZE};
use dlt_experiments::runner::{flag_or, flags, parse_flags, profiles, write_and_print, Positive};
use dlt_experiments::service::{
    default_cells, file_trace, run_service, run_service_cell, service_table, smoke_cells,
    ServicePoint, DEFAULT_SERVICE_LOADS, DEFAULT_SERVICE_P, DEFAULT_UTILIZATION,
};
use dlt_platform::PlatformSpec;

fn main() {
    let flags = parse_flags(std::env::args().skip(1), flags::MULTILOAD_SERVICE);
    let smoke = flags.contains_key("smoke");
    let profiles = profiles(&flags, if smoke { "uniform" } else { "all" });
    let loads: usize = flag_or(
        &flags,
        "loads",
        if smoke { 2_000 } else { DEFAULT_SERVICE_LOADS },
    );
    let default_p = if smoke { 4 } else { DEFAULT_SERVICE_P };
    let Positive(p) = flag_or(&flags, "p", Positive(default_p));
    let Positive(base_size) = flag_or(&flags, "n", Positive(DEFAULT_BASE_SIZE));
    let Positive(utilization) = flag_or(&flags, "utilization", Positive(DEFAULT_UTILIZATION));
    let seed: u64 = flag_or(&flags, "seed", 42);
    let peak_cap: usize = flag_or(&flags, "assert-peak-pending", usize::MAX);
    let family = model_family(&flags);
    let trace_file = flags
        .get("trace")
        .and_then(|v| v.first())
        .map(std::path::PathBuf::from);
    let cells = if smoke {
        smoke_cells()
    } else {
        default_cells()
    };

    let mut peak_violation = false;
    for profile in profiles {
        let name = profile.name();
        eprintln!(
            "running multiload-service profile={name} p={p} loads={loads} n={base_size} \
             utilization={utilization} seed={seed} cells={} ...",
            cells.len()
        );
        let points: Vec<ServicePoint> = match &trace_file {
            Some(path) => {
                // File replay: the file defines releases, so the
                // utilization/pacing knobs are ignored; every cell
                // re-streams the file from the start.
                let platform = PlatformSpec::new(p, profile.clone())
                    .generate_stream(seed, 0)
                    .expect("valid spec");
                cells
                    .iter()
                    .map(|&cell| run_service_cell(&platform, file_trace(path), cell))
                    .collect()
            }
            None => run_service(
                &profile,
                p,
                loads,
                base_size,
                &DEFAULT_ALPHAS,
                utilization,
                &cells,
                seed,
                family,
            ),
        };
        for pt in &points {
            eprintln!(
                "  {:>16} batch={} {:<14} {:>10.0} decisions/sec peak_pending={}",
                pt.cell.order.name(),
                pt.cell.batch,
                pt.cell.installments_label(),
                pt.decisions_per_sec,
                pt.report.pending_high_water,
            );
            if pt.report.pending_high_water > peak_cap {
                eprintln!(
                    "  FAIL: peak pending {} exceeds --assert-peak-pending {peak_cap}",
                    pt.report.pending_high_water
                );
                peak_violation = true;
            }
        }
        let table = service_table(name, p, loads, utilization, &points);
        write_and_print(
            &table,
            &format!("multiload_service_{name}{}", family.suffix()),
        );
    }
    if peak_violation {
        std::process::exit(1);
    }
}
