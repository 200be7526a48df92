//! Soak gates: long streamed traces through the service engine, healthy
//! and under failures.
//!
//! The CI-scale gates are ignored in a plain `cargo test` (a debug build
//! takes ~26 s on the service soak); CI runs them in release with
//! `cargo test --release -p dlt-experiments --test soak -- --include-ignored`.
//! The small sizes next to them run in every `cargo test`.

use dlt_experiments::competitive::run_soak;
use dlt_experiments::multiload::{DEFAULT_ALPHAS, DEFAULT_BASE_SIZE};
use dlt_experiments::runner::resolve_threads;
use dlt_experiments::service::{run_service, smoke_cells, DEFAULT_UTILIZATION};
use dlt_platform::SpeedDistribution;

/// Streams a `loads`-long Poisson trace through every smoke cell of the
/// service engine (p = 4, uniform profile) and fails if any cell's
/// pending-set high-water mark exceeds `cap`: the steady-memory claim.
fn service_soak(loads: usize, seed: u64, cap: usize) {
    let cells = smoke_cells();
    let points = run_service(
        &SpeedDistribution::paper_uniform(),
        4,
        loads,
        DEFAULT_BASE_SIZE,
        &DEFAULT_ALPHAS,
        DEFAULT_UTILIZATION,
        &cells,
        seed,
        resolve_threads(0),
    );
    assert_eq!(points.len(), cells.len());
    for pt in &points {
        assert_eq!(pt.report.loads, loads as u64, "{:?}", pt.cell);
        assert!(
            pt.report.pending_high_water <= cap,
            "{:?}: peak pending {} exceeds {cap}",
            pt.cell,
            pt.report.pending_high_water
        );
    }
}

/// Runs the fault-injection soak and fails on its first violation.
fn fault_soak(loads: usize, p: usize, seed: u64) {
    if let Err(e) = run_soak(loads, p, seed) {
        panic!("fault-injection soak ({loads} loads, p = {p}, seed {seed}): {e}");
    }
}

// The service engine must drain a hundred-thousand-load arrival stream
// with its pending-set high-water mark bounded by the backlog.
#[test]
#[ignore = "CI gate, run in release: 10^5 loads take ~26 s in a debug build"]
fn service_soak_keeps_the_pending_set_bounded() {
    service_soak(100_000, 42, 4096);
}

#[test]
fn service_soak_at_smoke_scale() {
    service_soak(200, 1, 200);
}

// The failure-path twin of the service soak: a bursty MMPP trace served
// through `serve_trace_with_failures` under a dense degradation
// schedule. Every completed load's installment ledger must replay to
// exactly-zero remaining data (bitwise conservation across every cut),
// the run must actually take interruptions, and the whole thing is
// deterministic for the pinned seed.
#[test]
#[ignore = "CI gate, run in release: 2*10^4 loads take ~3.5 s in a debug build"]
fn fault_injection_soak_conserves_every_ledger() {
    fault_soak(20_000, 8, 7);
}

#[test]
fn fault_injection_soak_at_smoke_scale() {
    fault_soak(300, 4, 7);
}
