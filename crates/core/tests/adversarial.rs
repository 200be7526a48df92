//! Adversarial sweep of the solver entry points: every call returns a
//! typed error or a valid allocation, and none panics.
//!
//! Sizes run from NaN and ±∞ through zero, negatives and subnormals to
//! `f64::MAX`; exponents from NaN and 0.5 through `1 + 1e-12` to 100 and
//! ∞; serial fractions from NaN and −0.1 to `1 − 1e-12` and 1. Each
//! combination goes through [`equal_finish_parallel`], one warm
//! [`BatchSolver`] threaded through the whole sweep (so every solve
//! starts from whatever the previous one, valid or not, left behind) and
//! [`equal_finish_one_port`], on p ∈ {1, 2, 8} paper-uniform and p = 64
//! paper-lognormal platforms. A valid allocation has a finite positive
//! makespan, finite non-negative shares and `|Σx − n| ≤ 1e-9·n`.

use dlt_core::batch::BatchSolver;
use dlt_core::costmodel::CostLaw;
use dlt_core::nonlinear::{
    equal_finish_one_port, equal_finish_parallel, NonlinearAllocation, SolverConfig,
};
use dlt_core::DltError;
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};

const SIZES: [f64; 14] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -1.0,
    5e-324,
    1e-310,
    f64::MIN_POSITIVE,
    1e-300,
    1.0,
    1e9,
    1e100,
    1e300,
    f64::MAX,
];

const ALPHAS: [f64; 8] = [
    f64::NAN,
    0.5,
    1.0,
    1.0 + 1e-12,
    1.5,
    24.0,
    100.0,
    f64::INFINITY,
];

const SERIALS: [f64; 6] = [f64::NAN, -0.1, 0.0, 0.3, 1.0 - 1e-12, 1.0];

fn platforms() -> Vec<Platform> {
    let uniform = |p| PlatformSpec::new(p, SpeedDistribution::paper_uniform());
    let lognormal = PlatformSpec::new(64, SpeedDistribution::paper_lognormal());
    [uniform(1), uniform(2), uniform(8), lognormal]
        .iter()
        .map(|spec| spec.generate_stream(42, 0).unwrap())
        .collect()
}

/// Err, or Ok with a finite positive makespan, finite non-negative
/// shares and the load conserved to 1e-9 relative.
fn assert_valid(result: Result<NonlinearAllocation, DltError>, n: f64, ctx: &str) {
    let Ok(a) = result else { return };
    assert!(
        a.makespan > 0.0 && a.makespan.is_finite(),
        "{ctx}: Ok with makespan {}",
        a.makespan
    );
    assert!(
        a.x.iter().all(|&x| x >= 0.0 && x.is_finite()),
        "{ctx}: Ok with shares {:?}",
        a.x
    );
    let total: f64 = a.x.iter().sum();
    assert!(
        (total - n).abs() <= 1e-9 * n,
        "{ctx}: Ok with Σx = {total} for n = {n}"
    );
}

#[test]
fn solver_entry_points_return_a_typed_error_or_a_valid_allocation() {
    let config = SolverConfig::default();
    let mut warm = BatchSolver::default();
    for platform in platforms() {
        let p = platform.len();
        for n in SIZES {
            for alpha in ALPHAS {
                for serial in SERIALS {
                    let law = CostLaw { serial, alpha };
                    let ctx = |entry: &str| format!("{entry}, p = {p}, n = {n:e}, {law:?}");
                    assert_valid(
                        equal_finish_parallel(&platform, n, law),
                        n,
                        &ctx("equal_finish_parallel"),
                    );
                    assert_valid(
                        warm.solve(&platform, n, law, &config),
                        n,
                        &ctx("warm BatchSolver"),
                    );
                    assert_valid(
                        equal_finish_one_port(&platform, n, law, None),
                        n,
                        &ctx("equal_finish_one_port"),
                    );
                }
            }
        }
    }
}

#[test]
fn sizes_f64_cannot_solve_are_typed_errors() {
    let platform = PlatformSpec::new(8, SpeedDistribution::paper_uniform())
        .generate_stream(42, 0)
        .unwrap();
    // Subnormal loads are rejected up front, under every law.
    for n in [5e-324, 1e-310] {
        for alpha in [1.0, 2.0] {
            assert_eq!(
                equal_finish_parallel(&platform, n, alpha),
                Err(DltError::InvalidLoad { value: n })
            );
            assert_eq!(
                equal_finish_one_port(&platform, n, alpha, None),
                Err(DltError::InvalidLoad { value: n })
            );
        }
    }
    // A makespan or a share total past f64::MAX is an overflow error. The
    // linear law's parallel makespan is finite on these speeds, but the
    // f64 sum of its shares overflows.
    for alpha in [1.0, 2.0] {
        for result in [
            equal_finish_parallel(&platform, f64::MAX, alpha),
            equal_finish_one_port(&platform, f64::MAX, alpha, None),
        ] {
            assert!(
                matches!(result, Err(DltError::NoConvergence { context }) if context.contains("overflow")),
                "α = {alpha}: {result:?}"
            );
        }
    }
}
