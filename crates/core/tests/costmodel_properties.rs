//! Property tests for the pluggable cost-model layer.
//!
//! Two contracts are pinned down here:
//!
//! 1. **Bit identity of the default law's spellings.** A bare `f64` α
//!    and [`CostLaw::AlphaPower`] are one law:
//!    solving through either returns bit-for-bit the same shares
//!    and makespans, along warm-started installment sequences through the
//!    equal-finish kernel (the FIFO scheduler's solve pattern), and the
//!    result stays within `1e-9` of the nested-bisection oracle. This is
//!    what lets `LoadSpec` store a `CostLaw` while the single-load solver
//!    takes a bare α without changing a committed CSV byte.
//!
//! 2. **Accuracy of the Amdahl law.** For [`AmdahlSerial`] (including
//!    the degenerate corners `s → 0` and `s → 1`) the kernel must agree
//!    with the nested-bisection reference oracle to `1e-9` relative
//!    error.

use dlt_core::batch::BatchSolver;
use dlt_core::costmodel::{AmdahlSerial, CostLaw};
use dlt_core::nonlinear::{equal_finish_parallel, equal_finish_parallel_reference, SolverConfig};
use dlt_platform::Platform;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn platform_strategy() -> impl Strategy<Value = Platform> {
    let speeds = proptest::collection::vec(0.1f64..50.0, 1..24);
    speeds.prop_flat_map(|s| {
        let n = s.len();
        (Just(s), proptest::collection::vec(0.01f64..5.0, n..=n))
            .prop_map(|(speeds, costs)| Platform::from_speeds_and_costs(&speeds, &costs).unwrap())
    })
}

fn bits_of(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Both spellings of the α-power law drive the kernel through
    // identical arithmetic: warm-started installment sequences on one
    // handle per spelling agree bit for bit, and every solve stays inside
    // the oracle bound.
    #[test]
    fn alpha_power_spellings_are_bit_identical_through_the_kernel(
        platform in platform_strategy(),
        alpha in 1.0f64..3.0,
        loads in proptest::collection::vec(1.0f64..500.0, 1..6),
        linear_sel in 0usize..4,
    ) {
        // One in four cases pins alpha to 1.0 so the exact linear
        // inverse path stays in the sweep.
        let alpha = if linear_sel == 0 { 1.0 } else { alpha };
        let config = SolverConfig::default();
        let mut via_f64 = BatchSolver::default();
        let mut via_law = BatchSolver::default();
        for &n in &loads {
            let a = via_f64.solve(&platform, n, alpha, &config).unwrap();
            let b = via_law.solve(&platform, n, CostLaw::alpha_power(alpha), &config).unwrap();
            prop_assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            prop_assert_eq!(bits_of(&a.x), bits_of(&b.x));
            let oracle = equal_finish_parallel_reference(&platform, n, alpha).unwrap();
            prop_assert!(
                (a.makespan - oracle.makespan).abs() <= 1e-9 * oracle.makespan,
                "makespan {} vs oracle {} (alpha={alpha})",
                a.makespan,
                oracle.makespan
            );
        }
    }

    // Amdahl law: the kernel tracks the bisection
    // oracle to 1e-9, across the serial-fraction range including both
    // degenerate corners.
    #[test]
    fn amdahl_newton_matches_bisection_reference(
        platform in platform_strategy(),
        load in 1.0f64..500.0,
        alpha in 1.0f64..3.0,
        serial_sel in 0usize..5,
        serial_mid in 0.0f64..1.0,
    ) {
        // Force the corners into the sweep: s → 0 and s → 1 exercise the
        // pure-power and pure-linear fast paths respectively.
        let serial = [0.0, 1e-12, serial_mid, 1.0 - 1e-12, 1.0][serial_sel];
        let model = AmdahlSerial { serial, alpha };
        let newton = equal_finish_parallel(&platform, load, model).unwrap();
        let oracle = equal_finish_parallel_reference(&platform, load, model).unwrap();
        prop_assert!(
            (newton.makespan - oracle.makespan).abs() <= 1e-9 * oracle.makespan,
            "makespan {} vs oracle {} (s={serial}, alpha={alpha})",
            newton.makespan,
            oracle.makespan
        );
        for (a, b) in newton.x.iter().zip(&oracle.x) {
            prop_assert!(
                (a - b).abs() <= 1e-9 * load,
                "share {a} vs oracle {b} (s={serial}, alpha={alpha})"
            );
        }
    }
}

#[test]
fn amdahl_endpoints_are_exact() {
    let platform = Platform::from_speeds_and_costs(&[1.0, 2.0], &[0.3, 0.4]).unwrap();
    // s = 1: fully linear, rate c + w per worker — matches α = 1.
    let serial = equal_finish_parallel(
        &platform,
        64.0,
        AmdahlSerial {
            serial: 1.0,
            alpha: 2.5,
        },
    )
    .unwrap();
    let linear = equal_finish_parallel(&platform, 64.0, 1.0f64).unwrap();
    assert!((serial.makespan - linear.makespan).abs() <= 1e-12 * linear.makespan);
    // s = 0: the pure α-power law.
    let zero = equal_finish_parallel(
        &platform,
        64.0,
        AmdahlSerial {
            serial: 0.0,
            alpha: 2.5,
        },
    )
    .unwrap();
    let pure = equal_finish_parallel(&platform, 64.0, 2.5f64).unwrap();
    assert!((zero.makespan - pure.makespan).abs() <= 1e-9 * pure.makespan);
}
