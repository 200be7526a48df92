//! Property tests for the cost law.
//!
//! Two contracts are pinned down here:
//!
//! 1. **The α-power law is the law at `s = 0`, bit for bit.** A bare
//!    `f64` α converts into [`CostLaw`] with serial fraction 0, and at
//!    `s = 0` the law's scalar methods return the bits of the paper's
//!    α-power formulas (`c·x + w·x^α`, its residual and derivative, and
//!    the bound `min(t/c, (t/w)^{1/α})`). Warm-started installment
//!    sequences through the equal-finish kernel (the FIFO scheduler's
//!    solve pattern) stay within `1e-9` of the nested-bisection oracle.
//!
//! 2. **Accuracy of the Amdahl law.** For every serial fraction
//!    (including the degenerate corners `s → 0` and `s → 1`) the kernel
//!    must agree with the nested-bisection reference oracle to `1e-9`
//!    relative error.

// The α-power formulas are spelled out with std `powf`, as the law's
// scalar methods compute them.
#![allow(clippy::disallowed_methods)]

use dlt_core::batch::BatchSolver;
use dlt_core::costmodel::{CostLaw, CostModel};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The law at s = 0 computes the α-power formulas bit for bit, and a
    // bare exponent converts into exactly that law.
    #[test]
    fn the_law_at_zero_serial_fraction_is_the_alpha_power_law_bitwise(
        alpha in 1.0f64..24.0,
        c in 0.0f64..5.0,
        w in 0.02f64..10.0,
        x in 1e-6f64..1e3,
        t in 1e-6f64..1e6,
    ) {
        let law = CostLaw::from(alpha);
        prop_assert!(law.bits_eq(&CostLaw { serial: 0.0, alpha }));
        prop_assert_eq!(law.work(x).to_bits(), x.powf(alpha).to_bits());
        prop_assert_eq!(
            law.cost(c, w, x).to_bits(),
            (c * x + w * x.powf(alpha)).to_bits()
        );
        let xam1 = x.powf(alpha - 1.0);
        let (fx, dfdx) = law.residual_deriv(c, w, x, t);
        prop_assert_eq!(fx.to_bits(), ((c + w * xam1) * x - t).to_bits());
        prop_assert_eq!(dfdx.to_bits(), (c + alpha * w * xam1).to_bits());
        let by_pow = (t / w).powf(1.0 / alpha);
        let bound = if c > 0.0 { (t / c).min(by_pow) } else { by_pow };
        prop_assert_eq!(law.inverse_upper_bound(c, w, t).to_bits(), bound.to_bits());
    }

    // Warm-started installment sequences of the α-power law through one
    // handle stay inside the oracle bound.
    #[test]
    fn alpha_power_warm_sequences_meet_the_oracle_bound(
        platform in platform_strategy(),
        alpha in 1.0f64..3.0,
        loads in proptest::collection::vec(1.0f64..500.0, 1..6),
        linear_sel in 0usize..4,
    ) {
        // One in four cases pins alpha to 1.0 so the exact linear
        // inverse path stays in the sweep.
        let alpha = if linear_sel == 0 { 1.0 } else { alpha };
        let config = SolverConfig::default();
        let mut solver = BatchSolver::default();
        for &n in &loads {
            let a = solver.solve(&platform, n, alpha, &config).unwrap();
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
        let law = CostLaw { serial, alpha };
        let newton = equal_finish_parallel(&platform, load, law).unwrap();
        let oracle = equal_finish_parallel_reference(&platform, load, law).unwrap();
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
        CostLaw {
            serial: 1.0,
            alpha: 2.5,
        },
    )
    .unwrap();
    let linear = equal_finish_parallel(&platform, 64.0, 1.0).unwrap();
    assert!((serial.makespan - linear.makespan).abs() <= 1e-12 * linear.makespan);
    // s = 0: the pure α-power law, bit for bit.
    let zero = equal_finish_parallel(
        &platform,
        64.0,
        CostLaw {
            serial: 0.0,
            alpha: 2.5,
        },
    )
    .unwrap();
    let pure = equal_finish_parallel(&platform, 64.0, 2.5).unwrap();
    assert_eq!(zero, pure);
}
