//! Property-based tests for the DLT solvers: conservation, equal finish,
//! and consistency with the discrete-event simulator on arbitrary
//! platforms.

use dlt_core::{analysis, linear, nonlinear};
use dlt_platform::Platform;
use dlt_sim::simulate;
use proptest::prelude::*;

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

    #[test]
    fn linear_parallel_conserves_load_and_equalizes_finish(
        platform in platform_strategy(),
        load in 0.1f64..1e4,
    ) {
        let a = linear::single_round_parallel(&platform, load);
        prop_assert!((a.total() - load).abs() < 1e-6 * load);
        let report = simulate(&platform, &a.to_schedule());
        for t in report.finish_times() {
            prop_assert!((t - a.makespan).abs() < 1e-6 * a.makespan.max(1.0));
        }
    }

    #[test]
    fn linear_one_port_closed_form_matches_simulation(
        platform in platform_strategy(),
        load in 0.1f64..1e4,
    ) {
        let a = linear::single_round_one_port(&platform, load, None).unwrap();
        prop_assert!((a.total() - load).abs() < 1e-6 * load);
        let report = simulate(&platform, &a.to_schedule());
        prop_assert!((report.makespan - a.makespan).abs() < 1e-6 * a.makespan.max(1.0));
    }

    #[test]
    fn one_port_bandwidth_order_beats_reverse(
        platform in platform_strategy(),
        load in 1.0f64..100.0,
    ) {
        let best = linear::single_round_one_port(&platform, load, None).unwrap();
        let mut reversed = linear::optimal_one_port_order(&platform);
        reversed.reverse();
        let alt = linear::single_round_one_port(&platform, load, Some(reversed)).unwrap();
        prop_assert!(best.makespan <= alt.makespan + 1e-6 * alt.makespan);
    }

    #[test]
    fn nonlinear_parallel_conserves_and_equalizes(
        platform in platform_strategy(),
        load in 1.0f64..500.0,
        alpha in 1.0f64..3.0,
    ) {
        let a = nonlinear::equal_finish_parallel(&platform, load, alpha).unwrap();
        prop_assert!((a.x.iter().sum::<f64>() - load).abs() < 1e-6 * load);
        prop_assert!(a.x.iter().all(|&x| x >= 0.0));
        let report = simulate(&platform, &a.to_schedule());
        for t in report.finish_times() {
            prop_assert!(
                (t - a.makespan).abs() < 1e-4 * a.makespan.max(1.0),
                "finish {} vs makespan {}", t, a.makespan
            );
        }
    }

    #[test]
    fn nonlinear_work_fraction_bounded_by_closed_form(
        p in 1usize..64,
        alpha in 1.0f64..3.0,
    ) {
        // On homogeneous platforms the solver must reproduce 1/P^{α−1}.
        let platform = Platform::homogeneous(p, 1.0, 1.0).unwrap();
        let a = nonlinear::equal_finish_parallel(&platform, 256.0, alpha).unwrap();
        let expect = 1.0 - analysis::remaining_fraction_homogeneous(p, alpha);
        prop_assert!(
            (a.work_fraction_done() - expect).abs() < 1e-6,
            "fraction {} vs closed form {}", a.work_fraction_done(), expect
        );
    }

    #[test]
    fn newton_solver_matches_bisection_reference_parallel(
        platform in platform_strategy(),
        load in 0.5f64..2e3,
        alpha in 1.0f64..4.0,
    ) {
        // The ≤1e-9 relative-error contract of docs/solver.md: the Newton
        // solver and the nested-bisection oracle agree on the makespan
        // (relative) and on every share (relative to the load — a share
        // can legitimately be ~0 behind a slow link).
        let newton = nonlinear::equal_finish_parallel(&platform, load, alpha).unwrap();
        let oracle = nonlinear::equal_finish_parallel_reference(&platform, load, alpha).unwrap();
        prop_assert!(
            (newton.makespan - oracle.makespan).abs() <= 1e-9 * oracle.makespan,
            "makespan {} vs oracle {}", newton.makespan, oracle.makespan
        );
        for (a, b) in newton.x.iter().zip(&oracle.x) {
            prop_assert!((a - b).abs() <= 1e-9 * load, "share {a} vs oracle {b}");
        }
    }

    #[test]
    fn newton_solver_matches_bisection_reference_one_port(
        platform in platform_strategy(),
        load in 0.5f64..2e3,
        alpha in 1.0f64..4.0,
    ) {
        let newton = nonlinear::equal_finish_one_port(&platform, load, alpha, None).unwrap();
        let oracle =
            nonlinear::equal_finish_one_port_reference(&platform, load, alpha, None).unwrap();
        prop_assert!(
            (newton.makespan - oracle.makespan).abs() <= 1e-9 * oracle.makespan,
            "makespan {} vs oracle {}", newton.makespan, oracle.makespan
        );
        for (a, b) in newton.x.iter().zip(&oracle.x) {
            prop_assert!((a - b).abs() <= 1e-9 * load, "share {a} vs oracle {b}");
        }
        prop_assert_eq!(&newton.order, &oracle.order);
    }

    #[test]
    fn more_workers_never_hurt_makespan_linear(
        speeds in proptest::collection::vec(0.1f64..10.0, 2..16),
        load in 1.0f64..100.0,
    ) {
        let full = Platform::from_speeds(&speeds).unwrap();
        let fewer = Platform::from_speeds(&speeds[..speeds.len() - 1]).unwrap();
        let a_full = linear::single_round_parallel(&full, load);
        let a_fewer = linear::single_round_parallel(&fewer, load);
        prop_assert!(a_full.makespan <= a_fewer.makespan + 1e-9);
    }
}
