//! Property-based tests: every partitioner must produce a valid partition
//! within its theoretical guarantee on arbitrary inputs.

use dlt_partition::{
    bisection_partition, lower_bound, peri_sum_partition, peri_sum_partition_reference,
    peri_sum_upper_bound, scale_to_grid, sqrt_columns_partition, validate_partition, PeriSumDp,
};
use proptest::prelude::*;

fn weights() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..100.0, 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn peri_sum_is_valid_and_within_guarantee(w in weights()) {
        let part = peri_sum_partition(&w).unwrap();
        prop_assert!(validate_partition(&part, &w, 1e-8).is_ok());
        let cost = part.total_half_perimeter();
        let lb = lower_bound(&w).unwrap();
        let ub = peri_sum_upper_bound(&w).unwrap();
        prop_assert!(cost >= lb - 1e-9, "cost {cost} below lower bound {lb}");
        prop_assert!(cost <= ub + 1e-9, "cost {cost} above guarantee {ub}");
    }

    #[test]
    fn bisection_is_valid(w in weights()) {
        let part = bisection_partition(&w).unwrap();
        prop_assert!(validate_partition(&part, &w, 1e-8).is_ok());
    }

    #[test]
    fn sqrt_columns_is_valid_and_dominated_by_dp(w in weights()) {
        let sq = sqrt_columns_partition(&w).unwrap();
        prop_assert!(validate_partition(&sq, &w, 1e-8).is_ok());
        let dp = peri_sum_partition(&w).unwrap();
        prop_assert!(dp.total_half_perimeter() <= sq.total_half_perimeter() + 1e-9);
    }

    #[test]
    fn dp_within_guarantee_of_bisection(w in weights()) {
        // Bisection is not column-based, so it may occasionally beat the
        // column-based DP; but the DP guarantee Ĉ ≤ 1 + (5/4)·LB and
        // bisection ≥ LB bound their gap.
        let dp = peri_sum_partition(&w).unwrap().total_half_perimeter();
        let bi = bisection_partition(&w).unwrap().total_half_perimeter();
        prop_assert!(dp <= 1.0 + 1.25 * bi + 1e-9, "dp {dp} vs bisection {bi}");
    }

    #[test]
    fn pruned_dp_matches_reference_bit_for_bit(w in weights()) {
        // Not approximate: the pruned DP must reproduce the reference's
        // costs and tie-breaks exactly, so downstream CSVs stay identical.
        let pruned = peri_sum_partition(&w).unwrap();
        let reference = peri_sum_partition_reference(&w).unwrap();
        prop_assert_eq!(pruned, reference);
    }

    #[test]
    fn reused_workspace_matches_fresh_runs(a in weights(), b in weights()) {
        // One workspace across instances of different sizes must behave
        // like fresh solves: no state may leak between calls.
        let mut dp = PeriSumDp::new();
        let first = dp.partition(&a).unwrap();
        let second = dp.partition(&b).unwrap();
        prop_assert_eq!(first, peri_sum_partition_reference(&a).unwrap());
        prop_assert_eq!(second, peri_sum_partition_reference(&b).unwrap());
    }

    #[test]
    fn grid_scaling_tiles_exactly(w in weights(), n in 1usize..256) {
        let part = peri_sum_partition(&w).unwrap();
        let grid = scale_to_grid(&part, n);
        let total: usize = grid.iter().map(|r| r.area()).sum();
        prop_assert_eq!(total, n * n);
    }
}
