//! Property-based tests for the dense kernels.

use dlt_linalg::{gemm_naive, outer_product, Matrix};
use proptest::prelude::*;
use rand::SeedableRng;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::random(rows, cols, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn identity_is_neutral(n in 1usize..24, seed in any::<u64>()) {
        let a = random_matrix(n, n, seed);
        let id = Matrix::identity(n);
        prop_assert!(gemm_naive(&a, &id).approx_eq(&a, 1e-12));
        prop_assert!(gemm_naive(&id, &a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn gemm_distributes_over_scaling(n in 1usize..12, seed in any::<u64>()) {
        // (2A)·B == 2(A·B) — linearity sanity check.
        let a = random_matrix(n, n, seed);
        let b = random_matrix(n, n, seed ^ 1);
        let doubled = Matrix::from_fn(n, n, |i, j| 2.0 * a.get(i, j));
        let lhs = gemm_naive(&doubled, &b);
        let base = gemm_naive(&a, &b);
        let rhs = Matrix::from_fn(n, n, |i, j| 2.0 * base.get(i, j));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn outer_product_matches_gemm(
        m in 1usize..24,
        n in 1usize..24,
        seed in any::<u64>(),
    ) {
        let a_col = random_matrix(m, 1, seed);
        let b_row = random_matrix(1, n, seed ^ 2);
        let via_gemm = gemm_naive(&a_col, &b_row);
        let a: Vec<f64> = (0..m).map(|i| a_col.get(i, 0)).collect();
        let b: Vec<f64> = (0..n).map(|j| b_row.get(0, j)).collect();
        prop_assert!(outer_product(&a, &b).approx_eq(&via_gemm, 1e-12));
    }
}
