//! The paper's closed-form analyses (Sections 2 and 3.1).

#![expect(
    clippy::disallowed_methods,
    reason = "the paper's closed-form Section 2 and 3.1 formulas, one evaluation per table row, pinned by the committed CSVs"
)]

/// Section 2: fraction of the total work **left over** after one optimal
/// DLT round of an `x^α` workload on `P` homogeneous workers:
///
/// `(W − W_partial)/W = 1 − 1/P^{α−1}`
///
/// For `α > 1` this tends to 1 as `P → ∞`: "asymptotically all the work
/// remains to be done after this first phase".
pub fn remaining_fraction_homogeneous(p: usize, alpha: f64) -> f64 {
    assert!(p > 0 && alpha >= 1.0);
    1.0 - (p as f64).powf(1.0 - alpha)
}

/// Section 3.1: for sorting (`W = N log N`), the fraction of work that is
/// *not* covered by the embarrassingly parallel local sorts:
///
/// `(W − W_partial)/W = log p / log N`
///
/// which is arbitrarily close to 0 for large `N` — sorting is "almost
/// divisible". Natural log or any common base cancels in the ratio.
pub fn sorting_nondivisible_fraction(n: f64, p: usize) -> f64 {
    assert!(n > 1.0 && p > 0);
    (p as f64).ln() / n.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_loads_leave_nothing() {
        // α = 1 → remaining fraction 0 for any P.
        assert_eq!(remaining_fraction_homogeneous(1, 1.0), 0.0);
        assert_eq!(remaining_fraction_homogeneous(1000, 1.0), 0.0);
    }

    #[test]
    fn quadratic_loads_leave_almost_everything() {
        // α = 2: remaining = 1 − 1/P.
        assert!((remaining_fraction_homogeneous(10, 2.0) - 0.9).abs() < 1e-12);
        assert!((remaining_fraction_homogeneous(100, 2.0) - 0.99).abs() < 1e-12);
        assert!(remaining_fraction_homogeneous(100_000, 2.0) > 0.99999 - 1e-12);
    }

    #[test]
    fn cubic_is_worse_than_quadratic() {
        for p in [2usize, 8, 64, 512] {
            assert!(
                remaining_fraction_homogeneous(p, 3.0) >= remaining_fraction_homogeneous(p, 2.0)
            );
        }
    }

    #[test]
    fn sorting_fraction_vanishes_with_n() {
        let p = 64;
        let f_small = sorting_nondivisible_fraction(1024.0, p);
        let f_large = sorting_nondivisible_fraction(1e9, p);
        assert!(f_large < f_small);
        assert!(f_large < 0.21);
        // Exact value: ln 64 / ln 2^20 = 6/20 for N = 2^20.
        let f = sorting_nondivisible_fraction((1u64 << 20) as f64, 64);
        assert!((f - 6.0 / 20.0).abs() < 1e-12);
    }
}
