//! Closed-form communication-volume analysis (Sections 4.1.1–4.1.3).

use dlt_platform::Platform;

/// Analytic `Commhom` volume (Section 4.1.1), assuming the idealized
/// divisibility of the paper's derivation:
///
/// `Commhom = (1/x₁) · 2N√x₁ = 2N·√(Σ s_i / s₁)`.
pub fn commhom_analytic(platform: &Platform, n: usize) -> f64 {
    2.0 * n as f64 * (platform.total_speed() / platform.min_speed()).sqrt()
}

/// The paper's lower bound on the ratio `ρ = Commhom / Commhet`
/// (Section 4.1.3):
///
/// `ρ ≥ (4/7) · Σ s_i / (√s₁ · Σ √s_i)`.
pub fn rho_lower_bound(platform: &Platform) -> f64 {
    let sum_s = platform.total_speed();
    let sqrt_s1 = platform.min_speed().sqrt();
    let sum_sqrt: f64 = platform.iter().map(|w| w.speed().sqrt()).sum();
    (4.0 / 7.0) * sum_s / (sqrt_s1 * sum_sqrt)
}

/// Two-class bound (end of Section 4.1.3): when half the workers run at
/// speed `s₁` and half at `k·s₁`,
///
/// `ρ ≥ (1 + k)/(1 + √k) ≥ √k − 1`.
pub fn two_class_rho_bound(k: f64) -> f64 {
    assert!(k >= 1.0);
    (1.0 + k) / (1.0 + k.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commhom_homogeneous() {
        // p equal workers: 2N√p.
        let platform = Platform::homogeneous(25, 2.0, 1.0).unwrap();
        assert!((commhom_analytic(&platform, 100) - 2.0 * 100.0 * 5.0).abs() < 1e-9);
    }

    #[test]
    fn commhom_analytic_matches_simulated_when_divisible() {
        // Speed ratios 1:4 on 2 workers: 1/x1 = 5 blocks... not a perfect
        // square tiling, so test the exactly divisible homogeneous case.
        let platform = Platform::homogeneous(4, 1.0, 1.0).unwrap();
        let sim = crate::hom::hom_blocks(&platform, 120);
        assert!((commhom_analytic(&platform, 120) - sim.comm_volume).abs() < 1e-9);
    }

    #[test]
    fn rho_bound_homogeneous_is_four_sevenths() {
        let platform = Platform::homogeneous(10, 3.0, 1.0).unwrap();
        assert!((rho_lower_bound(&platform) - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn rho_bound_grows_with_heterogeneity() {
        let mild = Platform::two_class(10, 1.0, 2.0).unwrap();
        let wild = Platform::two_class(10, 1.0, 64.0).unwrap();
        assert!(rho_lower_bound(&wild) > rho_lower_bound(&mild));
    }

    #[test]
    fn two_class_bound_values() {
        assert!((two_class_rho_bound(1.0) - 1.0).abs() < 1e-12);
        // (1+4)/(1+2) = 5/3.
        assert!((two_class_rho_bound(4.0) - 5.0 / 3.0).abs() < 1e-12);
        // Dominates √k − 1 everywhere.
        for k in [1.0f64, 2.0, 9.0, 100.0, 1e4] {
            assert!(two_class_rho_bound(k) >= k.sqrt() - 1.0);
        }
    }

    #[test]
    fn two_class_platform_bound_consistency() {
        // For the p/2 + p/2 platform the general ρ bound equals
        // (4/7)·(1+k)/(√1·(1+√k)) — i.e. 4/7 times the two-class bound.
        let k = 9.0;
        let platform = Platform::two_class(8, 1.0, k).unwrap();
        let general = rho_lower_bound(&platform);
        let two_class = two_class_rho_bound(k);
        assert!((general - (4.0 / 7.0) * two_class).abs() < 1e-12);
    }

    #[test]
    fn measured_rho_respects_two_class_trend() {
        // Measured ρ = Commhom/Commhet grows roughly like √k.
        let n = 2048;
        let mut prev_rho = 0.0;
        for k in [4.0, 16.0, 64.0] {
            let platform = Platform::two_class(8, 1.0, k).unwrap();
            let hom = crate::hom::hom_blocks(&platform, n).comm_volume;
            let het = crate::het::het_rects(&platform, n).comm_volume;
            let rho = hom / het;
            assert!(rho > prev_rho, "k={k}: rho {rho} did not grow");
            // ρ must respect the analytic lower bound (het within 7/4·LB).
            assert!(rho >= rho_lower_bound(&platform) * 0.95, "k={k}");
            prev_rho = rho;
        }
    }

    #[test]
    #[should_panic]
    fn two_class_bound_rejects_k_below_one() {
        let _ = two_class_rho_bound(0.5);
    }
}
