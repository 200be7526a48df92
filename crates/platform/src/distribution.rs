//! Random speed profiles used by the paper's evaluation (Section 4.3).
//!
//! The paper draws worker processing speeds from three profiles:
//!
//! 1. **homogeneous** — all speeds equal;
//! 2. **uniform** over `[1, 100]`;
//! 3. **log-normal** with parameters `µ = 0`, `σ = 1`.
//!
//! `rand_distr` is deliberately not used; the log-normal sampler is derived
//! from a Box–Muller standard normal implemented here, which keeps the
//! dependency set to the approved list and makes the sampling logic
//! auditable.

#![expect(
    clippy::disallowed_methods,
    reason = "inverse-transform speed sampling; the committed CSVs pin these std bits"
)]

use crate::error::PlatformError;
use rand::Rng;

/// A distribution over strictly positive processing speeds.
#[derive(Debug, Clone, PartialEq)]
pub enum SpeedDistribution {
    /// Every worker gets exactly `value`.
    Homogeneous {
        /// The common speed (must be finite and > 0).
        value: f64,
    },
    /// Speeds drawn uniformly from `[lo, hi]`.
    Uniform {
        /// Lower bound (inclusive, > 0).
        lo: f64,
        /// Upper bound (inclusive, >= lo).
        hi: f64,
    },
    /// Speeds `exp(µ + σ·Z)` with `Z` standard normal.
    LogNormal {
        /// Location parameter of the underlying normal.
        mu: f64,
        /// Scale parameter of the underlying normal (>= 0).
        sigma: f64,
    },
}

impl SpeedDistribution {
    /// The paper's homogeneous profile (unit speed; ratios are scale-free).
    pub fn paper_homogeneous() -> Self {
        SpeedDistribution::Homogeneous { value: 1.0 }
    }

    /// The paper's uniform profile: `U[1, 100]`.
    pub fn paper_uniform() -> Self {
        SpeedDistribution::Uniform { lo: 1.0, hi: 100.0 }
    }

    /// The paper's log-normal profile: `LogNormal(µ=0, σ=1)`.
    pub fn paper_lognormal() -> Self {
        SpeedDistribution::LogNormal {
            mu: 0.0,
            sigma: 1.0,
        }
    }

    /// The three profiles of Figure 4, in paper order (a), (b), (c).
    pub fn paper_profiles() -> [SpeedDistribution; 3] {
        [
            Self::paper_homogeneous(),
            Self::paper_uniform(),
            Self::paper_lognormal(),
        ]
    }

    /// Validates the distribution parameters.
    pub fn validate(&self) -> Result<(), PlatformError> {
        let fail = |reason: String| Err(PlatformError::InvalidDistribution { reason });
        match *self {
            SpeedDistribution::Homogeneous { value } => {
                if !(value.is_finite() && value > 0.0) {
                    return fail(format!("homogeneous value must be > 0, got {value}"));
                }
            }
            SpeedDistribution::Uniform { lo, hi } => {
                if !(lo.is_finite() && lo > 0.0) {
                    return fail(format!("uniform lower bound must be > 0, got {lo}"));
                }
                if !(hi.is_finite() && hi >= lo) {
                    return fail(format!("uniform upper bound must be >= lo, got {hi}"));
                }
            }
            SpeedDistribution::LogNormal { mu, sigma } => {
                if !mu.is_finite() {
                    return fail(format!("log-normal mu must be finite, got {mu}"));
                }
                if !(sigma.is_finite() && sigma >= 0.0) {
                    return fail(format!("log-normal sigma must be >= 0, got {sigma}"));
                }
            }
        }
        Ok(())
    }

    /// Draws one speed. The result is always finite and strictly positive
    /// (log-normal draws are clamped away from underflow).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            SpeedDistribution::Homogeneous { value } => value,
            SpeedDistribution::Uniform { lo, hi } => {
                if lo == hi {
                    lo
                } else {
                    rng.gen_range(lo..=hi)
                }
            }
            SpeedDistribution::LogNormal { mu, sigma } => {
                let z = standard_normal(rng);
                (mu + sigma * z).exp().max(f64::MIN_POSITIVE * 1e16)
            }
        }
    }

    /// Draws `n` speeds.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Short machine-readable name (used in CSV names and columns).
    pub fn name(&self) -> &'static str {
        match self {
            SpeedDistribution::Homogeneous { .. } => "homogeneous",
            SpeedDistribution::Uniform { .. } => "uniform",
            SpeedDistribution::LogNormal { .. } => "lognormal",
        }
    }
}

/// One draw from the standard normal distribution via Box–Muller.
///
/// The second variate of the Box–Muller pair is discarded; the experiments
/// here sample a few hundred values per figure, so simplicity wins over the
/// factor-of-two saving.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] avoids ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn homogeneous_is_constant() {
        let d = SpeedDistribution::Homogeneous { value: 3.5 };
        let mut rng = seeded(1);
        for _ in 0..16 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let d = SpeedDistribution::paper_uniform();
        let mut rng = seeded(2);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((1.0..=100.0).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn uniform_mean_close_to_midpoint() {
        let d = SpeedDistribution::paper_uniform();
        let mut rng = seeded(3);
        let n = 50_000;
        let mean = d.sample_many(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!((mean - 50.5).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn lognormal_positive_and_median_near_one() {
        let d = SpeedDistribution::paper_lognormal();
        let mut rng = seeded(4);
        let mut v = d.sample_many(&mut rng, 50_001);
        assert!(v.iter().all(|&x| x > 0.0 && x.is_finite()));
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        // Median of LogNormal(0, 1) is e^0 = 1.
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn lognormal_mean_matches_theory() {
        // E[LogNormal(0,1)] = e^{1/2} ≈ 1.6487.
        let d = SpeedDistribution::paper_lognormal();
        let mut rng = seeded(5);
        let n = 200_000;
        let mean = d.sample_many(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!((mean - 1.6487).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(6);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(SpeedDistribution::Homogeneous { value: 0.0 }
            .validate()
            .is_err());
        assert!(SpeedDistribution::Uniform { lo: 0.0, hi: 1.0 }
            .validate()
            .is_err());
        assert!(SpeedDistribution::Uniform { lo: 2.0, hi: 1.0 }
            .validate()
            .is_err());
        assert!(SpeedDistribution::LogNormal {
            mu: f64::NAN,
            sigma: 1.0
        }
        .validate()
        .is_err());
        assert!(SpeedDistribution::LogNormal {
            mu: 0.0,
            sigma: -1.0
        }
        .validate()
        .is_err());
        for p in SpeedDistribution::paper_profiles() {
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn degenerate_uniform_is_constant() {
        let d = SpeedDistribution::Uniform { lo: 5.0, hi: 5.0 };
        let mut rng = seeded(8);
        assert_eq!(d.sample(&mut rng), 5.0);
    }
}
