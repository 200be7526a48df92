//! Seeded generation of random platforms from a [`SpeedDistribution`].

use crate::distribution::SpeedDistribution;
use crate::error::PlatformError;
use crate::platform::Platform;
use crate::rng::seeded_stream;

/// A recipe for random platforms: worker count, speed profile and a common
/// inverse bandwidth.
///
/// The paper's Figure 4 experiments only depend on communication *volume*,
/// not on the link speeds, so the default `c_i = 1` is used everywhere; the
/// field exists so DLT makespan experiments can explore other regimes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Number of workers `p`.
    pub p: usize,
    /// Distribution the speeds are drawn from.
    pub distribution: SpeedDistribution,
    /// Inverse bandwidth `c_i` shared by all workers.
    pub inv_bandwidth: f64,
}

impl PlatformSpec {
    /// Spec with unit inverse bandwidth.
    pub fn new(p: usize, distribution: SpeedDistribution) -> Self {
        Self {
            p,
            distribution,
            inv_bandwidth: 1.0,
        }
    }

    /// Draws one platform using the given seed. The same `(spec, seed)` pair
    /// always yields the same platform.
    pub fn generate(&self, seed: u64) -> Result<Platform, PlatformError> {
        self.generate_stream(seed, 0)
    }

    /// Draws the `stream`-th platform of a family sharing `base_seed` —
    /// used for the "100 simulations with random parameters" loops of
    /// Section 4.3.
    pub fn generate_stream(&self, base_seed: u64, stream: u64) -> Result<Platform, PlatformError> {
        self.distribution.validate()?;
        if self.p == 0 {
            return Err(PlatformError::EmptyPlatform);
        }
        let mut rng = seeded_stream(base_seed, stream);
        let speeds = self.distribution.sample_many(&mut rng, self.p);
        let costs = vec![self.inv_bandwidth; self.p];
        Platform::from_speeds_and_costs(&speeds, &costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = PlatformSpec::new(20, SpeedDistribution::paper_uniform());
        let a = spec.generate(7).unwrap();
        let b = spec.generate(7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ() {
        let spec = PlatformSpec::new(20, SpeedDistribution::paper_uniform());
        let a = spec.generate_stream(7, 0).unwrap();
        let b = spec.generate_stream(7, 1).unwrap();
        assert_ne!(a.speeds(), b.speeds());
    }

    #[test]
    fn homogeneous_spec_yields_equal_speeds() {
        let spec = PlatformSpec::new(10, SpeedDistribution::paper_homogeneous());
        let p = spec.generate(1).unwrap();
        assert!(p.is_speed_homogeneous(0.0));
        assert_eq!(p.total_speed(), 10.0);
    }

    #[test]
    fn bandwidth_override_applies_to_all() {
        let spec = PlatformSpec {
            inv_bandwidth: 0.125,
            ..PlatformSpec::new(4, SpeedDistribution::paper_homogeneous())
        };
        let p = spec.generate(1).unwrap();
        assert_eq!(p.inv_bandwidths(), vec![0.125; 4]);
    }

    #[test]
    fn zero_workers_rejected() {
        let spec = PlatformSpec::new(0, SpeedDistribution::paper_homogeneous());
        assert!(spec.generate(1).is_err());
    }

    #[test]
    fn invalid_distribution_rejected() {
        let spec = PlatformSpec::new(3, SpeedDistribution::Uniform { lo: 5.0, hi: 1.0 });
        assert!(spec.generate(1).is_err());
    }

    #[test]
    fn uniform_spec_speeds_in_range() {
        let spec = PlatformSpec::new(100, SpeedDistribution::paper_uniform());
        let p = spec.generate(3).unwrap();
        assert!(p.min_speed() >= 1.0);
        assert!(p.max_speed() <= 100.0);
    }
}
