//! Property-based tests for the platform model.

use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use proptest::prelude::*;

fn speed_vec() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..1000.0, 1..64)
}

proptest! {
    #[test]
    fn normalized_speeds_always_sum_to_one(speeds in speed_vec()) {
        let p = Platform::from_speeds(&speeds).unwrap();
        let x = p.normalized_speeds();
        let sum: f64 = x.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(x.iter().all(|&v| v > 0.0 && v <= 1.0));
    }

    #[test]
    fn min_le_max(speeds in speed_vec()) {
        let p = Platform::from_speeds(&speeds).unwrap();
        prop_assert!(p.min_speed() <= p.max_speed());
    }

    #[test]
    fn generated_platforms_have_positive_finite_speeds(
        p in 1usize..128,
        seed in any::<u64>(),
        profile in 0usize..3,
    ) {
        let dist = SpeedDistribution::paper_profiles()[profile].clone();
        let platform = PlatformSpec::new(p, dist).generate(seed).unwrap();
        prop_assert_eq!(platform.len(), p);
        for w in &platform {
            prop_assert!(w.speed().is_finite() && w.speed() > 0.0);
        }
    }

    #[test]
    fn total_speed_matches_sum(speeds in speed_vec()) {
        let p = Platform::from_speeds(&speeds).unwrap();
        let direct: f64 = speeds.iter().sum();
        prop_assert!((p.total_speed() - direct).abs() < 1e-9 * direct.max(1.0));
    }
}
