//! The multi-load problem instance: a batch of [`LoadSpec`]s.

use crate::error::MultiLoadError;
use dlt_core::costmodel::{CostLaw, CostModel};
use dlt_core::nonlinear;
use dlt_platform::Platform;

/// One divisible load of a multi-load batch.
///
/// Processing `x` data units of this load on worker `i` costs
/// `model.cost(c_i, w_i, x)` time — the α-power model of
/// [`dlt_core::nonlinear`] (`c_i · x + w_i · x^alpha`; `alpha = 1` is the
/// classical linear load) for a bare exponent, the Amdahl law for a
/// [`CostLaw`] with a serial fraction. The load becomes available for
/// distribution at `release`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// Total data units `N_j` of this load.
    pub size: f64,
    /// Per-worker cost law of this load ([`CostLaw::alpha_power`] with
    /// `α_j ≥ 1` for the paper's workloads).
    pub model: CostLaw,
    /// Release time `r_j ≥ 0`: no byte of this load may be distributed or
    /// processed before this instant.
    pub release: f64,
}

impl LoadSpec {
    /// Validated constructor; `law` is a [`CostLaw`] or a bare α-power
    /// exponent. A bad law is the solver's own error,
    /// [`MultiLoadError::Solver`].
    pub fn new(size: f64, law: impl Into<CostLaw>, release: f64) -> Result<Self, MultiLoadError> {
        let model = law.into();
        if !(size.is_finite() && size > 0.0) {
            return Err(MultiLoadError::InvalidSize { value: size });
        }
        model.validate()?;
        if !(release.is_finite() && release >= 0.0) {
            return Err(MultiLoadError::InvalidRelease { value: release });
        }
        Ok(Self {
            size,
            model,
            release,
        })
    }

    /// A load released at time 0.
    pub fn immediate(size: f64, law: impl Into<CostLaw>) -> Result<Self, MultiLoadError> {
        Self::new(size, law, 0.0)
    }

    /// The exponent `α_j` of this load's cost law.
    pub fn alpha(&self) -> f64 {
        self.model.alpha
    }

    /// Total work this load represents (`N_j^{α_j}` under the α-power
    /// law).
    pub fn total_work(&self) -> f64 {
        self.model.work(self.size)
    }

    /// Makespan of this load **alone** on `platform`, released immediately:
    /// the optimal single-round equal-finish-time makespan of
    /// [`nonlinear::equal_finish_parallel`]. This is the denominator of the
    /// stretch metric — how much a schedule dilates a load relative to
    /// having the platform to itself.
    pub fn alone_makespan(&self, platform: &Platform) -> Result<f64, MultiLoadError> {
        Ok(nonlinear::equal_finish_parallel(platform, self.size, self.model)?.makespan)
    }
}

/// Indices of `loads` sorted by non-decreasing release time, ties broken by
/// index — the order the batch schedulers feed the engine and the
/// interleaving order of the round-robin scheduler. The sort is total
/// (`f64::total_cmp`) and stable, so the order is deterministic.
pub(crate) fn release_order(loads: &[LoadSpec]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|&a, &b| {
        loads[a]
            .release
            .total_cmp(&loads[b].release)
            .then(a.cmp(&b))
    });
    order
}

/// Validates a batch: non-empty and every load individually valid.
pub(crate) fn validate_batch(loads: &[LoadSpec]) -> Result<(), MultiLoadError> {
    if loads.is_empty() {
        return Err(MultiLoadError::EmptyBatch);
    }
    for l in loads {
        // Re-run the constructor checks: specs can be built literally.
        LoadSpec::new(l.size, l.model, l.release)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_core::DltError;

    #[test]
    fn constructor_validates() {
        assert!(LoadSpec::new(1.0, 1.0, 0.0).is_ok());
        assert!(matches!(
            LoadSpec::new(0.0, 2.0, 0.0),
            Err(MultiLoadError::InvalidSize { .. })
        ));
        // One bad exponent, one error, whichever way the law is spelled.
        let bad_alpha = Err(MultiLoadError::Solver(DltError::InvalidAlpha {
            value: 0.5,
        }));
        assert_eq!(LoadSpec::new(1.0, 0.5, 0.0), bad_alpha);
        assert_eq!(
            LoadSpec::new(1.0, CostLaw::alpha_power(0.5), 0.0),
            bad_alpha
        );
        assert!(matches!(
            LoadSpec::new(1.0, 2.0, -1.0),
            Err(MultiLoadError::InvalidRelease { .. })
        ));
        assert!(LoadSpec::new(f64::NAN, 2.0, 0.0).is_err());
        // Amdahl laws validate through the law itself.
        let amdahl = |serial| CostLaw { serial, alpha: 2.0 };
        assert!(LoadSpec::new(1.0, amdahl(0.3), 0.0).is_ok());
        assert!(matches!(
            LoadSpec::new(1.0, amdahl(1.5), 0.0),
            Err(MultiLoadError::Solver(DltError::InvalidModel { .. }))
        ));
    }

    #[test]
    fn release_order_is_stable_on_ties() {
        let loads = vec![
            LoadSpec::new(1.0, 1.0, 5.0).unwrap(),
            LoadSpec::new(2.0, 1.0, 0.0).unwrap(),
            LoadSpec::new(3.0, 1.0, 5.0).unwrap(),
            LoadSpec::new(4.0, 1.0, 2.0).unwrap(),
        ];
        assert_eq!(release_order(&loads), vec![1, 3, 0, 2]);
    }

    #[test]
    fn total_work_is_power_law() {
        let l = LoadSpec::immediate(10.0, 2.0).unwrap();
        assert_eq!(l.total_work(), 100.0);
        assert_eq!(l.alpha(), 2.0);
        let lin = LoadSpec::immediate(10.0, 1.0).unwrap();
        assert_eq!(lin.total_work(), 10.0);
    }

    #[test]
    fn alone_makespan_matches_single_load_solver() {
        let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        let l = LoadSpec::immediate(20.0, 2.0).unwrap();
        let direct = nonlinear::equal_finish_parallel(&platform, 20.0, 2.0)
            .unwrap()
            .makespan;
        assert_eq!(l.alone_makespan(&platform).unwrap(), direct);
    }

    #[test]
    fn amdahl_load_routes_model_into_solver() {
        let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        let model = CostLaw {
            serial: 0.4,
            alpha: 2.0,
        };
        let l = LoadSpec::new(20.0, model, 0.0).unwrap();
        let direct = nonlinear::equal_finish_parallel(&platform, 20.0, model)
            .unwrap()
            .makespan;
        assert_eq!(l.alone_makespan(&platform).unwrap(), direct);
        assert_eq!(l.total_work(), model.work(20.0));
    }

    #[test]
    fn batch_validation() {
        assert!(matches!(
            validate_batch(&[]),
            Err(MultiLoadError::EmptyBatch)
        ));
        let bad = LoadSpec {
            size: -1.0,
            model: CostLaw::alpha_power(2.0),
            release: 0.0,
        };
        assert!(validate_batch(&[bad]).is_err());
        let ok = LoadSpec::immediate(1.0, 1.5).unwrap();
        assert!(validate_batch(&[ok]).is_ok());
    }
}
