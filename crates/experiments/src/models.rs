//! Cost-law families the multi-load and Section 2 runners sweep.
//!
//! A [`ModelFamily`] is a cost-law *family* with every parameter fixed
//! except the swept exponent α: a runner keeps sweeping its usual alpha
//! list and [`ModelFamily::law`] turns each α into a concrete
//! [`CostLaw`] for the solver stack. The artifact table runs every sweep
//! under [`ModelFamily::AlphaPower`], the paper's law; the other
//! families are one runner argument away (`perfbench` sweeps
//! [`ModelFamily::AmdahlSerial`]).

use dlt_core::costmodel::CostLaw;

/// A cost-law family parameterized by the swept exponent α.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelFamily {
    /// `c·x + w·x^α` — the paper's law, the one the committed CSVs use.
    AlphaPower,
    /// Amdahl serial-fraction law with the serial share fixed.
    AmdahlSerial {
        /// Serial fraction `s ∈ [0, 1]` of [`CostLaw::AmdahlSerial`].
        serial: f64,
    },
    /// Affine-latency law with the per-message setup time fixed.
    AffineLatency {
        /// Setup time `L ≥ 0` of [`CostLaw::AffineLatency`].
        latency: f64,
    },
    /// Regime-switching law with the knee and upper exponent fixed.
    Piecewise {
        /// Knee position `x₀ > 0` of [`CostLaw::Piecewise`].
        threshold: f64,
        /// Exponent above the knee; clamped up to the swept α so the
        /// `alpha_lo ≤ alpha_hi` convexity contract always holds.
        alpha_hi: f64,
    },
}

impl ModelFamily {
    /// The concrete cost law at sweep exponent `alpha`.
    pub fn law(&self, alpha: f64) -> CostLaw {
        match *self {
            ModelFamily::AlphaPower => CostLaw::alpha_power(alpha),
            ModelFamily::AmdahlSerial { serial } => CostLaw::AmdahlSerial { serial, alpha },
            ModelFamily::AffineLatency { latency } => CostLaw::AffineLatency { latency, alpha },
            ModelFamily::Piecewise {
                threshold,
                alpha_hi,
            } => CostLaw::Piecewise {
                threshold,
                alpha_lo: alpha,
                alpha_hi: alpha_hi.max(alpha),
            },
        }
    }

    /// True for the default family — the one the committed CSVs use.
    pub fn is_default(&self) -> bool {
        *self == ModelFamily::AlphaPower
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_core::costmodel::CostModel;

    #[test]
    fn default_family_reproduces_the_alpha_power_law() {
        let law = ModelFamily::AlphaPower.law(1.5);
        assert!(law.bits_eq(&CostLaw::alpha_power(1.5)));
        assert!(ModelFamily::AlphaPower.is_default());
    }

    #[test]
    fn piecewise_law_keeps_the_convexity_contract() {
        let fam = ModelFamily::Piecewise {
            threshold: 10.0,
            alpha_hi: 2.0,
        };
        // Swept α above the configured alpha_hi: the law clamps up and
        // still validates.
        let law = fam.law(3.0);
        assert!(law.validate().is_ok());
        assert_eq!(law.alpha(), 3.0);
    }
}
