//! The cost-law families the Section 2 runner and the service trace
//! generators sweep.
//!
//! A [`ModelFamily`] fixes the serial fraction of the one [`CostLaw`] and
//! leaves the exponent α free: a runner keeps sweeping its usual alpha
//! list and [`ModelFamily::law`] turns each α into a concrete law for the
//! solver stack. The two families are the paper's α-power law (serial
//! fraction 0), which every committed CSV but `sec_amdahl.csv` uses, and
//! the Amdahl serial-fraction law at a fixed `s`, which `sec-amdahl` and
//! `perfbench`'s Amdahl sweep run. The multi-load runners take no family:
//! they run the α-power law.

use dlt_core::costmodel::CostLaw;

/// A cost-law family parameterized by the swept exponent α.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelFamily {
    /// `c·x + w·x^α` — the paper's law, the one the committed CSVs use.
    AlphaPower,
    /// Amdahl serial-fraction law with the serial share fixed.
    AmdahlSerial {
        /// Serial fraction `s ∈ [0, 1]`: [`CostLaw::serial`].
        serial: f64,
    },
}

impl ModelFamily {
    /// The concrete cost law at sweep exponent `alpha`.
    pub fn law(&self, alpha: f64) -> CostLaw {
        match *self {
            ModelFamily::AlphaPower => CostLaw::alpha_power(alpha),
            ModelFamily::AmdahlSerial { serial } => CostLaw { serial, alpha },
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

    #[test]
    fn default_family_reproduces_the_alpha_power_law() {
        let law = ModelFamily::AlphaPower.law(1.5);
        assert!(law.bits_eq(&CostLaw::alpha_power(1.5)));
        assert!(ModelFamily::AlphaPower.is_default());
    }
}
