//! Strict `--model` vocabulary shared by the experiment binaries.
//!
//! A [`ModelFamily`] is a cost-law *family* with every parameter fixed
//! except the swept exponent α: the binaries keep sweeping their usual
//! alpha lists and [`ModelFamily::law`] turns each α into a concrete
//! [`CostLaw`] for the solver stack. The grammar is deliberately closed
//! (like the flag vocabularies in [`crate::runner::flags`]) and the
//! binaries exit with status 2 on anything unrecognized:
//!
//! * `alpha` — the default `c·x + w·x^α` law (what every binary ran
//!   before the flag existed; CSV bytes are unchanged);
//! * `amdahl:<serial>` — Amdahl serial-fraction law,
//!   `serial ∈ [0, 1]`;
//! * `affine:<latency>` — per-message latency plus the α-power law,
//!   `latency ≥ 0`;
//! * `piecewise:<threshold>:<alpha_hi>` — α-power with exponent α below
//!   the knee `threshold > 0` and `max(alpha_hi, α)` above it.

use dlt_core::costmodel::CostLaw;
use std::collections::BTreeMap;

/// A cost-law family parameterized by the swept exponent α.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelFamily {
    /// `c·x + w·x^α` — the paper's law and the binaries' default.
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
    /// Parses a `--model` value. The grammar is closed: anything that is
    /// not one of the four families (or carries an out-of-range or
    /// unparseable parameter) is an error, never a silent default.
    pub fn parse(s: &str) -> Result<ModelFamily, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let param = |what: &str, raw: &str| -> Result<f64, String> {
            raw.parse::<f64>()
                .map_err(|_| format!("bad --model value {s:?}: {what} {raw:?} is not a number"))
        };
        match (head, rest.as_slice()) {
            ("alpha", []) => Ok(ModelFamily::AlphaPower),
            ("amdahl", [raw]) => {
                let serial = param("serial fraction", raw)?;
                if !(0.0..=1.0).contains(&serial) {
                    return Err(format!(
                        "bad --model value {s:?}: serial fraction must be in [0, 1]"
                    ));
                }
                Ok(ModelFamily::AmdahlSerial { serial })
            }
            ("affine", [raw]) => {
                let latency = param("latency", raw)?;
                if latency.is_nan() || latency < 0.0 {
                    return Err(format!("bad --model value {s:?}: latency must be ≥ 0"));
                }
                Ok(ModelFamily::AffineLatency { latency })
            }
            ("piecewise", [raw_x, raw_a]) => {
                let threshold = param("threshold", raw_x)?;
                let alpha_hi = param("alpha_hi", raw_a)?;
                if threshold.is_nan() || threshold <= 0.0 {
                    return Err(format!("bad --model value {s:?}: threshold must be > 0"));
                }
                if alpha_hi.is_nan() || alpha_hi < 1.0 {
                    return Err(format!("bad --model value {s:?}: alpha_hi must be ≥ 1"));
                }
                Ok(ModelFamily::Piecewise {
                    threshold,
                    alpha_hi,
                })
            }
            _ => Err(format!(
                "bad --model value {s:?}: want alpha | amdahl:<serial> | affine:<latency> | \
                 piecewise:<threshold>:<alpha_hi>"
            )),
        }
    }

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

    /// Filename suffix: empty for the default family (so committed CSV
    /// names never change), `_<family><params>` otherwise.
    pub fn suffix(&self) -> String {
        match *self {
            ModelFamily::AlphaPower => String::new(),
            ModelFamily::AmdahlSerial { serial } => format!("_amdahl{serial}"),
            ModelFamily::AffineLatency { latency } => format!("_affine{latency}"),
            ModelFamily::Piecewise {
                threshold,
                alpha_hi,
            } => format!("_piecewise{threshold}x{alpha_hi}"),
        }
    }
}

/// Reads the `--model` flag out of a parsed flag map (last occurrence
/// wins, like every repeated flag), exiting with status 2 on a value the
/// closed grammar rejects — the same contract as
/// [`crate::runner::parse_flags`] for unknown flags.
pub fn model_family(flags: &BTreeMap<String, Vec<String>>) -> ModelFamily {
    match flags.get("model").and_then(|v| v.last()) {
        None => ModelFamily::AlphaPower,
        Some(raw) => ModelFamily::parse(raw).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_core::costmodel::CostModel;

    #[test]
    fn parses_every_family() {
        assert_eq!(ModelFamily::parse("alpha"), Ok(ModelFamily::AlphaPower));
        assert_eq!(
            ModelFamily::parse("amdahl:0.3"),
            Ok(ModelFamily::AmdahlSerial { serial: 0.3 })
        );
        assert_eq!(
            ModelFamily::parse("affine:0.05"),
            Ok(ModelFamily::AffineLatency { latency: 0.05 })
        );
        assert_eq!(
            ModelFamily::parse("piecewise:50:3"),
            Ok(ModelFamily::Piecewise {
                threshold: 50.0,
                alpha_hi: 3.0
            })
        );
    }

    #[test]
    fn rejects_bad_values() {
        for bad in [
            "",
            "alpha:1",
            "power",
            "amdahl",
            "amdahl:1.5",
            "amdahl:x",
            "affine:-1",
            "piecewise:50",
            "piecewise:0:3",
            "piecewise:50:0.5",
            "piecewise:50:3:9",
        ] {
            assert!(ModelFamily::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn default_family_reproduces_the_alpha_power_law() {
        let law = ModelFamily::AlphaPower.law(1.5);
        assert!(law.bits_eq(&CostLaw::alpha_power(1.5)));
        assert!(ModelFamily::AlphaPower.is_default());
        assert_eq!(ModelFamily::AlphaPower.suffix(), "");
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

    #[test]
    fn suffixes_keep_default_filenames_stable() {
        assert_eq!(
            ModelFamily::AmdahlSerial { serial: 0.3 }.suffix(),
            "_amdahl0.3"
        );
        assert_eq!(
            ModelFamily::Piecewise {
                threshold: 50.0,
                alpha_hi: 3.0
            }
            .suffix(),
            "_piecewise50x3"
        );
    }
}
