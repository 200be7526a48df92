//! Error type for the DLT solvers.

use std::fmt;

/// Errors raised by allocation solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum DltError {
    /// The load must be finite and positive (not subnormal, for the
    /// equal-finish-time solvers).
    InvalidLoad {
        /// The rejected load.
        value: f64,
    },
    /// The exponent α of a power-law workload must be ≥ 1.
    InvalidAlpha {
        /// The rejected exponent.
        value: f64,
    },
    /// A cost-model parameter is out of its documented range (an Amdahl
    /// serial fraction outside `[0, 1]`).
    InvalidModel {
        /// Which constraint was violated.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A provided worker ordering is not a permutation of `0..p`.
    InvalidOrder,
    /// Numerical root finding failed to converge (should not happen for
    /// well-posed inputs; reported instead of silently returning garbage).
    NoConvergence {
        /// Which solver failed.
        context: &'static str,
    },
}

impl fmt::Display for DltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DltError::InvalidLoad { value } => {
                write!(f, "load must be finite, > 0 and not subnormal, got {value}")
            }
            DltError::InvalidAlpha { value } => {
                write!(f, "power-law exponent must be finite and >= 1, got {value}")
            }
            DltError::InvalidModel { what, value } => {
                write!(f, "{what}, got {value}")
            }
            DltError::InvalidOrder => write!(f, "ordering must be a permutation of 0..p"),
            DltError::NoConvergence { context } => {
                write!(f, "root finding failed to converge in {context}")
            }
        }
    }
}

impl std::error::Error for DltError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(DltError::InvalidLoad { value: -1.0 }
            .to_string()
            .contains("-1"));
        assert!(DltError::InvalidAlpha { value: 0.5 }
            .to_string()
            .contains("0.5"));
        assert!(DltError::InvalidModel {
            what: "serial fraction must be in [0, 1]",
            value: 1.5
        }
        .to_string()
        .contains("1.5"));
        assert!(DltError::InvalidOrder.to_string().contains("permutation"));
        assert!(DltError::NoConvergence { context: "x" }
            .to_string()
            .contains('x'));
    }
}
