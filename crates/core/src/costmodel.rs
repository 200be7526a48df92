//! The per-worker cost law of the equal-finish-time solvers.
//!
//! Every solver runs one law, the serial-fraction law of
//! Cao/Wu/Robertazzi (arXiv:1902.01952):
//!
//! ```text
//! cost(c, w, x) = c·x + w·(s·x + (1−s)·x^α),   work(x) = s·x + (1−s)·x^α
//! ```
//!
//! A fraction `s ∈ [0, 1]` of the computation is perfectly divisible
//! (linear), the rest pays the α-power penalty; the serial term bounds the
//! remaining work fraction away from 1, which is the "no free lunch" story
//! in another coordinate system. `s = 1` or `α = 1` is classical linear
//! DLT.
//!
//! At `s = 0` the law is the paper's α-power law `c·x + w·x^α`, bit for
//! bit: `c + w·0 = c`, `w·(1−0) = w`, `0·x + 1·x^α = x^α` for finite `x`
//! and `(w·1)·α = α·w`. So [`CostLaw::alpha_power`] builds it, and a bare
//! `f64` exponent converts into it (`From<f64>`): the solvers take
//! `impl Into<CostLaw>`, and call sites pass `alpha: f64` straight in.

#![expect(
    clippy::disallowed_methods,
    reason = "the cost law's scalar methods are the std-powf contract the fast paths are gated against"
)]

use crate::error::DltError;

/// The methods of the cost law that the solvers and the schedulers call.
///
/// [`CostLaw`] is the one implementation: the trait stays only because
/// downstream code imports it to call [`work`](Self::work).
///
/// # Contract
///
/// For every fixed `c ≥ 0` (inverse bandwidth) and `w > 0` (inverse
/// speed), the law guarantees on `x > 0`:
///
/// * **monotonicity** — `cost(c, w, ·)` is strictly increasing;
/// * **convexity** — `cost(c, w, ·)` is convex, so Newton descending from
///   above never overshoots the root in exact arithmetic (the bracket in
///   the safeguarded loop absorbs the rounding-level overshoots);
/// * **valid upper bound** — [`inverse_upper_bound`](Self::inverse_upper_bound)
///   returns `x₀` with `cost(c, w, x₀) ≥ t`, so Newton descends
///   monotonically onto the root from the right;
/// * **consistent derivative** — [`residual_deriv`](Self::residual_deriv)
///   returns the exact `(cost(x) − t, d cost/dx)` pair the iteration
///   needs.
pub trait CostModel: Copy {
    /// Checks the law's parameters: `s ∈ [0, 1]` and a finite `α ≥ 1`.
    fn validate(&self) -> Result<(), DltError>;

    /// Full cost of sending and processing `x` units on a worker with
    /// inverse bandwidth `c` and inverse speed `w`.
    fn cost(&self, c: f64, w: f64, x: f64) -> f64;

    /// *Work* content of `x` units (the quantity conserved by the
    /// paper's `W_partial / W` accounting); for the α-power law this is
    /// `x^α`.
    fn work(&self, x: f64) -> f64;

    /// Residual and derivative at `x`: `(cost(c, w, x) − t, d cost/dx)`.
    fn residual_deriv(&self, c: f64, w: f64, x: f64, t: f64) -> (f64, f64);

    /// Closed-form upper bound on the root of `cost(c, w, x) = t`
    /// (`t > 0`). Returning a non-positive value means "no positive
    /// share fits in this window" and yields `x = 0`.
    fn inverse_upper_bound(&self, c: f64, w: f64, t: f64) -> f64;

    /// True when the law degenerates to classical linear DLT,
    /// `cost = (c + w)·x`, on every worker (`α = 1` or `s = 1`): the
    /// solvers then take the closed-form inverse `x = t/(c + w)` instead
    /// of iterating.
    fn is_linear(&self) -> bool;
}

/// The cost law `c·x + w·(s·x + (1−s)·x^α)`, as a `Copy` value: the
/// paper's α-power law at `serial = 0`, the Amdahl serial-fraction law
/// otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostLaw {
    /// Divisible (linear) fraction `s ∈ [0, 1]` of the computation; 0 for
    /// the α-power law.
    pub serial: f64,
    /// Exponent α (≥ 1) on the non-divisible remainder.
    pub alpha: f64,
}

impl CostLaw {
    /// The paper's α-power law `c·x + w·x^α`: the law at `serial = 0`.
    pub fn alpha_power(alpha: f64) -> Self {
        Self { serial: 0.0, alpha }
    }

    /// Bit-level equality of the parameters — the grouping key the
    /// service engine's windowed admission uses. Unlike `==` this is
    /// reflexive even for NaN payloads, so grouping can never loop.
    pub fn bits_eq(&self, other: &CostLaw) -> bool {
        self.serial.to_bits() == other.serial.to_bits()
            && self.alpha.to_bits() == other.alpha.to_bits()
    }

    /// The law on one worker as `cost = lin·x + coef·x^α`: the linear
    /// rate `lin = c + w·s` and the power coefficient `coef = w·(1−s)`
    /// (`c` and `w` themselves at `s = 0`).
    pub(crate) fn lanes(&self, c: f64, w: f64) -> (f64, f64) {
        (c + w * self.serial, w * (1.0 - self.serial))
    }
}

impl From<f64> for CostLaw {
    /// A bare exponent is the α-power law.
    fn from(alpha: f64) -> Self {
        Self::alpha_power(alpha)
    }
}

impl CostModel for CostLaw {
    fn validate(&self) -> Result<(), DltError> {
        if !(self.serial.is_finite() && (0.0..=1.0).contains(&self.serial)) {
            return Err(DltError::InvalidModel {
                what: "Amdahl serial fraction must be in [0, 1]",
                value: self.serial,
            });
        }
        if !(self.alpha.is_finite() && self.alpha >= 1.0) {
            return Err(DltError::InvalidAlpha { value: self.alpha });
        }
        Ok(())
    }

    fn cost(&self, c: f64, w: f64, x: f64) -> f64 {
        c * x + w * self.work(x)
    }

    fn work(&self, x: f64) -> f64 {
        self.serial * x + (1.0 - self.serial) * x.powf(self.alpha)
    }

    fn residual_deriv(&self, c: f64, w: f64, x: f64, t: f64) -> (f64, f64) {
        let (lin, coef) = self.lanes(c, w);
        let xam1 = x.powf(self.alpha - 1.0);
        ((lin + coef * xam1) * x - t, lin + coef * self.alpha * xam1)
    }

    fn inverse_upper_bound(&self, c: f64, w: f64, t: f64) -> f64 {
        // Dropping either term of the cost gives a single-term inverse
        // that over-shoots the root; take the smaller.
        let (lin, coef) = self.lanes(c, w);
        let by_pow = if coef > 0.0 {
            (t / coef).powf(1.0 / self.alpha)
        } else {
            f64::INFINITY
        };
        if lin > 0.0 {
            (t / lin).min(by_pow)
        } else {
            by_pow
        }
    }

    fn is_linear(&self) -> bool {
        // Fully linear either way: cost = (c + w)·x.
        self.alpha == 1.0 || self.serial == 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amdahl(serial: f64, alpha: f64) -> CostLaw {
        CostLaw { serial, alpha }
    }

    fn roundtrip(law: CostLaw, c: f64, w: f64, xs: &[f64]) {
        for &x in xs {
            let t = law.cost(c, w, x);
            let x0 = law.inverse_upper_bound(c, w, t);
            // Upper-bound contract: cost(x0) >= t, i.e. x0 >= x.
            assert!(
                x0 >= x * (1.0 - 1e-12),
                "{law:?}: bound {x0} below root {x}"
            );
            let (fx, deriv) = law.residual_deriv(c, w, x, t);
            assert!(fx.abs() <= 1e-9 * t.max(1.0), "{law:?}: residual {fx}");
            assert!(deriv > 0.0, "{law:?}: non-positive derivative");
        }
    }

    #[test]
    fn a_bare_exponent_is_the_alpha_power_law() {
        let law = CostLaw::from(2.0);
        assert_eq!(law, amdahl(0.0, 2.0));
        assert_eq!(law.cost(1.0, 1.0, 3.0), 3.0 + 9.0);
        assert_eq!(law.work(3.0), 9.0);
        assert!(law.validate().is_ok());
        assert!(CostLaw::from(0.5).validate().is_err());
        assert!(CostLaw::from(f64::NAN).validate().is_err());
        roundtrip(law, 0.5, 1.5, &[0.1, 1.0, 7.3, 150.0]);
    }

    #[test]
    fn linear_degenerations_are_flagged() {
        // α = 1, and s = 1 at any α, are classical linear DLT.
        assert!(CostLaw::alpha_power(1.0).is_linear());
        assert!(!CostLaw::alpha_power(2.0).is_linear());
        assert!(amdahl(1.0, 3.0).is_linear());
        assert!(amdahl(0.4, 1.0).is_linear());
        assert!(!amdahl(1.0 - 1e-12, 3.0).is_linear());
    }

    #[test]
    fn amdahl_endpoints_and_convexity() {
        // s = 1 is linear.
        assert_eq!(amdahl(1.0, 2.0).work(5.0), 5.0);
        roundtrip(amdahl(0.3, 2.5), 0.5, 1.5, &[0.1, 1.0, 7.3, 150.0]);
        // Near-degenerate fractions keep the bound valid.
        roundtrip(amdahl(1.0 - 1e-12, 3.0), 0.5, 1.5, &[0.1, 1.0, 150.0]);
        roundtrip(amdahl(1e-12, 3.0), 0.5, 1.5, &[0.1, 1.0, 150.0]);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(amdahl(-0.1, 2.0).validate().is_err());
        assert!(amdahl(1.1, 2.0).validate().is_err());
        assert!(amdahl(f64::NAN, 2.0).validate().is_err());
        assert_eq!(
            amdahl(0.5, 0.5).validate(),
            Err(DltError::InvalidAlpha { value: 0.5 })
        );
        assert!(CostLaw::alpha_power(0.0).validate().is_err());
    }

    #[test]
    fn laws_compare_bitwise() {
        let law = amdahl(0.25, 2.0);
        assert!(law.bits_eq(&amdahl(0.25, 2.0)));
        assert!(!law.bits_eq(&CostLaw::alpha_power(2.0)));
        assert!(CostLaw::alpha_power(2.0).bits_eq(&amdahl(0.0, 2.0)));
        assert!(!CostLaw::alpha_power(2.0).bits_eq(&CostLaw::alpha_power(3.0)));
        let nan = CostLaw::alpha_power(f64::NAN);
        assert!(nan.bits_eq(&nan));
    }
}
