//! Pluggable per-worker cost laws for the equal-finish-time solvers.
//!
//! The safeguarded-Newton core of [`crate::nonlinear`] never needed the
//! literal `c·x + w·x^α` — only that the per-worker cost is strictly
//! increasing and convex in the share `x`, that its derivative is
//! available analytically, and that a closed-form *upper bound* on the
//! inverse exists so Newton can descend monotonically onto the root.
//! [`CostModel`] captures exactly that contract, and the solvers are
//! generic over it.
//!
//! Two laws ship with the crate:
//!
//! * the α-power law — the paper's `c·x + w·x^α`. Plain `f64`
//!   implements [`CostModel`] as this law (the exponent *is* the model),
//!   so call sites pass `alpha: f64` straight into the solvers.
//! * [`AmdahlSerial`] — the serial-fraction law of Cao/Wu/Robertazzi
//!   (arXiv:1902.01952): compute cost `w·(s·x + (1−s)·x^α)`. The serial
//!   term bounds the remaining work fraction away from 1, which is the
//!   "no free lunch" story in another coordinate system.
//!
//! [`CostLaw`] is the `Copy` enum over the two, used wherever a model
//! must be *stored* (e.g. `LoadSpec` in `dlt-multiload`,
//! [`crate::nonlinear::NonlinearAllocation`]).

#![expect(
    clippy::disallowed_methods,
    reason = "the cost laws are the std-powf contract the fast paths are gated against"
)]

use crate::error::DltError;

/// A per-worker cost law `f(x) = time to receive and process x units`.
///
/// # Contract
///
/// For every fixed `c ≥ 0` (inverse bandwidth) and `w > 0` (inverse
/// speed), implementations must guarantee on `x > 0`:
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
///
/// Given those, the generic inner solve in `nonlinear` converges to full
/// `f64` precision without model-specific code.
pub trait CostModel: Copy {
    /// Checks the model parameters, mirroring the historical
    /// `alpha ≥ 1` validation of the hardcoded solver.
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
    /// `cost = (c + w)·x`, on every worker (the α-power law at α = 1,
    /// Amdahl at α = 1 or `s = 1`): the solvers then take the closed-form
    /// inverse `x = t/(c + w)` instead of iterating.
    fn is_linear(&self) -> bool;

    /// Batched [`residual_deriv`](Self::residual_deriv): one pass over
    /// structure-of-arrays lanes, writing `(cost(cᵢ, wᵢ, xᵢ) − t)` into
    /// `fx` and `d cost/dx` into `dfdx`.
    ///
    /// Both laws share the exponent across the whole pass via
    /// [`crate::fastmath::pow_slice`] (`x^{α−1} = exp((α−1)·ln x)`),
    /// which is where the equal-finish kernel's speedup comes from; the
    /// pass trades `powf` for the polynomial kernels, so lanes agree
    /// with [`residual_deriv`](Self::residual_deriv) to ≲ 1e-13 relative
    /// rather than bit-exactly.
    fn residual_deriv_batch(
        &self,
        c: &[f64],
        w: &[f64],
        x: &[f64],
        t: f64,
        fx: &mut [f64],
        dfdx: &mut [f64],
    );

    /// Batched [`inverse_upper_bound`](Self::inverse_upper_bound): fills
    /// `out[i]` with the closed-form bound for lane `i`. Default is the
    /// scalar loop; overrides may use the fast polynomial `pow` (the
    /// equal-finish kernel re-inflates the bound by ~1e-12 relative before
    /// trusting it, so a fast bound a few ulps under the true root can
    /// never strand Newton below its bracket).
    fn inverse_upper_bound_batch(&self, c: &[f64], w: &[f64], t: f64, out: &mut [f64]) {
        for i in 0..out.len() {
            out[i] = self.inverse_upper_bound(c[i], w[i], t);
        }
    }

    /// The storable [`CostLaw`] equivalent of this model.
    fn as_law(&self) -> CostLaw;
}

// ---------------------------------------------------------------------------
// The α-power law: a bare `f64` exponent
// ---------------------------------------------------------------------------

/// A bare exponent *is* the paper's α-power law: `cost = c·x + w·x^α`,
/// `work = x^α`, `α ≥ 1`. Call sites pass `alpha: f64` straight into the
/// solvers, and [`CostLaw::AlphaPower`] delegates here, so both spellings
/// produce bit-identical results (property-tested in
/// `tests/costmodel_properties.rs`).
impl CostModel for f64 {
    fn validate(&self) -> Result<(), DltError> {
        if !(self.is_finite() && *self >= 1.0) {
            return Err(DltError::InvalidAlpha { value: *self });
        }
        Ok(())
    }

    fn cost(&self, c: f64, w: f64, x: f64) -> f64 {
        c * x + w * x.powf(*self)
    }

    fn work(&self, x: f64) -> f64 {
        x.powf(*self)
    }

    fn residual_deriv(&self, c: f64, w: f64, x: f64, t: f64) -> (f64, f64) {
        let alpha = *self;
        let xam1 = x.powf(alpha - 1.0);
        ((c + w * xam1) * x - t, c + alpha * w * xam1)
    }

    fn inverse_upper_bound(&self, c: f64, w: f64, t: f64) -> f64 {
        let by_pow = (t / w).powf(1.0 / *self);
        if c > 0.0 {
            (t / c).min(by_pow)
        } else {
            by_pow
        }
    }

    fn is_linear(&self) -> bool {
        *self == 1.0
    }

    fn residual_deriv_batch(
        &self,
        c: &[f64],
        w: &[f64],
        x: &[f64],
        t: f64,
        fx: &mut [f64],
        dfdx: &mut [f64],
    ) {
        let alpha = *self;
        // One shared-exponent pass for every lane's x^{α−1}, parked in
        // `dfdx` until the combine loop consumes it.
        crate::fastmath::pow_slice(x, alpha - 1.0, dfdx);
        for i in 0..x.len() {
            let xam1 = dfdx[i];
            fx[i] = (c[i] + w[i] * xam1) * x[i] - t;
            dfdx[i] = c[i] + alpha * w[i] * xam1;
        }
    }

    fn inverse_upper_bound_batch(&self, c: &[f64], w: &[f64], t: f64, out: &mut [f64]) {
        let inv_alpha = 1.0 / *self;
        for i in 0..out.len() {
            let by_pow = crate::fastmath::fast_powf(t / w[i], inv_alpha);
            out[i] = if c[i] > 0.0 {
                (t / c[i]).min(by_pow)
            } else {
                by_pow
            };
        }
    }

    fn as_law(&self) -> CostLaw {
        CostLaw::AlphaPower { alpha: *self }
    }
}

// ---------------------------------------------------------------------------
// AmdahlSerial
// ---------------------------------------------------------------------------

/// Amdahl-like serial-fraction law (Cao/Wu/Robertazzi, arXiv:1902.01952):
/// `cost = c·x + w·(s·x + (1−s)·x^α)`, `work = s·x + (1−s)·x^α`.
///
/// A fraction `s ∈ [0, 1]` of the computation is perfectly divisible
/// (linear), the rest pays the α-power penalty. `s = 0` recovers the
/// α-power law; `s = 1` (or α = 1) is classical linear DLT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmdahlSerial {
    /// Divisible (linear) fraction `s ∈ [0, 1]` of the computation.
    pub serial: f64,
    /// Exponent α (≥ 1) on the non-divisible remainder.
    pub alpha: f64,
}

impl CostModel for AmdahlSerial {
    fn validate(&self) -> Result<(), DltError> {
        if !(self.serial.is_finite() && (0.0..=1.0).contains(&self.serial)) {
            return Err(DltError::InvalidModel {
                what: "Amdahl serial fraction must be in [0, 1]",
                value: self.serial,
            });
        }
        self.alpha.validate()
    }

    fn cost(&self, c: f64, w: f64, x: f64) -> f64 {
        c * x + w * self.work(x)
    }

    fn work(&self, x: f64) -> f64 {
        self.serial * x + (1.0 - self.serial) * x.powf(self.alpha)
    }

    fn residual_deriv(&self, c: f64, w: f64, x: f64, t: f64) -> (f64, f64) {
        let s = self.serial;
        let xam1 = x.powf(self.alpha - 1.0);
        let lin = c + w * s;
        (
            (lin + w * (1.0 - s) * xam1) * x - t,
            lin + w * (1.0 - s) * self.alpha * xam1,
        )
    }

    fn inverse_upper_bound(&self, c: f64, w: f64, t: f64) -> f64 {
        // Dropping either term of the cost gives a single-term inverse
        // that over-shoots the root; take the smaller.
        let lin_rate = c + w * self.serial;
        let pow_coeff = w * (1.0 - self.serial);
        let by_pow = if pow_coeff > 0.0 {
            (t / pow_coeff).powf(1.0 / self.alpha)
        } else {
            f64::INFINITY
        };
        if lin_rate > 0.0 {
            (t / lin_rate).min(by_pow)
        } else {
            by_pow
        }
    }

    fn is_linear(&self) -> bool {
        // Fully linear either way: cost = (c + w)·x.
        self.alpha == 1.0 || self.serial == 1.0
    }

    fn residual_deriv_batch(
        &self,
        c: &[f64],
        w: &[f64],
        x: &[f64],
        t: f64,
        fx: &mut [f64],
        dfdx: &mut [f64],
    ) {
        let s = self.serial;
        let alpha = self.alpha;
        crate::fastmath::pow_slice(x, alpha - 1.0, dfdx);
        for i in 0..x.len() {
            let xam1 = dfdx[i];
            let lin = c[i] + w[i] * s;
            fx[i] = (lin + w[i] * (1.0 - s) * xam1) * x[i] - t;
            dfdx[i] = lin + w[i] * (1.0 - s) * alpha * xam1;
        }
    }

    fn as_law(&self) -> CostLaw {
        CostLaw::AmdahlSerial {
            serial: self.serial,
            alpha: self.alpha,
        }
    }
}

// ---------------------------------------------------------------------------
// CostLaw — the storable / dispatchable enum
// ---------------------------------------------------------------------------

/// The closed set of shipped cost laws, as a `Copy` value.
///
/// Use this wherever a model has to be *stored* in a struct (e.g. a
/// `LoadSpec`, a [`crate::nonlinear::NonlinearAllocation`]) or selected
/// at runtime (a sweep's per-α law); it implements [`CostModel`] by
/// delegating to the matching concrete law, so it can be passed straight
/// into the solvers. [`crate::batch::BatchSolver::solve`] matches the
/// variant once per solve and runs its Newton loops on the concrete law,
/// so the enum costs no per-iteration branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostLaw {
    /// The α-power law (a bare `f64` α): `c·x + w·x^α`.
    AlphaPower {
        /// The exponent α (≥ 1).
        alpha: f64,
    },
    /// [`AmdahlSerial`]: `c·x + w·(s·x + (1−s)·x^α)`.
    AmdahlSerial {
        /// Divisible fraction `s ∈ [0, 1]`.
        serial: f64,
        /// Exponent α (≥ 1).
        alpha: f64,
    },
}

impl CostLaw {
    /// α-power shorthand — the overwhelmingly common case.
    pub fn alpha_power(alpha: f64) -> Self {
        CostLaw::AlphaPower { alpha }
    }

    /// The law's exponent α, which both laws carry. This is what the
    /// `alpha`-keyed consumers (CSV columns, `LoadSpec::alpha`) report.
    pub fn alpha(&self) -> f64 {
        match *self {
            CostLaw::AlphaPower { alpha } => alpha,
            CostLaw::AmdahlSerial { alpha, .. } => alpha,
        }
    }

    /// Bit-level equality of the parameter payloads — the grouping key
    /// the service engine's windowed admission uses (the successor of
    /// its historical `alpha.to_bits()` key). Unlike `==` this is
    /// reflexive even for NaN payloads, so grouping can never loop.
    pub fn bits_eq(&self, other: &CostLaw) -> bool {
        fn b(x: f64) -> u64 {
            x.to_bits()
        }
        match (*self, *other) {
            (CostLaw::AlphaPower { alpha: a }, CostLaw::AlphaPower { alpha: b2 }) => b(a) == b(b2),
            (
                CostLaw::AmdahlSerial {
                    serial: s1,
                    alpha: a1,
                },
                CostLaw::AmdahlSerial {
                    serial: s2,
                    alpha: a2,
                },
            ) => b(s1) == b(s2) && b(a1) == b(a2),
            _ => false,
        }
    }
}

/// Evaluates `$body` with `$m` bound to the concrete model a [`CostLaw`]
/// stands for: the bare `f64` α for [`CostLaw::AlphaPower`], the law
/// struct for every other variant.
///
/// This is the one dispatch from a stored law to its concrete model. The
/// [`CostModel`] impl of [`CostLaw`] delegates each method through it, and
/// [`crate::batch::BatchSolver::solve`] runs it once per solve, so the
/// Newton loops are instantiated for the concrete law and every spelling
/// of a law runs the same arithmetic.
macro_rules! with_law {
    ($law:expr, |$m:ident| $body:expr) => {
        match $law {
            $crate::costmodel::CostLaw::AlphaPower { alpha } => {
                let $m = alpha;
                $body
            }
            $crate::costmodel::CostLaw::AmdahlSerial { serial, alpha } => {
                let $m = $crate::costmodel::AmdahlSerial { serial, alpha };
                $body
            }
        }
    };
}
pub(crate) use with_law;

impl CostModel for CostLaw {
    fn validate(&self) -> Result<(), DltError> {
        with_law!(*self, |m| m.validate())
    }

    #[inline(always)]
    fn cost(&self, c: f64, w: f64, x: f64) -> f64 {
        with_law!(*self, |m| m.cost(c, w, x))
    }

    #[inline(always)]
    fn work(&self, x: f64) -> f64 {
        with_law!(*self, |m| m.work(x))
    }

    #[inline(always)]
    fn residual_deriv(&self, c: f64, w: f64, x: f64, t: f64) -> (f64, f64) {
        with_law!(*self, |m| m.residual_deriv(c, w, x, t))
    }

    #[inline(always)]
    fn inverse_upper_bound(&self, c: f64, w: f64, t: f64) -> f64 {
        with_law!(*self, |m| m.inverse_upper_bound(c, w, t))
    }

    #[inline(always)]
    fn is_linear(&self) -> bool {
        with_law!(*self, |m| m.is_linear())
    }

    fn residual_deriv_batch(
        &self,
        c: &[f64],
        w: &[f64],
        x: &[f64],
        t: f64,
        fx: &mut [f64],
        dfdx: &mut [f64],
    ) {
        with_law!(*self, |m| m.residual_deriv_batch(c, w, x, t, fx, dfdx))
    }

    fn inverse_upper_bound_batch(&self, c: &[f64], w: &[f64], t: f64, out: &mut [f64]) {
        with_law!(*self, |m| m.inverse_upper_bound_batch(c, w, t, out))
    }

    fn as_law(&self) -> CostLaw {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: CostModel + std::fmt::Debug>(model: M, c: f64, w: f64, xs: &[f64]) {
        for &x in xs {
            let t = model.cost(c, w, x);
            let x0 = model.inverse_upper_bound(c, w, t);
            // Upper-bound contract: cost(x0) >= t, i.e. x0 >= x.
            assert!(
                x0 >= x * (1.0 - 1e-12),
                "{model:?}: bound {x0} below root {x}"
            );
            let (fx, deriv) = model.residual_deriv(c, w, x, t);
            assert!(fx.abs() <= 1e-9 * t.max(1.0), "{model:?}: residual {fx}");
            assert!(deriv > 0.0, "{model:?}: non-positive derivative");
        }
    }

    #[test]
    fn f64_is_alpha_power() {
        let alpha = 2.0f64;
        assert_eq!(alpha.cost(1.0, 1.0, 3.0), 3.0 + 9.0);
        assert_eq!(alpha.work(3.0), 9.0);
        assert_eq!(alpha.as_law(), CostLaw::AlphaPower { alpha: 2.0 });
        assert!(alpha.validate().is_ok());
        assert!(0.5f64.validate().is_err());
        assert!(f64::NAN.validate().is_err());
        roundtrip(2.0f64, 0.5, 1.5, &[0.1, 1.0, 7.3, 150.0]);
    }

    #[test]
    fn linear_degenerations_are_flagged() {
        // α = 1, and Amdahl at α = 1 or s = 1, are classical linear DLT.
        assert!(1.0f64.is_linear());
        assert!(!2.0f64.is_linear());
        let amdahl = |serial, alpha| AmdahlSerial { serial, alpha };
        assert!(amdahl(1.0, 3.0).is_linear());
        assert!(amdahl(0.4, 1.0).is_linear());
        assert!(!amdahl(1.0 - 1e-12, 3.0).is_linear());
        assert!(CostLaw::alpha_power(1.0).is_linear());
        assert!(amdahl(1.0, 3.0).as_law().is_linear());
        assert!(!amdahl(0.0, 2.0).as_law().is_linear());
    }

    #[test]
    fn amdahl_endpoints_and_convexity() {
        // s = 0 recovers the α-power law exactly.
        let m0 = AmdahlSerial {
            serial: 0.0,
            alpha: 2.0,
        };
        for &x in &[0.5, 2.0, 9.0] {
            assert_eq!(m0.work(x), 2.0f64.work(x));
        }
        // s = 1 is linear.
        let m1 = AmdahlSerial {
            serial: 1.0,
            alpha: 2.0,
        };
        assert_eq!(m1.work(5.0), 5.0);
        roundtrip(
            AmdahlSerial {
                serial: 0.3,
                alpha: 2.5,
            },
            0.5,
            1.5,
            &[0.1, 1.0, 7.3, 150.0],
        );
        // Near-degenerate fractions keep the bound valid.
        roundtrip(
            AmdahlSerial {
                serial: 1.0 - 1e-12,
                alpha: 3.0,
            },
            0.5,
            1.5,
            &[0.1, 1.0, 150.0],
        );
        roundtrip(
            AmdahlSerial {
                serial: 1e-12,
                alpha: 3.0,
            },
            0.5,
            1.5,
            &[0.1, 1.0, 150.0],
        );
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(AmdahlSerial {
            serial: -0.1,
            alpha: 2.0
        }
        .validate()
        .is_err());
        assert!(AmdahlSerial {
            serial: 1.1,
            alpha: 2.0
        }
        .validate()
        .is_err());
        assert!(AmdahlSerial {
            serial: 0.5,
            alpha: 0.5
        }
        .validate()
        .is_err());
        assert!(CostLaw::AlphaPower { alpha: 0.0 }.validate().is_err());
    }

    #[test]
    fn law_delegates_and_compares_bitwise() {
        let law = CostLaw::AmdahlSerial {
            serial: 0.25,
            alpha: 2.0,
        };
        let m = AmdahlSerial {
            serial: 0.25,
            alpha: 2.0,
        };
        for &x in &[0.5, 3.0, 20.0] {
            assert_eq!(law.cost(0.7, 1.3, x), m.cost(0.7, 1.3, x));
            assert_eq!(law.work(x), m.work(x));
        }
        assert_eq!(law.alpha(), 2.0);
        assert!(law.bits_eq(&m.as_law()));
        assert!(!law.bits_eq(&CostLaw::alpha_power(2.0)));
        assert!(CostLaw::alpha_power(2.0).bits_eq(&CostLaw::alpha_power(2.0)));
        assert!(!CostLaw::alpha_power(2.0).bits_eq(&CostLaw::alpha_power(3.0)));
        assert_eq!(law.as_law(), law);
    }
}
