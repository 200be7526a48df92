//! Non-linear ("α-power") divisible load allocation — the baselines of
//! refs [31–35] whose asymptotic futility Section 2 proves.
//!
//! Processing `x` data units on worker `i` costs `w_i · x^α` time with
//! `α > 1`. Minimizing the makespan of a single distribution round still
//! yields an equal-finish-time optimum because each worker's finish time is
//! strictly increasing in its share; but — and this is the paper's point —
//! the *work* performed in that round, `Σ (x_i)^α ≤ N^α / P^{α-1}` on a
//! homogeneous platform, is a vanishing fraction of the total `N^α`.
//!
//! The paper's parallel-communication model ([`equal_finish_parallel`])
//! runs the lanes kernel of [`crate::batch`]. The one-port model of
//! [33–35] ([`equal_finish_one_port`]) runs the nested solve held here,
//! also the kernel's fallback: an outer safeguarded Newton on `ln Σx`
//! against `ln T` from an upper bound on the finish time `T`, over an
//! inner Newton descent on each worker's cost `c_i·x + w_i·x^α = T` from
//! a closed-form upper bound (`docs/solver.md` derives both and their
//! tolerances). The original nested bisection is kept as
//! [`equal_finish_parallel_reference`] / [`equal_finish_one_port_reference`]
//! — the property-tested ≤ 1e-9 oracles and the baselines of the
//! `hotpaths` bench's `solver_*` records.
//!
//! Every solver takes its per-worker cost law as `impl Into<CostLaw>`:
//! a bare `f64` α is the paper's `c·x + w·x^α`, the [`CostLaw`] at
//! serial fraction 0, whose arithmetic is the α-power law's bit for bit;
//! a nonzero serial fraction is the Amdahl law of [`crate::costmodel`],
//! which rides the same Newton machinery.

use crate::costmodel::{CostLaw, CostModel};
use crate::error::DltError;
use crate::fastmath::fast_powf;
use dlt_platform::Platform;
use dlt_sim::{ChunkAssignment, CommMode, Schedule};

/// Result of a non-linear single-round allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct NonlinearAllocation {
    /// Data units per worker, by worker id.
    pub x: Vec<f64>,
    /// Common finish time of all (participating) workers.
    pub makespan: f64,
    /// Cost law of the workload (for the paper's α-power loads,
    /// [`CostLaw::alpha_power`]).
    pub model: CostLaw,
    /// Total data `N` that was distributed.
    pub n: f64,
    /// Communication model.
    pub comm_mode: CommMode,
    /// Master service order (identity under the parallel model).
    pub order: Vec<usize>,
}

impl NonlinearAllocation {
    /// Exponent α of the workload's cost law.
    pub fn alpha(&self) -> f64 {
        self.model.alpha
    }

    /// Total work executed during the round: `Σ work(x_i)` (`Σ x_i^α`
    /// under the α-power law).
    pub fn work_done(&self) -> f64 {
        self.x.iter().map(|&x| self.model.work(x)).sum()
    }

    /// Total work the full dataset represents (`N^α` under the α-power
    /// law).
    pub fn total_work(&self) -> f64 {
        self.model.work(self.n)
    }

    /// Fraction `W_partial / W` of the overall work executed in this round
    /// — the quantity Section 2 proves tends to 0 (for α > 1) as the
    /// platform grows.
    pub fn work_fraction_done(&self) -> f64 {
        self.work_done() / self.total_work()
    }

    /// Executable schedule (each chunk carries its non-linear work).
    pub fn to_schedule(&self) -> Schedule {
        let assignments = self
            .order
            .iter()
            .map(|&i| ChunkAssignment::new(i, self.x[i], self.model.work(self.x[i])))
            .collect();
        Schedule::single_round(assignments, self.comm_mode)
    }
}

/// Tunables of the equal-finish-time solvers.
///
/// The defaults drive both Newton levels to full `f64` precision; they are
/// what [`equal_finish_parallel`] and [`equal_finish_one_port`] use. Relax
/// `rel_tol` only when thousands of solves feed a statistic that cannot
/// resolve the extra digits anyway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Relative width of the outer bracket on `T` at which the root
    /// counts as found.
    pub rel_tol: f64,
    /// Relative residual `|Σ x_i − N| / N` at which the outer iteration
    /// stops even before the bracket collapses (Newton often lands on the
    /// root from one side without ever tightening the other).
    pub residual_tol: f64,
    /// Outer-iteration cap before [`DltError::NoConvergence`].
    pub max_outer: usize,
    /// Inner (per-worker Newton) iteration cap.
    pub max_inner: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            rel_tol: f64::EPSILON,
            residual_tol: 1e-13,
            max_outer: 256,
            max_inner: 64,
        }
    }
}

/// Checks the inputs every solver shares: a finite load no smaller than
/// `f64::MIN_POSITIVE` (a subnormal load has fewer significant bits than
/// the solvers' tolerances resolve, and its shares underflow) and a valid
/// law.
pub(crate) fn validate(n: f64, law: CostLaw) -> Result<(), DltError> {
    if !(n.is_finite() && n >= f64::MIN_POSITIVE) {
        return Err(DltError::InvalidLoad { value: n });
    }
    law.validate()
}

/// `t` as a makespan: positive and finite, else the makespan overflowed
/// (or underflowed) `f64` and no allocation is returned.
pub(crate) fn representable(t: f64) -> Result<f64, DltError> {
    let context = "makespan overflow: T is not a positive finite f64";
    (t > 0.0 && t.is_finite())
        .then_some(t)
        .ok_or(DltError::NoConvergence { context })
}

// ---------------------------------------------------------------------------
// Inner solve: cost(c, w, x) = t
// ---------------------------------------------------------------------------

/// Solves `law.cost(c, w, x) = t` for `x ≥ 0` by safeguarded Newton
/// descent, returning `(x, dx/dt)` — the share and its sensitivity
/// `1/f'(x)`, which the outer root-finder accumulates into its own
/// derivative.
///
/// The residual is convex and strictly increasing (the [`CostModel`]
/// contract), and [`CostModel::inverse_upper_bound`] over-shoots the root
/// — under the α-power law `f(t/c) = w·(t/c)^α ≥ 0` and
/// `f((t/w)^{1/α}) = c·(t/w)^{1/α} ≥ 0`, so `x₀ = min(t/c, (t/w)^{1/α})`
/// — so Newton descends monotonically onto the root with no doubling
/// search. A bisection step replaces any iterate that leaves the bracket
/// `[lo, hi]` maintained alongside (finite arithmetic can push Newton
/// past the root near convergence). A linear law
/// ([`CostModel::is_linear`]) takes the closed form
/// `(x, dx/dt) = (t/(c + w), 1/(c + w))` instead.
///
/// Returns `(0, 0)` when `t ≤ 0` — in the one-port model a worker whose
/// remaining window is exhausted gets nothing and contributes no slope.
pub(crate) fn invert_cost_newton(
    law: CostLaw,
    c: f64,
    w: f64,
    t: f64,
    max_inner: usize,
) -> (f64, f64) {
    if t <= 0.0 {
        return (0.0, 0.0);
    }
    if law.is_linear() {
        return (t / (c + w), 1.0 / (c + w));
    }
    let mut x = law.inverse_upper_bound(c, w, t);
    if x.is_nan() || x <= 0.0 || x.is_infinite() {
        // Float extremes only: `t/c` or `(t/w)^{1/α}` underflowed to 0
        // or overflowed to ∞. Give the worker nothing rather than iterate
        // on a meaningless bracket.
        return (0.0, 0.0);
    }
    let (mut lo, mut hi) = (0.0f64, x);
    let mut deriv = 0.0;
    // At least one iteration always runs (powf is the whole cost of this
    // function, so `deriv` is only ever computed inside the loop).
    for _ in 0..max_inner.max(1) {
        let (fx, d) = law.residual_deriv(c, w, x, t);
        deriv = d;
        // Residual at rounding level: the share is as converged as f64
        // arithmetic can express it.
        if fx.abs() <= 4.0 * f64::EPSILON * t {
            break;
        }
        if fx < 0.0 {
            lo = x;
        } else {
            hi = x;
        }
        let newton = x - fx / deriv;
        let next = if newton.is_finite() && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
        let step = (next - x).abs();
        x = next;
        if step <= f64::EPSILON * x || hi - lo <= f64::EPSILON * hi {
            break;
        }
    }
    (x, 1.0 / deriv)
}

/// Halving cap of the reference bisections: enough to shrink any finite
/// `f64` bracket `[0, hi]` onto its root to the stopping tolerance (the
/// whole exponent range plus the mantissa). The bracket-width test stops
/// the loop long before on ordinary inputs; the cap matters when the
/// single-worker bound overshoots the root by many orders of magnitude
/// (large α: `w·N^α` against a finish time near 1 is a 10⁵⁰× bracket,
/// which needs over 200 halvings).
const MAX_BISECTIONS: usize = 2200;

/// The original bisection inverse of `cost(c, w, x) = t` — the executable
/// specification [`invert_cost_newton`] is property-tested against, and
/// the inner loop of the `*_reference` solvers.
///
/// Returns 0 when `t ≤ 0`. Uses bisection on `[0, hi]` where `hi` doubles
/// until the residual flips sign; ~90 iterations give full f64 precision.
fn invert_cost_reference(law: CostLaw, c: f64, w: f64, t: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    let f = |x: f64| law.cost(c, w, x) - t;
    let mut hi = 1.0;
    while f(hi) < 0.0 {
        hi *= 2.0;
        if hi > 1e300 {
            return hi; // unreachable for sane inputs; avoid infinite loop
        }
    }
    let mut lo = 0.0;
    for _ in 0..MAX_BISECTIONS {
        let mid = 0.5 * (lo + hi);
        if f(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= f64::EPSILON * hi {
            break;
        }
    }
    0.5 * (lo + hi)
}

// ---------------------------------------------------------------------------
// Parallel communication model
// ---------------------------------------------------------------------------

/// `T₀`, the parallel model's upper bound on `T`: give the whole load to
/// the single best worker. An error when it overflows `f64`.
pub(crate) fn t_single_worker_bound(
    platform: &Platform,
    n: f64,
    law: CostLaw,
) -> Result<f64, DltError> {
    let t0 = platform
        .iter()
        .map(|p| law.cost(p.inv_bandwidth(), p.w(), n))
        .fold(f64::INFINITY, f64::min);
    representable(t0)
}

/// Equal-finish-time allocation under the parallel communication model:
/// minimizes the makespan of distributing and processing `n` data units
/// over a heterogeneous platform. The workload's cost law is any
/// [`CostLaw`] — pass a bare `f64` α for the paper's `x^α` law.
///
/// One cold-handle solve of the lanes kernel
/// ([`crate::batch::BatchSolver`]) at the default [`SolverConfig`];
/// callers that solve repeatedly on the same platform should thread a
/// `BatchSolver` through instead.
///
/// # Examples
///
/// ```
/// use dlt_core::nonlinear::equal_finish_parallel;
/// use dlt_platform::Platform;
///
/// let platform = Platform::from_speeds(&[1.0, 4.0]).unwrap();
/// let alloc = equal_finish_parallel(&platform, 20.0, 2.0).unwrap();
/// // The load is conserved and the faster worker gets the bigger share …
/// assert!((alloc.x.iter().sum::<f64>() - 20.0).abs() < 1e-9);
/// assert!(alloc.x[1] > alloc.x[0]);
/// // … yet most of the N^α work remains: the paper's no-free-lunch claim.
/// assert!(alloc.work_fraction_done() < 1.0);
/// ```
pub fn equal_finish_parallel(
    platform: &Platform,
    n: f64,
    law: impl Into<CostLaw>,
) -> Result<NonlinearAllocation, DltError> {
    crate::batch::BatchSolver::default().solve(platform, n, law, &SolverConfig::default())
}

/// The original nested-bisection solver for the parallel model, kept as
/// the executable specification of [`equal_finish_parallel`]: the
/// property tests bound the lanes kernel to within `1e-9` relative error
/// of this oracle, and the `solver` hotpaths bench group measures the
/// kernel's speedup against it.
pub fn equal_finish_parallel_reference(
    platform: &Platform,
    n: f64,
    law: impl Into<CostLaw>,
) -> Result<NonlinearAllocation, DltError> {
    let law = law.into();
    validate(n, law)?;
    let shares_at = |t: f64| -> Vec<f64> {
        platform
            .iter()
            .map(|p| invert_cost_reference(law, p.inv_bandwidth(), p.w(), t))
            .collect()
    };
    let t_hi_seed = t_single_worker_bound(platform, n, law)?;
    let (t, x) = bisect_total_reference(n, t_hi_seed, shares_at)?;
    Ok(NonlinearAllocation {
        x,
        makespan: t,
        model: law,
        n,
        comm_mode: CommMode::Parallel,
        order: (0..platform.len()).collect(),
    })
}

// ---------------------------------------------------------------------------
// One-port communication model
// ---------------------------------------------------------------------------

fn validate_order(order: Option<Vec<usize>>, platform: &Platform) -> Result<Vec<usize>, DltError> {
    let p = platform.len();
    match order {
        Some(o) => {
            let mut seen = vec![false; p];
            if o.len() != p
                || o.iter()
                    .any(|&i| i >= p || std::mem::replace(&mut seen[i], true))
            {
                return Err(DltError::InvalidOrder);
            }
            Ok(o)
        }
        None => Ok(crate::linear::optimal_one_port_order(platform)),
    }
}

/// Equal-finish-time allocation under the sequential one-port model (the
/// setting of refs [33–35]): the master sends chunk `σ(1)`, then `σ(2)`,
/// etc.; worker `σ(k)` finishes at `Σ_{j≤k} c_{σ(j)} x_{σ(j)} +
/// w_{σ(k)} x_{σ(k)}^α`. Defaults to serving workers by non-decreasing
/// `c_i` when no order is given.
///
/// The nested solve at the default [`SolverConfig`]: the outer Newton,
/// from the order's upper bound on `T`, over the scalar inner loop (the
/// lanes kernel's fallback). Its derivative follows the chain rule
/// through the serialized sends: worker `σ(k)` sees the local window
/// `s_k = t − Σ_{j<k} c_j x_j`, so
/// `dx_k/dt = (1 − Σ_{j<k} c_j · dx_j/dt) / f'_k(x_k)`, accumulated in
/// service order.
///
/// # Examples
///
/// ```
/// use dlt_core::nonlinear::{equal_finish_one_port, equal_finish_parallel};
/// use dlt_platform::Platform;
///
/// let platform = Platform::from_speeds_and_costs(&[1.0, 2.0], &[0.5, 0.25]).unwrap();
/// let op = equal_finish_one_port(&platform, 30.0, 2.0, None).unwrap();
/// assert!((op.x.iter().sum::<f64>() - 30.0).abs() < 1e-9);
/// // Serializing the sends can never beat the parallel model.
/// let par = equal_finish_parallel(&platform, 30.0, 2.0).unwrap();
/// assert!(op.makespan >= par.makespan - 1e-9);
/// ```
pub fn equal_finish_one_port(
    platform: &Platform,
    n: f64,
    law: impl Into<CostLaw>,
    order: Option<Vec<usize>>,
) -> Result<NonlinearAllocation, DltError> {
    let law = law.into();
    validate(n, law)?;
    let order = validate_order(order, platform)?;
    let config = SolverConfig::default();
    // The upper bound on `T` under `order`: the least `cost_k(n)` over the
    // workers `k` served after no larger-`c` worker. At that `T` the data
    // `A < n` sent before `k` took at most `c_k·A`, so `k` alone takes the
    // rest. Under the default order every worker qualifies: `T₀`.
    let (mut c_max, mut t0) = (0.0f64, f64::INFINITY);
    for worker in order.iter().map(|&i| platform.worker(i)) {
        if worker.inv_bandwidth() >= c_max {
            c_max = worker.inv_bandwidth();
            t0 = t0.min(law.cost(c_max, worker.w(), n));
        }
    }
    let mut x = vec![0.0; platform.len()];
    let t = outer_newton(n, representable(t0)?, &config, |t| {
        let mut elapsed_comm = 0.0;
        let mut elapsed_slope = 0.0;
        let mut slope = 0.0;
        for &i in &order {
            let worker = platform.worker(i);
            let c = worker.inv_bandwidth();
            let (xi, dxi_local) =
                invert_cost_newton(law, c, worker.w(), t - elapsed_comm, config.max_inner);
            let dxi_dt = dxi_local * (1.0 - elapsed_slope);
            x[i] = xi;
            elapsed_comm += c * xi;
            elapsed_slope += c * dxi_dt;
            slope += dxi_dt;
        }
        (x.iter().sum(), slope)
    })?;
    rescale(&mut x, n)?;
    Ok(NonlinearAllocation {
        x,
        makespan: t,
        model: law,
        n,
        comm_mode: CommMode::OnePort,
        order,
    })
}

/// The original nested-bisection solver for the one-port model — the
/// oracle of [`equal_finish_one_port`] (see
/// [`equal_finish_parallel_reference`]).
pub fn equal_finish_one_port_reference(
    platform: &Platform,
    n: f64,
    law: impl Into<CostLaw>,
    order: Option<Vec<usize>>,
) -> Result<NonlinearAllocation, DltError> {
    let law = law.into();
    validate(n, law)?;
    let p = platform.len();
    let order = validate_order(order, platform)?;
    let order_for_closure = order.clone();
    let shares_at = move |t: f64| -> Vec<f64> {
        let mut x = vec![0.0; p];
        let mut elapsed_comm = 0.0;
        for &i in &order_for_closure {
            let worker = platform.worker(i);
            let xi =
                invert_cost_reference(law, worker.inv_bandwidth(), worker.w(), t - elapsed_comm);
            x[i] = xi;
            elapsed_comm += worker.inv_bandwidth() * xi;
        }
        x
    };
    let t_hi_seed = t_single_worker_bound(platform, n, law)?;
    let (t, x) = bisect_total_reference(n, t_hi_seed, shares_at)?;
    Ok(NonlinearAllocation {
        x,
        makespan: t,
        model: law,
        n,
        comm_mode: CommMode::OnePort,
        order,
    })
}

// ---------------------------------------------------------------------------
// Outer solve: Σ x_i(T) = n
// ---------------------------------------------------------------------------

/// The outer root-finder of the nested solve (one-port, and the lanes
/// kernel's fallback): finds `T` with `Σ xᵢ(T) = n` by safeguarded Newton
/// on the monotone total, taken in log–log coordinates, from `t0`, an
/// upper bound on the root.
///
/// `eval(t)` computes the shares at `t` into the caller's own storage and
/// returns their sum `S` and the analytic slope `S′ = d(Σx)/dt`. The step
/// is Newton on `ln S` against `ln T`, `t′ = t·(n/S)^{S/(t·S′)}`: it
/// lands on the root in one move wherever `S` is a power of `T` (a share
/// tends to `t/c` at small `t` and to `(t/w)^{1/α}` at large `t`), it is
/// the plain Newton step to first order as `S → n`, and it never leaves
/// `T > 0`. The iteration keeps the bracket `[lo, hi]`, `[0, t0]` from
/// the first probe, and accepts a step only when it lands strictly
/// inside; otherwise it takes the geometric midpoint `√(lo·hi)` while
/// `hi > 4·lo > 0`, the arithmetic one below that, so the worst case is
/// a bisection in `ln T` and then in `T`, never divergence.
///
/// Returns the last evaluated iterate, whose residual is below
/// `config.residual_tol · n` (or whose bracket is tight); the caller's
/// shares are those of that final `eval`, which the caller finishes
/// (rescale, conservation pin) itself.
pub(crate) fn outer_newton(
    n: f64,
    t0: f64,
    config: &SolverConfig,
    mut eval: impl FnMut(f64) -> (f64, f64),
) -> Result<f64, DltError> {
    let (mut lo, mut hi) = (0.0f64, t0);
    let mut t = t0;
    for _ in 0..config.max_outer {
        let (total, slope) = eval(t);
        let g = total - n;
        if g < 0.0 {
            lo = t;
        } else {
            hi = t;
        }
        // Relative at every scale: an absolute floor below `T = 1` would
        // stop a makespan under ~1e-16 at its first probe.
        if g.abs() <= config.residual_tol * n || hi - lo <= config.rel_tol * hi {
            return Ok(t);
        }
        let step = if slope > 0.0 {
            t * fast_powf(n / total, total / (t * slope))
        } else {
            f64::NAN
        };
        t = if step > lo && step < hi {
            step
        } else if lo > 0.0 && hi > 4.0 * lo {
            lo.sqrt() * hi.sqrt()
        } else {
            0.5 * (lo + hi)
        };
    }
    Err(DltError::NoConvergence {
        context: "outer Newton iteration",
    })
}

/// Rescales the shares by `n / Σ xᵢ` so they sum to `n` (keeps downstream
/// accounting clean). An error when the sum is not a positive finite
/// `f64`: shares whose sum overflows, or that all underflowed to 0, are
/// no allocation.
pub(crate) fn rescale(x: &mut [f64], n: f64) -> Result<(), DltError> {
    let s: f64 = x.iter().sum();
    if !(s > 0.0 && s.is_finite()) {
        return Err(DltError::NoConvergence {
            context: "share overflow: Σx is not a positive finite f64",
        });
    }
    let scale = n / s;
    for xi in x.iter_mut() {
        *xi *= scale;
    }
    Ok(())
}

/// The original outer bisection (`Σ shares_at(T) = n`) — the outer loop of
/// the `*_reference` oracles. It stops when the bracket is `ε·hi` wide.
fn bisect_total_reference<F>(
    n: f64,
    t_hi_seed: f64,
    shares_at: F,
) -> Result<(f64, Vec<f64>), DltError>
where
    F: Fn(f64) -> Vec<f64>,
{
    let total = |t: f64| shares_at(t).iter().sum::<f64>();
    let mut hi = t_hi_seed.max(1e-12);
    let mut grow = 0;
    while total(hi) < n {
        hi *= 2.0;
        grow += 1;
        if grow > 200 {
            return Err(DltError::NoConvergence {
                context: "outer bisection upper bound",
            });
        }
    }
    let mut lo = 0.0;
    for _ in 0..MAX_BISECTIONS {
        let mid = 0.5 * (lo + hi);
        if total(mid) < n {
            lo = mid;
        } else {
            hi = mid;
        }
        // Relative at every scale, as in `invert_cost_reference`: an
        // absolute floor would resolve a makespan of 1e-8 only to ~1e-8
        // relative, too coarse to check the kernel's 1e-9 contract.
        if hi - lo <= f64::EPSILON * hi {
            break;
        }
    }
    let t = 0.5 * (lo + hi);
    let mut x = shares_at(t);
    rescale(&mut x, n)?;
    Ok((t, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_sim::simulate;

    /// Relative distance, guarded for zero.
    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
    }

    #[test]
    fn invert_cost_roundtrip() {
        for &(c, w, alpha) in &[(1.0, 1.0, 2.0), (0.5, 2.0, 1.5), (0.0, 1.0, 3.0)] {
            let law = CostLaw::alpha_power(alpha);
            for &x in &[0.1, 1.0, 7.3, 150.0] {
                let t = c * x + w * f64::powf(x, alpha);
                let (back, slope) = invert_cost_newton(law, c, w, t, 64);
                assert!((back - x).abs() < 1e-10 * x.max(1.0), "x={x} back={back}");
                assert!(slope > 0.0 && slope.is_finite());
                let reference = invert_cost_reference(law, c, w, t);
                assert!(rel(back, reference) < 1e-12, "{back} vs {reference}");
            }
        }
    }

    #[test]
    fn invert_cost_zero_time_gives_zero() {
        let law = CostLaw::alpha_power(2.0);
        assert_eq!(invert_cost_newton(law, 1.0, 1.0, 0.0, 64), (0.0, 0.0));
        assert_eq!(invert_cost_newton(law, 1.0, 1.0, -3.0, 64), (0.0, 0.0));
        assert_eq!(invert_cost_reference(law, 1.0, 1.0, 0.0), 0.0);
        assert_eq!(invert_cost_reference(law, 1.0, 1.0, -3.0), 0.0);
    }

    #[test]
    fn invert_cost_linear_is_closed_form() {
        // α = 1, and Amdahl at s = 1, take the exact closed-form path:
        // t / (c + w).
        let linear = CostLaw::alpha_power(1.0);
        assert_eq!(invert_cost_newton(linear, 2.0, 3.0, 10.0, 64), (2.0, 0.2));
        let serial = CostLaw {
            serial: 1.0,
            alpha: 3.0,
        };
        assert_eq!(invert_cost_newton(serial, 2.0, 3.0, 10.0, 64), (2.0, 0.2));
    }

    #[test]
    fn invert_cost_amdahl_roundtrip() {
        // The Amdahl law inverts its own cost through the Newton loop and
        // agrees with its bisection reference.
        let law = CostLaw {
            serial: 0.3,
            alpha: 2.5,
        };
        for &x in &[0.1, 1.0, 3.9, 4.1, 42.0] {
            let t = law.cost(0.5, 1.5, x);
            let (back, slope) = invert_cost_newton(law, 0.5, 1.5, t, 64);
            assert!((back - x).abs() < 1e-9 * x.max(1.0), "x={x} back={back}");
            assert!(slope > 0.0 && slope.is_finite());
            let reference = invert_cost_reference(law, 0.5, 1.5, t);
            assert!(
                (back - reference).abs() < 1e-9 * x.max(1.0),
                "{back} vs {reference}"
            );
        }
    }

    #[test]
    fn amdahl_solve_matches_reference_and_keeps_serial_work() {
        let platform = Platform::from_speeds_and_costs(&[1.0, 2.0, 5.0], &[1.0, 0.3, 0.8]).unwrap();
        let model = CostLaw {
            serial: 0.4,
            alpha: 2.0,
        };
        let a = equal_finish_parallel(&platform, 30.0, model).unwrap();
        let r = equal_finish_parallel_reference(&platform, 30.0, model).unwrap();
        assert!(rel(a.makespan, r.makespan) < 1e-9);
        assert!((a.x.iter().sum::<f64>() - 30.0).abs() < 1e-9 * 30.0);
        // The divisible fraction s of the work survives any platform:
        // W_round ≥ s·N, so the remaining fraction stays below 1 − s·N/W.
        let pure = equal_finish_parallel(&platform, 30.0, 2.0).unwrap();
        assert!(a.work_fraction_done() > pure.work_fraction_done());
        assert_eq!(a.model, model);
        assert_eq!(a.alpha(), 2.0);
    }

    #[test]
    fn solver_matches_homogeneous_closed_form() {
        // Section 2: each of P identical workers receives N/P and finishes
        // at c·N/P + w·(N/P)^α, so one round does 1/P^{α−1} of the work.
        // The second row's cold start T₀ = N + N^α ≈ 5e86 sits 10⁷⁹ times
        // above the root: halving down from it takes more than
        // `max_outer` evaluations.
        for (p, n, alpha) in [(8, 64.0, 2.0), (2048, 4096.0, 24.0)] {
            let platform = Platform::homogeneous(p, 1.0, 1.0).unwrap();
            let solved = equal_finish_parallel(&platform, n, alpha).unwrap();
            let share = n / p as f64;
            for &xi in &solved.x {
                assert!(rel(xi, share) < 1e-9, "p {p}: xi {xi}");
            }
            let makespan = share + share.powi(alpha as i32);
            assert!(rel(solved.makespan, makespan) < 1e-9, "p {p}");
            let fraction = (p as f64).powi(1 - alpha as i32);
            assert!(rel(solved.work_fraction_done(), fraction) < 1e-9, "p {p}");
        }
    }

    #[test]
    fn outer_newton_lands_in_a_few_evaluations_from_the_bound() {
        // p = 1024 identical lanes, α = 3, n = 4096: every share is 4 and
        // the root is 4 + 4³ = 68, some 10⁹ times below the single-worker
        // bound 4096 + 4096³ that the loop starts from.
        let platform = Platform::homogeneous(1024, 1.0, 1.0).unwrap();
        let config = SolverConfig::default();
        let law = CostLaw::alpha_power(3.0);
        let t0 = t_single_worker_bound(&platform, 4096.0, law).unwrap();
        let mut evals = 0;
        let t = outer_newton(4096.0, t0, &config, |t| {
            evals += 1;
            platform.iter().fold((0.0, 0.0), |(total, slope), worker| {
                let (x, dx) = invert_cost_newton(
                    law,
                    worker.inv_bandwidth(),
                    worker.w(),
                    t,
                    config.max_inner,
                );
                (total + x, slope + dx)
            })
        })
        .unwrap();
        assert!(rel(t, 68.0) < 1e-12, "root {t}");
        assert!(evals <= 8, "{evals} evaluations");
    }

    #[test]
    fn parallel_allocation_finishes_simultaneously_in_simulation() {
        let platform = Platform::from_speeds_and_costs(&[1.0, 2.0, 5.0], &[1.0, 0.3, 0.8]).unwrap();
        let a = equal_finish_parallel(&platform, 30.0, 2.0).unwrap();
        let report = simulate(&platform, &a.to_schedule());
        for t in report.finish_times() {
            assert!(
                (t - a.makespan).abs() < 1e-6 * a.makespan,
                "t={t} T={}",
                a.makespan
            );
        }
    }

    #[test]
    fn one_port_allocation_finishes_simultaneously_in_simulation() {
        let platform = Platform::from_speeds_and_costs(&[1.0, 2.0, 5.0], &[1.0, 0.3, 0.8]).unwrap();
        let a = equal_finish_one_port(&platform, 30.0, 2.0, None).unwrap();
        assert!((a.x.iter().sum::<f64>() - 30.0).abs() < 1e-9);
        let report = simulate(&platform, &a.to_schedule());
        for t in report.finish_times() {
            assert!(
                (t - a.makespan).abs() < 1e-5 * a.makespan,
                "t={t} T={}",
                a.makespan
            );
        }
    }

    #[test]
    fn faster_workers_get_more_data() {
        let platform = Platform::from_speeds(&[1.0, 4.0]).unwrap();
        let a = equal_finish_parallel(&platform, 20.0, 2.0).unwrap();
        assert!(a.x[1] > a.x[0]);
    }

    #[test]
    fn alpha_one_degenerates_to_linear_dlt() {
        let platform =
            Platform::from_speeds_and_costs(&[1.0, 2.0, 4.0], &[1.0, 0.5, 0.25]).unwrap();
        let nl = equal_finish_parallel(&platform, 60.0, 1.0).unwrap();
        let lin = crate::linear::single_round_parallel(&platform, 60.0);
        for (a, b) in nl.x.iter().zip(&lin.chunks) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert!((nl.makespan - lin.makespan).abs() < 1e-6);
    }

    #[test]
    fn alpha_just_above_one_stays_near_linear() {
        // α → 1⁺: the Newton solver must degrade gracefully into the
        // linear closed form, not lose precision to the vanishing
        // curvature.
        let platform =
            Platform::from_speeds_and_costs(&[1.0, 2.0, 4.0], &[1.0, 0.5, 0.25]).unwrap();
        let nl = equal_finish_parallel(&platform, 60.0, 1.0 + 1e-9).unwrap();
        let lin = crate::linear::single_round_parallel(&platform, 60.0);
        for (a, b) in nl.x.iter().zip(&lin.chunks) {
            assert!(rel(*a, *b) < 1e-6, "{a} vs {b}");
        }
        let reference = equal_finish_parallel_reference(&platform, 60.0, 1.0 + 1e-9).unwrap();
        assert!(rel(nl.makespan, reference.makespan) < 1e-9);
    }

    #[test]
    fn very_superlinear_alpha_converges() {
        // α ≫ 1: extreme curvature; Newton's monotone descent from the
        // closed-form upper bound must still converge onto the oracle.
        let platform = Platform::from_speeds_and_costs(&[1.0, 3.0, 0.5], &[0.7, 0.1, 2.0]).unwrap();
        for &alpha in &[6.0, 12.0, 24.0] {
            let a = equal_finish_parallel(&platform, 50.0, alpha).unwrap();
            let r = equal_finish_parallel_reference(&platform, 50.0, alpha).unwrap();
            assert!((a.x.iter().sum::<f64>() - 50.0).abs() < 1e-9 * 50.0);
            assert!(rel(a.makespan, r.makespan) < 1e-9, "alpha={alpha}");
            // Sharper nonlinearity evens out the shares: no worker runs
            // away with the load.
            let max = a.x.iter().cloned().fold(0.0, f64::max);
            assert!(max < 50.0);
        }
    }

    #[test]
    fn near_zero_bandwidth_worker_gets_almost_nothing() {
        // One worker behind a near-dead link (huge c_i = 1/bandwidth):
        // the solver must converge and starve it rather than stall.
        let platform =
            Platform::from_speeds_and_costs(&[1.0, 1.0, 1.0], &[0.5, 1e12, 0.5]).unwrap();
        let a = equal_finish_parallel(&platform, 40.0, 2.0).unwrap();
        let r = equal_finish_parallel_reference(&platform, 40.0, 2.0).unwrap();
        assert!(rel(a.makespan, r.makespan) < 1e-9);
        assert!(a.x[1] < 1e-9 * 40.0, "starved share {}", a.x[1]);
        assert!((a.x.iter().sum::<f64>() - 40.0).abs() < 1e-9 * 40.0);
    }

    #[test]
    fn warm_start_sequence_matches_cold_solves() {
        // A FIFO-style shrinking sequence through one handle agrees with
        // independent cold solves to well below the 1e-9 contract.
        let platform = Platform::from_speeds_and_costs(&[1.0, 2.5, 4.0], &[1.0, 0.5, 0.7]).unwrap();
        let config = SolverConfig::default();
        let mut solver = crate::batch::BatchSolver::default();
        for &n in &[120.0, 90.0, 60.0, 30.0, 10.0] {
            let warm_run = solver.solve(&platform, n, 1.7, &config).unwrap();
            let cold_run = equal_finish_parallel(&platform, n, 1.7).unwrap();
            assert!(rel(warm_run.makespan, cold_run.makespan) < 1e-9);
            for (a, b) in warm_run.x.iter().zip(&cold_run.x) {
                assert!((a - b).abs() < 1e-9 * n, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn newton_matches_reference_one_port() {
        // The default order, and an order that serves a slow link first:
        // its sends eat the windows of the workers after it, so the
        // single-best-worker `T₀` can lie below the root (at α = 1 the
        // shares at `T₀` sum to under 1 of the 30 units).
        for (costs, order) in [
            ([1.0, 0.3, 0.8], None),
            ([100.0, 0.3, 0.8], Some(vec![0, 1, 2])),
        ] {
            let platform = Platform::from_speeds_and_costs(&[1.0, 2.0, 5.0], &costs).unwrap();
            for &alpha in &[1.0, 1.5, 2.0, 3.0] {
                let a = equal_finish_one_port(&platform, 30.0, alpha, order.clone()).unwrap();
                let r =
                    equal_finish_one_port_reference(&platform, 30.0, alpha, order.clone()).unwrap();
                assert!(
                    rel(a.makespan, r.makespan) < 1e-9,
                    "{costs:?}, alpha={alpha}"
                );
                for (x, y) in a.x.iter().zip(&r.x) {
                    assert!((x - y).abs() < 1e-9 * 30.0);
                }
                assert_eq!(a.order, r.order);
            }
        }
    }

    #[test]
    fn work_fraction_decreases_with_platform_size() {
        let n = 1000.0;
        let mut prev = 1.0;
        for p in [2usize, 4, 16, 64] {
            let platform = Platform::homogeneous(p, 1.0, 1.0).unwrap();
            let a = equal_finish_parallel(&platform, n, 2.0).unwrap();
            let frac = a.work_fraction_done();
            assert!(frac < prev, "p={p}: {frac} !< {prev}");
            prev = frac;
        }
        // At p = 64, ~1/64 of the work is done: the no-free-lunch result.
        assert!(prev < 0.02);
    }

    #[test]
    fn one_port_never_beats_parallel_model() {
        let platform = Platform::from_speeds_and_costs(&[1.0, 3.0, 2.0], &[0.5, 0.4, 0.9]).unwrap();
        let par = equal_finish_parallel(&platform, 25.0, 2.0).unwrap();
        let op = equal_finish_one_port(&platform, 25.0, 2.0, None).unwrap();
        assert!(op.makespan >= par.makespan - 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        assert!(equal_finish_parallel(&platform, 0.0, 2.0).is_err());
        assert!(equal_finish_parallel(&platform, 10.0, 0.5).is_err());
        assert!(equal_finish_one_port(&platform, 10.0, 2.0, Some(vec![1])).is_err());
        assert!(equal_finish_parallel_reference(&platform, 0.0, 2.0).is_err());
        assert!(equal_finish_one_port_reference(&platform, 10.0, 2.0, Some(vec![1])).is_err());
    }

    #[test]
    fn work_conservation() {
        let platform = Platform::from_speeds(&[1.0, 2.0, 3.0]).unwrap();
        let a = equal_finish_parallel(&platform, 42.0, 2.5).unwrap();
        assert!((a.x.iter().sum::<f64>() - 42.0).abs() < 1e-9);
        assert!(a.work_done() <= a.total_work());
    }
}
