//! The equal-finish kernel: one structure-of-arrays solver for the
//! parallel communication model.
//!
//! Every parallel-model equal-finish solve in the workspace runs here —
//! [`crate::nonlinear::equal_finish_parallel`] is one cold-handle solve
//! of this kernel, and the multi-load engines and the sweep runners
//! thread a [`BatchSolver`] through consecutive solves.
//!
//! The system is `cᵢxᵢ + wᵢ·(s·xᵢ + (1−s)·xᵢ^α) = T` on every worker with
//! `Σxᵢ = N` (the [`CostLaw`]; `s = 0` is the paper's `cᵢxᵢ + wᵢxᵢ^α`).
//! A linear law (`α = 1` or `s = 1`) has the closed form
//! `T = N / Σ 1/(cᵢ + wᵢ)`, taken with no iteration. A warm handle, one
//! that holds the previous solve's shares on the same lanes, takes Newton
//! steps on all shares and `T` together from those shares: one power pass
//! and O(p) arithmetic per step. A cold handle, a changed platform and a
//! joint attempt that fails take the nested solve instead: an outer
//! safeguarded Newton on `T` (taken in log–log coordinates) over inner
//! per-worker inverses, which converges from any start.
//! [`BatchSolver`] keeps the platform as structure-of-arrays lanes
//! (contiguous `c[]`, `w[]` plus per-lane Newton state). Once per solve it
//! folds the law into two more lanes, the linear rate `lin = c + w·s` and
//! the power coefficient `coef = w·(1−s)` (`c` and `w` themselves at
//! `s = 0`), so the kernel evaluates `lin·x + coef·x^α` and an α-power
//! solve pays no per-lane operation for the serial fraction. Every joint
//! step and every inner iteration is one residual pass over the lane
//! arrays, a single shared-exponent `x^{α−1}` sweep through
//! [`crate::fastmath::pow_lanes`]: exact `sqrt`, copy or multiplies when
//! `α − 1` is ½, 1, 3/2 or 2, the polynomial `exp((α−1)·ln x)` otherwise
//! (runtime-detected AVX2, four lanes at a time, or a scalar loop). The
//! nested solve advances all inner inverses in lockstep and starts every
//! outer evaluation from one such sweep for the closed-form bounds'
//! `(t/coef)^{1/α}` (a `sqrt` at α = 2), later iterates from the previous
//! iterate's roots. The solver reuses all scratch (no allocation per
//! evaluation).
//!
//! # Correctness contract
//!
//! * The nested-bisection
//!   [`crate::nonlinear::equal_finish_parallel_reference`] is the oracle:
//!   makespan and every share agree with it to ≤ 1e-9 relative, from
//!   cold, warm and stale-warm handles alike (the property suite in
//!   `tests/batch_properties.rs` sweeps p ∈ {1, 2, 7, 8, 64, 512} × the
//!   α-power and Amdahl laws).
//! * Conservation is exact by construction: after the final rescale the
//!   largest lane is re-assigned the remainder `n − Σ_{i≠k} xᵢ`
//!   (left-to-right sum skipping `k`), so replaying that sum in the
//!   kernel's own arithmetic recovers `n` bitwise.
//! * Results are a pure function of the handle's solve sequence: two
//!   handles fed the same `(platform, n, law)` sequence return the same
//!   bits, which is what keeps every engine bit-identical to its
//!   `_reference` twin. A solve that repeats the previous one on the
//!   same lanes (`n` and law bit for bit, and the same config) returns
//!   the previous allocation unchanged.
//! * Share seeds are **a start only**: the joint step falls back to the
//!   nested solve, from the handle's finish-time hint, when a step leaves
//!   the positive finite reals or has not converged after a fixed cap.
//!   The seeds and the repeat record are dropped whenever the platform's
//!   lane arrays change bitwise — a worker failing out mid-trace shrinks
//!   the degraded platform, and a stale-length seed must not be read
//!   (the unit test below, and `dlt-multiload`'s failure properties,
//!   which drive `Down` events through every engine). The outer
//!   finish-time hint survives platform changes.
//!
//! The one-port model ([`crate::nonlinear::equal_finish_one_port`]) has
//! no lane form — its serialized sends chain each worker's window to the
//! previous shares — and stays the single scalar consumer of the inner
//! Newton in `nonlinear`. Both models share the outer Newton loop,
//! `nonlinear::outer_newton`; each finishes its own shares.

use crate::costmodel::{CostLaw, CostModel};
use crate::error::DltError;
use crate::fastmath::pow_lanes;
use crate::nonlinear::{self, NonlinearAllocation, SolverConfig};
use dlt_platform::Platform;
use dlt_sim::CommMode;

/// Relative inflation applied to the fast-path closed-form upper bound:
/// comfortably above the polynomial `pow`'s worst-case error, so the
/// bound still satisfies `cost(ub) ≥ t` and Newton descends onto the
/// root from the right instead of stalling on a bracket whose upper end
/// sits a few ulps *below* the root.
const UB_INFLATE: f64 = 1e-12;

/// Step cap of the joint Newton: from the previous solve's shares it
/// converges in a handful of steps, and a start that has not converged
/// after this many falls back to the nested solve.
const JOINT_STEPS: usize = 16;

/// Names the equal-finish kernel a [`BatchSolver`] runs. There is one —
/// the structure-of-arrays lanes kernel of this module — so the enum has
/// a single variant and [`BatchSolver::new`] runs the same kernel for
/// every value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveBackend {
    /// The lanes kernel: shared-exponent fast power kernels, share seeds,
    /// ≤ 1e-9 relative of the bisection oracle.
    #[default]
    Scalar,
}

/// Reusable equal-finish solver handle: the outer finish-time hint, the
/// structure-of-arrays platform mirror, per-lane scratch, and the previous
/// solve's share seeds and inputs.
///
/// Thread one handle through consecutive solves (the multiload engines
/// and the sweep runners do): the platform arrays are rebuilt only when
/// the platform actually changes, every solve seeds the next, and a
/// repeated solve returns the previous allocation.
///
/// # Examples
///
/// ```
/// use dlt_core::batch::BatchSolver;
/// use dlt_core::nonlinear::SolverConfig;
/// use dlt_platform::Platform;
///
/// let platform = Platform::from_speeds(&[1.0, 2.0, 4.0]).unwrap();
/// let config = SolverConfig::default();
/// let mut solver = BatchSolver::default();
/// for n in [100.0, 80.0, 64.0] {
///     let a = solver.solve(&platform, n, 2.0, &config).unwrap();
///     assert!((a.x.iter().sum::<f64>() - n).abs() <= 1e-9 * n);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchSolver {
    /// Outer root of the last solve: the next solve's first probe.
    hint: Option<f64>,
    /// SoA mirror of the last platform seen (inverse bandwidths).
    c: Vec<f64>,
    /// SoA mirror of the last platform seen (inverse speeds).
    w: Vec<f64>,
    /// The current solve's law per lane: linear rate `c + w·s` …
    lin: Vec<f64>,
    /// … and power coefficient `w·(1−s)`.
    coef: Vec<f64>,
    /// Final shares of the previous solve on this platform (empty when
    /// cold or after a platform change): the joint step's start.
    seeds: Vec<f64>,
    /// The previous solve on these lanes, if any (its shares are `seeds`).
    last: Option<Solved>,
    // Per-lane Newton state, reused across solves.
    x: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    fx: Vec<f64>,
    df: Vec<f64>,
    invd: Vec<f64>,
    done: Vec<bool>,
}

impl BatchSolver {
    /// A cold handle; the same as [`BatchSolver::default`] (see
    /// [`SolveBackend`]).
    pub fn new(_kernel: SolveBackend) -> Self {
        Self::default()
    }

    /// A handle pre-seeded with a finish-time hint (e.g. a closed-form
    /// estimate); non-finite or non-positive seeds are ignored. A stale
    /// seed can only lengthen the path to the root, never change it.
    pub fn seeded(t: f64) -> Self {
        Self {
            hint: usable_hint(t),
            ..Self::default()
        }
    }

    /// The outer root of the last solve, if any (the warm-start hint).
    pub fn last_makespan(&self) -> Option<f64> {
        self.hint
    }

    /// Equal-finish parallel-model solve of `n` data units under `law` (a
    /// bare `f64` is the α-power law): the closed form for a linear law,
    /// else joint Newton steps from this handle's previous shares when it
    /// has them, the nested solve otherwise or when the joint steps fail,
    /// recording this solve's root, shares and inputs for the next. A
    /// repeat of the previous solve returns its allocation.
    pub fn solve(
        &mut self,
        platform: &Platform,
        n: f64,
        law: impl Into<CostLaw>,
        config: &SolverConfig,
    ) -> Result<NonlinearAllocation, DltError> {
        let law = law.into();
        nonlinear::validate(n, law)?;
        self.refresh_platform(platform);
        // A repeat of the previous solve on these lanes returns its
        // allocation as it is: a joint step started at its own root
        // re-derives the finish time and may move it by an ulp.
        if let Some(last) = self.last.filter(|last| last.repeats(n, law, config)) {
            return Ok(allocation(platform, n, law, last.makespan, &self.seeds));
        }
        self.last = None;
        if law.is_linear() {
            let t = self.linear_closed_form(n);
            return Ok(self.finish(platform, n, law, config, t));
        }
        let lanes = self.lin.iter_mut().zip(&mut self.coef);
        for ((lin, coef), (&c, &w)) in lanes.zip(self.c.iter().zip(&self.w)) {
            (*lin, *coef) = law.lanes(c, w);
        }
        if self.seeds.len() == platform.len() {
            if let Some(t) = self.joint_newton(n, law.alpha, config.residual_tol) {
                return Ok(self.finish(platform, n, law, config, t));
            }
        }
        let mut first = true;
        let t = nonlinear::outer_newton(platform, n, law, self.hint, config, |t| {
            let slope = self.eval_lanes(law.alpha, t, first, config.max_inner);
            first = false;
            (self.x.iter().sum(), slope)
        })?;
        Ok(self.finish(platform, n, law, config, t))
    }

    /// Multi-law solve sharing one platform scan: solves the same `(platform, n)`
    /// under each law in turn through this handle, so the SoA arrays are
    /// built once and each law's joint steps start from the previous
    /// law's shares (consecutive α values have nearby roots — the sec2 /
    /// sec-amdahl α-sweep pattern).
    pub fn solve_sweep(
        &mut self,
        platform: &Platform,
        n: f64,
        laws: &[CostLaw],
        config: &SolverConfig,
    ) -> Result<Vec<NonlinearAllocation>, DltError> {
        laws.iter()
            .map(|&law| self.solve(platform, n, law, config))
            .collect()
    }

    /// Rebuilds the SoA mirror when the platform changed (bitwise lane
    /// compare); a change drops the share seeds — they are meaningless
    /// (and possibly the wrong length) on the new lane layout — and the
    /// repeat record, while the outer finish-time hint survives, being a
    /// plain hint.
    fn refresh_platform(&mut self, platform: &Platform) {
        let p = platform.len();
        let same = self.c.len() == p
            && platform.iter().enumerate().all(|(i, pr)| {
                self.c[i].to_bits() == pr.inv_bandwidth().to_bits()
                    && self.w[i].to_bits() == pr.w().to_bits()
            });
        if same {
            return;
        }
        self.c.clear();
        self.w.clear();
        for pr in platform.iter() {
            self.c.push(pr.inv_bandwidth());
            self.w.push(pr.w());
        }
        self.seeds.clear();
        self.last = None;
        self.lin.resize(p, 0.0);
        self.coef.resize(p, 0.0);
        self.x.resize(p, 0.0);
        self.lo.resize(p, 0.0);
        self.hi.resize(p, 0.0);
        self.fx.resize(p, 0.0);
        self.df.resize(p, 0.0);
        self.invd.resize(p, 0.0);
        self.done.resize(p, false);
    }

    /// The whole system of a linear law in closed form: every lane costs
    /// `(cᵢ + wᵢ)·xᵢ`, so `T = n / Σ 1/(cᵢ + wᵢ)` and
    /// `xᵢ = T·(1/(cᵢ + wᵢ))`, into `self.x`. Reads no hint and no seed.
    fn linear_closed_form(&mut self, n: f64) -> f64 {
        let mut rates = 0.0;
        for (invd, (&c, &w)) in self.invd.iter_mut().zip(self.c.iter().zip(&self.w)) {
            *invd = 1.0 / (c + w);
            rates += *invd;
        }
        let t = n / rates;
        for (x, &invd) in self.x.iter_mut().zip(&self.invd) {
            *x = t * invd;
        }
        t
    }

    /// Newton on all shares and the finish time together, from the
    /// previous solve's shares scaled to `Σx = n`: the bordered system
    /// `costᵢ(xᵢ) = T`, `Σx = n`, with `T` eliminated, so a step is one
    /// power pass and O(p) arithmetic:
    /// `T′ = T + (Σ(costᵢ − T)/f′ᵢ − (Σx − n)) / Σ1/f′ᵢ` and
    /// `xᵢ′ = xᵢ + (T′ − costᵢ)/f′ᵢ`. Each `xᵢ′` is the tangent root of a
    /// convex increasing lane cost at height `T′`, so it lies at or above
    /// the lane's root and stays positive while `T′` does.
    ///
    /// Returns the finish time, with the shares in `self.x`, once
    /// `|Σx − n| ≤ residual_tol·n` and the largest lane residual
    /// `|costᵢ − T|` is at most `4ε·T` (the nested inner loop's residual
    /// test) or has stopped halving at or below `residual_tol·T` (a
    /// stall on the rounding floor of the computed costs, where the
    /// nested inner loop stops on its step or bracket test). Every lane
    /// cost then lies within that residual of `T`, and so does the root.
    /// `None` when `T′` or a share leaves the positive finite reals, or
    /// after [`JOINT_STEPS`] steps.
    fn joint_newton(&mut self, n: f64, alpha: f64, residual_tol: f64) -> Option<f64> {
        let scale = n / self.seeds.iter().sum::<f64>();
        for (x, &seed) in self.x.iter_mut().zip(&self.seeds) {
            *x = seed * scale;
        }
        // `T` enters a step only as the reference its correction is
        // taken against, which keeps the correction's rounding small near
        // the root; from 0 the first `T′` is the mean of the lane costs
        // weighted by `1/f′ᵢ`.
        let mut t = 0.0;
        let mut last_worst = f64::INFINITY;
        for _ in 0..JOINT_STEPS {
            if !self.x.iter().all(|&x| x > 0.0 && x < f64::INFINITY) {
                return None;
            }
            // `x^{α−1}`, one shared-exponent pass, parked in `df`.
            pow_lanes(&self.x, alpha - 1.0, &mut self.df);
            let (mut total, mut weights, mut shift) = (0.0, 0.0, 0.0);
            for i in 0..self.x.len() {
                let xam1 = self.df[i];
                let cost = (self.lin[i] + self.coef[i] * xam1) * self.x[i];
                let invd = 1.0 / (self.lin[i] + self.coef[i] * alpha * xam1);
                self.fx[i] = cost;
                self.invd[i] = invd;
                total += self.x[i];
                weights += invd;
                shift += (cost - t) * invd;
            }
            let excess = total - n;
            t += (shift - excess) / weights;
            if !(t > 0.0 && t < f64::INFINITY) {
                return None;
            }
            // A residual that stopped halving sits on the rounding floor
            // of the computed costs (the fast power's error grows with
            // `(α−1)·|ln x|`): further steps only resample that noise.
            let worst = self.fx.iter().fold(0.0, |m: f64, &c| m.max((c - t).abs()));
            let settled = worst <= 4.0 * f64::EPSILON * t
                || (worst > 0.5 * last_worst && worst <= residual_tol * t);
            if settled && excess.abs() <= residual_tol * n {
                return Some(t);
            }
            last_worst = worst;
            for ((x, &cost), &invd) in self.x.iter_mut().zip(&self.fx).zip(&self.invd) {
                *x += (t - cost) * invd;
            }
        }
        None
    }

    /// One outer evaluation: all lane inverses at finish time `t`, into
    /// `self.x`, returning the slope `Σ dxᵢ/dt`. The lane form of
    /// `nonlinear::invert_cost_newton` (same bracketing and stopping
    /// rules), with the Newton iterations advanced in lockstep so each
    /// iteration is one batched residual pass.
    fn eval_lanes(&mut self, alpha: f64, t: f64, first: bool, max_inner: usize) -> f64 {
        let p = self.c.len();
        if t <= 0.0 {
            self.x[..p].fill(0.0);
            return 0.0;
        }
        let inv_alpha = 1.0 / alpha;
        // Every lane's closed-form bound `min(t/lin, (t/coef)^{1/α})`
        // (`CostModel::inverse_upper_bound`), re-inflated below. The power
        // goes through `pow_lanes` (`fx` is free until the residual pass):
        // one pass over every lane, a `sqrt` at α = 2. A `fast_powf` per
        // lane runs the Amdahl sweeps 6–9 % slower than a std `powf` bound.
        for (q, &coef) in self.hi.iter_mut().zip(&self.coef) {
            *q = t / coef;
        }
        pow_lanes(&self.hi, inv_alpha, &mut self.fx);
        for i in 0..p {
            let by_pow = if self.coef[i] > 0.0 {
                self.fx[i]
            } else {
                f64::INFINITY
            };
            self.hi[i] = if self.lin[i] > 0.0 {
                (t / self.lin[i]).min(by_pow)
            } else {
                by_pow
            };
        }
        let mut remaining = 0usize;
        for i in 0..p {
            let ub = self.hi[i];
            if ub.is_nan() || ub <= 0.0 || ub.is_infinite() {
                // Float extremes only (the bound underflowed to 0 or
                // overflowed to ∞): the lane gets nothing, as in
                // `nonlinear::invert_cost_newton`.
                self.x[i] = 0.0;
                self.invd[i] = 0.0;
                self.done[i] = true;
                continue;
            }
            let ub = ub * (1.0 + UB_INFLATE);
            self.hi[i] = ub;
            self.lo[i] = 0.0;
            // Start the lane from the previous outer iterate's root, a
            // hint that falls back to the closed-form bound outside the
            // fresh bracket; the first iterate starts from the bound.
            let seed = self.x[i];
            self.x[i] = if !first && seed.is_finite() && seed > 0.0 && seed < ub {
                seed
            } else {
                ub
            };
            self.done[i] = false;
            remaining += 1;
        }
        if remaining == 0 {
            return 0.0;
        }
        for _ in 0..max_inner.max(1) {
            // One shared-exponent pass over every lane (`x^{α−1}` parked
            // in `df` until the combine loop consumes it); converged
            // lanes are recomputed at their frozen root (pure function —
            // same value) and skipped below, keeping the pass
            // branch-free.
            pow_lanes(&self.x, alpha - 1.0, &mut self.df);
            for i in 0..p {
                let xam1 = self.df[i];
                self.fx[i] = (self.lin[i] + self.coef[i] * xam1) * self.x[i] - t;
                self.df[i] = self.lin[i] + self.coef[i] * alpha * xam1;
            }
            for i in 0..p {
                if self.done[i] {
                    continue;
                }
                let fxi = self.fx[i];
                self.invd[i] = 1.0 / self.df[i];
                if fxi.abs() <= 4.0 * f64::EPSILON * t {
                    self.done[i] = true;
                    remaining -= 1;
                    continue;
                }
                if fxi < 0.0 {
                    self.lo[i] = self.x[i];
                } else {
                    self.hi[i] = self.x[i];
                }
                let newton = self.x[i] - fxi * self.invd[i];
                let next = if newton.is_finite() && newton > self.lo[i] && newton < self.hi[i] {
                    newton
                } else {
                    0.5 * (self.lo[i] + self.hi[i])
                };
                let step = (next - self.x[i]).abs();
                self.x[i] = next;
                if step <= f64::EPSILON * self.x[i]
                    || self.hi[i] - self.lo[i] <= f64::EPSILON * self.hi[i]
                {
                    self.done[i] = true;
                    remaining -= 1;
                }
            }
            if remaining == 0 {
                break;
            }
        }
        self.invd[..p].iter().sum()
    }

    /// Rescale to `Σ xᵢ = n`, pin exact conservation on the largest
    /// lane, record the warm hint, the share seeds and the solve, and
    /// package the allocation.
    fn finish(
        &mut self,
        platform: &Platform,
        n: f64,
        law: CostLaw,
        config: &SolverConfig,
        t: f64,
    ) -> NonlinearAllocation {
        if nonlinear::rescale(&mut self.x, n) {
            // Exact conservation: the largest share absorbs the
            // rescale's rounding residue. `rest` is the left-to-right
            // sum skipping lane `k` — replaying it bitwise recovers
            // `x[k] = n − rest` (tested in batch_properties).
            let mut k = 0usize;
            for i in 1..self.x.len() {
                if self.x[i] > self.x[k] {
                    k = i;
                }
            }
            let mut rest = 0.0;
            for (i, &xi) in self.x.iter().enumerate() {
                if i != k {
                    rest += xi;
                }
            }
            let rem = n - rest;
            if rem > 0.0 {
                self.x[k] = rem;
            }
        }
        self.hint = usable_hint(t).or(self.hint);
        self.seeds.clear();
        self.seeds.extend_from_slice(&self.x);
        self.last = Some(Solved {
            n,
            law,
            config: *config,
            makespan: t,
        });
        allocation(platform, n, law, t, &self.x)
    }
}

/// One solve's inputs and root, kept by the handle for its previous
/// solve (whose shares are the seeds).
#[derive(Debug, Clone, Copy)]
struct Solved {
    n: f64,
    law: CostLaw,
    config: SolverConfig,
    makespan: f64,
}

impl Solved {
    /// Bit for bit the same `n` and law, and the same config.
    fn repeats(&self, n: f64, law: CostLaw, config: &SolverConfig) -> bool {
        self.n.to_bits() == n.to_bits() && self.law.bits_eq(&law) && self.config == *config
    }
}

fn allocation(platform: &Platform, n: f64, law: CostLaw, t: f64, x: &[f64]) -> NonlinearAllocation {
    NonlinearAllocation {
        x: x.to_vec(),
        makespan: t,
        model: law,
        n,
        comm_mode: CommMode::Parallel,
        order: (0..platform.len()).collect(),
    }
}

/// A finish-time hint is kept only when it is finite and positive.
fn usable_hint(t: f64) -> Option<f64> {
    (t.is_finite() && t > 0.0).then_some(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::CostLaw;
    use crate::nonlinear::equal_finish_parallel_reference;
    use dlt_platform::{PlatformSpec, SpeedDistribution};

    fn assert_close(oracle: f64, kernel: f64, what: &str) {
        let tol = 1e-9 * oracle.abs().max(kernel.abs()).max(1e-300);
        assert!(
            (oracle - kernel).abs() <= tol,
            "{what}: kernel {kernel} vs oracle {oracle}"
        );
    }

    fn platform3() -> Platform {
        Platform::from_speeds_and_costs(&[1.0, 2.0, 4.0], &[0.5, 0.25, 0.125]).unwrap()
    }

    #[test]
    fn warm_sequences_match_the_bisection_oracle() {
        let platform = platform3();
        let config = SolverConfig::default();
        for alpha in [1.0, 1.5, 2.0, 3.0, 24.0] {
            let mut solver = BatchSolver::default();
            for n in [100.0, 80.0, 64.0] {
                let k = solver.solve(&platform, n, alpha, &config).unwrap();
                let r = equal_finish_parallel_reference(&platform, n, alpha).unwrap();
                assert_close(r.makespan, k.makespan, "makespan");
                for (i, (&xr, &xk)) in r.x.iter().zip(&k.x).enumerate() {
                    assert_close(xr, xk, &format!("share {i} (alpha {alpha}, n {n})"));
                }
            }
        }
    }

    #[test]
    fn conserves_the_load_bitwise() {
        let platform = platform3();
        let config = SolverConfig::default();
        let mut solver = BatchSolver::default();
        let n = 137.0;
        let a = solver.solve(&platform, n, 1.7, &config).unwrap();
        let k = (0..a.x.len())
            .max_by(|&i, &j| a.x[i].partial_cmp(&a.x[j]).unwrap())
            .unwrap();
        let mut rest = 0.0;
        for (i, &xi) in a.x.iter().enumerate() {
            if i != k {
                rest += xi;
            }
        }
        assert_eq!((n - rest).to_bits(), a.x[k].to_bits());
    }

    #[test]
    fn platform_change_drops_share_seeds_but_keeps_the_warm_hint() {
        let config = SolverConfig::default();
        let mut solver = BatchSolver::default();
        let p5 = Platform::from_speeds(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        solver.solve(&p5, 100.0, 2.0, &config).unwrap();
        assert_eq!(solver.seeds.len(), 5);
        let warm_before = solver.last_makespan().unwrap();
        // A worker "fails out": shorter platform through the same handle.
        let p3 = platform3();
        let a = solver.solve(&p3, 100.0, 2.0, &config).unwrap();
        assert_eq!(a.x.len(), 3);
        assert_eq!(solver.seeds.len(), 3);
        assert!(solver.last_makespan().unwrap() != warm_before || a.makespan == warm_before);
        // And the result still matches the oracle on the new platform.
        let r = equal_finish_parallel_reference(&p3, 100.0, 2.0).unwrap();
        assert_close(r.makespan, a.makespan, "post-shrink makespan");
    }

    #[test]
    fn a_repeat_on_changed_lanes_is_solved_afresh() {
        let config = SolverConfig::default();
        let mut solver = BatchSolver::default();
        let first = solver.solve(&platform3(), 100.0, 2.0, &config).unwrap();
        let again = solver.solve(&platform3(), 100.0, 2.0, &config).unwrap();
        assert_eq!(first.makespan.to_bits(), again.makespan.to_bits());
        // Same width, n and law, other speeds: no repeat of the record.
        let other = Platform::from_speeds(&[3.0, 1.0, 2.0]).unwrap();
        let a = solver.solve(&other, 100.0, 2.0, &config).unwrap();
        let r = equal_finish_parallel_reference(&other, 100.0, 2.0).unwrap();
        assert_close(r.makespan, a.makespan, "makespan on the new lanes");
    }

    #[test]
    fn a_far_off_start_falls_back_to_the_nested_solve() {
        // Seeds that put nearly all the load on one lane are no start at
        // α = 24: from far above its root a lane's Newton step shrinks it
        // by only a factor 1 − 1/α, so the step cap runs out and the
        // nested solve lands.
        let platform = PlatformSpec::new(8, SpeedDistribution::paper_uniform())
            .generate_stream(7, 0)
            .unwrap();
        let config = SolverConfig::default();
        let mut solver = BatchSolver::default();
        solver.solve(&platform, 100.0, 1.5, &config).unwrap();
        solver.seeds.fill(1e-12);
        solver.seeds[0] = 100.0;
        let law = CostLaw::alpha_power(24.0);
        for i in 0..platform.len() {
            (solver.lin[i], solver.coef[i]) = law.lanes(solver.c[i], solver.w[i]);
        }
        assert_eq!(solver.joint_newton(100.0, 24.0, config.residual_tol), None);
        let a = solver.solve(&platform, 100.0, law, &config).unwrap();
        let r = equal_finish_parallel_reference(&platform, 100.0, law).unwrap();
        assert_close(r.makespan, a.makespan, "fallback makespan");
    }

    #[test]
    fn sweep_chains_and_matches_the_oracle_per_law() {
        let platform = platform3();
        let config = SolverConfig::default();
        let laws: Vec<CostLaw> = [1.0, 1.5, 2.0, 3.0, 6.0]
            .iter()
            .map(|&a| CostLaw::alpha_power(a))
            .collect();
        let mut solver = BatchSolver::default();
        let allocs = solver
            .solve_sweep(&platform, 512.0, &laws, &config)
            .unwrap();
        for (law, k) in laws.iter().zip(&allocs) {
            let r = equal_finish_parallel_reference(&platform, 512.0, *law).unwrap();
            assert_close(r.makespan, k.makespan, "sweep makespan");
        }
    }

    #[test]
    fn a_hint_far_above_the_root_still_converges() {
        // A hint of ~7e79 on a handle whose next root is ~4.5e3: plain
        // halving down from it would need more than `max_outer` steps.
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        let law = CostLaw::alpha_power(1.61);
        let config = SolverConfig::default();
        let cold = BatchSolver::default()
            .solve(&platform, 180.0, law, &config)
            .unwrap();
        let stale = BatchSolver::seeded(7e79)
            .solve(&platform, 180.0, law, &config)
            .unwrap();
        assert_close(cold.makespan, stale.makespan, "stale-hint makespan");
        let r = equal_finish_parallel_reference(&platform, 180.0, law).unwrap();
        assert_close(r.makespan, stale.makespan, "stale-hint makespan vs oracle");
    }

    #[test]
    fn linear_laws_take_the_closed_form_on_every_handle() {
        let platform = platform3();
        let config = SolverConfig::default();
        let n = 137.0;
        let rates: f64 = platform
            .iter()
            .map(|pr| 1.0 / (pr.inv_bandwidth() + pr.w()))
            .sum();
        let want = (n / rates).to_bits();
        let amdahl = CostLaw {
            serial: 1.0,
            alpha: 2.0,
        };
        for law in [CostLaw::alpha_power(1.0), amdahl] {
            let mut warm = BatchSolver::default();
            warm.solve(&platform, n, 2.0, &config).unwrap();
            for (kind, mut solver) in [
                ("cold", BatchSolver::default()),
                ("warm after α = 2", warm),
                ("seeded 7e79", BatchSolver::seeded(7e79)),
            ] {
                let a = solver.solve(&platform, n, law, &config).unwrap();
                assert_eq!(a.makespan.to_bits(), want, "{law:?}, {kind}");
            }
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let platform = platform3();
        let config = SolverConfig::default();
        let mut solver = BatchSolver::default();
        assert!(solver.solve(&platform, f64::NAN, 2.0, &config).is_err());
        assert!(solver.solve(&platform, -1.0, 2.0, &config).is_err());
        assert!(solver.solve(&platform, 10.0, 0.5, &config).is_err());
    }
}
