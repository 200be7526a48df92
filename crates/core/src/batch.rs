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
//! `T = N / Σ 1/(cᵢ + wᵢ)`. Any other law takes Newton steps on all
//! shares and `T` together, from the previous solve's shares on a warm
//! handle and from every lane's closed-form bound at the single-best-worker
//! makespan `T₀` on a cold one. Steps that fail fall back to the nested
//! solve of the one-port model, `nonlinear::outer_newton` over
//! `nonlinear::invert_cost_newton`, which converges from any start.
//!
//! The handle keeps the platform as lanes (contiguous `c[]`, `w[]`) and
//! folds the law into two more once per solve, the linear rate
//! `lin = c + w·s` and the power coefficient `coef = w·(1−s)`, so a step
//! is one shared-exponent `x^{α−1}` pass through
//! [`crate::fastmath::pow_lanes`] (exact `sqrt`, copy or multiplies when
//! `α − 1` is ½, 1, 3/2 or 2, the polynomial `exp((α−1)·ln x)` otherwise)
//! and O(p) arithmetic. All scratch is reused across solves.
//!
//! # Correctness contract
//!
//! * The nested-bisection
//!   [`crate::nonlinear::equal_finish_parallel_reference`] is the oracle:
//!   makespan and every share agree with it to ≤ 1e-9 relative, from
//!   cold, warm and far-off warm handles alike (`tests/batch_properties.rs`
//!   sweeps p ∈ {1, 2, 7, 8, 64, 512} × the α-power and Amdahl laws).
//! * Conservation is exact by construction: after the final rescale the
//!   largest lane is re-assigned the remainder `n − Σ_{i≠k} xᵢ`
//!   (left-to-right sum skipping `k`), so replaying that sum in the
//!   kernel's own arithmetic recovers `n` bitwise.
//! * Results are a pure function of the handle's solve sequence, which
//!   keeps every engine bit-identical to its `_reference` twin, and a
//!   solve that repeats the previous one on the same lanes (`n`, law and
//!   config bit for bit) returns the previous allocation unchanged.
//! * Share seeds are **a start only**, dropped with the repeat record
//!   whenever the lane arrays change bitwise (a worker failing out
//!   mid-trace shrinks the platform, and a stale-length seed must not be
//!   read).
//! * A makespan or share total that overflows `f64` is a
//!   [`DltError::NoConvergence`], never an `Ok`.

use crate::costmodel::{CostLaw, CostModel};
use crate::error::DltError;
use crate::fastmath::pow_lanes;
use crate::nonlinear::{self, NonlinearAllocation, SolverConfig};
use dlt_platform::Platform;
use dlt_sim::CommMode;

/// Step cap of the joint Newton: from the previous solve's shares or the
/// bound shares it converges in a handful of steps, and a start that has
/// not converged after this many falls back to the nested solve.
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

/// Reusable equal-finish solver handle: the structure-of-arrays platform
/// mirror, per-lane scratch, and the previous solve's share seeds and
/// inputs.
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
    /// SoA mirror of the last platform seen (inverse bandwidths).
    c: Vec<f64>,
    /// SoA mirror of the last platform seen (inverse speeds).
    w: Vec<f64>,
    /// The current solve's law per lane: linear rate `c + w·s` …
    lin: Vec<f64>,
    /// … and power coefficient `w·(1−s)`.
    coef: Vec<f64>,
    /// The joint step's start: the previous solve's shares on this
    /// platform, or the cold start's bound shares (empty when cold or
    /// after a platform change).
    seeds: Vec<f64>,
    /// The previous solve on these lanes, if any (its shares are `seeds`).
    last: Option<Solved>,
    // Per-lane Newton state, reused across solves.
    x: Vec<f64>,
    fx: Vec<f64>,
    df: Vec<f64>,
    invd: Vec<f64>,
}

impl BatchSolver {
    /// A cold handle; the same as [`BatchSolver::default`] (see
    /// [`SolveBackend`]).
    pub fn new(_kernel: SolveBackend) -> Self {
        Self::default()
    }

    /// Equal-finish parallel-model solve of `n` data units under `law` (a
    /// bare `f64` is the α-power law): the closed form for a linear law,
    /// else joint Newton steps from this handle's previous shares, or
    /// from the bound shares at `T₀` when it has none, and the nested
    /// solve when the joint steps fail; records this solve's shares and
    /// inputs for the next. A repeat of the previous solve returns its
    /// allocation.
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
        let t = if law.is_linear() {
            self.linear_closed_form(n)?
        } else {
            self.start(platform, n, law)?;
            match self.joint_newton(n, law.alpha, config.residual_tol) {
                Some(t) => t,
                None => self.nested(platform, n, law, config)?,
            }
        };
        self.finish(platform, n, law, config, t)
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
    /// repeat record.
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
        self.fx.resize(p, 0.0);
        self.df.resize(p, 0.0);
        self.invd.resize(p, 0.0);
    }

    /// The whole system of a linear law in closed form: every lane costs
    /// `(cᵢ + wᵢ)·xᵢ`, so `T = n / Σ 1/(cᵢ + wᵢ)` and
    /// `xᵢ = T·(1/(cᵢ + wᵢ))`, into `self.x`. Reads no seed; a `T` that
    /// overflows is an error.
    fn linear_closed_form(&mut self, n: f64) -> Result<f64, DltError> {
        let mut rates = 0.0;
        for (invd, (&c, &w)) in self.invd.iter_mut().zip(self.c.iter().zip(&self.w)) {
            *invd = 1.0 / (c + w);
            rates += *invd;
        }
        let t = nonlinear::representable(n / rates)?;
        for (x, &invd) in self.x.iter_mut().zip(&self.invd) {
            *x = t * invd;
        }
        Ok(t)
    }

    /// Folds `law` into the `lin`/`coef` lanes and, on a handle with no
    /// share seeds for these lanes, seeds the joint step with every lane's
    /// closed-form bound at the single-best-worker makespan `T₀`:
    /// `min(T₀/lin, (T₀/coef)^{1/α})` (`CostModel::inverse_upper_bound`),
    /// the power in one `pow_lanes` pass (a `sqrt` at α = 2). Each bound
    /// lies at or above its lane's root at `T₀`, and the best worker's
    /// root there is `n`, so their sum is at least `n`.
    fn start(&mut self, platform: &Platform, n: f64, law: CostLaw) -> Result<(), DltError> {
        let lanes = self.lin.iter_mut().zip(&mut self.coef);
        for ((lin, coef), (&c, &w)) in lanes.zip(self.c.iter().zip(&self.w)) {
            (*lin, *coef) = law.lanes(c, w);
        }
        if self.seeds.len() == self.c.len() {
            return Ok(());
        }
        let t0 = nonlinear::t_single_worker_bound(platform, n, law)?;
        for (q, &coef) in self.x.iter_mut().zip(&self.coef) {
            *q = t0 / coef;
        }
        self.seeds.resize(self.c.len(), 0.0);
        pow_lanes(&self.x, 1.0 / law.alpha, &mut self.seeds);
        for (seed, &lin) in self.seeds.iter_mut().zip(&self.lin) {
            *seed = (t0 / lin).min(*seed);
        }
        Ok(())
    }

    /// Newton on all shares and the finish time together, from the
    /// share seeds scaled to `Σx = n`: the bordered system
    /// `costᵢ(xᵢ) = T`, `Σx = n`, with `T` eliminated, so a step is one
    /// power pass and O(p) arithmetic:
    /// `T′ = T + (Σ(costᵢ − T)/f′ᵢ − (Σx − n)) / Σ1/f′ᵢ` and
    /// `xᵢ′ = xᵢ + (T′ − costᵢ)/f′ᵢ`. Each `xᵢ′` is the tangent root of a
    /// convex increasing lane cost at height `T′`, so it lies at or above
    /// the lane's root and stays positive while `T′` does.
    ///
    /// Returns the finish time, with the shares in `self.x`, once
    /// `|Σx − n| ≤ residual_tol·n` and the largest lane residual
    /// `|costᵢ − T|` is at most `4ε·T` (the inner Newton's residual test)
    /// or has stopped halving at or below `residual_tol·T` plus the shift
    /// `|Σx − n| / Σ1/f′ᵢ` that the conservation excess puts on `T′` (a
    /// stall on the rounding floor of the computed costs and of `Σx`,
    /// where the inner Newton stops on its step or bracket test). Every
    /// lane cost then lies within that residual of `T`, and so does the
    /// root. `None` when `T′` or a share leaves the positive finite reals,
    /// or after [`JOINT_STEPS`] steps.
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
            // `(α−1)·|ln x|`) and of `Σx` (at p = 2048 and α = 12, identical
            // lanes settle ~6e-13·T apart from `T′`, which absorbs the
            // sum's rounding): further steps only resample that noise.
            let worst = self.fx.iter().fold(0.0, |m: f64, &c| m.max((c - t).abs()));
            let floor = residual_tol * t + excess.abs() / weights;
            let settled =
                worst <= 4.0 * f64::EPSILON * t || (worst > 0.5 * last_worst && worst <= floor);
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

    /// The fallback when the joint steps fail: the one-port model's nested
    /// solve on the parallel model, `nonlinear::outer_newton` from `T₀`
    /// over `nonlinear::invert_cost_newton` on every lane, into `self.x`.
    /// It converges from any start.
    fn nested(
        &mut self,
        platform: &Platform,
        n: f64,
        law: CostLaw,
        config: &SolverConfig,
    ) -> Result<f64, DltError> {
        let t0 = nonlinear::t_single_worker_bound(platform, n, law)?;
        let (c, w, x) = (&self.c, &self.w, &mut self.x);
        nonlinear::outer_newton(n, t0, config, |t| {
            let mut slope = 0.0;
            for (xi, (&ci, &wi)) in x.iter_mut().zip(c.iter().zip(w)) {
                let (share, dx) = nonlinear::invert_cost_newton(law, ci, wi, t, config.max_inner);
                *xi = share;
                slope += dx;
            }
            (x.iter().sum(), slope)
        })
    }

    /// Rescale to `Σ xᵢ = n`, pin exact conservation on the largest
    /// lane, record the share seeds and the solve, and package the
    /// allocation; an error when `Σ xᵢ` overflows.
    fn finish(
        &mut self,
        platform: &Platform,
        n: f64,
        law: CostLaw,
        config: &SolverConfig,
        t: f64,
    ) -> Result<NonlinearAllocation, DltError> {
        nonlinear::rescale(&mut self.x, n)?;
        // Exact conservation: the largest share absorbs the rescale's
        // rounding residue. `rest` is the left-to-right sum skipping lane
        // `k` — replaying it bitwise recovers `x[k] = n − rest` (tested in
        // batch_properties).
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
        self.seeds.clear();
        self.seeds.extend_from_slice(&self.x);
        self.last = Some(Solved {
            n,
            law,
            config: *config,
            makespan: t,
        });
        Ok(allocation(platform, n, law, t, &self.x))
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
    fn platform_change_drops_share_seeds() {
        let config = SolverConfig::default();
        let mut solver = BatchSolver::default();
        let p5 = Platform::from_speeds(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        solver.solve(&p5, 100.0, 2.0, &config).unwrap();
        assert_eq!(solver.seeds.len(), 5);
        // A worker "fails out": shorter platform through the same handle.
        let p3 = platform3();
        let a = solver.solve(&p3, 100.0, 2.0, &config).unwrap();
        assert_eq!(a.x.len(), 3);
        assert_eq!(solver.seeds.len(), 3);
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
        solver.start(&platform, 100.0, law).unwrap();
        assert_eq!(solver.joint_newton(100.0, 24.0, config.residual_tol), None);
        let a = solver.solve(&platform, 100.0, law, &config).unwrap();
        let r = equal_finish_parallel_reference(&platform, 100.0, law).unwrap();
        assert_close(r.makespan, a.makespan, "fallback makespan");
    }

    /// Calls `probe` on the cold-start grid: the three paper speed
    /// profiles at the widths up to `max_p`, seven α-power laws and two
    /// Amdahl laws `(serial, α)`, and loads from 1.37e-6 to 1.37e9 every
    /// 1.5 decades.
    fn cold_grid(max_p: usize, mut probe: impl FnMut(&Platform, f64, CostLaw, &str)) {
        const ALPHAS: [f64; 7] = [1.25, 1.5, 2.0, 3.0, 6.0, 12.0, 24.0];
        let amdahl = [(0.3, 2.0), (0.9, 12.0)];
        let laws = ALPHAS.map(|alpha| (0.0, alpha)).into_iter().chain(amdahl);
        let laws: Vec<_> = laws
            .map(|(serial, alpha)| CostLaw { serial, alpha })
            .collect();
        for p in [1, 2, 7, 8, 64, 512, 2048]
            .into_iter()
            .filter(|&p| p <= max_p)
        {
            for profile in SpeedDistribution::paper_profiles() {
                let name = profile.name();
                let platform = PlatformSpec::new(p, profile).generate_stream(7, 0).unwrap();
                for (law, k) in laws.iter().flat_map(|&law| (0..11).map(move |k| (law, k))) {
                    let n = 1.37 * 10f64.powf(-6.0 + 1.5 * f64::from(k));
                    probe(
                        &platform,
                        n,
                        law,
                        &format!("p = {p}, {name}, {law:?}, n = {n:e}"),
                    );
                }
            }
        }
    }

    #[test]
    fn cold_joint_steps_converge_from_the_bound_shares() {
        let config = SolverConfig::default();
        cold_grid(2048, |platform, n, law, ctx| {
            let mut solver = BatchSolver::default();
            solver.refresh_platform(platform);
            solver.start(platform, n, law).unwrap();
            let t = solver.joint_newton(n, law.alpha, config.residual_tol);
            assert!(t.is_some(), "{ctx}: the joint steps fell back");
        });
    }

    #[test]
    fn the_nested_fallback_meets_the_oracle_bound() {
        // No workload reaches the fallback from a cold start, so it is
        // driven directly here, on the cold grid up to p = 64.
        let config = SolverConfig::default();
        cold_grid(64, |platform, n, law, ctx| {
            let mut solver = BatchSolver::default();
            solver.refresh_platform(platform);
            let t = solver.nested(platform, n, law, &config).unwrap();
            let a = solver.finish(platform, n, law, &config, t).unwrap();
            let r = equal_finish_parallel_reference(platform, n, law).unwrap();
            assert_close(r.makespan, a.makespan, &format!("{ctx}: makespan"));
            for (i, (&xr, &xk)) in r.x.iter().zip(&a.x).enumerate() {
                let tol = 1e-9 * xr.max(xk).max(n * 1e-3);
                assert!((xr - xk).abs() <= tol, "{ctx}: share {i} {xk} vs {xr}");
            }
        });
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
            for (kind, mut solver) in [("cold", BatchSolver::default()), ("warm after α = 2", warm)]
            {
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
