//! Section 2: the no-free-lunch analysis — fraction of work remaining
//! after one optimal DLT round of an `x^α` workload.

use crate::models::ModelFamily;
use dlt_core::batch::BatchSolver;
use dlt_core::costmodel::{CostLaw, CostModel};
use dlt_core::{analysis, nonlinear};
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use dlt_stats::Table;

/// The α values tabulated (α = 1 is the linear control).
pub const PAPER_ALPHAS: [f64; 4] = [1.0, 1.5, 2.0, 3.0];

/// Runs the Section 2 experiment: for each `(P, α)`, the closed-form
/// remaining fraction `1 − 1/P^{α−1}`, the fraction measured by the
/// heterogeneous equal-finish solver on a homogeneous platform (they must
/// agree), and the fraction on a random uniform platform of equal total
/// speed (heterogeneity barely moves it — the paper's point that solving
/// the hard allocation problem "has in practice no influence").
///
/// Non-default `family` values rerun the analysis under another cost
/// law; the closed-form column generalizes to
/// `1 − P·work(N/P)/work(N)` (equal split on identical workers), which
/// reduces to `1 − 1/P^{α−1}` for the α-power law.
///
/// The α sweep per platform is one [`BatchSolver::solve_sweep`] call on a
/// cold handle: the platform's lane arrays are scanned once and the outer
/// root plus share seeds chain across consecutive α values.
pub fn run_sec2(ps: &[usize], alphas: &[f64], n: f64, seed: u64, family: ModelFamily) -> Table {
    let mut t = Table::new(&[
        "P",
        "alpha",
        "remaining_closed_form",
        "remaining_solver_hom",
        "remaining_solver_uniform",
        "makespan_hom",
    ])
    .with_title("Section 2: fraction of work remaining after one DLT round (W−W_partial)/W");
    let config = nonlinear::SolverConfig::default();
    let laws: Vec<CostLaw> = alphas.iter().map(|&a| family.law(a)).collect();
    for &p in ps {
        // Both platforms depend only on (p, seed): build them once per p,
        // and sweep all α values through one solver handle per platform
        // (their finish-time scales differ), warm-chained across the
        // sweep.
        let hom_platform = Platform::homogeneous(p, 1.0, 1.0).unwrap();
        let uni_platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
            .generate(seed)
            .unwrap();
        let mut solver_hom = BatchSolver::default();
        let mut solver_uni = BatchSolver::default();
        let homs = solver_hom
            .solve_sweep(&hom_platform, n, &laws, &config)
            .expect("solver converges");
        let unis = solver_uni
            .solve_sweep(&uni_platform, n, &laws, &config)
            .expect("solver converges");
        for ((&alpha, hom), uni) in alphas.iter().zip(&homs).zip(&unis) {
            let law = family.law(alpha);
            let closed = if family.is_default() {
                analysis::remaining_fraction_homogeneous(p, alpha)
            } else {
                1.0 - p as f64 * law.work(n / p as f64) / law.work(n)
            };
            t.row([
                p.into(),
                alpha.into(),
                closed.into(),
                (1.0 - hom.work_fraction_done()).into(),
                (1.0 - uni.work_fraction_done()).into(),
                hom.makespan.into(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_reproduces_closed_form() {
        let t = run_sec2(&[4, 64], &[1.0, 2.0], 512.0, 1, ModelFamily::AlphaPower);
        let closed = t.column("remaining_closed_form").unwrap();
        let solver = t.column("remaining_solver_hom").unwrap();
        for (c, s) in closed.iter().zip(&solver) {
            assert!((c - s).abs() < 1e-6, "closed {c} vs solver {s}");
        }
    }

    #[test]
    fn remaining_fraction_tends_to_one() {
        let t = run_sec2(&[2, 16, 256], &[2.0], 512.0, 1, ModelFamily::AlphaPower);
        let vals = t.column("remaining_closed_form").unwrap();
        assert!(vals[0] < vals[1] && vals[1] < vals[2]);
        assert!(vals[2] > 0.99);
    }

    #[test]
    fn heterogeneity_does_not_change_the_story() {
        // Even with uniform random speeds, the remaining fraction at
        // P = 64, α = 2 stays close to 1 − 1/64.
        let t = run_sec2(&[64], &[2.0], 1024.0, 3, ModelFamily::AlphaPower);
        let uni = t.column("remaining_solver_uniform").unwrap()[0];
        assert!(uni > 0.9, "uniform-platform remaining fraction {uni}");
    }

    #[test]
    fn linear_row_is_zero() {
        let t = run_sec2(&[8], &[1.0], 128.0, 1, ModelFamily::AlphaPower);
        assert!(t.column("remaining_closed_form").unwrap()[0].abs() < 1e-12);
        assert!(t.column("remaining_solver_hom").unwrap()[0].abs() < 1e-6);
    }
}
