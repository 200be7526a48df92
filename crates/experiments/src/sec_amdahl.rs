//! Amdahl sweep: how a serial fraction changes the Section 2
//! no-free-lunch picture.
//!
//! Under the paper's pure `x^α` law a single optimal DLT round leaves
//! `1 − 1/P^{α−1}` of the work undone — asymptotically everything. The
//! Amdahl-like law `work(x) = s·x + (1−s)·x^α` (arXiv:1902.01952) caps
//! the superlinear share at `1 − s`, so the remaining fraction saturates
//! at `(1−s)(1 − 1/P^{α−1})·x^α/work(x)`-ish levels instead of tending
//! to 1. This experiment sweeps serial fraction × α × P on platforms of
//! equal aggregate power (a homogeneous star and a paper-uniform star of
//! the same total speed, exactly like the Section 2 run) and tabulates
//! the generalized closed form `1 − P·work(N/P)/work(N)` against the
//! solver's measured fraction, next to the pure α-power closed form it
//! relaxes.

use crate::models::ModelFamily;
use dlt_core::batch::BatchSolver;
use dlt_core::costmodel::{CostLaw, CostModel};
use dlt_core::{analysis, nonlinear};
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use dlt_stats::Table;

/// Serial fractions swept: `0` is the paper's pure `x^α` law, `1` is
/// fully linear (classical DLT), with the interesting saturation regime
/// in between.
pub const PAPER_SERIALS: [f64; 7] = [0.0, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0];

/// Runs the Amdahl sweep. One `(P, serial)` platform pair per grid cell,
/// warm-started across the α sweep exactly like the Section 2 runner:
/// each cell's α sweep is one [`BatchSolver::solve_sweep`] per platform
/// (lane arrays built once, outer root and share seeds chained across
/// the sweep). Cells are dispatched over `threads` scoped workers
/// ([`crate::runner::par_map`]) and folded back in grid order, so the
/// table is byte-identical for every thread count.
pub fn run_sec_amdahl(
    ps: &[usize],
    serials: &[f64],
    alphas: &[f64],
    n: f64,
    seed: u64,
    threads: usize,
) -> Table {
    let mut t = Table::new(&[
        "P",
        "serial",
        "alpha",
        "remaining_closed_form",
        "remaining_solver_hom",
        "remaining_solver_uniform",
        "remaining_alpha_power",
        "makespan_hom",
    ])
    .with_title(
        "Amdahl sweep: remaining fraction after one DLT round of s·x + (1−s)·x^α \
         vs the pure x^α no-free-lunch bound",
    );
    // One cell per (P, serial) pair; each cell sweeps the α list with its
    // own solver handles (the finish-time scale depends on both the
    // platform and the serial fraction).
    let cells: Vec<(usize, f64)> = ps
        .iter()
        .flat_map(|&p| serials.iter().map(move |&s| (p, s)))
        .collect();
    let config = nonlinear::SolverConfig::default();
    let rows: Vec<Vec<[f64; 8]>> = crate::runner::par_map(cells.len(), threads, |cell| {
        let (p, serial) = cells[cell];
        let family = ModelFamily::AmdahlSerial { serial };
        let hom_platform = Platform::homogeneous(p, 1.0, 1.0).unwrap();
        let uni_platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
            .generate(seed)
            .unwrap();
        let laws: Vec<CostLaw> = alphas.iter().map(|&a| family.law(a)).collect();
        let mut solver_hom = BatchSolver::default();
        let mut solver_uni = BatchSolver::default();
        let homs = solver_hom
            .solve_sweep(&hom_platform, n, &laws, &config)
            .expect("solver converges");
        let unis = solver_uni
            .solve_sweep(&uni_platform, n, &laws, &config)
            .expect("solver converges");
        alphas
            .iter()
            .zip(homs.iter().zip(&unis))
            .map(|(&alpha, (hom, uni))| {
                let law = family.law(alpha);
                let closed = 1.0 - p as f64 * law.work(n / p as f64) / law.work(n);
                let pure = analysis::remaining_fraction_homogeneous(p, alpha);
                [
                    p as f64,
                    serial,
                    alpha,
                    closed,
                    1.0 - hom.work_fraction_done(),
                    1.0 - uni.work_fraction_done(),
                    pure,
                    hom.makespan,
                ]
            })
            .collect()
    });
    for cell_rows in rows {
        for r in cell_rows {
            t.row([
                (r[0] as usize).into(),
                r[1].into(),
                r[2].into(),
                r[3].into(),
                r[4].into(),
                r[5].into(),
                r[6].into(),
                r[7].into(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_reproduces_the_generalized_closed_form() {
        let t = run_sec_amdahl(&[4, 64], &[0.0, 0.5], &[1.0, 2.0], 512.0, 1, 1);
        let closed = t.column("remaining_closed_form").unwrap();
        let solver = t.column("remaining_solver_hom").unwrap();
        for (c, s) in closed.iter().zip(&solver) {
            assert!((c - s).abs() < 1e-6, "closed {c} vs solver {s}");
        }
    }

    #[test]
    fn serial_zero_matches_the_pure_alpha_power_bound() {
        let t = run_sec_amdahl(&[16], &[0.0], &[1.5, 2.0], 512.0, 1, 1);
        let closed = t.column("remaining_closed_form").unwrap();
        let pure = t.column("remaining_alpha_power").unwrap();
        for (c, p) in closed.iter().zip(&pure) {
            assert!((c - p).abs() < 1e-9, "s=0 closed {c} vs pure {p}");
        }
    }

    #[test]
    fn serial_fraction_relieves_the_no_free_lunch() {
        // At fixed (P, α), a larger serial share leaves strictly less
        // work undone; fully serial (s = 1) is classical DLT: zero left.
        let t = run_sec_amdahl(&[64], &[0.0, 0.3, 0.9, 1.0], &[2.0], 1024.0, 1, 1);
        let rem = t.column("remaining_solver_hom").unwrap();
        assert!(rem[0] > rem[1] && rem[1] > rem[2] && rem[2] > rem[3]);
        assert!(rem[3].abs() < 1e-6, "fully serial must leave nothing");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let a = run_sec_amdahl(&[2, 8], &[0.1, 0.5], &[1.5, 3.0], 256.0, 7, 1);
        let b = run_sec_amdahl(&[2, 8], &[0.1, 0.5], &[1.5, 3.0], 256.0, 7, 4);
        assert_eq!(a.to_csv(), b.to_csv());
    }
}
