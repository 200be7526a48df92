//! Figure 4 (a)(b)(c): ratio of communication volume to the lower bound
//! for the three strategies, as the platform grows.
//!
//! Protocol (Section 4.3): for each `p ∈ {10, 20, 40, 60, 80, 100}` draw
//! 100 random platforms from the profile, evaluate `Commhet`, `Commhom`
//! and `Commhom/k` (imbalance target 1%) on a large `N×N` domain, and plot
//! the mean ratio to `LBComm = 2N Σ√x_i` with the standard deviation as
//! error bars.

use dlt_outer::{evaluate, Strategy};
use dlt_platform::{PlatformSpec, SpeedDistribution};
use dlt_stats::{Summary, Table};

/// The processor counts of Figure 4.
pub const PAPER_P_VALUES: [usize; 6] = [10, 20, 40, 60, 80, 100];

/// One figure point before tabulation.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Worker count.
    pub p: usize,
    /// Strategy evaluated.
    pub strategy: Strategy,
    /// Ratio-to-lower-bound summary across trials.
    pub ratio: Summary,
    /// Mean refinement factor `k` (interesting for `Commhom/k`).
    pub mean_k: f64,
}

/// Runs the Figure 4 protocol for one speed profile.
///
/// `n` is the domain side (the paper says "a large matrix"; ratios are
/// essentially `n`-independent once `n ≫ p`). Returns the raw points;
/// use [`fig4_table`] for the tabular form.
///
/// Trials are independent — each draws its platform from its own derived
/// seed stream — so they are dispatched across `threads` scoped workers
/// ([`crate::runner::par_map`]) and folded back **in trial order**: the
/// resulting points (and thus the CSVs) are byte-identical for every
/// thread count, including `1`.
pub fn run_fig4(
    profile: &SpeedDistribution,
    ps: &[usize],
    trials: usize,
    n: usize,
    seed: u64,
    threads: usize,
) -> Vec<Fig4Point> {
    let mut points = Vec::new();
    for &p in ps {
        let spec = PlatformSpec::new(p, profile.clone());
        for strategy in Strategy::paper_strategies() {
            let per_trial = crate::runner::par_map(trials, threads, |trial| {
                let platform = spec
                    .generate_stream(seed, trial as u64)
                    .expect("valid spec");
                let report = evaluate(&platform, n, strategy);
                (report.ratio_to_lb, report.k)
            });
            let mut ratio = Summary::new();
            let mut k_sum = 0.0;
            for &(r, k) in &per_trial {
                ratio.push(r);
                k_sum += k as f64;
            }
            points.push(Fig4Point {
                p,
                strategy,
                ratio,
                mean_k: k_sum / trials.max(1) as f64,
            });
        }
    }
    points
}

/// Tabulates figure points: one row per `(p, strategy)`.
pub fn fig4_table(profile_name: &str, points: &[Fig4Point]) -> Table {
    let mut t = Table::new(&[
        "profile",
        "p",
        "strategy",
        "mean_ratio",
        "std_ratio",
        "min_ratio",
        "max_ratio",
        "mean_k",
    ])
    .with_title(&format!(
        "Figure 4 ({profile_name}): ratio of communication volume to LBComm"
    ));
    for pt in points {
        t.row([
            profile_name.into(),
            pt.p.into(),
            pt.strategy.name().into(),
            pt.ratio.mean().into(),
            pt.ratio.population_std().into(),
            pt.ratio.min().into(),
            pt.ratio.max().into(),
            pt.mean_k.into(),
        ]);
    }
    t
}

/// Series (x = p, y = mean ratio) for one strategy, for ASCII plotting.
pub fn series_for(points: &[Fig4Point], strategy: Strategy) -> Vec<(f64, f64)> {
    points
        .iter()
        .filter(|pt| pt.strategy.name() == strategy.name())
        .map(|pt| (pt.p as f64, pt.ratio.mean()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_profile_all_ratios_near_one() {
        // Figure 4(a): every strategy within ~1% of the bound.
        let pts = run_fig4(
            &SpeedDistribution::paper_homogeneous(),
            &[10, 20],
            3,
            2000,
            1,
            2,
        );
        for pt in &pts {
            assert!(
                pt.ratio.mean() < 1.06,
                "{} p={} ratio {}",
                pt.strategy.name(),
                pt.p,
                pt.ratio.mean()
            );
        }
    }

    #[test]
    fn uniform_profile_reproduces_figure_shape() {
        // Figure 4(b) shape: Commhet ≤ ~1.02; Commhom/k ≥ Commhom ≫ 1 and
        // growing with p.
        let pts = run_fig4(
            &SpeedDistribution::paper_uniform(),
            &[10, 100],
            10,
            5000,
            7,
            2,
        );
        let get = |p: usize, name: &str| {
            pts.iter()
                .find(|pt| pt.p == p && pt.strategy.name() == name)
                .unwrap()
                .ratio
                .mean()
        };
        assert!(get(10, "Commhet") < 1.05);
        assert!(get(100, "Commhet") < 1.05);
        assert!(get(100, "Commhom") > 3.0);
        assert!(get(100, "Commhom/k") >= get(100, "Commhom") * 0.99);
        assert!(
            get(100, "Commhom/k") > 10.0,
            "got {}",
            get(100, "Commhom/k")
        );
        assert!(get(100, "Commhom") > get(10, "Commhom"));
    }

    #[test]
    fn table_has_one_row_per_point() {
        let pts = run_fig4(
            &SpeedDistribution::paper_homogeneous(),
            &[10, 20],
            2,
            500,
            3,
            1,
        );
        let t = fig4_table("homogeneous", &pts);
        assert_eq!(t.n_rows(), pts.len());
        assert_eq!(pts.len(), 2 * 3);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The per-trial seed streams plus the order-preserving fold make
        // the sweep deterministic in the worker count.
        let serial = run_fig4(
            &SpeedDistribution::paper_uniform(),
            &[10, 20],
            6,
            1000,
            5,
            1,
        );
        let parallel = run_fig4(
            &SpeedDistribution::paper_uniform(),
            &[10, 20],
            6,
            1000,
            5,
            4,
        );
        let a = fig4_table("uniform", &serial);
        let b = fig4_table("uniform", &parallel);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn series_extracts_by_strategy() {
        let pts = run_fig4(
            &SpeedDistribution::paper_homogeneous(),
            &[10, 20],
            2,
            500,
            3,
            1,
        );
        let s = series_for(&pts, Strategy::HetRects);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].0, 10.0);
        assert_eq!(s[1].0, 20.0);
    }
}
