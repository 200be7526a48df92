//! Unified strategy interface and the communication lower bound — the
//! machinery behind the paper's Figure 4.

use crate::het::het_rects;
use crate::hom::{hom_blocks_abstract, hom_blocks_refined_abstract};
use dlt_platform::Platform;

/// The load imbalance threshold the paper uses for `Commhom/k` ("the
/// stopping criterion for this process is when e ≤ 1%").
pub const PAPER_IMBALANCE_TARGET: f64 = 0.01;

/// The data-distribution strategies compared in Section 4.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// `Commhom`: homogeneous blocks sized for the slowest worker,
    /// demand-driven, under the paper's arithmetic volume accounting
    /// (`B = 1/x₁` blocks of `2D` data each).
    HomBlocks,
    /// `Commhom/k`: homogeneous blocks refined until the imbalance drops
    /// below the threshold.
    HomBlocksRefined {
        /// Imbalance target `e` (the paper uses 0.01).
        target: f64,
    },
    /// `Commhet`: heterogeneity-aware rectangles via PERI-SUM.
    HetRects,
}

impl Strategy {
    /// The paper's trio, in plot order.
    pub fn paper_strategies() -> [Strategy; 3] {
        [
            Strategy::HetRects,
            Strategy::HomBlocks,
            Strategy::HomBlocksRefined {
                target: PAPER_IMBALANCE_TARGET,
            },
        ]
    }

    /// Name used in figures and CSV headers.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::HomBlocks => "Commhom",
            Strategy::HomBlocksRefined { .. } => "Commhom/k",
            Strategy::HetRects => "Commhet",
        }
    }
}

/// Evaluation of one strategy on one platform/domain.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyReport {
    /// Which strategy produced this report.
    pub strategy: Strategy,
    /// Total data shipped from the master (the paper's volume count).
    pub comm_volume: f64,
    /// `comm_volume / (2N Σ√x_i)` — the y-axis of Figure 4.
    pub ratio_to_lb: f64,
    /// Load imbalance `e` of the induced execution.
    pub imbalance: f64,
    /// Refinement factor `k` (1 unless `Commhom/k` refined).
    pub k: usize,
    /// Number of chunks shipped (blocks or rectangles).
    pub n_chunks: usize,
}

/// Lower bound on the communication volume of *any* perfectly
/// load-balanced distribution of the `N×N` outer-product domain
/// (Section 4.3): each worker would receive an `N√x_i × N√x_i` square, so
///
/// `LBComm = 2N Σ √x_i`.
pub fn comm_lower_bound(platform: &Platform, n: usize) -> f64 {
    let total = platform.total_speed();
    2.0 * n as f64
        * platform
            .iter()
            .map(|w| (w.speed() / total).sqrt())
            .sum::<f64>()
}

/// Evaluates `strategy` on `platform` for an `N×N` outer-product domain.
pub fn evaluate(platform: &Platform, n: usize, strategy: Strategy) -> StrategyReport {
    let lb = comm_lower_bound(platform, n);
    match strategy {
        Strategy::HomBlocks => {
            let out = hom_blocks_abstract(platform, n, 1);
            StrategyReport {
                strategy,
                comm_volume: out.comm_volume,
                ratio_to_lb: out.comm_volume / lb,
                imbalance: out.imbalance,
                k: out.k,
                n_chunks: out.n_blocks,
            }
        }
        Strategy::HomBlocksRefined { target } => {
            let out = hom_blocks_refined_abstract(platform, n, target);
            StrategyReport {
                strategy,
                comm_volume: out.comm_volume,
                ratio_to_lb: out.comm_volume / lb,
                imbalance: out.imbalance,
                k: out.k,
                n_chunks: out.n_blocks,
            }
        }
        Strategy::HetRects => {
            let out = het_rects(platform, n);
            StrategyReport {
                strategy,
                comm_volume: out.comm_volume,
                ratio_to_lb: out.comm_volume / lb,
                imbalance: out.imbalance,
                k: 1,
                n_chunks: out.rects.len(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_platform::{PlatformSpec, SpeedDistribution};

    #[test]
    fn lower_bound_homogeneous() {
        // p equal workers: LB = 2N·p·√(1/p) = 2N√p.
        let platform = Platform::homogeneous(16, 1.0, 1.0).unwrap();
        assert!((comm_lower_bound(&platform, 100) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn all_strategies_beat_nothing_and_respect_lb() {
        let platform = PlatformSpec::new(20, SpeedDistribution::paper_uniform())
            .generate(3)
            .unwrap();
        let n = 1000;
        for s in Strategy::paper_strategies() {
            let r = evaluate(&platform, n, s);
            assert!(
                r.ratio_to_lb >= 0.99,
                "{}: ratio {} below the bound",
                s.name(),
                r.ratio_to_lb
            );
            assert!(r.comm_volume > 0.0);
            assert!(r.n_chunks >= 1);
        }
    }

    #[test]
    fn homogeneous_platform_all_strategies_near_optimal() {
        // Figure 4(a): everything sits within a few % of the bound.
        let platform = Platform::homogeneous(16, 1.0, 1.0).unwrap();
        let n = 400;
        for s in Strategy::paper_strategies() {
            let r = evaluate(&platform, n, s);
            assert!(
                r.ratio_to_lb < 1.05,
                "{}: ratio {}",
                s.name(),
                r.ratio_to_lb
            );
        }
    }

    #[test]
    fn heterogeneous_platform_het_wins_big() {
        // Figure 4(b) shape: Commhom ≫ Commhet.
        let platform = PlatformSpec::new(50, SpeedDistribution::paper_uniform())
            .generate(9)
            .unwrap();
        let n = 5000;
        let het = evaluate(&platform, n, Strategy::HetRects);
        let hom = evaluate(&platform, n, Strategy::HomBlocks);
        let homk = evaluate(
            &platform,
            n,
            Strategy::HomBlocksRefined {
                target: PAPER_IMBALANCE_TARGET,
            },
        );
        assert!(het.ratio_to_lb < 1.1, "het {}", het.ratio_to_lb);
        assert!(hom.ratio_to_lb > 2.0, "hom {}", hom.ratio_to_lb);
        assert!(
            homk.ratio_to_lb >= hom.ratio_to_lb * 0.99,
            "refinement should not reduce volume: {} vs {}",
            homk.ratio_to_lb,
            hom.ratio_to_lb
        );
        assert!(homk.imbalance <= PAPER_IMBALANCE_TARGET || homk.k > 1);
    }

    #[test]
    fn names_and_paper_set() {
        let set = Strategy::paper_strategies();
        assert_eq!(set[0].name(), "Commhet");
        assert_eq!(set[1].name(), "Commhom");
        assert_eq!(set[2].name(), "Commhom/k");
    }

    #[test]
    fn refined_meets_imbalance_target() {
        let platform = PlatformSpec::new(30, SpeedDistribution::paper_lognormal())
            .generate(21)
            .unwrap();
        let r = evaluate(&platform, 2000, Strategy::HomBlocksRefined { target: 0.01 });
        assert!(r.imbalance <= 0.01 || r.k >= 1, "imbalance {}", r.imbalance);
    }
}
