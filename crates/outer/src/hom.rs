//! The `Commhom` and `Commhom/k` strategies: homogeneous square blocks
//! dispatched demand-driven (Section 4.1.1 and the refined variant of
//! Section 4.3).

use dlt_partition::IntRect;
use dlt_platform::Platform;
use dlt_sim::{
    simulate_demand, simulate_demand_identical, DemandConfig, DemandCounts, DemandReport,
    DemandTask,
};

/// Outcome of a homogeneous-blocks run.
#[derive(Debug, Clone, PartialEq)]
pub struct HomBlocksOutcome {
    /// The square (edge blocks may be clipped) tiles of the `N×N` domain.
    pub blocks: Vec<IntRect>,
    /// Which worker executed each block (parallel to `blocks`).
    pub owner: Vec<usize>,
    /// Block side `D` used.
    pub block_side: usize,
    /// Refinement factor `k` (1 for plain `Commhom`).
    pub k: usize,
    /// Total data shipped: `Σ (width + height)` over all assigned blocks —
    /// the paper's no-reuse accounting.
    pub comm_volume: f64,
    /// Load imbalance `e = (tmax − tmin)/tmin` of the demand-driven run.
    pub imbalance: f64,
    /// Raw demand-driven report (finish times, per-worker assignment).
    pub demand: DemandReport,
}

/// Block side of the `Commhom` strategy: the slowest worker must receive
/// exactly one block, so `D² = x₁·N²` with `x₁` the smallest normalized
/// speed. Clamped to `[1, N]`.
pub fn hom_block_side(platform: &Platform, n: usize) -> usize {
    assert!(n > 0);
    let x1 = platform.min_speed() / platform.total_speed();
    ((x1.sqrt() * n as f64).floor() as usize).clamp(1, n)
}

/// Tiles the `N×N` domain with `side × side` squares (right/bottom edges
/// clipped), row-major order.
pub fn tile_domain(n: usize, side: usize) -> Vec<IntRect> {
    assert!(n > 0 && side > 0);
    let mut blocks = Vec::new();
    let mut row = 0;
    while row < n {
        let row1 = (row + side).min(n);
        let mut col = 0;
        while col < n {
            let col1 = (col + side).min(n);
            blocks.push(IntRect::new(col, col1, row, row1));
            col = col1;
        }
        row = row1;
    }
    blocks
}

/// Runs `Commhom` (with optional refinement factor `k` dividing the block
/// side): tile, then dispatch demand-driven where executing a block costs
/// `area·w_i` and ships `width + height` data.
fn hom_blocks_with_k(platform: &Platform, n: usize, k: usize) -> HomBlocksOutcome {
    assert!(k >= 1);
    let side = (hom_block_side(platform, n) / k).max(1);
    let blocks = tile_domain(n, side);
    let tasks: Vec<DemandTask> = blocks
        .iter()
        .map(|b| DemandTask::new(b.half_perimeter() as f64, b.area() as f64))
        .collect();
    let demand = simulate_demand(platform, &tasks, DemandConfig::default());

    let mut owner = vec![usize::MAX; blocks.len()];
    for (w, assigned) in demand.assignments.iter().enumerate() {
        for &b in assigned {
            owner[b] = w;
        }
    }
    debug_assert!(owner.iter().all(|&o| o != usize::MAX));

    HomBlocksOutcome {
        comm_volume: demand.total_comm(),
        imbalance: demand.imbalance(),
        block_side: side,
        k,
        owner,
        blocks,
        demand,
    }
}

/// Plain `Commhom` (`k = 1`).
pub fn hom_blocks(platform: &Platform, n: usize) -> HomBlocksOutcome {
    hom_blocks_with_k(platform, n, 1)
}

/// Outcome of the paper's *arithmetic* `Commhom` accounting (see
/// [`hom_blocks_abstract`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AbstractHomOutcome {
    /// Number of equal blocks dispatched.
    pub n_blocks: usize,
    /// (Possibly fractional) block side `D = √x₁·N/k`.
    pub block_side: f64,
    /// Total data shipped: `n_blocks · 2D`.
    pub comm_volume: f64,
    /// Demand-driven load imbalance.
    pub imbalance: f64,
    /// Refinement factor used.
    pub k: usize,
    /// Per-worker block counts, finish times and volumes of the
    /// demand-driven run.
    pub demand: DemandCounts,
}

/// The paper's Section 4.1.1 accounting of `Commhom`: exactly
/// `B = k²/x₁` square blocks of side `D = √x₁·N/k` ("let us assume that N
/// is large so that we can assume this value is an integer"), each
/// shipping `2D` data, dispatched demand-driven. This is what Figure 4
/// plots; the geometric [`hom_blocks`] additionally pays for clipped edge
/// blocks when `N/D` is not integral, which is kept as an ablation.
///
/// The blocks are identical, so they are dispatched by
/// [`simulate_demand_identical`]: bit-identical to `simulate_demand` on
/// the materialised queue, in `O(p)` memory however many blocks a
/// refinement level cuts.
pub fn hom_blocks_abstract(platform: &Platform, n: usize, k: usize) -> AbstractHomOutcome {
    assert!(n > 0 && k >= 1);
    let x1 = platform.min_speed() / platform.total_speed();
    let d = (x1.sqrt() * n as f64 / k as f64).min(n as f64);
    // Ceil, not round: every cell of the domain must be covered, so the
    // block count can only round *up*. This also keeps the arithmetic
    // volume ≥ LB (B·2D ≥ 2N/√x₁ ≥ 2NΣ√x_i by Cauchy–Schwarz). The small
    // epsilon keeps exact counts (homogeneous platforms give B = k²·p
    // exactly) from overshooting by one block through float noise.
    let raw = ((n as f64) / d).powi(2);
    let n_blocks = (raw - 1e-6).ceil().max(1.0) as usize;
    let demand = simulate_demand_identical(platform, DemandTask::new(2.0 * d, d * d), n_blocks);
    AbstractHomOutcome {
        n_blocks,
        block_side: d,
        comm_volume: demand.total_comm(),
        imbalance: demand.imbalance(),
        k,
        demand,
    }
}

/// `Commhom/k` under the arithmetic accounting: refine `k = 1, 2, …`
/// until the demand-driven imbalance reaches `target` (1% in the paper)
/// or blocks shrink below one cell.
pub fn hom_blocks_refined_abstract(
    platform: &Platform,
    n: usize,
    target: f64,
) -> AbstractHomOutcome {
    assert!(target >= 0.0);
    let mut best: Option<AbstractHomOutcome> = None;
    let mut k = 1;
    loop {
        let outcome = hom_blocks_abstract(platform, n, k);
        let done = outcome.imbalance <= target;
        let degenerate = outcome.block_side <= 1.0;
        let better = best
            .as_ref()
            .is_none_or(|b| outcome.imbalance < b.imbalance);
        if better {
            best = Some(outcome);
        }
        if done || degenerate {
            break;
        }
        k += 1;
    }
    best.expect("at least one refinement level was evaluated")
}

/// `Commhom/k`: doubles down on block refinement (`k = 1, 2, 3, …`) until
/// the demand-driven imbalance is at most `target` (the paper stops at
/// `e ≤ 1%`) or the blocks degenerate to single cells. Returns the first
/// outcome meeting the target, or the best (lowest-imbalance) one seen.
pub fn hom_blocks_refined(platform: &Platform, n: usize, target: f64) -> HomBlocksOutcome {
    assert!(target >= 0.0);
    let mut best: Option<HomBlocksOutcome> = None;
    let base_side = hom_block_side(platform, n);
    let mut k = 1;
    loop {
        let outcome = hom_blocks_with_k(platform, n, k);
        let side = outcome.block_side;
        let done = outcome.imbalance <= target;
        let better = best
            .as_ref()
            .is_none_or(|b| outcome.imbalance < b.imbalance);
        if better {
            best = Some(outcome);
        }
        if done || side == 1 || k >= base_side {
            break;
        }
        k += 1;
    }
    best.expect("at least one refinement level was evaluated")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_side_slowest_gets_one_block() {
        // Homogeneous p=4: x1 = 1/4 → D = N/2, 4 blocks, one each.
        let platform = Platform::homogeneous(4, 1.0, 1.0).unwrap();
        assert_eq!(hom_block_side(&platform, 100), 50);
        let out = hom_blocks(&platform, 100);
        assert_eq!(out.blocks.len(), 4);
        assert_eq!(out.demand.task_counts(), vec![1, 1, 1, 1]);
        assert!(out.imbalance < 1e-12);
    }

    #[test]
    fn tile_covers_domain_exactly() {
        for (n, side) in [(10usize, 3usize), (16, 4), (7, 7), (5, 1)] {
            let blocks = tile_domain(n, side);
            let area: usize = blocks.iter().map(IntRect::area).sum();
            assert_eq!(area, n * n, "n={n} side={side}");
            for b in &blocks {
                assert!(b.col1 <= n && b.row1 <= n);
                assert!(b.width() <= side && b.height() <= side);
            }
        }
    }

    #[test]
    fn comm_volume_matches_analytic_when_divisible() {
        // Homogeneous p=4, N=100: volume = 4 blocks × 2·50 = 400 = 2N√p.
        let platform = Platform::homogeneous(4, 1.0, 1.0).unwrap();
        let out = hom_blocks(&platform, 100);
        assert!((out.comm_volume - 400.0).abs() < 1e-9);
    }

    #[test]
    fn two_class_platform_fast_workers_get_more_blocks() {
        let platform = Platform::two_class(4, 1.0, 3.0).unwrap();
        let out = hom_blocks(&platform, 120);
        let counts = out.demand.task_counts();
        assert!(counts[2] > counts[0]);
        assert!(counts[3] > counts[1]);
        let total: usize = counts.iter().sum();
        assert_eq!(total, out.blocks.len());
    }

    #[test]
    fn refinement_reduces_imbalance() {
        // Speeds with awkward ratios: k = 1 leaves imbalance, refinement
        // brings it under 1%.
        let platform = Platform::from_speeds(&[1.0, 1.7, 2.3, 3.1]).unwrap();
        let coarse = hom_blocks(&platform, 256);
        let refined = hom_blocks_refined(&platform, 256, 0.01);
        assert!(refined.imbalance <= coarse.imbalance + 1e-12);
        assert!(
            refined.imbalance <= 0.01 || refined.block_side == 1,
            "imbalance {} side {}",
            refined.imbalance,
            refined.block_side
        );
        assert!(refined.k >= 1);
    }

    #[test]
    fn refinement_multiplies_volume() {
        // Volume scales like k (blocks: k²/x₁, data per block 2D/k).
        let platform = Platform::from_speeds(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        let k1 = hom_blocks_with_k(&platform, 128, 1);
        let k2 = hom_blocks_with_k(&platform, 128, 2);
        let k4 = hom_blocks_with_k(&platform, 128, 4);
        assert!((k2.comm_volume / k1.comm_volume - 2.0).abs() < 0.05);
        assert!((k4.comm_volume / k1.comm_volume - 4.0).abs() < 0.05);
    }

    #[test]
    fn owners_cover_every_block() {
        let platform = Platform::from_speeds(&[1.0, 5.0]).unwrap();
        let out = hom_blocks(&platform, 64);
        assert_eq!(out.owner.len(), out.blocks.len());
        assert!(out.owner.iter().all(|&o| o < 2));
    }

    #[test]
    fn single_worker_gets_everything() {
        let platform = Platform::from_speeds(&[2.0]).unwrap();
        let out = hom_blocks(&platform, 32);
        assert_eq!(out.blocks.len(), 1);
        assert_eq!(out.block_side, 32);
        assert!((out.comm_volume - 64.0).abs() < 1e-12);
    }

    #[test]
    fn extreme_heterogeneity_clamps_block_side() {
        // x1 tiny: D would round to 0 → clamped to 1.
        let platform = Platform::from_speeds(&[1e-6, 1.0]).unwrap();
        let side = hom_block_side(&platform, 10);
        assert_eq!(side, 1);
        let out = hom_blocks(&platform, 10);
        assert_eq!(out.blocks.len(), 100);
    }
}
