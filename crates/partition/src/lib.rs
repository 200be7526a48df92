#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # dlt-partition
//!
//! Partitioning the unit square into `p` rectangles of prescribed areas
//! `a_1, …, a_p` (with `Σ a_i = 1`), minimizing perimeter-based objectives.
//!
//! This is the substrate behind the paper's `Commhet` strategy
//! (Section 4.1.2): give each processor a rectangle of the outer-product
//! computation domain whose area is proportional to its relative speed
//! `x_i`, and the data it must receive is exactly the half-perimeter of its
//! rectangle. The reference algorithms come from Beaumont, Boudet,
//! Rastello, Robert, *"Partitioning a square into rectangles:
//! NP-completeness and approximation algorithms"*, Algorithmica 34(3), 2002
//! (the paper's reference 41).
//!
//! The objective is **PERI-SUM**: minimize `Σ half-perimeters` (total
//! communication volume). [`peri_sum_partition`] computes the *optimal
//! column-based* partition by dynamic programming; the 2002 paper proves
//! any optimal column-based partition satisfies
//! `Ĉ ≤ 1 + (5/4)·LB ≤ (7/4)·LB` where `LB = 2 Σ √a_i` is a lower bound
//! on any partition (Section 4.1.2 of the reproduced paper).
//!
//! A [`bisection_partition`] baseline and a fixed-column
//! [`sqrt_columns_partition`] heuristic are provided for the
//! partition-quality experiment, plus exact integer-grid scaling
//! ([`grid::scale_to_grid`]) so the matrix-multiplication simulator can
//! tile an `N × N` domain with no rounding gaps.

pub mod bisection;
pub mod error;
pub mod grid;
pub mod lower_bound;
pub mod peri_sum;
pub mod rect;
pub mod validate;

pub use bisection::bisection_partition;
pub use error::PartitionError;
pub use grid::{scale_to_grid, IntRect};
pub use lower_bound::{lower_bound, peri_sum_upper_bound};
pub use peri_sum::{
    peri_sum_partition, peri_sum_partition_reference, sqrt_columns_partition, PeriSumDp,
};
pub use rect::{Rect, SquarePartition};
pub use validate::validate_partition;

/// Normalizes raw positive weights into areas summing to exactly 1.
///
/// Shared by every partitioner; returns an error when the input is empty
/// or contains a non-positive / non-finite weight.
pub(crate) fn normalize_areas(weights: &[f64]) -> Result<Vec<f64>, PartitionError> {
    let mut areas = Vec::new();
    normalize_areas_into(weights, &mut areas)?;
    Ok(areas)
}

/// [`normalize_areas`] writing into a caller-provided buffer, so reusable
/// workspaces ([`PeriSumDp`]) share the exact validation and arithmetic of
/// the allocating path instead of duplicating them.
pub(crate) fn normalize_areas_into(
    weights: &[f64],
    areas: &mut Vec<f64>,
) -> Result<(), PartitionError> {
    if weights.is_empty() {
        return Err(PartitionError::EmptyInput);
    }
    for (i, &w) in weights.iter().enumerate() {
        if !(w.is_finite() && w > 0.0) {
            return Err(PartitionError::InvalidArea { index: i, value: w });
        }
    }
    let total: f64 = weights.iter().sum();
    areas.clear();
    areas.extend(weights.iter().map(|&w| w / total));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_rejects_empty() {
        assert!(matches!(
            normalize_areas(&[]),
            Err(PartitionError::EmptyInput)
        ));
    }

    #[test]
    fn normalize_rejects_bad_weights() {
        assert!(normalize_areas(&[1.0, 0.0]).is_err());
        assert!(normalize_areas(&[1.0, -2.0]).is_err());
        assert!(normalize_areas(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn normalize_sums_to_one() {
        let a = normalize_areas(&[2.0, 6.0]).unwrap();
        assert!((a[0] - 0.25).abs() < 1e-12);
        assert!((a[1] - 0.75).abs() < 1e-12);
    }
}
