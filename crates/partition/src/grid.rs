//! Exact scaling of unit-square partitions to an `N × N` integer grid.
//!
//! The matrix-multiplication simulator needs every cell `(i, j)` of the
//! computation domain to belong to exactly one processor. Rounding each
//! rectangle independently would create gaps and double-counts; instead we
//! snap every *coordinate* with the same `round(x·N)` map. Since adjacent
//! rectangles share their boundary coordinates bit-for-bit (they are built
//! from common running sums), shared edges stay shared after snapping and
//! the tiling remains exact.

use crate::rect::SquarePartition;

/// A half-open integer rectangle `[col0, col1) × [row0, row1)` of an
/// `N × N` grid. In the outer-product reading, rows index vector `a` and
/// columns index vector `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntRect {
    /// First column (inclusive).
    pub col0: usize,
    /// Last column (exclusive).
    pub col1: usize,
    /// First row (inclusive).
    pub row0: usize,
    /// Last row (exclusive).
    pub row1: usize,
}

impl IntRect {
    /// Constructor asserting well-formedness.
    pub fn new(col0: usize, col1: usize, row0: usize, row1: usize) -> Self {
        assert!(col0 <= col1 && row0 <= row1, "malformed IntRect");
        Self {
            col0,
            col1,
            row0,
            row1,
        }
    }

    /// Number of columns spanned.
    #[inline]
    pub fn width(&self) -> usize {
        self.col1 - self.col0
    }

    /// Number of rows spanned.
    #[inline]
    pub fn height(&self) -> usize {
        self.row1 - self.row0
    }

    /// Number of grid cells covered.
    #[inline]
    pub fn area(&self) -> usize {
        self.width() * self.height()
    }

    /// `width + height` — the input data (in elements) the owner needs for
    /// an outer product, or per step of the MM algorithm.
    #[inline]
    pub fn half_perimeter(&self) -> usize {
        self.width() + self.height()
    }

    /// True when the rectangle covers no cell.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.area() == 0
    }

    /// True when `self` and `other` share at least one cell.
    fn intersects(&self, other: &IntRect) -> bool {
        self.col0 < other.col1
            && other.col0 < self.col1
            && self.row0 < other.row1
            && other.row0 < self.row1
    }
}

/// Scales a unit-square partition to an `N × N` grid, preserving exact
/// coverage. Rectangles whose scaled width or height rounds to zero become
/// degenerate (their owner receives no cells), which faithfully models very
/// slow processors on small domains.
///
/// Panics (debug) if the result does not tile the grid — that would be a
/// bug in the partitioner, not in the caller.
pub fn scale_to_grid(partition: &SquarePartition, n: usize) -> Vec<IntRect> {
    let snap = |t: f64| -> usize { ((t * n as f64).round() as usize).min(n) };
    let rects: Vec<IntRect> = partition
        .rects
        .iter()
        .map(|r| {
            let col0 = snap(r.x);
            let col1 = snap(r.x1());
            let row0 = snap(r.y);
            let row1 = snap(r.y1());
            IntRect::new(
                col0.min(col1),
                col1.max(col0),
                row0.min(row1),
                row1.max(row0),
            )
        })
        .collect();
    debug_assert!(
        covers_exactly(&rects, n),
        "scaled partition does not tile the {n}x{n} grid"
    );
    rects
}

/// Exhaustively verifies that `rects` tile the `n × n` grid: disjoint and
/// total area `n²`. `O(p² + p)`; intended for tests and debug assertions.
pub fn covers_exactly(rects: &[IntRect], n: usize) -> bool {
    let total: usize = rects.iter().map(IntRect::area).sum();
    if total != n * n {
        return false;
    }
    for (i, a) in rects.iter().enumerate() {
        if a.col1 > n || a.row1 > n {
            return false;
        }
        for b in rects.iter().skip(i + 1) {
            if a.intersects(b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peri_sum::peri_sum_partition;
    use crate::rect::Rect;

    #[test]
    fn int_rect_geometry() {
        let r = IntRect::new(2, 6, 1, 4);
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 3);
        assert_eq!(r.area(), 12);
        assert_eq!(r.half_perimeter(), 7);
        assert!(!r.is_degenerate());
    }

    #[test]
    fn intersection() {
        let a = IntRect::new(0, 4, 0, 4);
        let b = IntRect::new(3, 5, 3, 5);
        let c = IntRect::new(4, 8, 0, 4);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c)); // shares only an edge
    }

    #[test]
    fn simple_halves_scale_exactly() {
        let p = SquarePartition {
            rects: vec![Rect::new(0.0, 0.0, 0.5, 1.0), Rect::new(0.5, 0.0, 0.5, 1.0)],
        };
        let g = scale_to_grid(&p, 10);
        assert_eq!(g[0], IntRect::new(0, 5, 0, 10));
        assert_eq!(g[1], IntRect::new(5, 10, 0, 10));
        assert!(covers_exactly(&g, 10));
    }

    #[test]
    fn peri_sum_partitions_tile_grids_of_many_sizes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for p in [1usize, 2, 5, 13, 40] {
            let weights: Vec<f64> = (0..p).map(|_| rng.gen_range(0.05..1.0)).collect();
            let part = peri_sum_partition(&weights).unwrap();
            for n in [1usize, 7, 64, 1000] {
                let g = scale_to_grid(&part, n);
                assert!(covers_exactly(&g, n), "p={p} n={n}");
            }
        }
    }

    #[test]
    fn tiny_grid_can_degenerate_but_still_tiles() {
        // 100 processors on a 4×4 grid: most rectangles collapse, the
        // tiling must still be exact.
        let weights = vec![1.0; 100];
        let part = peri_sum_partition(&weights).unwrap();
        let g = scale_to_grid(&part, 4);
        assert!(covers_exactly(&g, 4));
        assert!(g.iter().any(IntRect::is_degenerate));
    }

    #[test]
    fn covers_exactly_detects_gap_and_overlap() {
        // Gap.
        let gap = vec![IntRect::new(0, 1, 0, 2), IntRect::new(1, 2, 0, 1)];
        assert!(!covers_exactly(&gap, 2));
        // Overlap with correct total area is impossible, but overlapping
        // with inflated area must fail too.
        let overlap = vec![IntRect::new(0, 2, 0, 1), IntRect::new(0, 2, 0, 1)];
        assert!(!covers_exactly(&overlap, 2));
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn malformed_int_rect_panics() {
        let _ = IntRect::new(3, 1, 0, 1);
    }
}
