//! Axis-aligned rectangles and partitions of the unit square.

/// An axis-aligned rectangle `[x, x+w] × [y, y+h]` inside the unit square.
///
/// In the outer-product reading (Section 4.1), `x`/`w` span indices of the
/// vector `b` (columns) and `y`/`h` indices of the vector `a` (rows); the
/// half-perimeter `w + h` is exactly the amount of input data the owning
/// processor needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x: f64,
    /// Bottom edge.
    pub y: f64,
    /// Width.
    pub w: f64,
    /// Height.
    pub h: f64,
}

impl Rect {
    /// Constructor asserting non-negative extents.
    pub fn new(x: f64, y: f64, w: f64, h: f64) -> Self {
        debug_assert!(w >= 0.0 && h >= 0.0, "negative rectangle extent");
        Self { x, y, w, h }
    }

    /// Area `w · h`.
    #[inline]
    pub fn area(&self) -> f64 {
        self.w * self.h
    }

    /// Half-perimeter `w + h` — the communication cost of the rectangle.
    #[inline]
    pub fn half_perimeter(&self) -> f64 {
        self.w + self.h
    }

    /// Right edge.
    #[inline]
    pub fn x1(&self) -> f64 {
        self.x + self.w
    }

    /// Top edge.
    #[inline]
    pub fn y1(&self) -> f64 {
        self.y + self.h
    }

    /// True when the interiors of `self` and `other` intersect.
    pub fn overlaps(&self, other: &Rect) -> bool {
        let eps = 1e-12;
        self.x + eps < other.x1()
            && other.x + eps < self.x1()
            && self.y + eps < other.y1()
            && other.y + eps < self.y1()
            && self.area() > 0.0
            && other.area() > 0.0
    }
}

/// A partition of the unit square into one rectangle per input area.
///
/// `rects[i]` is the rectangle assigned to input index `i` (e.g. processor
/// `i`), regardless of how the algorithm internally reordered the areas.
#[derive(Debug, Clone, PartialEq)]
pub struct SquarePartition {
    /// One rectangle per original input index.
    pub rects: Vec<Rect>,
}

impl SquarePartition {
    /// `Σ (w_i + h_i)` — the PERI-SUM objective, a.k.a. the total
    /// communication volume on the unit square.
    pub fn total_half_perimeter(&self) -> f64 {
        self.rects.iter().map(Rect::half_perimeter).sum()
    }

    /// Number of rectangles.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True when the partition holds no rectangles.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Areas of all rectangles, by input index.
    pub fn areas(&self) -> Vec<f64> {
        self.rects.iter().map(Rect::area).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basics() {
        let r = Rect::new(0.25, 0.5, 0.5, 0.25);
        assert!((r.area() - 0.125).abs() < 1e-12);
        assert!((r.half_perimeter() - 0.75).abs() < 1e-12);
        assert!((r.x1() - 0.75).abs() < 1e-12);
        assert!((r.y1() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn overlap_detection() {
        let a = Rect::new(0.0, 0.0, 0.5, 0.5);
        let b = Rect::new(0.25, 0.25, 0.5, 0.5);
        let c = Rect::new(0.5, 0.0, 0.5, 0.5); // shares an edge with a
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn zero_area_rect_never_overlaps() {
        let a = Rect::new(0.0, 0.0, 0.0, 1.0);
        let b = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(!a.overlaps(&b));
        assert!(!b.overlaps(&a));
    }

    #[test]
    fn partition_objectives() {
        // Unit square split into two vertical halves.
        let p = SquarePartition {
            rects: vec![Rect::new(0.0, 0.0, 0.5, 1.0), Rect::new(0.5, 0.0, 0.5, 1.0)],
        };
        assert!((p.total_half_perimeter() - 3.0).abs() < 1e-12);
        assert_eq!(p.len(), 2);
        assert_eq!(p.areas(), vec![0.5, 0.5]);
    }
}
