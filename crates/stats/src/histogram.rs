//! Fixed-width histograms for distribution sanity checks.

/// A histogram with `bins` equal-width buckets over `[lo, hi)`.
///
/// Out-of-range observations are counted in saturating edge bins so no data
/// is silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` buckets.
    ///
    /// Panics when `lo >= hi` or `bins == 0` — both are harness bugs.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = if t < 0.0 {
            0
        } else {
            ((t * bins as f64) as usize).min(bins - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Adds every value of a slice.
    pub fn extend(&mut self, values: &[f64]) {
        for &v in values {
            self.push(v);
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of mass in bin `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_land_in_expected_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(0.5);
        h.push(9.5);
        h.push(5.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn out_of_range_saturates() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-5.0);
        h.push(42.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn upper_edge_goes_to_last_bin() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(1.0);
        assert_eq!(h.counts()[1], 1);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 5);
        h.extend(&[0.1, 0.3, 0.5, 0.7, 0.9, 0.95]);
        let sum: f64 = (0..5).map(|i| h.fraction(i)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
