//! Bucket statistics and the theoretical bounds they are checked against.

#![expect(
    clippy::disallowed_methods,
    reason = "the paper's closed-form oversampling and bucket bounds, not a solver hot path"
)]

/// The paper's oversampling ratio, `s = (log₂ N)²`, at least 1.
pub fn paper_oversampling(n: usize) -> usize {
    assert!(n > 0);
    let l = (n as f64).log2();
    ((l * l).round() as usize).max(1)
}

/// High-probability bound on the largest bucket (Theorem B.4 of Blelloch
/// et al., instantiated as in Section 3.1): with oversampling `s = log²N`,
///
/// `Pr[MaxSize ≥ (N/p)·(1 + (1/ln N)^{1/3})] ≤ N^{-1/3}`.
pub fn max_bucket_bound(n: usize, p: usize) -> f64 {
    assert!(n > 1 && p > 0);
    let ln_n = (n as f64).ln();
    (n as f64) / (p as f64) * (1.0 + (1.0 / ln_n).powf(1.0 / 3.0))
}

/// Sizes and balance statistics of the buckets produced by a sample-sort
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketStats {
    /// Number of keys per bucket.
    pub sizes: Vec<usize>,
    /// Ideal share per bucket: `N·x_i` (equal speeds ⇒ `N/p`).
    pub ideal: Vec<f64>,
}

impl BucketStats {
    /// Builds stats for buckets with prescribed relative shares
    /// (normalized internally); use equal shares for homogeneous sorts.
    pub fn new(sizes: Vec<usize>, shares: &[f64]) -> Self {
        assert_eq!(sizes.len(), shares.len());
        let n: usize = sizes.iter().sum();
        let total: f64 = shares.iter().sum();
        let ideal = shares.iter().map(|&s| n as f64 * s / total).collect();
        Self { sizes, ideal }
    }

    /// Total number of keys.
    pub fn total(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Largest bucket.
    pub fn max_size(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// `max_i sizes[i]/ideal[i]` — 1.0 means perfectly proportional
    /// buckets; the paper's Theorem B.4 bounds this by
    /// `1 + (1/ln N)^{1/3}` w.h.p. for the homogeneous case.
    pub fn max_overload(&self) -> f64 {
        self.sizes
            .iter()
            .zip(&self.ideal)
            .filter(|&(_, &ideal)| ideal > 0.0)
            .map(|(&s, &ideal)| s as f64 / ideal)
            .fold(0.0, f64::max)
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// True when there are no buckets.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversampling_values() {
        assert_eq!(paper_oversampling(1 << 10), 100);
        assert_eq!(paper_oversampling(1 << 16), 256);
        assert_eq!(paper_oversampling(2), 1);
    }

    #[test]
    fn bound_decreases_relative_slack_with_n() {
        let p = 8;
        let rel = |n: usize| max_bucket_bound(n, p) / (n as f64 / p as f64);
        assert!(rel(1 << 24) < rel(1 << 12));
        assert!(rel(1 << 24) > 1.0);
    }

    #[test]
    fn stats_totals_and_max() {
        let s = BucketStats::new(vec![10, 30, 20], &[1.0, 1.0, 1.0]);
        assert_eq!(s.total(), 60);
        assert_eq!(s.max_size(), 30);
        assert_eq!(s.len(), 3);
        // ideal = 20 each; overload = 30/20.
        assert!((s.max_overload() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn proportional_shares() {
        let s = BucketStats::new(vec![25, 75], &[1.0, 3.0]);
        assert_eq!(s.ideal, vec![25.0, 75.0]);
        assert!((s.max_overload() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bucket_does_not_blow_up_overload() {
        let s = BucketStats::new(vec![0, 10], &[1.0, 1.0]);
        assert!(s.max_overload().is_finite());
    }
}
