//! Order statistics used by every reported timing: medians across passes
//! and the percentile rule for latency-like samples.

/// Median of `values` (mean of the two middle elements for an even
/// count). `values` need not be sorted. Returns `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Levels the tail rule falls back through when too few samples support
/// the requested one.
const FALLBACK_LEVELS: [f64; 3] = [90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: the level actually used, its value and the
/// sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Percentile level in `(0, 100)`.
    pub level: f64,
    /// Nearest-rank value at that level.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// 1-based nearest rank of percentile `level` among `n` samples.
fn rank(level: f64, n: usize) -> usize {
    ((level / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Plain nearest-rank percentile of `sorted` (ascending) at `level`, for
/// deterministic ratios such as stretch, which are not timings and so
/// are not subject to the tail rule. `None` when empty.
pub fn nearest_rank(sorted: &[f64], level: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(level, sorted.len()) - 1])
}

/// The percentile rule: report `target` if at least [`MIN_BEYOND`]
/// samples lie beyond it, otherwise the highest of the fallback levels
/// that has that many. `None` when even the median lacks them (fewer than
/// 20 samples). `sorted` must be ascending.
pub fn tail(sorted: &[f64], target: f64) -> Option<Percentile> {
    let n = sorted.len();
    std::iter::once(target)
        .chain(FALLBACK_LEVELS.into_iter().filter(|&l| l < target))
        .find(|&level| n >= 1 && n - rank(level, n) >= MIN_BEYOND)
        .map(|level| Percentile {
            level,
            value: sorted[rank(level, n) - 1],
            samples: n,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — p99 is reportable.
        let p = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(p.level, 99.0);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
        // 999 samples: rank 990, only nine beyond — fall back to p90.
        let p = tail(&ramp(999), 99.0).unwrap();
        assert_eq!(p.level, 90.0);
        assert_eq!(p.value, 900.0);
    }

    #[test]
    fn rule_falls_back_to_the_median_and_then_gives_up() {
        // 40 samples: p90 has 4 beyond, p75 has 10 beyond.
        assert_eq!(tail(&ramp(40), 99.0).unwrap().level, 75.0);
        // 20 samples: only the median has 10 beyond.
        let p = tail(&ramp(20), 99.0).unwrap();
        assert_eq!((p.level, p.value), (50.0, 10.0));
        assert_eq!(tail(&ramp(19), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn nearest_rank_p99_of_few_samples_is_the_maximum() {
        assert_eq!(nearest_rank(&ramp(54), 99.0), Some(54.0));
        assert_eq!(nearest_rank(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(nearest_rank(&[], 99.0), None);
    }

    #[test]
    fn median_target_is_not_raised() {
        let p = tail(&ramp(1000), 50.0).unwrap();
        assert_eq!((p.level, p.value), (50.0, 500.0));
    }
}
