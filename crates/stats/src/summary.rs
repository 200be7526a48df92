//! Streaming summary statistics (Welford's online algorithm).

/// Streaming mean / variance / extrema accumulator.
///
/// Uses Welford's online algorithm, which is numerically stable even when
/// the values span many orders of magnitude (log-normal speed draws do).
///
/// ```
/// use dlt_stats::Summary;
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "Summary observed a non-finite value: {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Builds a summary from a slice.
    pub fn of(values: &[f64]) -> Self {
        values.iter().copied().collect()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`).
    fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation — this is the "error bar" statistic the
    /// paper plots.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_neutral() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[3.0]);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.population_std(), 0.0);
        assert_eq!(s.min(), 3.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn known_dataset() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.population_std() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let xs = [1.0, 5.0, 2.5, -3.0, 8.0];
        let ys = [0.5, 0.25, 10.0];
        let mut merged = Summary::of(&xs);
        merged.merge(&Summary::of(&ys));
        let all: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        let direct = Summary::of(&all);
        assert_eq!(merged.count(), direct.count());
        assert!((merged.mean() - direct.mean()).abs() < 1e-12);
        assert!((merged.population_variance() - direct.population_variance()).abs() < 1e-12);
        assert_eq!(merged.min(), direct.min());
        assert_eq!(merged.max(), direct.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::of(&[1.0, 2.0]);
        let before = s.clone();
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn stable_for_large_offsets() {
        // Classic catastrophic-cancellation test: values 1e9 + {1,2,3}.
        let s = Summary::of(&[1e9 + 1.0, 1e9 + 2.0, 1e9 + 3.0]);
        assert!((s.population_variance() - 2.0 / 3.0).abs() < 1e-6);
    }
}
