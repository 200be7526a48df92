//! The heterogeneous star platform: an ordered collection of workers.

use crate::error::PlatformError;
use crate::processor::Processor;

/// A master–worker star platform (the master is implicit).
///
/// Workers are stored in id order (`worker(i).id() == i`). Most paper
/// formulas refer to workers *sorted by non-decreasing speed*; use
/// [`Platform::min_speed`] and [`Platform::max_speed`] for that view
/// rather than reordering the platform itself, so worker ids stay stable
/// across the simulator, the strategies and the reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    workers: Vec<Processor>,
}

impl Platform {
    /// Builds a platform from explicit workers. Ids are re-assigned to the
    /// position in the vector.
    pub fn new(workers: Vec<Processor>) -> Result<Self, PlatformError> {
        if workers.is_empty() {
            return Err(PlatformError::EmptyPlatform);
        }
        let workers = workers
            .into_iter()
            .enumerate()
            .map(|(i, w)| w.with_id(i))
            .collect();
        Ok(Self { workers })
    }

    /// Platform with the given speeds and unit inverse bandwidth (`c_i = 1`).
    pub fn from_speeds(speeds: &[f64]) -> Result<Self, PlatformError> {
        Self::from_speeds_and_costs(speeds, &vec![1.0; speeds.len()])
    }

    /// Platform with per-worker speeds `s_i` and inverse bandwidths `c_i`.
    pub fn from_speeds_and_costs(speeds: &[f64], costs: &[f64]) -> Result<Self, PlatformError> {
        assert_eq!(
            speeds.len(),
            costs.len(),
            "speeds and costs must have the same length"
        );
        if speeds.is_empty() {
            return Err(PlatformError::EmptyPlatform);
        }
        let workers = speeds
            .iter()
            .zip(costs)
            .enumerate()
            .map(|(i, (&s, &c))| Processor::new(i, s, c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { workers })
    }

    /// Fully homogeneous platform: `p` workers of speed `speed` and inverse
    /// bandwidth `c`.
    pub fn homogeneous(p: usize, speed: f64, c: f64) -> Result<Self, PlatformError> {
        Self::from_speeds_and_costs(&vec![speed; p], &vec![c; p])
    }

    /// The two-class platform of Section 4.1.3: the first half of the
    /// workers runs at `slow_speed`, the second half `k` times faster.
    /// `p` must be even so the halves are exact.
    pub fn two_class(p: usize, slow_speed: f64, k: f64) -> Result<Self, PlatformError> {
        assert!(
            p.is_multiple_of(2),
            "two_class requires an even worker count"
        );
        let mut speeds = vec![slow_speed; p / 2];
        speeds.extend(std::iter::repeat_n(slow_speed * k, p / 2));
        Self::from_speeds(&speeds)
    }

    /// Number of workers `p`.
    #[inline]
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when the platform has no workers (never holds for a constructed
    /// platform; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Worker `i` (panics when out of range, like slice indexing).
    #[inline]
    pub fn worker(&self, i: usize) -> &Processor {
        &self.workers[i]
    }

    /// Iterates over the workers in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, Processor> {
        self.workers.iter()
    }

    /// All speeds `s_i`, in id order.
    pub fn speeds(&self) -> Vec<f64> {
        self.workers.iter().map(|w| w.speed()).collect()
    }

    /// All inverse bandwidths `c_i`, in id order.
    pub fn inv_bandwidths(&self) -> Vec<f64> {
        self.workers.iter().map(|w| w.inv_bandwidth()).collect()
    }

    /// `Σ s_i`.
    pub fn total_speed(&self) -> f64 {
        self.workers.iter().map(|w| w.speed()).sum()
    }

    /// Normalized speeds `x_i = s_i / Σ s_k` (sums to 1).
    pub fn normalized_speeds(&self) -> Vec<f64> {
        let total = self.total_speed();
        self.workers.iter().map(|w| w.speed() / total).collect()
    }

    /// Smallest speed `s_1` in the paper's sorted notation.
    pub fn min_speed(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.speed())
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest speed `s_p`.
    pub fn max_speed(&self) -> f64 {
        self.workers.iter().map(|w| w.speed()).fold(0.0, f64::max)
    }

    /// True when all speeds are within relative tolerance `tol` of each
    /// other.
    pub fn is_speed_homogeneous(&self, tol: f64) -> bool {
        let min = self.min_speed();
        let max = self.max_speed();
        (max - min) <= tol * max
    }
}

impl<'a> IntoIterator for &'a Platform {
    type Item = &'a Processor;
    type IntoIter = std::slice::Iter<'a, Processor>;
    fn into_iter(self) -> Self::IntoIter {
        self.workers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_speeds_assigns_ids_in_order() {
        let p = Platform::from_speeds(&[3.0, 1.0, 2.0]).unwrap();
        for i in 0..3 {
            assert_eq!(p.worker(i).id(), i);
        }
        assert_eq!(p.speeds(), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn empty_platform_rejected() {
        assert!(matches!(
            Platform::from_speeds(&[]),
            Err(PlatformError::EmptyPlatform)
        ));
        assert!(Platform::new(vec![]).is_err());
    }

    #[test]
    fn invalid_worker_propagates() {
        assert!(Platform::from_speeds(&[1.0, -2.0]).is_err());
    }

    #[test]
    fn normalized_speeds_sum_to_one() {
        let p = Platform::from_speeds(&[1.0, 2.0, 5.0]).unwrap();
        let x = p.normalized_speeds();
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((x[2] - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn min_and_max() {
        let p = Platform::from_speeds(&[4.0, 1.0, 8.0]).unwrap();
        assert_eq!(p.min_speed(), 1.0);
        assert_eq!(p.max_speed(), 8.0);
    }

    #[test]
    fn homogeneous_constructor_and_test() {
        let p = Platform::homogeneous(5, 2.0, 0.5).unwrap();
        assert_eq!(p.len(), 5);
        assert!(p.is_speed_homogeneous(1e-12));
        assert_eq!(p.total_speed(), 10.0);
        assert_eq!(p.inv_bandwidths(), vec![0.5; 5]);
    }

    #[test]
    fn two_class_layout() {
        let p = Platform::two_class(6, 1.0, 4.0).unwrap();
        assert_eq!(p.speeds(), vec![1.0, 1.0, 1.0, 4.0, 4.0, 4.0]);
        assert!(!p.is_speed_homogeneous(0.1));
    }

    #[test]
    #[should_panic(expected = "even worker count")]
    fn two_class_requires_even_p() {
        let _ = Platform::two_class(5, 1.0, 2.0);
    }

    #[test]
    fn iterator_visits_all_workers() {
        let p = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        let ids: Vec<usize> = (&p).into_iter().map(|w| w.id()).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(p.iter().count(), 2);
    }
}
