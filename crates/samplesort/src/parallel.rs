//! The full sample sort (Steps 1–3) of Section 3, run on the caller's
//! thread.

use crate::buckets::scatter;
use crate::splitters::{heterogeneous_splitters, sample_keys};
use crate::stats::{paper_oversampling, BucketStats};
use dlt_platform::rng::seeded;

/// Configuration of a sample-sort run.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSortConfig {
    /// Number of buckets / workers `p`.
    pub p: usize,
    /// Oversampling ratio `s`; `None` uses the paper's `s = log²N`.
    pub oversampling: Option<usize>,
    /// Seed for the sampling RNG (runs are deterministic per seed).
    pub seed: u64,
    /// Relative worker speeds for heterogeneous splitter placement
    /// (Section 3.2); `None` means homogeneous.
    pub speeds: Option<Vec<f64>>,
}

impl SampleSortConfig {
    /// Homogeneous configuration with the paper's oversampling.
    pub fn homogeneous(p: usize, seed: u64) -> Self {
        Self {
            p,
            oversampling: None,
            seed,
            speeds: None,
        }
    }

    /// Heterogeneous configuration: bucket sizes proportional to `speeds`.
    pub fn heterogeneous(speeds: Vec<f64>, seed: u64) -> Self {
        Self {
            p: speeds.len(),
            oversampling: None,
            seed,
            speeds: Some(speeds),
        }
    }

    /// Overrides the oversampling ratio.
    pub fn with_oversampling(mut self, s: usize) -> Self {
        self.oversampling = Some(s);
        self
    }
}

/// Result of a sample-sort run.
#[derive(Debug, Clone)]
pub struct SortOutcome<T> {
    /// The fully sorted data.
    pub sorted: Vec<T>,
    /// Bucket balance statistics.
    pub stats: BucketStats,
    /// Oversampling ratio actually used.
    pub oversampling: usize,
}

/// Sorts `data` with the three-phase sample sort of Section 3.
///
/// All three steps run on the caller's thread: Step 3 sorts the buckets
/// one after another. What a `p`-worker platform would spend on each
/// step is [`crate::CostModel`]'s to say, from the returned bucket sizes.
/// The output is sorted by construction: buckets are disjoint ranges and
/// each is sorted.
pub fn sample_sort<T: Ord + Clone>(data: Vec<T>, config: &SampleSortConfig) -> SortOutcome<T> {
    assert!(config.p >= 1, "need at least one bucket");
    let n = data.len();
    let s = config
        .oversampling
        .unwrap_or_else(|| paper_oversampling(n.max(2)));
    let shares: Vec<f64> = config.speeds.clone().unwrap_or_else(|| vec![1.0; config.p]);
    assert_eq!(shares.len(), config.p, "speeds length must equal p");

    // --- Step 1: sample, sort the sample, pick splitters. ---------------
    let mut rng = seeded(config.seed);
    let mut sample = sample_keys(&data, (s * config.p).min(n.max(1)), &mut rng);
    sample.sort_unstable();
    // A sample smaller than p cannot separate p buckets; degrade to a
    // single bucket (only happens for trivially small inputs).
    let splitters = if config.p == 1 || sample.len() < config.p {
        Vec::new()
    } else {
        heterogeneous_splitters(&sample, &shares)
    };

    // --- Step 2: scatter into buckets. -----------------------------------
    let mut buckets = scatter(&data, &splitters);
    drop(data);
    // Pad with empty buckets when splitters degenerated, so worker counts
    // and statistics always refer to p buckets.
    buckets.resize_with(config.p, Vec::new);

    // --- Step 3: sort every bucket, in bucket order. ---------------------
    let sizes: Vec<usize> = buckets.iter().map(Vec::len).collect();
    let mut sorted = Vec::with_capacity(n);
    for mut bucket in buckets {
        bucket.sort_unstable();
        sorted.append(&mut bucket);
    }

    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    SortOutcome {
        sorted,
        stats: BucketStats::new(sizes, &shares),
        oversampling: s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn random_data(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = seeded(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    fn assert_sorted_permutation(mut input: Vec<u64>, output: &[u64]) {
        input.sort_unstable();
        assert_eq!(input.as_slice(), output);
    }

    #[test]
    fn sorts_random_data() {
        let data = random_data(10_000, 1);
        let out = sample_sort(data.clone(), &SampleSortConfig::homogeneous(8, 42));
        assert_sorted_permutation(data, &out.sorted);
        assert_eq!(out.stats.len(), 8);
        assert_eq!(out.stats.total(), 10_000);
    }

    #[test]
    fn sorts_already_sorted_and_reversed() {
        let asc: Vec<u64> = (0..5000).collect();
        let out = sample_sort(asc.clone(), &SampleSortConfig::homogeneous(4, 7));
        assert_eq!(out.sorted, asc);
        let desc: Vec<u64> = (0..5000).rev().collect();
        let out = sample_sort(desc, &SampleSortConfig::homogeneous(4, 7));
        assert_eq!(out.sorted, asc);
    }

    #[test]
    fn sorts_duplicate_heavy_data() {
        let data: Vec<u64> = (0..8000).map(|i| i % 5).collect();
        let out = sample_sort(data.clone(), &SampleSortConfig::homogeneous(8, 3));
        assert_sorted_permutation(data, &out.sorted);
    }

    #[test]
    fn single_bucket_is_a_plain_sort() {
        let data = random_data(1000, 2);
        let out = sample_sort(data.clone(), &SampleSortConfig::homogeneous(1, 1));
        assert_sorted_permutation(data, &out.sorted);
        assert_eq!(out.stats.len(), 1);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let out = sample_sort(Vec::<u64>::new(), &SampleSortConfig::homogeneous(4, 1));
        assert!(out.sorted.is_empty());
        let out = sample_sort(vec![42u64], &SampleSortConfig::homogeneous(4, 1));
        assert_eq!(out.sorted, vec![42]);
    }

    #[test]
    fn deterministic_per_seed() {
        let data = random_data(5000, 9);
        let a = sample_sort(data.clone(), &SampleSortConfig::homogeneous(8, 5));
        let b = sample_sort(data, &SampleSortConfig::homogeneous(8, 5));
        assert_eq!(a.sorted, b.sorted);
        assert_eq!(a.stats.sizes, b.stats.sizes);
    }

    #[test]
    fn oversampling_improves_balance() {
        // With s = 1 the buckets are rough; with s = log²N they are tight.
        let data = random_data(1 << 16, 11);
        let p = 16;
        let rough = sample_sort(
            data.clone(),
            &SampleSortConfig::homogeneous(p, 1).with_oversampling(1),
        );
        let tight = sample_sort(data, &SampleSortConfig::homogeneous(p, 1));
        assert!(
            tight.stats.max_overload() <= rough.stats.max_overload(),
            "tight {} vs rough {}",
            tight.stats.max_overload(),
            rough.stats.max_overload()
        );
        // Paper's Theorem B.4-style check: overload stays small w.h.p.
        assert!(
            tight.stats.max_overload() < 1.35,
            "{}",
            tight.stats.max_overload()
        );
    }

    #[test]
    fn heterogeneous_buckets_track_speeds() {
        let data = random_data(1 << 16, 13);
        let speeds = vec![1.0, 2.0, 3.0, 2.0];
        let out = sample_sort(data, &SampleSortConfig::heterogeneous(speeds.clone(), 4));
        let total: f64 = speeds.iter().sum();
        for (i, &size) in out.stats.sizes.iter().enumerate() {
            let ideal = (1usize << 16) as f64 * speeds[i] / total;
            let rel = size as f64 / ideal;
            assert!(
                (0.85..1.15).contains(&rel),
                "bucket {i}: size {size} vs ideal {ideal}"
            );
        }
    }
}
