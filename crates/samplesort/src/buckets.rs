//! Step 2: bucket classification and scatter.

/// Bucket index of `key` given sorted `splitters`: the number of splitters
/// strictly smaller than `key`... more precisely, keys equal to a splitter
/// go to the splitter's left bucket (`partition_point` with `<`), matching
/// the usual sample-sort convention that bucket `i` holds keys in
/// `(splitter_{i-1}, splitter_i]`.
#[inline]
fn bucket_of<T: Ord>(key: &T, splitters: &[T]) -> usize {
    splitters.partition_point(|s| s < key)
}

/// Scatters `data` into `p = splitters.len() + 1` buckets sequentially.
pub fn scatter<T: Ord + Clone>(data: &[T], splitters: &[T]) -> Vec<Vec<T>> {
    let p = splitters.len() + 1;
    let mut counts = vec![0usize; p];
    for key in data {
        counts[bucket_of(key, splitters)] += 1;
    }
    let mut buckets: Vec<Vec<T>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for key in data {
        buckets[bucket_of(key, splitters)].push(key.clone());
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_respects_boundaries() {
        let splitters = vec![10u64, 20, 30];
        assert_eq!(bucket_of(&5, &splitters), 0);
        assert_eq!(bucket_of(&10, &splitters), 0); // equal goes left
        assert_eq!(bucket_of(&11, &splitters), 1);
        assert_eq!(bucket_of(&20, &splitters), 1);
        assert_eq!(bucket_of(&25, &splitters), 2);
        assert_eq!(bucket_of(&31, &splitters), 3);
    }

    #[test]
    fn no_splitters_single_bucket() {
        let splitters: Vec<u64> = vec![];
        assert_eq!(bucket_of(&42, &splitters), 0);
        let buckets = scatter(&[3u64, 1, 2], &splitters);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0], vec![3, 1, 2]);
    }

    #[test]
    fn scatter_preserves_all_elements() {
        let data: Vec<u64> = (0..100).rev().collect();
        let splitters = vec![24u64, 49, 74];
        let buckets = scatter(&data, &splitters);
        assert_eq!(buckets.len(), 4);
        let total: usize = buckets.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        // Every key in bucket b is > splitter b−1 and ≤ splitter b.
        for (b, bucket) in buckets.iter().enumerate() {
            for &k in bucket {
                if b > 0 {
                    assert!(k > splitters[b - 1]);
                }
                if b < splitters.len() {
                    assert!(k <= splitters[b]);
                }
            }
        }
    }

    #[test]
    fn duplicate_heavy_input() {
        let data = vec![7u64; 50];
        let splitters = vec![7u64, 8];
        let buckets = scatter(&data, &splitters);
        assert_eq!(buckets[0].len(), 50); // all equal keys in one bucket
        assert!(buckets[1].is_empty());
    }
}
