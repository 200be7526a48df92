//! The threaded MapReduce engine.
//!
//! Execution model (a faithful miniature of Hadoop's):
//!
//! 1. **Map** — input records are grouped into splits; `map_workers`
//!    scoped threads pull splits *demand-driven* (an atomic cursor — the
//!    same dynamic load balancing the paper's `Commhom` strategy models)
//!    and run the user's map function, hash-partitioning emitted pairs
//!    into `reduce_workers` buckets.
//! 2. **Shuffle** — per-worker buckets are concatenated per partition
//!    (worker order, so runs are deterministic).
//! 3. **Reduce** — one thread per partition sorts its pairs by key,
//!    groups, and runs the user's reduce function.
//!
//! The engine charges one *unit* per record by default; jobs that ship
//! weighted records (e.g. two matrix elements per record) pass a
//! `unit_weight` so [`VolumeReport`] speaks the paper's element counts.

use crate::metrics::VolumeReport;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Mapper signature: consume one input record, emit key/value pairs.
pub trait Mapper<I, K, V>: Sync {
    /// Maps one record.
    fn map(&self, input: I, emit: &mut dyn FnMut(K, V));
    /// Data units this record represents (default 1).
    fn input_units(&self, _input: &I) -> usize {
        1
    }
}

impl<I, K, V, F> Mapper<I, K, V> for F
where
    F: Fn(I, &mut dyn FnMut(K, V)) + Sync,
{
    fn map(&self, input: I, emit: &mut dyn FnMut(K, V)) {
        self(input, emit)
    }
}

/// Reducer signature: fold all values of one key.
pub trait Reducer<K, V, O>: Sync {
    /// Reduces one key group.
    fn reduce(&self, key: &K, values: Vec<V>) -> O;
}

impl<K, V, O, F> Reducer<K, V, O> for F
where
    F: Fn(&K, Vec<V>) -> O + Sync,
{
    fn reduce(&self, key: &K, values: Vec<V>) -> O {
        self(key, values)
    }
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobConfig {
    /// Concurrent map threads.
    pub map_workers: usize,
    /// Reduce partitions (= concurrent reduce threads).
    pub reduce_workers: usize,
    /// Number of input splits; defaults to `4 × map_workers` so the
    /// demand-driven dispatch has slack to balance.
    pub splits: Option<usize>,
}

impl JobConfig {
    /// Config with the default split count.
    pub fn new(map_workers: usize, reduce_workers: usize) -> Self {
        assert!(map_workers >= 1 && reduce_workers >= 1);
        Self {
            map_workers,
            reduce_workers,
            splits: None,
        }
    }
}

fn partition_of<K: Hash>(key: &K, partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % partitions as u64) as usize
}

/// Runs a MapReduce job and returns the reduce outputs (sorted by key)
/// together with the volume report.
pub fn run_job<I, K, V, O, M, R>(
    inputs: Vec<I>,
    config: &JobConfig,
    mapper: &M,
    reducer: &R,
) -> (Vec<(K, O)>, VolumeReport)
where
    I: Send,
    K: Ord + Hash + Clone + Send,
    V: Send,
    O: Send,
    M: Mapper<I, K, V>,
    R: Reducer<K, V, O>,
{
    let n_records = inputs.len();
    let n_parts = config.reduce_workers;
    let n_splits = config.splits.unwrap_or(4 * config.map_workers).max(1);
    let split_len = n_records.div_ceil(n_splits).max(1);

    // --- Map phase: demand-driven splits over scoped threads. -----------
    // Splits are materialized up front so threads can take ownership.
    let mut splits: Vec<Vec<I>> = Vec::with_capacity(n_splits);
    {
        let mut it = inputs.into_iter();
        loop {
            let chunk: Vec<I> = it.by_ref().take(split_len).collect();
            if chunk.is_empty() {
                break;
            }
            splits.push(chunk);
        }
    }
    let split_slots: Vec<std::sync::Mutex<Option<Vec<I>>>> = splits
        .into_iter()
        .map(|s| std::sync::Mutex::new(Some(s)))
        .collect();
    let cursor = AtomicUsize::new(0);

    struct MapResult<K, V> {
        buckets: Vec<Vec<(K, V)>>,
        records: usize,
        units: usize,
    }

    let map_results: Vec<MapResult<K, V>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.map_workers)
            .map(|_| {
                let cursor = &cursor;
                let slots = &split_slots;
                scope.spawn(move || {
                    let mut buckets: Vec<Vec<(K, V)>> = (0..n_parts).map(|_| Vec::new()).collect();
                    let mut records = 0usize;
                    let mut units = 0usize;
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= slots.len() {
                            break;
                        }
                        let split = slots[idx]
                            .lock()
                            .expect("split slot poisoned")
                            .take()
                            .expect("split taken once");
                        for record in split {
                            units += mapper.input_units(&record);
                            records += 1;
                            mapper.map(record, &mut |k: K, v: V| {
                                buckets[partition_of(&k, n_parts)].push((k, v));
                            });
                        }
                    }
                    MapResult {
                        buckets,
                        records,
                        units,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("map worker panicked"))
            .collect()
    });

    let per_mapper_records: Vec<usize> = map_results.iter().map(|r| r.records).collect();
    let map_input_units: usize = map_results.iter().map(|r| r.units).sum();
    let shuffle_pairs: usize = map_results
        .iter()
        .map(|r| r.buckets.iter().map(Vec::len).sum::<usize>())
        .sum();

    // --- Shuffle: concatenate per partition in worker order. -------------
    let mut partitions: Vec<Vec<(K, V)>> = (0..n_parts).map(|_| Vec::new()).collect();
    for result in map_results {
        for (p, mut bucket) in result.buckets.into_iter().enumerate() {
            partitions[p].append(&mut bucket);
        }
    }
    let per_reducer_pairs: Vec<usize> = partitions.iter().map(Vec::len).collect();

    // --- Reduce phase: one thread per partition. --------------------------
    let mut outputs: Vec<(K, O)> = std::thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .into_iter()
            .map(|mut pairs| {
                scope.spawn(move || {
                    pairs.sort_by(|a, b| a.0.cmp(&b.0));
                    let mut out: Vec<(K, O)> = Vec::new();
                    let mut iter = pairs.into_iter().peekable();
                    while let Some((key, first)) = iter.next() {
                        let mut values = vec![first];
                        while iter.peek().is_some_and(|(k, _)| *k == key) {
                            values.push(iter.next().unwrap().1);
                        }
                        let reduced = reducer.reduce(&key, values);
                        out.push((key, reduced));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reduce worker panicked"))
            .collect()
    });
    outputs.sort_by(|a, b| a.0.cmp(&b.0));

    let report = VolumeReport {
        map_input_units,
        map_input_records: n_records,
        shuffle_pairs,
        reduce_output_records: outputs.len(),
        per_mapper_records,
        per_reducer_pairs,
    };
    (outputs, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_sum_job(
        inputs: Vec<(u32, u64)>,
        config: &JobConfig,
    ) -> (Vec<(u32, u64)>, VolumeReport) {
        run_job(
            inputs,
            config,
            &|(k, v): (u32, u64), emit: &mut dyn FnMut(u32, u64)| emit(k, v),
            &|_k: &u32, vs: Vec<u64>| vs.into_iter().sum::<u64>(),
        )
    }

    #[test]
    fn sums_values_per_key() {
        let inputs = vec![(1u32, 10u64), (2, 5), (1, 7), (3, 1), (2, 2)];
        let (out, report) = identity_sum_job(inputs, &JobConfig::new(2, 2));
        assert_eq!(out, vec![(1, 17), (2, 7), (3, 1)]);
        assert_eq!(report.map_input_records, 5);
        assert_eq!(report.shuffle_pairs, 5);
        assert_eq!(report.reduce_output_records, 3);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let inputs: Vec<(u32, u64)> = (0..500).map(|i| (i % 37, i as u64)).collect();
        let base = identity_sum_job(inputs.clone(), &JobConfig::new(1, 1)).0;
        for (m, r) in [(2usize, 3usize), (4, 2), (8, 8)] {
            let out = identity_sum_job(inputs.clone(), &JobConfig::new(m, r)).0;
            assert_eq!(out, base, "m={m} r={r}");
        }
    }

    #[test]
    fn empty_input() {
        let (out, report) = identity_sum_job(vec![], &JobConfig::new(3, 3));
        assert!(out.is_empty());
        assert_eq!(report.shuffle_pairs, 0);
        assert_eq!(report.reduce_skew(), 1.0);
    }

    #[test]
    fn mapper_can_emit_many_pairs_per_record() {
        // Each record fans out to 3 keys.
        let (out, report) = run_job(
            vec![1u32, 2, 3],
            &JobConfig::new(2, 2),
            &|x: u32, emit: &mut dyn FnMut(u32, u32)| {
                for d in 0..3 {
                    emit(d, x);
                }
            },
            &|_k: &u32, vs: Vec<u32>| vs.len(),
        );
        assert_eq!(report.shuffle_pairs, 9);
        assert_eq!(out, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn per_mapper_records_cover_all_inputs() {
        let inputs: Vec<(u32, u64)> = (0..100).map(|i| (i, 1)).collect();
        let (_, report) = identity_sum_job(inputs, &JobConfig::new(4, 2));
        assert_eq!(report.per_mapper_records.iter().sum::<usize>(), 100);
        assert_eq!(report.per_reducer_pairs.iter().sum::<usize>(), 100);
    }

    #[test]
    fn custom_split_count_respected() {
        let inputs: Vec<(u32, u64)> = (0..10).map(|i| (i, 1)).collect();
        let cfg = JobConfig {
            splits: Some(10),
            ..JobConfig::new(2, 1)
        };
        let (out, _) = identity_sum_job(inputs, &cfg);
        assert_eq!(out.len(), 10);
    }

    struct WeightedMapper;
    impl Mapper<(u32, u64), u32, u64> for WeightedMapper {
        fn map(&self, input: (u32, u64), emit: &mut dyn FnMut(u32, u64)) {
            emit(input.0, input.1);
        }
        fn input_units(&self, _input: &(u32, u64)) -> usize {
            2 // e.g. a record carrying two matrix elements
        }
    }

    #[test]
    fn input_units_are_weighted() {
        let inputs: Vec<(u32, u64)> = (0..8).map(|i| (i, 1)).collect();
        let (_, report) = run_job(
            inputs,
            &JobConfig::new(2, 2),
            &WeightedMapper,
            &|_k: &u32, vs: Vec<u64>| vs.len(),
        );
        assert_eq!(report.map_input_units, 16);
    }
}
