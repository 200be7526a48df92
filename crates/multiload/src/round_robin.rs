//! The round-robin interleaved scheduler: every load is chopped into equal
//! chunks which are dispatched **interleaved across loads** on the
//! binary-heap free-worker machinery of [`dlt_sim::simulate_demand`].
//!
//! Where the installment schedulers give one load the platform at a time,
//! round-robin trades makespan for responsiveness: a small load released
//! while a big one is running starts flowing after at most one chunk per
//! load instead of waiting for the whole installment. The chunk queue is
//! built round-robin over loads in release order (chunk 0 of every load,
//! then chunk 1, …) and dispatched to the earliest-free worker — ties
//! broken by worker id, exactly the total order of `simulate_demand` — with
//! starts clamped to the owning load's release time.
//!
//! [`round_robin_schedule_reference`] keeps the `O(T·p)` linear worker scan
//! as the executable specification; the heap dispatcher is property-tested
//! bit-identical against it (and, for a single load released at 0, against
//! `simulate_demand` itself). The `hotpaths` bench tracks the speedup.
//!
//! One cost-model nuance, straight out of the paper's Section 2: cutting a
//! super-linear load into `k` chunks shrinks its total work to
//! `k·(N/k)^α = N^α/k^{α-1}`, so the round-robin makespan of an `α > 1`
//! load can undercut its single-round "alone" makespan (and its stretch
//! can fall below 1). Chunked demand-driven execution is a different
//! computation, not a better schedule of the same one — use the
//! installment schedulers ([`crate::schedule`]) when the single-round
//! semantics must be preserved.

use crate::error::MultiLoadError;
use crate::load::{release_order, validate_batch, LoadSpec};
use crate::metrics::{LoadMetrics, MultiLoadReport};
use dlt_core::costmodel::CostModel;
use dlt_platform::Platform;
use dlt_sim::{DemandConfig, DemandTask, OrdF64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tuning knobs of the round-robin scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiLoadConfig {
    /// Number of equal chunks each load is cut into (≥ 1). More chunks
    /// interleave finer (better flow times) at more dispatch overhead.
    pub chunks_per_load: usize,
    /// When true, a chunk additionally occupies its worker for the
    /// transfer time `c_i · data`; when false (the paper's accounting)
    /// only computation counts, matching
    /// [`dlt_sim::DemandConfig::include_comm`].
    pub include_comm: bool,
}

impl Default for MultiLoadConfig {
    fn default() -> Self {
        Self {
            chunks_per_load: 32,
            include_comm: false,
        }
    }
}

/// One executed chunk, for audits and Gantt-style inspection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkExec {
    /// Load (index into the input batch) the chunk belongs to.
    pub load: usize,
    /// Worker that executed the chunk.
    pub worker: usize,
    /// Data units the chunk carried (body chunks hold `size / c`; the
    /// last chunk absorbs the rounding remainder).
    pub data: f64,
    /// Instant the chunk started occupying the worker (≥ the load's
    /// release).
    pub start: f64,
    /// Instant the worker became free again.
    pub finish: f64,
}

/// Result of the round-robin scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRobinOutcome {
    /// Per-load timings and aggregates.
    pub report: MultiLoadReport,
    /// Every chunk execution, in dispatch order.
    pub chunk_log: Vec<ChunkExec>,
    /// Data units shipped to each worker (every chunk's data counted, the
    /// paper's no-reuse accounting).
    pub comm_volume: Vec<f64>,
}

/// One queued chunk: owning load plus its data/work/release.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    load: usize,
    data: f64,
    work: f64,
    release: f64,
}

/// Round-robin chunk queue: loads in release order, chunk `k` of every
/// load before chunk `k + 1` of any.
///
/// The first `chunks_per_load − 1` chunks of a load carry `size / c` data;
/// the **last** chunk absorbs the floating-point rounding remainder
/// (`size − (c−1)·(size/c)`), so the chunk sizes sum back to `size`
/// exactly in real arithmetic instead of drifting by up to `c` rounding
/// errors of the division. The per-load data/work pair is computed once
/// per load here — not once per round — since the cost law's `work(data)`
/// (`data.powf(alpha)` under the α-power model) is the only
/// transcendental in the queue build.
fn chunk_queue(loads: &[LoadSpec], chunks_per_load: usize) -> Vec<Chunk> {
    let order = release_order(loads);
    // Per-load chunk geometry, hoisted out of the round loop: (body chunk,
    // last chunk), each with its work precomputed.
    let geometry: Vec<(Chunk, Chunk)> = loads
        .iter()
        .enumerate()
        .map(|(j, load)| {
            let body = load.size / chunks_per_load as f64;
            let last = (load.size - body * (chunks_per_load - 1) as f64).max(0.0);
            let chunk = |data: f64| Chunk {
                load: j,
                data,
                work: load.model.work(data),
                release: load.release,
            };
            (chunk(body), chunk(last))
        })
        .collect();
    let mut queue = Vec::with_capacity(loads.len() * chunks_per_load);
    for round in 0..chunks_per_load {
        let is_last = round == chunks_per_load - 1;
        for &j in &order {
            let (body, last) = geometry[j];
            queue.push(if is_last { last } else { body });
        }
    }
    queue
}

/// Time worker `w` is occupied by a chunk: delegates to
/// [`dlt_sim::occupancy`] — the one definition of the arithmetic — so
/// single-load runs stay bit-identical to [`dlt_sim::simulate_demand`].
#[inline]
fn occupancy(platform: &Platform, w: usize, data: f64, work: f64, include_comm: bool) -> f64 {
    dlt_sim::occupancy(
        platform,
        w,
        DemandTask::new(data, work),
        DemandConfig { include_comm },
    )
}

/// Shared post-processing: per-load metrics from the chunk log.
fn build_report(
    loads: &[LoadSpec],
    alone: &[f64],
    chunk_log: Vec<ChunkExec>,
    comm_volume: Vec<f64>,
    worker_finish: Vec<f64>,
) -> RoundRobinOutcome {
    let mut start = vec![f64::INFINITY; loads.len()];
    let mut finish = vec![0.0f64; loads.len()];
    for c in &chunk_log {
        start[c.load] = start[c.load].min(c.start);
        finish[c.load] = finish[c.load].max(c.finish);
    }
    let per_load = loads
        .iter()
        .enumerate()
        .map(|(j, load)| LoadMetrics {
            load: j,
            start: start[j],
            finish: finish[j],
            release: load.release,
            alone: alone[j],
            size: load.size,
        })
        .collect();
    RoundRobinOutcome {
        report: MultiLoadReport {
            per_load,
            worker_finish,
        },
        chunk_log,
        comm_volume,
    }
}

/// Validates a batch + config + stretch-denominator slice.
fn validate(
    loads: &[LoadSpec],
    config: &MultiLoadConfig,
    alone: &[f64],
) -> Result<(), MultiLoadError> {
    validate_batch(loads)?;
    if config.chunks_per_load == 0 {
        return Err(MultiLoadError::ZeroChunks);
    }
    if alone.len() != loads.len() {
        return Err(MultiLoadError::AloneLengthMismatch {
            loads: loads.len(),
            alone: alone.len(),
        });
    }
    Ok(())
}

/// Runs the round-robin scheduler with the binary-heap dispatcher
/// (`O(T log p)` for `T = loads · chunks_per_load` chunks).
///
/// Workers start free at 0. For every queued chunk, the earliest-free
/// worker (ties by id) takes it at `max(worker free, load release)` and
/// holds it for its occupancy. `alone` holds one stretch denominator per
/// load, copied into the report without influencing a single dispatch —
/// usually [`crate::alone_makespans`] at one installment, each load's
/// optimal single-round makespan.
///
/// # Examples
///
/// ```
/// use dlt_multiload::{
///     alone_makespans, round_robin_schedule, schedule, LoadSpec, MultiLoadConfig, PolicyConfig,
///     ScheduleOptions,
/// };
/// use dlt_platform::Platform;
///
/// let platform = Platform::from_speeds(&[1.0, 1.0]).unwrap();
/// let loads = [
///     LoadSpec::immediate(100.0, 1.0).unwrap(),
///     LoadSpec::immediate(2.0, 1.0).unwrap(),
/// ];
/// let alone = alone_makespans(&platform, &loads, 1).unwrap();
/// let rr = round_robin_schedule(&platform, &loads, &MultiLoadConfig::default(), &alone).unwrap();
/// let fifo = schedule(&platform, &loads, &PolicyConfig::default(), &ScheduleOptions::default())
///     .unwrap();
/// // Interleaving starts the small load long before FIFO would: under
/// // FIFO it waits for the big load's entire installment.
/// assert!(rr.report.per_load[1].start < fifo.report.per_load[1].start);
/// ```
pub fn round_robin_schedule(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &MultiLoadConfig,
    alone: &[f64],
) -> Result<RoundRobinOutcome, MultiLoadError> {
    validate(loads, config, alone)?;
    let p = platform.len();
    let mut heap: BinaryHeap<Reverse<(OrdF64, usize)>> = BinaryHeap::with_capacity(p + 1);
    heap.extend((0..p).map(|w| Reverse((OrdF64(0.0), w))));
    let mut chunk_log = Vec::with_capacity(loads.len() * config.chunks_per_load);
    let mut volume = vec![0.0f64; p];
    let mut finish = vec![0.0f64; p];
    for chunk in chunk_queue(loads, config.chunks_per_load) {
        let Reverse((OrdF64(free), w)) = heap.pop().expect("heap holds every worker");
        let start = chunk.release.max(free);
        let done = start + occupancy(platform, w, chunk.data, chunk.work, config.include_comm);
        chunk_log.push(ChunkExec {
            load: chunk.load,
            worker: w,
            data: chunk.data,
            start,
            finish: done,
        });
        volume[w] += chunk.data;
        finish[w] = done;
        heap.push(Reverse((OrdF64(done), w)));
    }
    Ok(build_report(loads, alone, chunk_log, volume, finish))
}

/// Executable specification of [`round_robin_schedule`]: the linear
/// per-chunk worker scan (`O(T·p)`), kept as the property-test oracle and
/// the `hotpaths` bench baseline — exactly the role
/// [`dlt_sim::simulate_demand_reference`] plays for the single-load
/// demand executor. Both produce bit-identical outcomes.
pub fn round_robin_schedule_reference(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &MultiLoadConfig,
    alone: &[f64],
) -> Result<RoundRobinOutcome, MultiLoadError> {
    validate(loads, config, alone)?;
    let p = platform.len();
    let mut free = vec![0.0f64; p];
    let mut chunk_log = Vec::with_capacity(loads.len() * config.chunks_per_load);
    let mut volume = vec![0.0f64; p];
    let mut finish = vec![0.0f64; p];
    for chunk in chunk_queue(loads, config.chunks_per_load) {
        // Earliest-free worker, smallest id on ties: the same total order
        // the heap uses.
        let mut w = 0;
        for cand in 1..p {
            if free[cand].total_cmp(&free[w]) == std::cmp::Ordering::Less {
                w = cand;
            }
        }
        let start = chunk.release.max(free[w]);
        let done = start + occupancy(platform, w, chunk.data, chunk.work, config.include_comm);
        chunk_log.push(ChunkExec {
            load: chunk.load,
            worker: w,
            data: chunk.data,
            start,
            finish: done,
        });
        volume[w] += chunk.data;
        free[w] = done;
        finish[w] = done;
    }
    Ok(build_report(loads, alone, chunk_log, volume, finish))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_core::nonlinear;
    use dlt_sim::{simulate_demand, DemandConfig, DemandTask};

    fn config(chunks: usize) -> MultiLoadConfig {
        MultiLoadConfig {
            chunks_per_load: chunks,
            include_comm: false,
        }
    }

    /// The heap dispatcher with single-round stretch denominators.
    fn rr(
        platform: &Platform,
        loads: &[LoadSpec],
        cfg: &MultiLoadConfig,
    ) -> Result<RoundRobinOutcome, MultiLoadError> {
        let alone = crate::alone_makespans(platform, loads, 1)?;
        round_robin_schedule(platform, loads, cfg, &alone)
    }

    /// The demand-task mirror of one load's chunk queue: `chunks − 1`
    /// body chunks of `size / chunks` plus a last chunk absorbing the
    /// rounding remainder — exactly what `chunk_queue` emits.
    fn chunk_tasks(size: f64, alpha: f64, chunks: usize) -> Vec<DemandTask> {
        let body = size / chunks as f64;
        let last = (size - body * (chunks - 1) as f64).max(0.0);
        (0..chunks)
            .map(|k| {
                let d = if k == chunks - 1 { last } else { body };
                DemandTask::new(d, d.powf(alpha))
            })
            .collect()
    }

    #[test]
    fn single_load_matches_simulate_demand_bitwise() {
        let platform = Platform::from_speeds(&[1.0, 1.7, 2.3, 0.4]).unwrap();
        let load = LoadSpec::immediate(64.0, 2.0).unwrap();
        let out = rr(&platform, &[load], &config(16)).unwrap();

        let tasks = chunk_tasks(64.0, 2.0, 16);
        let demand = simulate_demand(&platform, &tasks, DemandConfig::default());
        assert_eq!(out.report.worker_finish, demand.finish_times);
        assert_eq!(out.comm_volume, demand.comm_volume);
        let counts: Vec<usize> = {
            let mut c = vec![0usize; platform.len()];
            for e in &out.chunk_log {
                c[e.worker] += 1;
            }
            c
        };
        assert_eq!(counts, demand.task_counts());
    }

    #[test]
    fn heap_matches_reference_on_releases_and_heterogeneity() {
        let platform = Platform::from_speeds_and_costs(&[1.0, 3.0, 0.7], &[1.0, 0.2, 2.0]).unwrap();
        let loads = [
            LoadSpec::new(20.0, 2.0, 0.0).unwrap(),
            LoadSpec::new(10.0, 1.0, 3.0).unwrap(),
            LoadSpec::new(5.0, 1.5, 0.5).unwrap(),
        ];
        for chunks in [1, 2, 7, 32] {
            for include_comm in [false, true] {
                let cfg = MultiLoadConfig {
                    chunks_per_load: chunks,
                    include_comm,
                };
                let alone = crate::alone_makespans(&platform, &loads, 1).unwrap();
                let heap = round_robin_schedule(&platform, &loads, &cfg, &alone).unwrap();
                let linear =
                    round_robin_schedule_reference(&platform, &loads, &cfg, &alone).unwrap();
                assert_eq!(heap, linear, "chunks={chunks} include_comm={include_comm}");
            }
        }
    }

    #[test]
    fn chunks_respect_release_times() {
        let platform = Platform::from_speeds(&[1.0, 1.0]).unwrap();
        let loads = [
            LoadSpec::new(4.0, 1.0, 0.0).unwrap(),
            LoadSpec::new(4.0, 1.0, 7.5).unwrap(),
        ];
        let out = rr(&platform, &loads, &config(4)).unwrap();
        for c in &out.chunk_log {
            assert!(c.start >= loads[c.load].release);
        }
        assert!(out.report.per_load[1].start >= 7.5);
    }

    #[test]
    fn small_load_flows_earlier_than_under_fifo() {
        // A big slow load and a small one released together: round-robin
        // lets the small load finish long before the big one, FIFO makes
        // it wait for the whole first installment.
        let platform = Platform::from_speeds(&[1.0, 1.0]).unwrap();
        let loads = [
            LoadSpec::immediate(100.0, 1.0).unwrap(),
            LoadSpec::immediate(2.0, 1.0).unwrap(),
        ];
        let rr = rr(&platform, &loads, &config(50)).unwrap();
        let fifo = crate::schedule(
            &platform,
            &loads,
            &crate::PolicyConfig::default(),
            &crate::ScheduleOptions::default(),
        )
        .unwrap();
        assert!(
            rr.report.per_load[1].finish < fifo.report.per_load[1].finish,
            "rr {} !< fifo {}",
            rr.report.per_load[1].finish,
            fifo.report.per_load[1].finish
        );
    }

    #[test]
    fn conservation_of_data_volume() {
        let platform = Platform::from_speeds(&[1.0, 2.0, 4.0]).unwrap();
        let loads = [
            LoadSpec::immediate(30.0, 2.0).unwrap(),
            LoadSpec::new(12.0, 1.0, 1.0).unwrap(),
        ];
        let out = rr(&platform, &loads, &config(8)).unwrap();
        let shipped: f64 = out.comm_volume.iter().sum();
        let total: f64 = loads.iter().map(|l| l.size).sum();
        assert!((shipped - total).abs() < 1e-9 * total);
    }

    #[test]
    fn last_chunk_absorbs_the_rounding_remainder() {
        // Regression: chunks used to all carry `size / c`, so the intended
        // chunk data summed to `c · fl(size/c) ≠ size`. With the remainder
        // on the last chunk, `(c−1)·fl(size/c) + last == size` *bitwise*
        // (the subtraction is exact by Sterbenz's lemma), even for sizes
        // and counts whose division is maximally inexact.
        let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        for &size in &[0.1, 1.0 / 3.0, 977.77, 1e-3] {
            for &chunks in &[2usize, 3, 7, 997] {
                let load = LoadSpec::immediate(size, 1.5).unwrap();
                let out = rr(&platform, &[load], &config(chunks)).unwrap();
                let body = size / chunks as f64;
                let last = out.chunk_log.last().unwrap().data;
                assert_eq!(body * (chunks - 1) as f64 + last, size);
                // And the executed log drifts only by summation rounding.
                let shipped: f64 = out.chunk_log.iter().map(|c| c.data).sum();
                let tol = 4.0 * chunks as f64 * f64::EPSILON * size;
                assert!((shipped - size).abs() <= tol, "{shipped} vs {size}");
            }
        }
    }

    #[test]
    fn zero_chunks_rejected() {
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        let loads = [LoadSpec::immediate(1.0, 1.0).unwrap()];
        assert!(matches!(
            rr(&platform, &loads, &config(0)),
            Err(MultiLoadError::ZeroChunks)
        ));
    }

    #[test]
    fn mismatched_alone_slice_is_a_typed_error_not_a_panic() {
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        let loads = [
            LoadSpec::immediate(1.0, 1.0).unwrap(),
            LoadSpec::immediate(2.0, 1.0).unwrap(),
        ];
        assert!(matches!(
            round_robin_schedule(&platform, &loads, &config(2), &[1.0]),
            Err(MultiLoadError::AloneLengthMismatch { loads: 2, alone: 1 })
        ));
    }

    #[test]
    fn linear_makespan_never_below_single_round_optimum() {
        // For linear loads with communication counted, the equal-finish
        // single-round makespan is the fractional optimum, so no chunked
        // dispatch can beat it.
        let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        let loads = [
            LoadSpec::immediate(16.0, 1.0).unwrap(),
            LoadSpec::immediate(16.0, 1.0).unwrap(),
        ];
        let cfg = MultiLoadConfig {
            chunks_per_load: 16,
            include_comm: true,
        };
        let out = rr(&platform, &loads, &cfg).unwrap();
        let alone = loads[0].alone_makespan(&platform).unwrap();
        assert!(out.report.makespan() >= alone - 1e-9);
    }

    #[test]
    fn chunking_superlinear_loads_shrinks_work() {
        // The paper's Section 2 arithmetic, seen from the other side: a
        // super-linear load cut into k chunks represents k·(N/k)^α =
        // N^α/k^{α-1} work, so the round-robin executor can finish sooner
        // than the single-round "alone" makespan. This is a property of
        // the cost model, not a scheduling free lunch — the *installment*
        // (FIFO) path is what reproduces the single-round solvers.
        let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        let load = LoadSpec::immediate(16.0, 2.0).unwrap();
        let out = rr(&platform, &[load], &config(16)).unwrap();
        assert!(out.report.makespan() < load.alone_makespan(&platform).unwrap());
    }

    #[test]
    fn alone_makespan_is_solver_value() {
        let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        let load = LoadSpec::immediate(10.0, 2.0).unwrap();
        let out = rr(&platform, &[load], &config(4)).unwrap();
        let direct = nonlinear::equal_finish_parallel(&platform, 10.0, 2.0)
            .unwrap()
            .makespan;
        assert_eq!(out.report.per_load[0].alone, direct);
    }
}
