//! Demand-driven execution: the "MapReduce-style" dynamic load balancing
//! of Section 4.
//!
//! The computation domain is cut into equal tasks ahead of time; whenever a
//! worker becomes free it grabs the next task from the master's queue. The
//! paper's `Commhom` and `Commhom/k` strategies are built on this executor:
//! faster processors naturally grab more blocks, and the *load imbalance*
//! `e = (tmax − tmin)/tmin` of the resulting run decides whether the block
//! size must be refined.

use dlt_platform::Platform;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One task of the demand queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandTask {
    /// Data units the master ships to whichever worker takes the task.
    pub data: f64,
    /// Work units the worker must execute.
    pub work: f64,
}

impl DemandTask {
    /// Convenience constructor.
    pub fn new(data: f64, work: f64) -> Self {
        Self { data, work }
    }
}

/// Configuration of the demand-driven executor. Tasks are always handed
/// out in queue order (what Hadoop's input splits give you).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DemandConfig {
    /// When true, the time a worker occupies per task includes the transfer
    /// `c_i · data`; when false (the paper's accounting) only computation
    /// counts toward finish times and the transfer is tracked as volume
    /// only.
    pub include_comm: bool,
}

/// Outcome of a demand-driven run.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandReport {
    /// For each worker, the indices (into the input task slice) it executed,
    /// in execution order.
    pub assignments: Vec<Vec<usize>>,
    /// Instant each worker became idle for good (0 for workers that never
    /// received a task).
    pub finish_times: Vec<f64>,
    /// Data units shipped to each worker (no reuse: every task's data is
    /// counted, matching the paper's redundancy accounting).
    pub comm_volume: Vec<f64>,
}

impl DemandReport {
    /// Largest finish time.
    pub fn tmax(&self) -> f64 {
        self.finish_times.iter().copied().fold(0.0, f64::max)
    }

    /// Smallest finish time (including idle workers, as in the paper's
    /// definition over "the platform").
    pub fn tmin(&self) -> f64 {
        self.finish_times
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Load imbalance `e = (tmax − tmin)/tmin` over **all** workers of the
    /// platform, idle ones included.
    ///
    /// Convention (deliberate, and relied upon by the `Commhom/k`
    /// refinement loop): a worker that never received a task keeps
    /// `finish_time = 0`, so `tmin = 0` and the imbalance is **`+∞`**
    /// whenever at least one worker computed something while another sat
    /// idle. An infinite imbalance can never satisfy the refinement target
    /// `e ≤ 1%`, which forces `Commhom/k` to keep splitting blocks until
    /// every worker participates — exactly the paper's intent of measuring
    /// imbalance "over the platform", not over the busy subset. When *no*
    /// worker computed anything (empty task list) the run is trivially
    /// balanced and the imbalance is `0`.
    ///
    /// The convention is independent of [`DemandConfig::include_comm`]:
    /// with communication counted, an assigned worker's finish time is
    /// strictly positive as long as the task has positive data or work, so
    /// idle workers are still the only source of `tmin = 0`.
    pub fn imbalance(&self) -> f64 {
        crate::metrics::imbalance(&self.finish_times)
    }

    /// Total communication volume `Σ_i comm_volume[i]`.
    pub fn total_comm(&self) -> f64 {
        self.comm_volume.iter().sum()
    }

    /// Number of tasks each worker executed.
    pub fn task_counts(&self) -> Vec<usize> {
        self.assignments.iter().map(Vec::len).collect()
    }
}

/// Time worker `w` is occupied by `task` under `config`: compute time,
/// plus the transfer time when [`DemandConfig::include_comm`] is set.
///
/// Public because downstream schedulers built on the same free-worker
/// machinery (e.g. `dlt-multiload`'s round-robin chunk dispatcher) must
/// use **this exact arithmetic** — operation order included — to stay
/// bit-identical with [`simulate_demand`] on equivalent task streams.
#[inline]
pub fn occupancy(platform: &Platform, w: usize, task: DemandTask, config: DemandConfig) -> f64 {
    let worker = platform.worker(w);
    let mut busy = worker.compute_time(task.work);
    if config.include_comm {
        busy += worker.comm_time(task.data);
    }
    busy
}

/// Runs the demand-driven executor.
///
/// Workers start free at time 0. At every step the earliest-free worker
/// (ties broken by id, so runs are deterministic) takes the next task and
/// holds it for `work/s_i` time units (plus `c_i · data` when
/// `config.include_comm` is set).
///
/// The earliest-free worker is maintained in a binary min-heap keyed on
/// `(free_time, worker id)`, so dispatching `T` tasks over `p` workers
/// costs `O(T log p)` instead of the `O(T·p)` of the naive per-task scan
/// (see the `hotpaths` bench). [`simulate_demand_reference`] keeps the
/// linear scan as the executable specification; both produce bit-identical
/// reports.
///
/// This is the executor for explicit task slices. A queue of `count`
/// copies of one task — the `Commhom` blocks behind Figure 4 — goes
/// through [`simulate_demand_identical`], which reproduces this function's
/// per-worker results bit for bit in `O(p)` memory.
pub fn simulate_demand(
    platform: &Platform,
    tasks: &[DemandTask],
    config: DemandConfig,
) -> DemandReport {
    let p = platform.len();

    // Min-heap of (free_time, worker id).
    let mut heap: BinaryHeap<Reverse<(OrdF64, usize)>> = BinaryHeap::with_capacity(p + 1);
    heap.extend((0..p).map(|w| Reverse((OrdF64(0.0), w))));
    let mut assignments = vec![Vec::new(); p];
    let mut finish = vec![0.0f64; p];
    let mut volume = vec![0.0f64; p];

    for (idx, &task) in tasks.iter().enumerate() {
        debug_assert!(task.data >= 0.0 && task.work >= 0.0);
        let Reverse((OrdF64(free), w)) = heap.pop().expect("heap holds every worker");
        let done = free + occupancy(platform, w, task, config);
        assignments[w].push(idx);
        finish[w] = done;
        volume[w] += task.data;
        heap.push(Reverse((OrdF64(done), w)));
    }

    DemandReport {
        assignments,
        finish_times: finish,
        comm_volume: volume,
    }
}

/// Per-worker outcome of [`simulate_demand_identical`]: a
/// [`DemandReport`] without the per-task assignment lists.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandCounts {
    /// Number of tasks each worker executed.
    pub counts: Vec<usize>,
    /// Instant each worker became idle for good (0 for workers that never
    /// received a task).
    pub finish_times: Vec<f64>,
    /// Data units shipped to each worker.
    pub comm_volume: Vec<f64>,
}

impl DemandCounts {
    /// Load imbalance over all workers, idle ones included (see
    /// [`DemandReport::imbalance`] for the convention).
    pub fn imbalance(&self) -> f64 {
        crate::metrics::imbalance(&self.finish_times)
    }

    /// Total communication volume `Σ_i comm_volume[i]`.
    pub fn total_comm(&self) -> f64 {
        self.comm_volume.iter().sum()
    }
}

/// [`simulate_demand`] on a queue of `count` copies of `task` (under
/// [`DemandConfig::default`]), without building the queue: the per-worker
/// counts, finish times and volumes are bit-identical to
/// `simulate_demand(platform, &vec![task; count], DemandConfig::default())`,
/// in `O(p)` memory instead of `O(count)`.
///
/// With every task the same, worker `w`'s free times form a chain
/// `F_w(0) = 0`, `F_w(j + 1) = F_w(j) + occ_w`, and the heap pops the
/// `count` smallest `(F_w(j), w)` of the merged chains. Most of that prefix
/// is known in advance: the last task is popped no earlier than about
/// `t = (count − p) / Σ 1/occ_w`, and every worker takes all its chain
/// entries below `t`, `⌊t/occ_w⌋` of them. So each chain is first advanced
/// by that head start — by the heap's own repeated additions, never
/// `j · occ_w`, which differs in ulps — and a `p`-entry heap of chain heads
/// pops the few remaining tasks. The result is exact when every worker's
/// last popped key sorts before the smallest remaining head; when it does
/// not, the head start is dropped and the heap runs from zero, so
/// exactness never rests on the estimate. Zero or non-finite occupancies
/// take no head start at all.
///
/// Costs `O(count)` additions plus `O(p log p)` heap operations.
pub fn simulate_demand_identical(
    platform: &Platform,
    task: DemandTask,
    count: usize,
) -> DemandCounts {
    debug_assert!(task.data >= 0.0 && task.work >= 0.0);
    let occ: Vec<f64> = (0..platform.len())
        .map(|w| occupancy(platform, w, task, DemandConfig::default()))
        .collect();
    let start = head_start(&occ, count);
    dispatch_chains(&occ, task.data, count, &start)
}

/// Tasks each worker surely takes: `⌊t/occ_w⌋` for a lower bound `t` on
/// the key of the last task popped, shaved by `2p` tasks and a relative
/// 1e-9 against rounding in the chains; none when some occupancy is zero
/// or non-finite (a zero-time worker takes every task it can, and no
/// horizon bounds it).
fn head_start(occ: &[f64], count: usize) -> Vec<usize> {
    let p = occ.len();
    if count <= 2 * p || !occ.iter().all(|&o| o > 0.0 && o.is_finite()) {
        return vec![0; p];
    }
    let rate: f64 = occ.iter().map(|&o| 1.0 / o).sum();
    let horizon = (count - 2 * p) as f64 / rate * (1.0 - 1e-9);
    occ.iter()
        .map(|&o| (horizon / o).floor() as usize)
        .collect()
}

/// Dispatches `count` identical tasks over workers with occupancies `occ`,
/// each chain advanced by `start[w]` tasks before the heap takes over.
/// Any `start` gives the heap's result: one that is not a prefix of the
/// heap's pop order fails the final check and is replaced by a run from
/// zero. A nonzero `start` needs positive, finite occupancies, so that no
/// chain decreases and the heap's order is the merge of the chains.
fn dispatch_chains(occ: &[f64], data: f64, count: usize, start: &[usize]) -> DemandCounts {
    let head_started = start.iter().any(|&c| c > 0);
    debug_assert!(!head_started || occ.iter().all(|&o| o > 0.0 && o.is_finite()));
    let fits = start
        .iter()
        .try_fold(0usize, |acc, &c| acc.checked_add(c))
        .is_some_and(|total| total <= count);
    if head_started && fits {
        let mut chains = FreeChains::advanced(occ, start);
        if chains.fill(occ, count) {
            return chains.counts(data);
        }
    }
    // From zero the fill is the heap itself, exact whatever its check
    // says (under absorption, `x + occ == x`, a worker's last key can tie
    // its own head, which the strict check rejects).
    let mut chains = FreeChains::advanced(occ, &vec![0; occ.len()]);
    chains.fill(occ, count);
    chains.counts(data)
}

/// Every worker's position on its free-time chain.
struct FreeChains {
    /// Tasks taken: `n_w`.
    taken: Vec<usize>,
    /// Key of the last task popped, `F_w(n_w − 1)` (0 while `n_w = 0`).
    last: Vec<f64>,
    /// Chain head `F_w(n_w)`: the worker's next free time.
    free: Vec<f64>,
}

impl FreeChains {
    /// Each chain advanced by `start[w]` additions of `occ[w]`.
    fn advanced(occ: &[f64], start: &[usize]) -> Self {
        let p = occ.len();
        let mut last = vec![0.0; p];
        let mut free = vec![0.0; p];
        for (((last, free), &o), &steps) in last.iter_mut().zip(&mut free).zip(occ).zip(start) {
            if steps > 0 {
                let mut f = 0.0;
                for _ in 1..steps {
                    f += o;
                }
                *last = f;
                *free = f + o;
            }
        }
        FreeChains {
            taken: start.to_vec(),
            last,
            free,
        }
    }

    /// Pops chain heads in [`simulate_demand`]'s order until `count` tasks
    /// are taken, then checks that the taken tasks are the heap's first
    /// `count`: every worker's last popped key must sort before the
    /// smallest remaining head. Returns whether the check holds.
    fn fill(&mut self, occ: &[f64], count: usize) -> bool {
        let mut heap: BinaryHeap<Reverse<(OrdF64, usize)>> = self
            .free
            .iter()
            .enumerate()
            .map(|(w, &f)| Reverse((OrdF64(f), w)))
            .collect();
        for _ in self.taken.iter().sum::<usize>()..count {
            let mut top = heap.peek_mut().expect("a platform has at least one worker");
            let Reverse((OrdF64(free), w)) = *top;
            let done = free + occ[w];
            self.last[w] = free;
            self.free[w] = done;
            self.taken[w] += 1;
            *top = Reverse((OrdF64(done), w));
        }
        let Reverse(min_head) = *heap.peek().expect("a platform has at least one worker");
        (0..occ.len())
            .filter(|&w| self.taken[w] > 0)
            .all(|w| (OrdF64(self.last[w]), w) < min_head)
    }

    /// The per-worker report. Volumes accumulate `data` by repeated
    /// addition, like the heap's `volume[w] += task.data`; that sum
    /// depends only on the count, so one running sum, walked in order of
    /// count, serves every worker.
    fn counts(self, data: f64) -> DemandCounts {
        let mut by_count: Vec<usize> = (0..self.taken.len()).collect();
        by_count.sort_unstable_by_key(|&w| self.taken[w]);
        let mut comm_volume = vec![0.0; self.taken.len()];
        let (mut added, mut volume) = (0, 0.0);
        for w in by_count {
            for _ in added..self.taken[w] {
                volume += data;
            }
            added = self.taken[w];
            comm_volume[w] = volume;
        }
        DemandCounts {
            counts: self.taken,
            finish_times: self.free,
            comm_volume,
        }
    }
}

/// Executable specification of [`simulate_demand`]: the original
/// linear-scan dispatcher that re-scans the whole worker pool for every
/// task (`O(T·p)`).
///
/// Kept for two jobs:
///
/// * **oracle** — the property tests assert the heap scheduler matches
///   this implementation bit for bit on random task/worker sets, including
///   free-time ties (both resolve ties toward the smallest worker id);
/// * **baseline** — the `hotpaths` bench measures the heap's speedup
///   against it, recorded in `BENCH_hotpaths.json`.
///
/// Use [`simulate_demand`] everywhere else; at Figure 4 scale this version
/// is an order of magnitude slower.
pub fn simulate_demand_reference(
    platform: &Platform,
    tasks: &[DemandTask],
    config: DemandConfig,
) -> DemandReport {
    let p = platform.len();
    let mut free = vec![0.0f64; p];
    let mut assignments = vec![Vec::new(); p];
    let mut volume = vec![0.0f64; p];

    for (idx, &task) in tasks.iter().enumerate() {
        debug_assert!(task.data >= 0.0 && task.work >= 0.0);
        // Earliest-free worker, smallest id on ties: strict `<` over the
        // same total order the heap uses.
        let mut w = 0;
        for cand in 1..p {
            if free[cand].total_cmp(&free[w]) == std::cmp::Ordering::Less {
                w = cand;
            }
        }
        free[w] += occupancy(platform, w, task, config);
        assignments[w].push(idx);
        volume[w] += task.data;
    }

    // A worker that never computed keeps finish time 0, like the heap path.
    DemandReport {
        assignments,
        finish_times: free,
        comm_volume: volume,
    }
}

/// Total order on finite f64 for the scheduler heap (via
/// [`f64::total_cmp`]).
///
/// Public for downstream schedulers that must replicate the heap's
/// `(free_time, worker id)` tie-breaking exactly (see
/// `dlt-multiload`); sharing the type keeps the total order a single
/// definition instead of two copies that could drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_tasks(n: usize, data: f64, work: f64) -> Vec<DemandTask> {
        vec![DemandTask::new(data, work); n]
    }

    #[test]
    fn homogeneous_platform_splits_evenly() {
        let platform = Platform::homogeneous(4, 1.0, 1.0).unwrap();
        let tasks = uniform_tasks(8, 1.0, 1.0);
        let r = simulate_demand(&platform, &tasks, DemandConfig::default());
        assert_eq!(r.task_counts(), vec![2, 2, 2, 2]);
        assert!(r.imbalance() < 1e-12);
        assert_eq!(r.total_comm(), 8.0);
    }

    #[test]
    fn fast_worker_gets_proportionally_more() {
        // Speeds 1 and 3: out of 8 unit tasks, expect ~2 vs ~6.
        let platform = Platform::from_speeds(&[1.0, 3.0]).unwrap();
        let tasks = uniform_tasks(8, 1.0, 1.0);
        let r = simulate_demand(&platform, &tasks, DemandConfig::default());
        assert_eq!(r.task_counts().iter().sum::<usize>(), 8);
        assert!(r.task_counts()[1] > r.task_counts()[0]);
        assert!(r.task_counts()[1] >= 5, "counts {:?}", r.task_counts());
    }

    #[test]
    fn deterministic_tie_breaking() {
        let platform = Platform::homogeneous(3, 1.0, 1.0).unwrap();
        let tasks = uniform_tasks(5, 1.0, 1.0);
        let a = simulate_demand(&platform, &tasks, DemandConfig::default());
        let b = simulate_demand(&platform, &tasks, DemandConfig::default());
        assert_eq!(a, b);
        // First three tasks go to workers 0, 1, 2 in order.
        assert_eq!(a.assignments[0][0], 0);
        assert_eq!(a.assignments[1][0], 1);
        assert_eq!(a.assignments[2][0], 2);
    }

    #[test]
    fn idle_worker_makes_imbalance_infinite() {
        let platform = Platform::homogeneous(3, 1.0, 1.0).unwrap();
        let tasks = uniform_tasks(2, 1.0, 1.0);
        let r = simulate_demand(&platform, &tasks, DemandConfig::default());
        assert_eq!(r.tmin(), 0.0);
        assert!(r.imbalance().is_infinite());
    }

    #[test]
    fn idle_worker_is_infinite_with_include_comm_too() {
        // The documented convention holds on the include_comm accounting
        // path: communication lengthens busy workers' finish times but an
        // unassigned worker still pins tmin at 0.
        let platform = Platform::from_speeds_and_costs(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]).unwrap();
        let config = DemandConfig { include_comm: true };
        let r = simulate_demand(&platform, &uniform_tasks(2, 3.0, 4.0), config);
        assert_eq!(r.tmin(), 0.0);
        assert!(r.imbalance().is_infinite());
        // Once every worker holds a task the imbalance is finite again.
        let full = simulate_demand(&platform, &uniform_tasks(3, 3.0, 4.0), config);
        assert_eq!(full.imbalance(), 0.0);
    }

    #[test]
    fn reference_matches_heap_including_ties() {
        // Homogeneous platform + identical tasks: every dispatch decision
        // is a free-time tie, the harshest determinism test.
        let platform = Platform::homogeneous(4, 1.0, 1.0).unwrap();
        let tasks = uniform_tasks(13, 1.0, 1.0);
        for config in [DemandConfig::default(), DemandConfig { include_comm: true }] {
            let heap = simulate_demand(&platform, &tasks, config);
            let linear = simulate_demand_reference(&platform, &tasks, config);
            assert_eq!(heap, linear, "config {config:?}");
        }
    }

    #[test]
    fn reference_matches_heap_on_heterogeneous_speeds() {
        let platform = Platform::from_speeds(&[1.0, 1.7, 2.3, 3.1, 0.4]).unwrap();
        let tasks: Vec<DemandTask> = (0..40)
            .map(|i| DemandTask::new((i % 5) as f64, 1.0 + (i % 7) as f64))
            .collect();
        let heap = simulate_demand(&platform, &tasks, DemandConfig::default());
        let linear = simulate_demand_reference(&platform, &tasks, DemandConfig::default());
        assert_eq!(heap, linear);
    }

    #[test]
    fn include_comm_lengthens_occupancy() {
        let platform = Platform::from_speeds_and_costs(&[1.0], &[2.0]).unwrap();
        let tasks = uniform_tasks(1, 3.0, 4.0);
        let without = simulate_demand(&platform, &tasks, DemandConfig::default());
        let with = simulate_demand(&platform, &tasks, DemandConfig { include_comm: true });
        assert_eq!(without.tmax(), 4.0);
        assert_eq!(with.tmax(), 4.0 + 6.0);
    }

    #[test]
    fn comm_volume_counts_every_assignment() {
        let platform = Platform::from_speeds(&[1.0, 1.0]).unwrap();
        let tasks = uniform_tasks(4, 2.5, 1.0);
        let r = simulate_demand(&platform, &tasks, DemandConfig::default());
        assert_eq!(r.total_comm(), 10.0);
    }

    #[test]
    fn heap_is_round_robin_on_homogeneous_identical_tasks() {
        // Identical tasks + identical occupancies: every decision is a
        // free-time tie broken by worker id, so the heap deals the tasks
        // out round-robin, bit-identical to the linear-scan reference.
        let platform = Platform::homogeneous(3, 1.5, 0.5).unwrap();
        for count in [1usize, 2, 3, 7, 100] {
            for config in [DemandConfig::default(), DemandConfig { include_comm: true }] {
                let tasks = uniform_tasks(count, 2.5, 3.25);
                let heap = simulate_demand(&platform, &tasks, config);
                let reference = simulate_demand_reference(&platform, &tasks, config);
                assert_eq!(heap, reference, "count {count} config {config:?}");
                for (w, assigned) in heap.assignments.iter().enumerate() {
                    for (k, &idx) in assigned.iter().enumerate() {
                        assert_eq!(idx, w + k * platform.len());
                    }
                }
            }
        }
    }

    #[test]
    fn heap_matches_reference_on_heterogeneous_occupancies() {
        // Identical tasks but distinct speeds: the fast worker takes more
        // than a round-robin share.
        let platform = Platform::from_speeds(&[1.0, 4.0]).unwrap();
        let tasks = uniform_tasks(10, 1.0, 1.0);
        let r = simulate_demand(&platform, &tasks, DemandConfig::default());
        assert_eq!(
            r,
            simulate_demand_reference(&platform, &tasks, DemandConfig::default())
        );
        assert!(r.task_counts()[1] > r.task_counts()[0]);
    }

    #[test]
    fn zero_occupancy_tasks_all_land_on_worker_zero() {
        // With occ = 0 the heap re-pops the same worker (it keeps winning
        // the free-time/id tie): worker 0 takes everything, like the
        // reference, and not a round-robin share.
        let platform = Platform::homogeneous(2, 1.0, 1.0).unwrap();
        let tasks = uniform_tasks(4, 1.0, 0.0);
        let heap = simulate_demand(&platform, &tasks, DemandConfig::default());
        let linear = simulate_demand_reference(&platform, &tasks, DemandConfig::default());
        assert_eq!(heap, linear);
        assert_eq!(heap.assignments[0], vec![0, 1, 2, 3]);
        assert_eq!(heap.comm_volume, vec![4.0, 0.0]);
        let identical = simulate_demand_identical(&platform, DemandTask::new(1.0, 0.0), 4);
        assert_eq!(identical.counts, vec![4, 0]);
        assert_eq!(identical.comm_volume, vec![4.0, 0.0]);
    }

    #[test]
    fn heap_matches_reference_on_mixed_tasks() {
        let platform = Platform::homogeneous(2, 1.0, 1.0).unwrap();
        let mut tasks = uniform_tasks(5, 1.0, 1.0);
        tasks.push(DemandTask::new(1.0, 9.0));
        let r = simulate_demand(&platform, &tasks, DemandConfig::default());
        assert_eq!(
            r,
            simulate_demand_reference(&platform, &tasks, DemandConfig::default())
        );
    }

    /// Bitwise comparison of the identical-task dispatcher against the
    /// linear-scan reference on the materialised queue.
    fn assert_identical_matches_reference(
        platform: &Platform,
        got: &DemandCounts,
        task: DemandTask,
        count: usize,
    ) {
        let want = simulate_demand_reference(platform, &vec![task; count], DemandConfig::default());
        assert_eq!(got.counts, want.task_counts(), "count {count}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.finish_times), bits(&want.finish_times));
        assert_eq!(bits(&got.comm_volume), bits(&want.comm_volume));
    }

    fn occupancies(platform: &Platform, task: DemandTask) -> Vec<f64> {
        (0..platform.len())
            .map(|w| occupancy(platform, w, task, DemandConfig::default()))
            .collect()
    }

    #[test]
    fn identical_dispatch_matches_reference() {
        let platform = Platform::from_speeds(&[1.0, 1.7, 2.3, 3.1, 0.4]).unwrap();
        let task = DemandTask::new(0.3, 1.1);
        for count in [0usize, 1, 4, 5, 6, 10, 11, 57, 1_000, 4_321] {
            let got = simulate_demand_identical(&platform, task, count);
            assert_identical_matches_reference(&platform, &got, task, count);
        }
    }

    #[test]
    fn head_start_estimate_is_a_prefix_of_the_heap_order() {
        // The estimate must hold on an ordinary instance, or every call
        // would silently pay for the run from zero.
        let platform = Platform::from_speeds(&[1.0, 1.7, 2.3, 3.1, 0.4]).unwrap();
        let task = DemandTask::new(0.3, 1.1);
        let occ = occupancies(&platform, task);
        let start = head_start(&occ, 10_000);
        assert!(start.iter().sum::<usize>() > 9_000, "start {start:?}");
        assert!(FreeChains::advanced(&occ, &start).fill(&occ, 10_000));
    }

    #[test]
    fn overshooting_head_start_falls_back_to_the_heap() {
        let platform = Platform::from_speeds(&[1.0, 1.7, 2.3, 3.1, 0.4]).unwrap();
        let task = DemandTask::new(0.3, 1.1);
        let occ = occupancies(&platform, task);
        let count = 1_000;
        let start = head_start(&occ, count);
        let mut overshoot = start.clone();
        overshoot[4] += 40; // the slowest worker runs far past the horizon
        assert!(!FreeChains::advanced(&occ, &overshoot).fill(&occ, count));
        for bad in [overshoot, vec![count, 0, 0, 0, 0], vec![count; 5]] {
            let got = dispatch_chains(&occ, task.data, count, &bad);
            assert_identical_matches_reference(&platform, &got, task, count);
        }
        // An undershooting start is a valid prefix and is kept.
        let under: Vec<usize> = start.iter().map(|&c| c / 2).collect();
        assert!(FreeChains::advanced(&occ, &under).fill(&occ, count));
        let got = dispatch_chains(&occ, task.data, count, &under);
        assert_identical_matches_reference(&platform, &got, task, count);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let platform = Platform::homogeneous(2, 1.0, 1.0).unwrap();
        let r = simulate_demand(&platform, &[], DemandConfig::default());
        assert_eq!(r.task_counts(), vec![0, 0]);
        assert_eq!(r.tmax(), 0.0);
    }
}
