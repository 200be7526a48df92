//! The admission-policy subsystem and the **batch entry points**: a
//! generalized installment scheduler in which *which load the platform
//! serves next* is a pluggable [`AdmissionOrder`] (FIFO, SRPT, weighted
//! stretch), and loads may be **preempted between installments**. Loads
//! are revealed at their release times: no decision sees a future
//! arrival.
//!
//! The paper's no-free-lunch result makes the policy dimension
//! interesting: an `α > 1` load's cost is `w_i · x^α`, so *when* and *in
//! how many pieces* a load is served changes both its flow time and the
//! total work the platform performs. This module factors the policy out:
//!
//! * [`AdmissionOrder`] ranks the loads competing for the platform —
//!   [`AdmissionOrder::Fifo`] by release time, [`AdmissionOrder::Srpt`] by
//!   the remaining-work estimate `R_j^{α_j} / Σ s_i`, and
//!   [`AdmissionOrder::WeightedStretch`] by the stretch the load would
//!   reach if served next (largest first).
//! * [`PolicyConfig::installments`] cuts each load into `k` equal-data
//!   installments. With `k = 1` the scheduler is non-preemptive; with
//!   `k > 1` the admission order is re-evaluated at every installment
//!   boundary, so a running load is **paused** whenever a
//!   higher-priority load (e.g. a freshly released short one under SRPT)
//!   overtakes it. Per-load remaining sizes are tracked exactly: the last
//!   installment takes *all* remaining data, so each load is conserved
//!   bit for bit.
//! * [`ScheduleOptions`] adds an optional [`FailureTrace`] and optional
//!   precomputed stretch denominators.
//!
//! [`schedule`] runs the batch through the service engine of
//! [`crate::service`] at window 1 with its indexed pending set;
//! [`schedule_reference`] runs the same engine with the linear-rescan
//! selector that recomputes every priority key (one `powf` per candidate)
//! at every decision. The two are property-tested **bit-identical**, and
//! the `hotpaths` bench group tracks the speedup. Every installment is
//! one equal-finish solve of the lanes kernel, through one
//! [`BatchSolver`] handle whose **first** solve is cold, so a batch of one
//! immediate load with `installments = 1` reproduces the single-load
//! solver bit for bit; FIFO with `installments = 1` is the classical
//! first-come-first-served scheduler, each load served whole in one
//! optimal single round.
//!
//! Stretch accounting: the stretch denominator of a `k`-installment
//! schedule is the load's makespan alone on the platform *at the same
//! granularity* ([`alone_makespans`]) — `Σ` of its `k` installment
//! solves back to back. Comparing a chunked execution against the
//! single-round alone time would let `α > 1` loads show stretches below 1
//! purely because splitting shrinks total work (`k · (N/k)^α =
//! N^α / k^{α-1}`, the Section-2 arithmetic); against the
//! granularity-matched denominator, every policy schedule has stretch
//! ≥ 1.

use crate::error::MultiLoadError;
use crate::failure::{FailureTrace, ServedPiece};
use crate::load::{release_order, validate_batch, LoadSpec};
use crate::metrics::{LoadMetrics, MultiLoadReport};
use crate::service::{CompletedLoad, InstallmentPolicy, ServiceConfig};
use dlt_core::batch::BatchSolver;
use dlt_core::costmodel::{CostLaw, CostModel};
use dlt_core::nonlinear;
use dlt_platform::Platform;
use dlt_sim::OrdF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which pending load the platform serves next, re-evaluated at every
/// installment boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOrder {
    /// Earliest release first (ties by batch index) — the classical
    /// first-come-first-served order.
    Fifo,
    /// Shortest remaining processing time first: smallest remaining-work
    /// estimate `R_j^{α_j} / Σ s_i` (remaining data `R_j` through the
    /// load's own cost exponent, normalized by the aggregate platform
    /// speed). The classical mean-flow heuristic, here priced with the
    /// α-power cost model.
    Srpt,
    /// Most-stretched first: serve the load whose stretch, were it served
    /// next to completion, would be largest — `(waited + estimate) /
    /// alone`. Targets the max-stretch objective instead of mean flow.
    WeightedStretch,
}

impl AdmissionOrder {
    /// Every variant, in sweep order — what the experiment runners and
    /// smoke tests iterate over.
    pub const ALL: [AdmissionOrder; 3] = [Self::Fifo, Self::Srpt, Self::WeightedStretch];

    /// Short name used in tables and CSV columns.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Fifo => "fifo",
            Self::Srpt => "srpt",
            Self::WeightedStretch => "weighted_stretch",
        }
    }

    /// Priority key of one candidate load: **smaller is served first**,
    /// ties broken by batch index. `work_est` is the remaining-work
    /// estimate `R^α / Σ s_i`; every engine — including the service
    /// engine's pending set — must feed the identically computed values so
    /// their keys (and therefore their schedules) agree bit for bit.
    pub(crate) fn key(&self, release: f64, work_est: f64, alone: f64, now: f64) -> f64 {
        match self {
            Self::Fifo => release,
            Self::Srpt => work_est,
            // Negated: the *largest* urgency is served first.
            Self::WeightedStretch => -(((now - release).max(0.0) + work_est) / alone),
        }
    }

    /// Whether the key depends on the decision instant `now`. Static-key
    /// orders (FIFO, SRPT) can live in a priority heap between decisions;
    /// a time-varying key (weighted stretch) must be re-evaluated lazily
    /// at every decision ([`crate::event_queue::PendingSet`]).
    pub(crate) fn key_is_static(&self) -> bool {
        !matches!(self, Self::WeightedStretch)
    }
}

/// Tuning knobs of the policy scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Admission order re-evaluated at every installment boundary.
    pub order: AdmissionOrder,
    /// Number of equal-data installments each load is cut into (≥ 1).
    /// `1` is non-preemptive; larger values let higher-priority arrivals
    /// pause a running load between installments, at the cost-model price
    /// of `k · (N/k)^α` total work per load.
    pub installments: usize,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            order: AdmissionOrder::Fifo,
            installments: 1,
        }
    }
}

/// The choices of a batch schedule beyond its [`PolicyConfig`]: failure
/// trace and stretch denominators. `Default` is a failure-free run that
/// computes its own denominators.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleOptions<'a> {
    /// Worker drop-outs and slow-downs striking the run (see
    /// [`crate::failure`]); `None` is the healthy platform.
    pub failures: Option<&'a FailureTrace>,
    /// Precomputed stretch denominators, one per load, indexed like the
    /// batch. `None` computes each load's granularity-matched alone
    /// makespan at admission, in release order through one solver handle
    /// ([`alone_makespans`] gives the same bits on a release-sorted
    /// batch). Callers that run one batch under several orders compute
    /// them once; weighted stretch ranks by them, FIFO and SRPT only
    /// report them.
    pub alone: Option<&'a [f64]>,
}

/// Result of a batch schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Per-load timings and aggregates.
    pub report: MultiLoadReport,
    /// Per-load data shares summed over installments, indexed like the
    /// input batch: `shares[j][i]` data units of load `j` went to worker
    /// `i`.
    pub shares: Vec<Vec<f64>>,
    /// Per-load served pieces, indexed like the input batch, each in
    /// service order: full installments plus the retained prefixes of
    /// failure-cut ones. Replays bitwise through
    /// [`crate::replay_ledger`].
    pub pieces: Vec<Vec<ServedPiece>>,
    /// Number of installment boundaries at which a started-but-unfinished
    /// load was set aside for a different load.
    pub preemptions: usize,
    /// Number of installments cut short by a failure event (zero without
    /// a failure trace).
    pub interruptions: usize,
    /// Total data units re-queued by failure cuts (zero without a failure
    /// trace).
    pub requeued_data: f64,
}

impl PolicyOutcome {
    /// Mean flow of preemptive SRPT on one machine, with one job
    /// `(release_j, alone_j)` per load: the optimum of that problem
    /// (Schrage 1968), computed here by event simulation, no solve.
    ///
    /// It bounds this outcome's mean flow from below, up to the solver's
    /// tolerance, when `alone` holds the engine's own healthy,
    /// granularity-matched denominators (the default,
    /// [`ScheduleOptions::alone`] `= None`) and no failure trace struck
    /// the run. Then the engine serves one piece at a time on the whole
    /// platform (its window is 1), load `j`'s pieces take `alone_j` in
    /// total, and so the schedule is a preemptive single-machine schedule
    /// of those jobs. Under failures it is no bound: with `α > 1` a cut
    /// makes smaller pieces and therefore less work.
    pub fn mean_flow_lower_bound(&self) -> f64 {
        let jobs = self.report.per_load.iter().map(|m| (m.release, m.alone));
        srpt_mean_flow(jobs.collect())
    }
}

/// Mean flow of preemptive SRPT on one machine over `(release, length)`
/// jobs: an event loop over the releases that runs the shortest
/// remaining job until it completes or the next release.
fn srpt_mean_flow(mut jobs: Vec<(f64, f64)>) -> f64 {
    jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Released, unfinished jobs by remaining processing time.
    let mut ready: BinaryHeap<Reverse<(OrdF64, OrdF64)>> = BinaryHeap::new();
    let (mut now, mut flow, mut next) = (0.0f64, 0.0, 0);
    while next < jobs.len() || !ready.is_empty() {
        if ready.is_empty() {
            now = now.max(jobs[next].0);
        }
        while let Some(&(release, length)) = jobs.get(next).filter(|j| j.0 <= now) {
            ready.push(Reverse((OrdF64(length), OrdF64(release))));
            next += 1;
        }
        let Some(Reverse((OrdF64(left), OrdF64(release)))) = ready.pop() else {
            break;
        };
        let until = jobs.get(next).map_or(f64::INFINITY, |j| j.0);
        if now + left <= until {
            now += left;
            flow += now - release;
        } else {
            ready.push(Reverse((OrdF64(left - (until - now)), OrdF64(release))));
            now = until;
        }
    }
    flow / jobs.len() as f64
}

/// Size of the next installment: equal `remaining / left` cuts, except the
/// **last** installment, which takes all remaining data so each load is
/// conserved exactly (the same remainder rule as the round-robin chunk
/// queue). The engine, [`alone_makespans`] and [`crate::replay_ledger`]
/// must use this one definition for their solve sequences to agree bit
/// for bit.
#[inline]
pub(crate) fn next_installment(remaining: f64, left: usize) -> f64 {
    if left <= 1 {
        remaining
    } else {
        remaining / left as f64
    }
}

/// Remaining-work estimate of a load: `work(R) / Σ s_i` time units
/// (`R^α / Σ s_i` under the α-power law) if the whole platform's
/// aggregate speed could be thrown at the remaining data. Crude on
/// heterogeneous platforms, but monotone in `R` and cheap — and the
/// *one* definition both selectors share.
#[inline]
pub(crate) fn work_estimate(remaining: f64, model: CostLaw, speed_sum: f64) -> f64 {
    model.work(remaining) / speed_sum
}

/// Alone-on-the-platform makespan of **one** load at installment
/// granularity `installments`: `Σ` of its installment solves back to back
/// (the exact `remaining / left` size sequence). The caller threads the
/// [`BatchSolver`] handle; [`alone_makespans`] and the engine's
/// admission-time stretch denominators both go through this one
/// function, which is what keeps their solve sequences — and therefore
/// their bits — aligned.
pub(crate) fn alone_installment_makespan(
    platform: &Platform,
    load: &LoadSpec,
    installments: usize,
    config: &nonlinear::SolverConfig,
    solver: &mut BatchSolver,
) -> Result<f64, MultiLoadError> {
    let mut remaining = load.size;
    let mut total = 0.0;
    for left in (1..=installments).rev() {
        let inst = next_installment(remaining, left);
        total += solver.solve(platform, inst, load.model, config)?.makespan;
        remaining = if left == 1 { 0.0 } else { remaining - inst };
    }
    Ok(total)
}

/// Alone-on-the-platform makespans of every load **at installment
/// granularity `installments`** — the stretch denominators: load `j`
/// alone costs `Σ` of its `installments` equal-finish installment solves
/// back to back (the exact size sequence a schedule serves —
/// `remaining / left`, last installment takes all — which depends only on
/// the load, never on contention). With `installments = 1` each value is
/// the load's optimal single-round makespan
/// ([`LoadSpec::alone_makespan`]), the round-robin denominators. One
/// solver handle threads through the batch in index order, first solve
/// cold: each solve's root and shares seed the next load's. Far more
/// expensive than a dispatch on big platforms, so callers that schedule
/// the same batch repeatedly compute it **once** and pass it along.
pub fn alone_makespans(
    platform: &Platform,
    loads: &[LoadSpec],
    installments: usize,
) -> Result<Vec<f64>, MultiLoadError> {
    if installments == 0 {
        return Err(MultiLoadError::ZeroInstallments);
    }
    let config = nonlinear::SolverConfig::default();
    let mut solver = BatchSolver::default();
    loads
        .iter()
        .map(|load| alone_installment_makespan(platform, load, installments, &config, &mut solver))
        .collect()
}

/// Schedules a batch under `config` at one installment boundary per
/// decision: the service engine at window 1, fixed installments, with its
/// indexed pending set. `opts` picks the failure trace and the stretch
/// denominators ([`ScheduleOptions`]).
///
/// # Examples
///
/// ```
/// use dlt_multiload::{schedule, AdmissionOrder, LoadSpec, PolicyConfig, ScheduleOptions};
/// use dlt_platform::Platform;
///
/// let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
/// // A long load running when a short one arrives: with 4 installments
/// // SRPT pauses the long load at the next boundary.
/// let loads = [
///     LoadSpec::immediate(100.0, 1.5).unwrap(),
///     LoadSpec::new(5.0, 1.5, 1.0).unwrap(),
/// ];
/// let cfg = PolicyConfig { order: AdmissionOrder::Srpt, installments: 4 };
/// let out = schedule(&platform, &loads, &cfg, &ScheduleOptions::default()).unwrap();
/// assert!(out.preemptions >= 1);
/// assert!(out.report.per_load[1].finish < out.report.per_load[0].finish);
/// // No failure-free schedule beats preemptive SRPT on one machine.
/// let bound = out.mean_flow_lower_bound();
/// assert!(out.report.aggregate().mean_flow >= bound * (1.0 - 1e-9));
/// ```
pub fn schedule(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
    opts: &ScheduleOptions<'_>,
) -> Result<PolicyOutcome, MultiLoadError> {
    run_batch(platform, loads, config, opts, false)
}

/// Executable specification of [`schedule`]: the same engine with the
/// linear-rescan selector, which recomputes every candidate's priority
/// key at every decision. Bit-identical (property-tested).
pub fn schedule_reference(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
    opts: &ScheduleOptions<'_>,
) -> Result<PolicyOutcome, MultiLoadError> {
    run_batch(platform, loads, config, opts, true)
}

/// Shared front door of [`schedule`] and [`schedule_reference`]: feeds
/// the batch in release order with id = batch index (so key ties break
/// by batch index) and gathers the completions back into batch order.
fn run_batch(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
    opts: &ScheduleOptions<'_>,
    reference: bool,
) -> Result<PolicyOutcome, MultiLoadError> {
    validate_batch(loads)?;
    if let Some(alone) = opts.alone {
        if alone.len() != loads.len() {
            return Err(MultiLoadError::AloneLengthMismatch {
                loads: loads.len(),
                alone: alone.len(),
            });
        }
    }
    let service = ServiceConfig {
        order: config.order,
        batch: 1,
        installments: InstallmentPolicy::Fixed(config.installments),
        track_stretch: true,
    };
    let arrivals = release_order(loads)
        .into_iter()
        .map(|j| (j as u64, loads[j]));
    let mut done: Vec<CompletedLoad> = Vec::with_capacity(loads.len());
    let report = crate::service::run(platform, arrivals, &service, opts, reference, &mut done)?;
    done.sort_unstable_by_key(|c| c.id);
    let mut per_load = Vec::with_capacity(done.len());
    let mut shares = Vec::with_capacity(done.len());
    let mut pieces = Vec::with_capacity(done.len());
    for c in done {
        per_load.push(LoadMetrics {
            load: c.id as usize,
            start: c.start,
            finish: c.finish,
            release: c.spec.release,
            alone: c.alone,
            size: c.spec.size,
        });
        shares.push(c.shares);
        pieces.push(c.pieces);
    }
    Ok(PolicyOutcome {
        report: MultiLoadReport {
            per_load,
            worker_finish: report.worker_finish,
        },
        shares,
        pieces,
        preemptions: report.preemptions as usize,
        interruptions: report.interruptions as usize,
        requeued_data: report.requeued_data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(order: AdmissionOrder, installments: usize) -> PolicyConfig {
        PolicyConfig {
            order,
            installments,
        }
    }

    fn run(platform: &Platform, loads: &[LoadSpec], c: &PolicyConfig) -> PolicyOutcome {
        schedule(platform, loads, c, &ScheduleOptions::default()).unwrap()
    }

    /// FIFO, one installment per load: the classical scheduler.
    fn fifo(platform: &Platform, loads: &[LoadSpec]) -> PolicyOutcome {
        run(platform, loads, &PolicyConfig::default())
    }

    #[test]
    fn single_immediate_load_is_the_single_load_solver_bitwise() {
        let platform = Platform::from_speeds_and_costs(&[1.0, 2.5, 4.0], &[1.0, 0.5, 0.7]).unwrap();
        let loads = [LoadSpec::immediate(120.0, 2.0).unwrap()];
        let direct = nonlinear::equal_finish_parallel(&platform, 120.0, 2.0).unwrap();
        for order in AdmissionOrder::ALL {
            let out = run(&platform, &loads, &cfg(order, 1));
            assert_eq!(out.report.makespan(), direct.makespan);
            assert_eq!(out.shares[0], direct.x);
            assert_eq!(out.report.per_load[0].stretch(), 1.0);
        }
    }

    #[test]
    fn fifo_serves_loads_in_release_order() {
        let platform = Platform::from_speeds(&[1.0, 1.0]).unwrap();
        let loads = [
            LoadSpec::new(8.0, 1.0, 10.0).unwrap(),
            LoadSpec::new(8.0, 1.0, 0.0).unwrap(),
        ];
        let out = fifo(&platform, &loads);
        assert!(out.report.per_load[1].finish <= out.report.per_load[0].start + 1e-12);
        assert!(out.report.per_load[0].start >= 10.0);
        assert_eq!(out.preemptions, 0);
    }

    #[test]
    fn fifo_release_gap_leaves_platform_idle() {
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        let loads = [
            LoadSpec::new(1.0, 1.0, 0.0).unwrap(),
            LoadSpec::new(1.0, 1.0, 100.0).unwrap(),
        ];
        let out = fifo(&platform, &loads);
        assert_eq!(out.report.per_load[1].start, 100.0);
        assert!(out.report.makespan() > 100.0);
    }

    #[test]
    fn fifo_back_to_back_loads_stack_makespans() {
        let platform = Platform::from_speeds(&[1.0, 3.0]).unwrap();
        let loads = [
            LoadSpec::immediate(30.0, 1.5).unwrap(),
            LoadSpec::immediate(30.0, 1.5).unwrap(),
        ];
        let out = fifo(&platform, &loads);
        let single = loads[0].alone_makespan(&platform).unwrap();
        assert!((out.report.makespan() - 2.0 * single).abs() < 1e-9 * single);
        // Second load waits for the first: stretch 2, flow doubled.
        assert!((out.report.per_load[1].stretch() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fifo_worker_finish_derives_from_positive_shares() {
        // Regression: worker_finish used to be `vec![platform_free; p]`
        // unconditionally. It must equal the finish of each worker's last
        // positive-share installment (0 when the worker never computed).
        let platform =
            Platform::from_speeds_and_costs(&[1.0, 2.0, 0.01], &[1.0, 0.5, 50.0]).unwrap();
        let loads = [
            LoadSpec::immediate(40.0, 2.0).unwrap(),
            LoadSpec::new(10.0, 1.5, 90.0).unwrap(),
        ];
        let out = fifo(&platform, &loads);
        for w in 0..platform.len() {
            let expect = out
                .shares
                .iter()
                .enumerate()
                .filter(|(_, s)| s[w] > 0.0)
                .map(|(j, _)| out.report.per_load[j].finish)
                .fold(0.0, f64::max);
            assert_eq!(out.report.worker_finish[w], expect);
        }
        // Every worker that computed anything finishes no later than the
        // batch makespan; none is reported past it.
        let makespan = out.report.makespan();
        for &f in &out.report.worker_finish {
            assert!(f <= makespan);
        }
    }

    #[test]
    fn fifo_shares_conserve_each_load() {
        let platform = Platform::from_speeds(&[1.0, 2.0, 5.0]).unwrap();
        let loads = [
            LoadSpec::immediate(40.0, 2.0).unwrap(),
            LoadSpec::new(25.0, 1.0, 3.0).unwrap(),
        ];
        let out = fifo(&platform, &loads);
        for (j, load) in loads.iter().enumerate() {
            let total: f64 = out.shares[j].iter().sum();
            assert!((total - load.size).abs() < 1e-9 * load.size);
        }
    }

    #[test]
    fn srpt_puts_the_short_load_first() {
        let platform = Platform::from_speeds(&[1.0, 1.0]).unwrap();
        let loads = [
            LoadSpec::immediate(100.0, 1.5).unwrap(),
            LoadSpec::immediate(4.0, 1.5).unwrap(),
        ];
        let srpt = run(&platform, &loads, &cfg(AdmissionOrder::Srpt, 1));
        let fifo = run(&platform, &loads, &cfg(AdmissionOrder::Fifo, 1));
        // The short load runs first under SRPT …
        assert!(srpt.report.per_load[1].finish < srpt.report.per_load[0].start + 1e-12);
        // … and mean stretch improves over FIFO on this contended batch.
        let s = srpt.report.aggregate();
        let f = fifo.report.aggregate();
        assert!(s.mean_stretch < f.mean_stretch);
        assert!(s.mean_stretch >= 1.0 - 1e-9);
    }

    #[test]
    fn preemption_pauses_the_running_load() {
        // A long load starts; a short one arrives during its first
        // installment. With 4 installments SRPT parks the long load at
        // the boundary, serves the short one to completion, then resumes.
        let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        let loads = [
            LoadSpec::immediate(100.0, 1.5).unwrap(),
            LoadSpec::new(5.0, 1.5, 1.0).unwrap(),
        ];
        let out = run(&platform, &loads, &cfg(AdmissionOrder::Srpt, 4));
        assert!(out.preemptions >= 1);
        assert!(out.report.per_load[1].finish < out.report.per_load[0].finish);
        // The paused load still gets everything: exact conservation.
        for (j, load) in loads.iter().enumerate() {
            let shipped: f64 = out.pieces[j].iter().map(|e| e.data).sum();
            assert!((shipped - load.size).abs() < 1e-12 * load.size);
        }
        // Non-preemptive SRPT cannot pause: the short load waits, and the
        // long one starts at once, since no decision sees a future arrival.
        let np = run(&platform, &loads, &cfg(AdmissionOrder::Srpt, 1));
        assert_eq!(np.report.per_load[0].start, 0.0);
        assert_eq!(np.preemptions, 0);
        assert!(np.report.per_load[1].start >= np.report.per_load[0].finish - 1e-9);
    }

    #[test]
    fn engine_matches_reference_bitwise() {
        let platform = Platform::from_speeds_and_costs(&[1.0, 3.0, 0.7], &[1.0, 0.2, 2.0]).unwrap();
        let loads = [
            LoadSpec::new(20.0, 2.0, 0.0).unwrap(),
            LoadSpec::new(10.0, 1.0, 3.0).unwrap(),
            LoadSpec::new(5.0, 1.5, 0.5).unwrap(),
            LoadSpec::new(12.0, 2.5, 8.0).unwrap(),
        ];
        for order in AdmissionOrder::ALL {
            for installments in [1usize, 2, 5] {
                let c = cfg(order, installments);
                let opts = ScheduleOptions::default();
                let fast = schedule(&platform, &loads, &c, &opts).unwrap();
                let slow = schedule_reference(&platform, &loads, &c, &opts).unwrap();
                assert_eq!(fast, slow, "{order:?} k={installments}");
            }
        }
    }

    #[test]
    fn alone_k1_is_the_single_round_makespan() {
        let platform = Platform::from_speeds(&[1.0, 2.0, 5.0]).unwrap();
        let loads = [
            LoadSpec::immediate(40.0, 2.0).unwrap(),
            LoadSpec::new(25.0, 1.0, 3.0).unwrap(),
        ];
        let alone = alone_makespans(&platform, &loads, 1).unwrap();
        // The first solve is cold: bit for bit the single-load solver.
        assert_eq!(alone[0], loads[0].alone_makespan(&platform).unwrap());
        let direct = loads[1].alone_makespan(&platform).unwrap();
        assert!((alone[1] - direct).abs() <= 1e-9 * direct);
    }

    #[test]
    fn default_denominators_are_alone_makespans_on_a_sorted_batch() {
        // Admission-time denominators run through their own handle in
        // release order: on a release-sorted batch that is exactly the
        // index-order sequence of `alone_makespans`.
        let platform = Platform::from_speeds(&[1.0, 2.0, 5.0]).unwrap();
        let loads = [
            LoadSpec::immediate(40.0, 2.0).unwrap(),
            LoadSpec::new(25.0, 1.0, 3.0).unwrap(),
            LoadSpec::new(31.0, 1.5, 3.5).unwrap(),
        ];
        let k = 3;
        let out = run(&platform, &loads, &cfg(AdmissionOrder::WeightedStretch, k));
        let alone = alone_makespans(&platform, &loads, k).unwrap();
        let got: Vec<f64> = out.report.per_load.iter().map(|m| m.alone).collect();
        assert_eq!(got, alone);
    }

    #[test]
    fn installment_alone_reflects_the_work_shrink() {
        // k installments of a super-linear load do k·(N/k)^α = N^α/k^{α−1}
        // work: the granularity-matched alone time drops with k, which is
        // exactly why stretch denominators must match granularity.
        let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        let loads = [LoadSpec::immediate(64.0, 2.0).unwrap()];
        let a1 = alone_makespans(&platform, &loads, 1).unwrap()[0];
        let a4 = alone_makespans(&platform, &loads, 4).unwrap()[0];
        assert!(a4 < a1);
    }

    #[test]
    fn zero_installments_rejected() {
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        let loads = [LoadSpec::immediate(1.0, 1.0).unwrap()];
        let c = cfg(AdmissionOrder::Srpt, 0);
        assert!(matches!(
            schedule(&platform, &loads, &c, &ScheduleOptions::default()),
            Err(MultiLoadError::ZeroInstallments)
        ));
        assert!(matches!(
            alone_makespans(&platform, &loads, 0),
            Err(MultiLoadError::ZeroInstallments)
        ));
    }

    #[test]
    fn empty_batch_rejected() {
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        assert!(matches!(
            schedule(
                &platform,
                &[],
                &PolicyConfig::default(),
                &ScheduleOptions::default()
            ),
            Err(MultiLoadError::EmptyBatch)
        ));
    }

    #[test]
    fn mismatched_alone_slice_is_a_typed_error_not_a_panic() {
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        let loads = [
            LoadSpec::immediate(1.0, 1.0).unwrap(),
            LoadSpec::immediate(2.0, 1.0).unwrap(),
        ];
        let opts = ScheduleOptions {
            alone: Some(&[1.0]),
            ..ScheduleOptions::default()
        };
        assert!(matches!(
            schedule(&platform, &loads, &PolicyConfig::default(), &opts),
            Err(MultiLoadError::AloneLengthMismatch { loads: 2, alone: 1 })
        ));
    }

    #[test]
    fn flow_lower_bound_is_preemptive_srpt_on_hand_instances() {
        // The short job preempts the long one: flows 1 and 11.
        assert_eq!(srpt_mean_flow(vec![(0.0, 10.0), (1.0, 1.0)]), 6.0);
        // A longer arrival does not preempt: flows 2 and 6.
        assert_eq!(srpt_mean_flow(vec![(0.0, 2.0), (1.0, 5.0)]), 4.0);
        // Shortest first among simultaneous releases: flows 1, 3 and 6.
        let burst = vec![(0.0, 3.0), (0.0, 1.0), (0.0, 2.0)];
        assert_eq!(srpt_mean_flow(burst), 10.0 / 3.0);
        // An idle gap, in unsorted order: flows 2 and 1.
        assert_eq!(srpt_mean_flow(vec![(5.0, 2.0), (0.0, 1.0)]), 1.5);
        // Preempted twice, resumed last: flows 1, 1 and 10.
        let twice = vec![(0.0, 8.0), (2.0, 1.0), (4.0, 1.0)];
        assert_eq!(srpt_mean_flow(twice), 4.0);
    }

    #[test]
    fn flow_lower_bound_is_tight_for_one_immediate_load() {
        // Both solver handles start cold on the same piece sequence, so
        // the lone load's flow is its denominator, bit for bit.
        let platform = Platform::from_speeds(&[1.0, 2.0, 5.0]).unwrap();
        let loads = [LoadSpec::immediate(40.0, 2.0).unwrap()];
        let out = run(&platform, &loads, &cfg(AdmissionOrder::Srpt, 1));
        assert_eq!(
            out.mean_flow_lower_bound(),
            out.report.aggregate().mean_flow
        );
    }

    #[test]
    fn weighted_stretch_prefers_the_most_stretched_load() {
        // Load 0 occupies the platform; two identical loads arrive while
        // it runs, the higher-index one much earlier. At the decision
        // point SRPT sees a tie (equal remaining work) and falls back to
        // index order, but weighted stretch must serve the load that has
        // waited longer — the higher index.
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        let loads = [
            LoadSpec::immediate(40.0, 1.5).unwrap(),
            LoadSpec::new(10.0, 1.5, 5.0).unwrap(),
            LoadSpec::new(10.0, 1.5, 1.0).unwrap(),
        ];
        let ws = run(&platform, &loads, &cfg(AdmissionOrder::WeightedStretch, 1));
        assert!(ws.report.per_load[2].finish <= ws.report.per_load[1].start + 1e-12);
        let srpt = run(&platform, &loads, &cfg(AdmissionOrder::Srpt, 1));
        assert!(srpt.report.per_load[1].finish <= srpt.report.per_load[2].start + 1e-12);
    }
}
