//! The admission-policy subsystem: a **generalized installment scheduler**
//! in which *which load the platform serves next* is a pluggable
//! [`AdmissionOrder`] (FIFO, SRPT, weighted stretch), loads may be
//! **preempted between installments**, and an **online** entry point
//! commits without future knowledge.
//!
//! The FIFO scheduler of [`crate::fifo`] always serves whole loads in
//! release order. The paper's no-free-lunch result makes that policy
//! dimension interesting: an `α > 1` load's cost is `w_i · x^α`, so *when*
//! and *in how many pieces* a load is served changes both its flow time
//! and the total work the platform performs. This module factors the
//! policy out:
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
//! * [`policy_schedule`] is the offline (clairvoyant) scheduler: it ranks
//!   **every** unfinished load, even one not yet released, and will hold
//!   the platform idle for a higher-priority future arrival.
//!   [`online_schedule`] ranks only *released* loads — specs are revealed
//!   at their release times and the scheduler commits without future
//!   knowledge. With all releases at 0 the two coincide, decision for
//!   decision (property-tested bit-identical).
//!
//! Every installment is one equal-finish solve of the lanes kernel; a
//! single [`BatchSolver`] handle threads through the whole schedule, and
//! the **first** solve is cold, so
//! a batch of one immediate load with `installments = 1` reproduces the
//! single-load solver bit for bit — the same anchor
//! [`crate::fifo::fifo_schedule`] maintains.
//!
//! Like the round-robin pair, each entry point keeps a **linear-scan
//! reference** ([`policy_schedule_reference`],
//! [`online_schedule_reference`]): the obviously-correct implementation
//! that rescans every load and recomputes every priority key (one `powf`
//! per candidate) at every decision. The fast engines cache the
//! remaining-work estimates (recomputing a load's only when *its*
//! remaining size changes) and maintain the pending set incrementally;
//! they are property-tested **bit-identical** to the references, and the
//! `hotpaths` bench group tracks the speedup.
//!
//! Stretch accounting: the stretch denominator of a `k`-installment
//! schedule is the load's makespan alone on the platform *at the same
//! granularity* ([`alone_policy_makespans`]) — `Σ` of its `k` installment
//! solves back to back. Comparing a chunked execution against the
//! single-round alone time would let `α > 1` loads show stretches below 1
//! purely because splitting shrinks total work (`k · (N/k)^α =
//! N^α / k^{α-1}`, the Section-2 arithmetic); against the
//! granularity-matched denominator, every policy schedule has stretch
//! ≥ 1.

use crate::error::MultiLoadError;
use crate::failure::{FailureTrace, PlatformState};
use crate::load::{validate_batch, LoadSpec};
use crate::metrics::{LoadMetrics, MultiLoadReport, SchedulerKind};
use dlt_core::batch::BatchSolver;
use dlt_core::costmodel::{CostLaw, CostModel};
use dlt_core::nonlinear;
use dlt_platform::Platform;

/// Which pending load the platform serves next, re-evaluated at every
/// installment boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOrder {
    /// Earliest release first (ties by batch index) — the classical
    /// first-come-first-served order of [`crate::fifo::fifo_schedule`].
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
    /// Every variant, in sweep order — what the experiment binaries and
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

    /// Name of the policy *scheduler* in [`SchedulerKind`] reports, kept
    /// distinct from the plain FIFO/round-robin schedulers.
    pub fn policy_name(&self) -> &'static str {
        match self {
            Self::Fifo => "policy_fifo",
            Self::Srpt => "policy_srpt",
            Self::WeightedStretch => "policy_weighted_stretch",
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

/// One executed installment, for audits and Gantt-style inspection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstallmentExec {
    /// Load (index into the input batch) the installment belongs to.
    pub load: usize,
    /// Data units distributed in this installment (the last installment
    /// of a load absorbs its full remaining size).
    pub data: f64,
    /// Instant the installment's equal-finish round starts (≥ the load's
    /// release).
    pub start: f64,
    /// Instant every participating worker finishes the installment — for
    /// an interrupted installment, the failure-event time it was cut at.
    pub finish: f64,
    /// Whether a failure event cut the installment short: `data` is then
    /// the retained prefix and the remainder was re-queued (always
    /// `false` without a failure trace).
    pub interrupted: bool,
}

/// Result of the policy scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Per-load timings and aggregates.
    pub report: MultiLoadReport,
    /// Every installment execution, in service order.
    pub installment_log: Vec<InstallmentExec>,
    /// Per-load data shares summed over installments, indexed like the
    /// input batch: `shares[j][i]` data units of load `j` went to worker
    /// `i`.
    pub shares: Vec<Vec<f64>>,
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

/// Size of the next installment: equal `remaining / left` cuts, except the
/// **last** installment, which takes all remaining data so each load is
/// conserved exactly (the same remainder rule as the round-robin chunk
/// queue). Both engines and [`alone_policy_makespans`] must use this one
/// definition for their solve sequences to agree bit for bit.
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
/// *one* definition both engines share.
#[inline]
pub(crate) fn work_estimate(remaining: f64, model: CostLaw, speed_sum: f64) -> f64 {
    model.work(remaining) / speed_sum
}

/// Alone-on-the-platform makespan of **one** load at installment
/// granularity `installments`: `Σ` of its installment solves back to back
/// (the exact `remaining / left` size sequence). The caller threads the
/// [`BatchSolver`] handle; [`alone_policy_makespans`]
/// and the service engine's admission-time stretch denominators both go
/// through this one function, which is what keeps their solve sequences —
/// and therefore their bits — aligned.
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

/// Shared bookkeeping of both engines: per-load timings, shares, worker
/// finishes, the installment log and the preemption count. Recording is
/// identical by construction; only *selection* differs between the fast
/// engines and the references.
struct Recorder {
    started: Vec<f64>,
    finished: Vec<f64>,
    shares: Vec<Vec<f64>>,
    worker_finish: Vec<f64>,
    log: Vec<InstallmentExec>,
    last_served: Option<usize>,
    preemptions: usize,
    interruptions: usize,
    requeued_data: f64,
}

impl Recorder {
    fn new(n_loads: usize, p: usize, installments: usize) -> Self {
        Self {
            started: vec![f64::INFINITY; n_loads],
            finished: vec![0.0; n_loads],
            shares: vec![vec![0.0; p]; n_loads],
            worker_finish: vec![0.0; p],
            log: Vec::with_capacity(n_loads * installments),
            last_served: None,
            preemptions: 0,
            interruptions: 0,
            requeued_data: 0.0,
        }
    }

    /// Records one served installment; `prev_unfinished` is whether the
    /// previously served load still has remaining data (i.e. this service
    /// decision preempted it).
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        j: usize,
        data: f64,
        start: f64,
        finish: f64,
        x: &[f64],
        prev_unfinished: bool,
        interrupted: bool,
    ) {
        if let Some(prev) = self.last_served {
            if prev != j && prev_unfinished {
                self.preemptions += 1;
            }
        }
        self.last_served = Some(j);
        self.started[j] = self.started[j].min(start);
        self.finished[j] = finish;
        for (w, &xi) in x.iter().enumerate() {
            self.shares[j][w] += xi;
            if xi > 0.0 {
                self.worker_finish[w] = finish;
            }
        }
        self.log.push(InstallmentExec {
            load: j,
            data,
            start,
            finish,
            interrupted,
        });
    }

    fn into_outcome(
        self,
        order: AdmissionOrder,
        loads: &[LoadSpec],
        alone: &[f64],
    ) -> PolicyOutcome {
        let per_load = loads
            .iter()
            .enumerate()
            .map(|(j, load)| LoadMetrics {
                load: j,
                start: self.started[j],
                finish: self.finished[j],
                release: load.release,
                alone: alone[j],
                size: load.size,
            })
            .collect();
        PolicyOutcome {
            report: MultiLoadReport::new(
                SchedulerKind::Policy(order),
                per_load,
                self.worker_finish,
            ),
            installment_log: self.log,
            shares: self.shares,
            preemptions: self.preemptions,
            interruptions: self.interruptions,
            requeued_data: self.requeued_data,
        }
    }
}

/// Validates a batch + config + precomputed alone-makespan slice.
fn validate_policy(
    loads: &[LoadSpec],
    config: &PolicyConfig,
    alone: &[f64],
) -> Result<(), MultiLoadError> {
    validate_batch(loads)?;
    if config.installments == 0 {
        return Err(MultiLoadError::ZeroInstallments);
    }
    if alone.len() != loads.len() {
        return Err(MultiLoadError::AloneLengthMismatch {
            loads: loads.len(),
            alone: alone.len(),
        });
    }
    Ok(())
}

/// Alone-on-the-platform makespans of every load **at installment
/// granularity `installments`** — the stretch denominators of the policy
/// schedulers: load `j` alone costs `Σ` of its `installments` equal-finish
/// installment solves back to back (the exact size sequence a schedule
/// serves — `remaining / left`, last installment takes all — which
/// depends only on the load, never on contention). One solver handle
/// threads through the whole batch, first solve cold, so with
/// `installments = 1` this is bit-identical to [`crate::alone_makespans`].
pub fn alone_policy_makespans(
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

/// Offline (clairvoyant) policy scheduler: at every installment boundary
/// ranks **all** unfinished loads — released or not — under
/// `config.order` and serves one installment of the winner, waiting for
/// its release if necessary. Stretch denominators are computed internally
/// at matching granularity ([`alone_policy_makespans`]).
///
/// # Examples
///
/// ```
/// use dlt_multiload::{policy_schedule, AdmissionOrder, LoadSpec, PolicyConfig};
/// use dlt_platform::Platform;
///
/// let platform = Platform::from_speeds(&[1.0, 1.0]).unwrap();
/// let loads = [
///     LoadSpec::immediate(100.0, 1.5).unwrap(),
///     LoadSpec::immediate(4.0, 1.5).unwrap(),
/// ];
/// let cfg = |order| PolicyConfig { order, installments: 1 };
/// let fifo = policy_schedule(&platform, &loads, &cfg(AdmissionOrder::Fifo)).unwrap();
/// let srpt = policy_schedule(&platform, &loads, &cfg(AdmissionOrder::Srpt)).unwrap();
/// // SRPT slips the short load in front of the long one: its mean
/// // stretch beats first-come-first-served on this contended batch.
/// assert!(srpt.report.aggregate().mean_stretch < fifo.report.aggregate().mean_stretch);
/// ```
pub fn policy_schedule(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
) -> Result<PolicyOutcome, MultiLoadError> {
    validate_batch(loads)?;
    if config.installments == 0 {
        return Err(MultiLoadError::ZeroInstallments);
    }
    let alone = alone_policy_makespans(platform, loads, config.installments)?;
    policy_schedule_with_alone(platform, loads, config, &alone)
}

/// [`policy_schedule`] with precomputed stretch denominators (see
/// [`alone_policy_makespans`]).
pub fn policy_schedule_with_alone(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
    alone: &[f64],
) -> Result<PolicyOutcome, MultiLoadError> {
    validate_policy(loads, config, alone)?;
    engine_fast(platform, loads, config, alone, false, &FailureTrace::none())
}

/// Executable specification of [`policy_schedule`]: rescans every load
/// and recomputes every priority key at every decision. Bit-identical
/// (property-tested).
pub fn policy_schedule_reference(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
) -> Result<PolicyOutcome, MultiLoadError> {
    validate_batch(loads)?;
    if config.installments == 0 {
        return Err(MultiLoadError::ZeroInstallments);
    }
    let alone = alone_policy_makespans(platform, loads, config.installments)?;
    policy_schedule_reference_with_alone(platform, loads, config, &alone)
}

/// [`policy_schedule_reference`] with precomputed stretch denominators,
/// for apples-to-apples kernel benchmarking against
/// [`policy_schedule_with_alone`].
pub fn policy_schedule_reference_with_alone(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
    alone: &[f64],
) -> Result<PolicyOutcome, MultiLoadError> {
    validate_policy(loads, config, alone)?;
    engine_reference(platform, loads, config, alone, false, &FailureTrace::none())
}

/// Online policy scheduler: load specs are **revealed at their release
/// times** — every decision ranks only the loads already released and the
/// platform never waits for an arrival it cannot know about (it idles
/// only when no released load is unfinished). With all releases at 0 this
/// equals [`policy_schedule`] bit for bit.
///
/// # Examples
///
/// ```
/// use dlt_multiload::{online_schedule, AdmissionOrder, LoadSpec, PolicyConfig};
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
/// let out = online_schedule(&platform, &loads, &cfg).unwrap();
/// assert!(out.preemptions >= 1);
/// assert!(out.report.per_load[1].finish < out.report.per_load[0].finish);
/// ```
pub fn online_schedule(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
) -> Result<PolicyOutcome, MultiLoadError> {
    validate_batch(loads)?;
    if config.installments == 0 {
        return Err(MultiLoadError::ZeroInstallments);
    }
    let alone = alone_policy_makespans(platform, loads, config.installments)?;
    online_schedule_with_alone(platform, loads, config, &alone)
}

/// [`online_schedule`] with precomputed stretch denominators (see
/// [`alone_policy_makespans`]).
pub fn online_schedule_with_alone(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
    alone: &[f64],
) -> Result<PolicyOutcome, MultiLoadError> {
    validate_policy(loads, config, alone)?;
    engine_fast(platform, loads, config, alone, true, &FailureTrace::none())
}

/// Executable specification of [`online_schedule`]: the linear rescan.
/// Bit-identical (property-tested), and the baseline of the
/// `multiload_policy` hotpaths bench entry.
pub fn online_schedule_reference(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
) -> Result<PolicyOutcome, MultiLoadError> {
    validate_batch(loads)?;
    if config.installments == 0 {
        return Err(MultiLoadError::ZeroInstallments);
    }
    let alone = alone_policy_makespans(platform, loads, config.installments)?;
    online_schedule_reference_with_alone(platform, loads, config, &alone)
}

/// [`online_schedule_reference`] with precomputed stretch denominators.
pub fn online_schedule_reference_with_alone(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
    alone: &[f64],
) -> Result<PolicyOutcome, MultiLoadError> {
    validate_policy(loads, config, alone)?;
    engine_reference(platform, loads, config, alone, true, &FailureTrace::none())
}

/// The linear-scan reference engine: every decision rescans all loads,
/// filters candidates (release ≤ now when `online`), and recomputes every
/// candidate's remaining-work estimate — one `powf` each — from scratch.
/// `O(n)` transcendentals per decision, `O(n²·k)` over a schedule.
///
/// Failure handling (identical in [`engine_fast`], by construction):
/// events at or before `now` are applied before every decision; a solve
/// never spans a pending event — an event inside an offline waiting gap
/// re-ranks first, an event strictly inside an installment **cuts** it
/// (retained prefix `data · φ` logged, `remaining − data · φ` re-queued,
/// installment budget untouched). Priority keys keep the
/// pristine-platform speed normalization throughout — failures degrade
/// the solves, not the ranking algebra — which is what keeps zero-failure
/// runs (and the fast/reference lockstep) structurally bit-identical.
pub(crate) fn engine_reference(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
    alone: &[f64],
    online: bool,
    failures: &FailureTrace,
) -> Result<PolicyOutcome, MultiLoadError> {
    let n = loads.len();
    let speed_sum: f64 = platform.speeds().iter().sum();
    let solver = nonlinear::SolverConfig::default();
    let mut bsolver = BatchSolver::default();
    let mut fstate = PlatformState::new(platform, failures);
    let mut scratch: Vec<f64> = Vec::new();
    let mut remaining: Vec<f64> = loads.iter().map(|l| l.size).collect();
    let mut inst_left = vec![config.installments; n];
    let mut rec = Recorder::new(n, platform.len(), config.installments);
    let mut unfinished = n;
    let mut now = 0.0f64;
    while unfinished > 0 {
        fstate.advance_to(now)?;
        // Linear candidate scan: smallest (key, index) wins.
        let mut best: Option<(f64, usize)> = None;
        for (j, load) in loads.iter().enumerate() {
            if remaining[j] <= 0.0 || (online && load.release > now) {
                continue;
            }
            let est = work_estimate(remaining[j], load.model, speed_sum);
            let key = config.order.key(load.release, est, alone[j], now);
            let better = best.is_none_or(|(bk, _)| key.total_cmp(&bk).is_lt());
            if better {
                best = Some((key, j));
            }
        }
        let Some((_, j)) = best else {
            // Online and nothing released: idle until the next arrival.
            now = loads
                .iter()
                .enumerate()
                .filter(|&(j, _)| remaining[j] > 0.0)
                .map(|(_, l)| l.release)
                .fold(f64::INFINITY, f64::min);
            continue;
        };
        let start = now.max(loads[j].release);
        if let Some(t) = fstate.next_event_at().filter(|&t| t <= start) {
            // A failure lands inside the (offline) waiting gap: apply it
            // and re-rank before committing a solve.
            now = t;
            continue;
        }
        let data = next_installment(remaining[j], inst_left[j]);
        let alloc = bsolver.solve(fstate.current(start)?.0, data, loads[j].model, &solver)?;
        let finish = start + alloc.makespan;
        let prev_unfinished = rec.last_served.is_some_and(|prev| remaining[prev] > 0.0);
        if let Some(t) = fstate.next_event_at().filter(|&t| t < finish) {
            // Cut: retain the served prefix, re-queue the rest, re-solve
            // on the degraded platform at the next decision.
            let phi = (t - start) / (finish - start);
            let retained = data * phi;
            let requeued = remaining[j] - retained;
            let x = fstate.scatter(&alloc.x, Some(phi), &mut scratch);
            rec.record(j, retained, start, t, x, prev_unfinished, true);
            rec.interruptions += 1;
            rec.requeued_data += requeued.max(0.0);
            if requeued <= 0.0 {
                // Float edge: the prefix already covered everything.
                remaining[j] = 0.0;
                unfinished -= 1;
            } else {
                remaining[j] = requeued;
            }
            now = t;
            continue;
        }
        let x = fstate.scatter(&alloc.x, None, &mut scratch);
        rec.record(j, data, start, finish, x, prev_unfinished, false);
        remaining[j] = if inst_left[j] == 1 {
            0.0
        } else {
            remaining[j] - data
        };
        inst_left[j] -= 1;
        if remaining[j] <= 0.0 {
            unfinished -= 1;
        }
        now = finish;
    }
    Ok(rec.into_outcome(config.order, loads, alone))
}

/// The fast engine: identical decisions, cheaper selection. Candidates
/// live in an incrementally maintained active list (released, unfinished)
/// fed by a release-sorted arrival frontier, and each load's
/// remaining-work estimate is **cached** — recomputed only when that
/// load's remaining size changes, so a decision costs `O(n)` comparisons
/// but only `O(1)` transcendentals (vs the reference's `O(n)` `powf`s).
/// The cached estimate is the same expression evaluated on the same bits,
/// so every key — and therefore every schedule — matches the reference
/// exactly.
///
/// Failure handling mirrors [`engine_reference`] step for step; the only
/// fast-engine addition is refreshing the served load's cached estimate
/// after a cut (its remaining size changed without consuming an
/// installment).
pub(crate) fn engine_fast(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &PolicyConfig,
    alone: &[f64],
    online: bool,
    failures: &FailureTrace,
) -> Result<PolicyOutcome, MultiLoadError> {
    let n = loads.len();
    let speed_sum: f64 = platform.speeds().iter().sum();
    let solver = nonlinear::SolverConfig::default();
    let mut bsolver = BatchSolver::default();
    let mut fstate = PlatformState::new(platform, failures);
    let mut scratch: Vec<f64> = Vec::new();
    let mut remaining: Vec<f64> = loads.iter().map(|l| l.size).collect();
    let mut inst_left = vec![config.installments; n];
    let mut est: Vec<f64> = loads
        .iter()
        .map(|l| work_estimate(l.size, l.model, speed_sum))
        .collect();
    // Arrival frontier: offline admits everything at once; online feeds
    // loads in release order as `now` passes them.
    let arrivals: Vec<usize> = if online {
        crate::load::release_order(loads)
    } else {
        (0..n).collect()
    };
    let mut next_arrival = 0usize;
    let mut active: Vec<usize> = Vec::with_capacity(n);
    let mut rec = Recorder::new(n, platform.len(), config.installments);
    let mut unfinished = n;
    let mut now = 0.0f64;
    while unfinished > 0 {
        fstate.advance_to(now)?;
        // Admit everything released by `now` (everything at all, offline).
        while next_arrival < arrivals.len() {
            let j = arrivals[next_arrival];
            if online && loads[j].release > now {
                break;
            }
            active.push(j);
            next_arrival += 1;
        }
        if active.is_empty() {
            // Online and nothing released: idle until the next arrival
            // (the frontier is release-sorted, so it is the front).
            now = loads[arrivals[next_arrival]].release;
            continue;
        }
        // Selection over cached keys: smallest (key, index) wins; the
        // position in `active` is remembered for O(1) removal.
        let mut best: Option<(f64, usize, usize)> = None;
        for (pos, &j) in active.iter().enumerate() {
            let key = config.order.key(loads[j].release, est[j], alone[j], now);
            // (key, index) lexicographic: `active` is not index-sorted
            // (swap_remove), so ties must compare indices explicitly.
            let better = best.is_none_or(|(bk, bj, _)| match key.total_cmp(&bk) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => j < bj,
                std::cmp::Ordering::Greater => false,
            });
            if better {
                best = Some((key, j, pos));
            }
        }
        let (_, j, pos) = best.expect("active set is non-empty");
        let start = now.max(loads[j].release);
        if let Some(t) = fstate.next_event_at().filter(|&t| t <= start) {
            // A failure lands inside the (offline) waiting gap: apply it
            // and re-rank before committing a solve.
            now = t;
            continue;
        }
        let data = next_installment(remaining[j], inst_left[j]);
        let alloc = bsolver.solve(fstate.current(start)?.0, data, loads[j].model, &solver)?;
        let finish = start + alloc.makespan;
        let prev_unfinished = rec.last_served.is_some_and(|prev| remaining[prev] > 0.0);
        if let Some(t) = fstate.next_event_at().filter(|&t| t < finish) {
            // Cut: retain the served prefix, re-queue the rest (same
            // arithmetic as the reference, bit for bit).
            let phi = (t - start) / (finish - start);
            let retained = data * phi;
            let requeued = remaining[j] - retained;
            let x = fstate.scatter(&alloc.x, Some(phi), &mut scratch);
            rec.record(j, retained, start, t, x, prev_unfinished, true);
            rec.interruptions += 1;
            rec.requeued_data += requeued.max(0.0);
            if requeued <= 0.0 {
                remaining[j] = 0.0;
                unfinished -= 1;
                active.swap_remove(pos);
            } else {
                remaining[j] = requeued;
                // The cut changed the remaining size without consuming an
                // installment: refresh the cached estimate (still the
                // healthy-platform normalization).
                est[j] = work_estimate(remaining[j], loads[j].model, speed_sum);
            }
            now = t;
            continue;
        }
        let x = fstate.scatter(&alloc.x, None, &mut scratch);
        rec.record(j, data, start, finish, x, prev_unfinished, false);
        remaining[j] = if inst_left[j] == 1 {
            0.0
        } else {
            remaining[j] - data
        };
        inst_left[j] -= 1;
        if remaining[j] <= 0.0 {
            unfinished -= 1;
            active.swap_remove(pos);
        } else {
            // Only the served load's estimate changed — one powf.
            est[j] = work_estimate(remaining[j], loads[j].model, speed_sum);
        }
        now = finish;
    }
    Ok(rec.into_outcome(config.order, loads, alone))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::fifo_schedule;

    fn cfg(order: AdmissionOrder, installments: usize) -> PolicyConfig {
        PolicyConfig {
            order,
            installments,
        }
    }

    #[test]
    fn single_immediate_load_is_the_single_load_solver_bitwise() {
        let platform = Platform::from_speeds_and_costs(&[1.0, 2.5, 4.0], &[1.0, 0.5, 0.7]).unwrap();
        let loads = [LoadSpec::immediate(120.0, 2.0).unwrap()];
        let direct = nonlinear::equal_finish_parallel(&platform, 120.0, 2.0).unwrap();
        for order in AdmissionOrder::ALL {
            for schedule in [policy_schedule, online_schedule] {
                let out = schedule(&platform, &loads, &cfg(order, 1)).unwrap();
                assert_eq!(out.report.makespan(), direct.makespan);
                assert_eq!(out.shares[0], direct.x);
                assert_eq!(out.report.per_load[0].stretch(), 1.0);
            }
        }
    }

    #[test]
    fn fifo_policy_reproduces_fifo_schedule_bitwise() {
        // Offline *and* online FIFO policy = the dedicated FIFO scheduler:
        // same service order, same warm-start threading, so every start,
        // finish and share matches bit for bit.
        let platform = Platform::from_speeds_and_costs(&[1.0, 3.0, 0.7], &[1.0, 0.2, 2.0]).unwrap();
        let loads = [
            LoadSpec::new(20.0, 2.0, 5.0).unwrap(),
            LoadSpec::new(10.0, 1.0, 0.0).unwrap(),
            LoadSpec::new(5.0, 1.5, 30.0).unwrap(),
        ];
        let fifo = fifo_schedule(&platform, &loads).unwrap();
        for schedule in [policy_schedule, online_schedule] {
            let out = schedule(&platform, &loads, &cfg(AdmissionOrder::Fifo, 1)).unwrap();
            for j in 0..loads.len() {
                assert_eq!(out.report.per_load[j].start, fifo.report.per_load[j].start);
                assert_eq!(
                    out.report.per_load[j].finish,
                    fifo.report.per_load[j].finish
                );
                assert_eq!(out.shares[j], fifo.shares[j]);
            }
            assert_eq!(out.report.worker_finish, fifo.report.worker_finish);
            assert_eq!(out.preemptions, 0);
        }
    }

    #[test]
    fn srpt_puts_the_short_load_first() {
        let platform = Platform::from_speeds(&[1.0, 1.0]).unwrap();
        let loads = [
            LoadSpec::immediate(100.0, 1.5).unwrap(),
            LoadSpec::immediate(4.0, 1.5).unwrap(),
        ];
        let srpt = online_schedule(&platform, &loads, &cfg(AdmissionOrder::Srpt, 1)).unwrap();
        let fifo = online_schedule(&platform, &loads, &cfg(AdmissionOrder::Fifo, 1)).unwrap();
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
        let out = online_schedule(&platform, &loads, &cfg(AdmissionOrder::Srpt, 4)).unwrap();
        assert!(out.preemptions >= 1);
        assert!(out.report.per_load[1].finish < out.report.per_load[0].finish);
        // The paused load still gets everything: exact conservation.
        for (j, load) in loads.iter().enumerate() {
            let shipped: f64 = out
                .installment_log
                .iter()
                .filter(|e| e.load == j)
                .map(|e| e.data)
                .sum();
            assert!((shipped - load.size).abs() < 1e-12 * load.size);
        }
        // Non-preemptive SRPT cannot pause: the short load waits.
        let np = online_schedule(&platform, &loads, &cfg(AdmissionOrder::Srpt, 1)).unwrap();
        assert_eq!(np.preemptions, 0);
        assert!(np.report.per_load[1].start >= np.report.per_load[0].finish - 1e-9);
    }

    #[test]
    fn offline_waits_for_a_better_load_online_does_not() {
        // One long load at 0, one short load released mid-way: the
        // clairvoyant SRPT scheduler holds the platform for the short
        // load; the online one cannot know it is coming and starts the
        // long one immediately.
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        let loads = [
            LoadSpec::immediate(100.0, 1.0).unwrap(),
            LoadSpec::new(1.0, 1.0, 2.0).unwrap(),
        ];
        let off = policy_schedule(&platform, &loads, &cfg(AdmissionOrder::Srpt, 1)).unwrap();
        let on = online_schedule(&platform, &loads, &cfg(AdmissionOrder::Srpt, 1)).unwrap();
        assert_eq!(on.report.per_load[0].start, 0.0);
        assert!(off.report.per_load[0].start >= 2.0);
        assert!(off.report.per_load[1].start < off.report.per_load[0].start);
    }

    #[test]
    fn engines_match_references_bitwise() {
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
                let off = policy_schedule(&platform, &loads, &c).unwrap();
                let off_ref = policy_schedule_reference(&platform, &loads, &c).unwrap();
                assert_eq!(off, off_ref, "offline {order:?} k={installments}");
                let on = online_schedule(&platform, &loads, &c).unwrap();
                let on_ref = online_schedule_reference(&platform, &loads, &c).unwrap();
                assert_eq!(on, on_ref, "online {order:?} k={installments}");
            }
        }
    }

    #[test]
    fn alone_k1_matches_alone_makespans_bitwise() {
        let platform = Platform::from_speeds(&[1.0, 2.0, 5.0]).unwrap();
        let loads = [
            LoadSpec::immediate(40.0, 2.0).unwrap(),
            LoadSpec::new(25.0, 1.0, 3.0).unwrap(),
        ];
        assert_eq!(
            alone_policy_makespans(&platform, &loads, 1).unwrap(),
            crate::alone_makespans(&platform, &loads).unwrap()
        );
    }

    #[test]
    fn installment_alone_reflects_the_work_shrink() {
        // k installments of a super-linear load do k·(N/k)^α = N^α/k^{α−1}
        // work: the granularity-matched alone time drops with k, which is
        // exactly why stretch denominators must match granularity.
        let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        let loads = [LoadSpec::immediate(64.0, 2.0).unwrap()];
        let a1 = alone_policy_makespans(&platform, &loads, 1).unwrap()[0];
        let a4 = alone_policy_makespans(&platform, &loads, 4).unwrap()[0];
        assert!(a4 < a1);
    }

    #[test]
    fn zero_installments_rejected() {
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        let loads = [LoadSpec::immediate(1.0, 1.0).unwrap()];
        let c = cfg(AdmissionOrder::Srpt, 0);
        assert!(matches!(
            policy_schedule(&platform, &loads, &c),
            Err(MultiLoadError::ZeroInstallments)
        ));
        assert!(matches!(
            online_schedule(&platform, &loads, &c),
            Err(MultiLoadError::ZeroInstallments)
        ));
        assert!(matches!(
            alone_policy_makespans(&platform, &loads, 0),
            Err(MultiLoadError::ZeroInstallments)
        ));
    }

    #[test]
    fn empty_batch_rejected() {
        let platform = Platform::from_speeds(&[1.0]).unwrap();
        assert!(matches!(
            policy_schedule(&platform, &[], &PolicyConfig::default()),
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
        let short = [1.0];
        let c = PolicyConfig::default();
        assert!(matches!(
            online_schedule_with_alone(&platform, &loads, &c, &short),
            Err(MultiLoadError::AloneLengthMismatch { loads: 2, alone: 1 })
        ));
        assert!(matches!(
            policy_schedule_with_alone(&platform, &loads, &c, &short),
            Err(MultiLoadError::AloneLengthMismatch { loads: 2, alone: 1 })
        ));
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
        let ws =
            online_schedule(&platform, &loads, &cfg(AdmissionOrder::WeightedStretch, 1)).unwrap();
        assert!(ws.report.per_load[2].finish <= ws.report.per_load[1].start + 1e-12);
        let srpt = online_schedule(&platform, &loads, &cfg(AdmissionOrder::Srpt, 1)).unwrap();
        assert!(srpt.report.per_load[1].finish <= srpt.report.per_load[2].start + 1e-12);
    }
}
