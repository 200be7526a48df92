//! The **installment engine**: the one event loop that cuts loads into
//! installments, for the streamed service entry points
//! ([`serve_trace`] and its failure/rescan twins) and for the batch
//! schedulers of [`crate::policy`] ([`crate::schedule`] and
//! [`crate::schedule_reference`]) alike. It ingests a *streamed* arrival
//! trace — millions of loads — at steady memory, built from three
//! pieces:
//!
//! 1. an **indexed pending set** ([`crate::event_queue::PendingSet`]):
//!    `O(log n)` heap selection for the static-key orders (FIFO, SRPT) and
//!    lazy re-keying for weighted stretch, instead of re-ranking a `Vec`
//!    at every decision;
//! 2. **windowed admission** ([`ServiceConfig::batch`]): the ranking is
//!    frozen once per window and up to `batch` winners are popped; loads
//!    with the *same* cost exponent are merged into one warm-started
//!    equal-finish solve ([`dlt_core::batch::BatchSolver::solve`]),
//!    amortizing the solver over the window ([`ServiceReport::solves`]
//!    < [`ServiceReport::decisions`] whenever merging happens);
//! 3. **adaptive installment counts** ([`InstallmentPolicy::Adaptive`]):
//!    a load admitted into a deep queue is cut into more installments
//!    (more preemption points exactly when contention makes them useful),
//!    one admitted into an empty queue is served whole — the no-free-lunch
//!    trade made adaptive, since more cuts also mean less total work for
//!    `α > 1` ([`crate::alone_makespans`]).
//!
//! # Event model
//!
//! The engine consumes `(id, load)` arrivals from an iterator sorted by
//! release time (enforced — [`MultiLoadError::UnsortedArrivals`]
//! otherwise) and keeps per-load state **only while a load is pending or
//! in flight**: the live footprint is `O(pending)`, witnessed by
//! [`ServiceReport::pending_high_water`], never `O(total loads)`. Per-load
//! results stream out through a [`CompletionSink`] the moment a load
//! finishes; aggregates (flow, stretch, decisions, preemptions) are folded
//! on the fly. The ids break priority-key ties: the streamed entry points
//! number arrivals by stream position, the batch entry points feed loads
//! in release order with id = batch index.
//!
//! A load is admitted when the clock reaches its release, and every
//! installment starts at the decision instant: the ranking never sees an
//! unreleased load, and the platform idles only while nothing is pending.
//!
//! # Engine and reference
//!
//! Selection is the one seam: [`serve_trace`] and [`crate::schedule`] run
//! the indexed pending set, [`serve_trace_reference`] and
//! [`crate::schedule_reference`] a linear rescan that recomputes every
//! candidate's key from scratch. Admission, windows, solves, cuts and
//! recording are shared code, and the pairs are property-tested bit for
//! bit across policy × window × installment policy, with and without
//! failures.

use crate::error::MultiLoadError;
use crate::event_queue::{PendingEntry, PendingSet};
use crate::failure::{FailureTrace, PlatformState, ServedPiece};
use crate::load::LoadSpec;
use crate::policy::{
    alone_installment_makespan, next_installment, work_estimate, AdmissionOrder, ScheduleOptions,
};
use dlt_core::batch::BatchSolver;
use dlt_core::costmodel::CostLaw;
use dlt_core::nonlinear;
use dlt_platform::Platform;
use std::collections::BTreeMap;

/// How many installments a load is cut into, decided at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallmentPolicy {
    /// Every load gets exactly `k` installments — the batch schedulers'
    /// [`crate::PolicyConfig::installments`], and the service default.
    Fixed(usize),
    /// **Adaptive**: a load admitted when `d` loads are pending
    /// (including itself) gets `d.clamp(min, max)` installments — split
    /// finer only when the queue is deep. The count is fixed at admission
    /// so the load's granularity-matched stretch denominator is
    /// well-defined from the start.
    Adaptive {
        /// Installments for a load admitted into an empty queue (≥ 1).
        min: usize,
        /// Cap on installments however deep the queue gets.
        max: usize,
    },
}

impl InstallmentPolicy {
    /// Installment count for a load admitted at pending depth `depth`
    /// (the load itself included).
    pub fn pick(&self, depth: usize) -> usize {
        match *self {
            Self::Fixed(k) => k,
            Self::Adaptive { min, max } => depth.clamp(min, max),
        }
    }
}

/// Tuning knobs of the service engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Admission order ranking the pending set.
    pub order: AdmissionOrder,
    /// Admission window size (≥ 1): how many ranked winners are popped
    /// per window. Same-α winners share one merged equal-finish solve;
    /// `1` solves every decision on its own, as the batch schedulers do.
    pub batch: usize,
    /// Installment policy, applied per load at admission.
    pub installments: InstallmentPolicy,
    /// Whether to compute each load's granularity-matched alone makespan
    /// at admission (k extra solves per load) so flows can be reported as
    /// stretches. Required by [`AdmissionOrder::WeightedStretch`], whose
    /// key divides by the alone makespan; turn off for maximum
    /// throughput under FIFO/SRPT.
    pub track_stretch: bool,
}

impl Default for ServiceConfig {
    /// Window 1, one installment, stretch tracked: the configuration
    /// [`crate::schedule`] runs for [`crate::PolicyConfig::default`].
    fn default() -> Self {
        Self {
            order: AdmissionOrder::Fifo,
            batch: 1,
            installments: InstallmentPolicy::Fixed(1),
            track_stretch: true,
        }
    }
}

/// One finished load, streamed out of the engine the moment it completes.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedLoad {
    /// Arrival id: the 0-based stream position under [`serve_trace`], the
    /// batch index under [`crate::schedule`].
    pub id: u64,
    /// The load as admitted.
    pub spec: LoadSpec,
    /// Instant its first installment started.
    pub start: f64,
    /// Instant its last installment finished.
    pub finish: f64,
    /// Granularity-matched alone makespan (stretch denominator), or `0.0`
    /// when the service ran with stretch tracking off.
    pub alone: f64,
    /// Installments it was cut into (fixed, or the adaptive pick).
    pub installments: usize,
    /// Data units each worker processed for this load, summed over its
    /// installments.
    pub shares: Vec<f64>,
    /// The pieces the load was actually served in, in service order —
    /// full installments plus retained prefixes of failure-cut ones.
    /// Replayable bitwise against the engine's remaining-size update rule
    /// by [`crate::failure::replay_ledger`].
    pub pieces: Vec<ServedPiece>,
}

impl CompletedLoad {
    /// Flow time `finish − release`.
    pub fn flow(&self) -> f64 {
        self.finish - self.spec.release
    }

    /// Stretch `flow / alone` (meaningless when stretch was untracked).
    pub fn stretch(&self) -> f64 {
        self.flow() / self.alone
    }
}

/// Where finished loads go. The engine holds no completed-load state:
/// a sink that discards keeps the whole run at `O(pending)` memory, a
/// `Vec` sink collects every completion for tests and audits.
pub trait CompletionSink {
    /// Called exactly once per load, in completion order.
    fn completed(&mut self, load: CompletedLoad);
}

/// Drops completions — the steady-memory production sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardCompletions;

impl CompletionSink for DiscardCompletions {
    fn completed(&mut self, _load: CompletedLoad) {}
}

impl CompletionSink for Vec<CompletedLoad> {
    fn completed(&mut self, load: CompletedLoad) {
        self.push(load);
    }
}

/// Streaming aggregates of one service run. Sums are kept instead of
/// means so that reports from different engines compare exactly
/// (`mean_*` may be `NaN` on an empty trace, which would poison
/// `PartialEq`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Loads completed (equals the trace length on a full run).
    pub loads: u64,
    /// Installments served — the scheduler's decision count.
    pub decisions: u64,
    /// Equal-finish installment solves performed. Merged windows make
    /// this *smaller* than `decisions`: that gap is the batching
    /// amortization.
    pub solves: u64,
    /// Admission-time alone solves (stretch denominators); 0 when
    /// stretch tracking is off.
    pub alone_solves: u64,
    /// Installment boundaries at which a started-but-unfinished load was
    /// set aside for a different load.
    pub preemptions: u64,
    /// Installments cut short by a failure event (zero without a failure
    /// trace).
    pub interruptions: u64,
    /// Total data units re-queued by failure cuts (zero without a failure
    /// trace).
    pub requeued_data: f64,
    /// Finish time of the last installment (0 on an empty trace).
    pub makespan: f64,
    /// Total data units admitted and completed, `Σ N_j`.
    pub total_data: f64,
    /// Sum of per-load flow times.
    pub flow_sum: f64,
    /// Sum of per-load stretches (0 when stretch tracking is off).
    pub stretch_sum: f64,
    /// Largest per-load stretch seen (0 when stretch tracking is off).
    pub max_stretch: f64,
    /// Peak size of the pending set — the engine's live per-load state
    /// is proportional to this, never to `loads`.
    pub pending_high_water: usize,
    /// Per-worker finish times (end of each worker's last positive
    /// share; a worker that never computes reports 0).
    pub worker_finish: Vec<f64>,
}

impl ServiceReport {
    fn new(p: usize) -> Self {
        Self {
            loads: 0,
            decisions: 0,
            solves: 0,
            alone_solves: 0,
            preemptions: 0,
            interruptions: 0,
            requeued_data: 0.0,
            makespan: 0.0,
            total_data: 0.0,
            flow_sum: 0.0,
            stretch_sum: 0.0,
            max_stretch: 0.0,
            pending_high_water: 0,
            worker_finish: vec![0.0; p],
        }
    }

    /// Mean flow time (`NaN` on an empty run).
    pub fn mean_flow(&self) -> f64 {
        self.flow_sum / self.loads as f64
    }

    /// Mean stretch (`NaN` on an empty run, 0 when untracked).
    pub fn mean_stretch(&self) -> f64 {
        self.stretch_sum / self.loads as f64
    }
}

/// Per-load state held **only** while the load is pending or in flight.
struct LoadState {
    spec: LoadSpec,
    remaining: f64,
    inst_left: usize,
    k: usize,
    est: f64,
    alone: f64,
    started: f64,
    shares: Vec<f64>,
    pieces: Vec<ServedPiece>,
}

impl LoadState {
    /// The load's selection snapshot, with its current cached estimate.
    fn entry(&self, id: u64) -> PendingEntry {
        PendingEntry {
            id,
            release: self.spec.release,
            est: self.est,
            alone: self.alone,
        }
    }
}

/// Selection strategy: the one seam between the fast engine (indexed
/// pending set, cached keys) and the linear-rescan reference. Recording,
/// admission, batching and solving are shared — identical by
/// construction; only *selection* differs.
trait Selector {
    fn push(&mut self, entry: PendingEntry, now: f64);
    fn pop_min(&mut self, now: f64, states: &BTreeMap<u64, LoadState>) -> Option<u64>;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn high_water(&self) -> usize;
}

/// The fast path: [`PendingSet`] with cached keys.
struct IndexedSelector(PendingSet);

impl Selector for IndexedSelector {
    fn push(&mut self, entry: PendingEntry, now: f64) {
        self.0.push(entry, now);
    }
    fn pop_min(&mut self, now: f64, _states: &BTreeMap<u64, LoadState>) -> Option<u64> {
        self.0.pop_min(now).map(|e| e.id)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn high_water(&self) -> usize {
        self.0.high_water()
    }
}

/// The reference: rescans every pending load at every pop and recomputes
/// every remaining-work estimate from scratch — one `powf` per candidate
/// per decision, nothing cached.
struct RescanSelector {
    ids: Vec<u64>,
    order: AdmissionOrder,
    speed_sum: f64,
    high_water: usize,
}

impl Selector for RescanSelector {
    fn push(&mut self, entry: PendingEntry, _now: f64) {
        self.ids.push(entry.id);
        self.high_water = self.high_water.max(self.ids.len());
    }
    fn pop_min(&mut self, now: f64, states: &BTreeMap<u64, LoadState>) -> Option<u64> {
        let mut best: Option<(f64, usize)> = None;
        for (pos, &id) in self.ids.iter().enumerate() {
            let st = &states[&id];
            let est = work_estimate(st.remaining, st.spec.model, self.speed_sum);
            let key = self.order.key(st.spec.release, est, st.alone, now);
            let better = best.is_none_or(|(bk, bpos)| match key.total_cmp(&bk) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => id < self.ids[bpos],
                std::cmp::Ordering::Greater => false,
            });
            if better {
                best = Some((key, pos));
            }
        }
        best.map(|(_, pos)| self.ids.swap_remove(pos))
    }
    fn len(&self) -> usize {
        self.ids.len()
    }
    fn high_water(&self) -> usize {
        self.high_water
    }
}

fn validate_config(config: &ServiceConfig) -> Result<(), MultiLoadError> {
    if config.batch == 0 {
        return Err(MultiLoadError::ZeroBatch);
    }
    match config.installments {
        InstallmentPolicy::Fixed(0) | InstallmentPolicy::Adaptive { min: 0, .. } => {
            return Err(MultiLoadError::ZeroInstallments);
        }
        InstallmentPolicy::Adaptive { min, max } if min > max => {
            return Err(MultiLoadError::InvalidServiceConfig {
                reason: "adaptive installment range has min > max",
            });
        }
        _ => {}
    }
    if config.order == AdmissionOrder::WeightedStretch && !config.track_stretch {
        return Err(MultiLoadError::InvalidServiceConfig {
            reason: "weighted-stretch admission needs stretch tracking enabled \
                     (its key divides by the alone makespan)",
        });
    }
    Ok(())
}

/// Serves a **streamed** arrival trace with the indexed-pending-set
/// engine. `trace` yields loads sorted by non-decreasing release time;
/// the engine never materializes it, holds state only for pending loads,
/// and streams completions into `sink`.
///
/// At window 1 with fixed installments this is [`crate::schedule`] on the
/// same (release-sorted) batch, decision for decision.
///
/// # Examples
///
/// ```
/// use dlt_multiload::{
///     schedule, serve_trace, AdmissionOrder, LoadSpec, PolicyConfig, ScheduleOptions,
///     ServiceConfig,
/// };
/// use dlt_platform::Platform;
///
/// let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
/// let loads = vec![
///     LoadSpec::immediate(60.0, 1.5).unwrap(),
///     LoadSpec::new(5.0, 1.5, 1.0).unwrap(),
/// ];
/// let cfg = ServiceConfig { order: AdmissionOrder::Srpt, ..ServiceConfig::default() };
/// let mut done = Vec::new();
/// let report = serve_trace(&platform, loads.iter().copied(), &cfg, &mut done).unwrap();
/// let batch = schedule(
///     &platform,
///     &loads,
///     &PolicyConfig { order: AdmissionOrder::Srpt, installments: 1 },
///     &ScheduleOptions::default(),
/// )
/// .unwrap();
/// assert_eq!(report.makespan, batch.report.makespan());
/// assert_eq!(done.len(), 2);
/// ```
pub fn serve_trace<I, S>(
    platform: &Platform,
    trace: I,
    config: &ServiceConfig,
    sink: &mut S,
) -> Result<ServiceReport, MultiLoadError>
where
    I: IntoIterator<Item = LoadSpec>,
    S: CompletionSink,
{
    let opts = ScheduleOptions::default();
    run(platform, numbered(trace), config, &opts, false, sink)
}

/// [`serve_trace`] under a failure trace: worker drop-outs and slow-downs
/// strike the streamed engine mid-flight — an installment (or merged
/// window group) in flight at an event is **cut**, the served prefix is
/// retained pro rata, the remainder re-queued, and every later solve runs
/// on the degraded platform. Priority keys keep the pristine-platform
/// normalization (see [`crate::failure`]), so with an empty trace this is
/// bit-identical to [`serve_trace`].
pub fn serve_trace_with_failures<I, S>(
    platform: &Platform,
    trace: I,
    config: &ServiceConfig,
    failures: &FailureTrace,
    sink: &mut S,
) -> Result<ServiceReport, MultiLoadError>
where
    I: IntoIterator<Item = LoadSpec>,
    S: CompletionSink,
{
    let opts = ScheduleOptions {
        failures: Some(failures),
        ..ScheduleOptions::default()
    };
    run(platform, numbered(trace), config, &opts, false, sink)
}

/// Executable specification of [`serve_trace`] for materialized traces:
/// identical admission, batching and solving, but selection is a linear
/// rescan that recomputes every candidate's key from scratch.
/// Bit-identical to the engine across policy × window size × installment
/// policy (property-tested).
pub fn serve_trace_reference<S>(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &ServiceConfig,
    sink: &mut S,
) -> Result<ServiceReport, MultiLoadError>
where
    S: CompletionSink,
{
    let opts = ScheduleOptions::default();
    run(
        platform,
        numbered(loads.iter().copied()),
        config,
        &opts,
        true,
        sink,
    )
}

/// Linear-rescan reference twin of [`serve_trace_with_failures`] —
/// bit-identical (property-tested), failures and all.
pub fn serve_trace_with_failures_reference<S>(
    platform: &Platform,
    loads: &[LoadSpec],
    config: &ServiceConfig,
    failures: &FailureTrace,
    sink: &mut S,
) -> Result<ServiceReport, MultiLoadError>
where
    S: CompletionSink,
{
    let opts = ScheduleOptions {
        failures: Some(failures),
        ..ScheduleOptions::default()
    };
    run(
        platform,
        numbered(loads.iter().copied()),
        config,
        &opts,
        true,
        sink,
    )
}

/// Numbers a streamed trace by position: the streamed entry points' ids.
fn numbered<I>(trace: I) -> impl Iterator<Item = (u64, LoadSpec)>
where
    I: IntoIterator<Item = LoadSpec>,
{
    (0u64..).zip(trace)
}

/// Front door of every entry point: validates the configuration and the
/// failure trace, then runs the engine with the indexed selector, or with
/// the linear rescan when `reference` is set. `opts.alone`, when given,
/// must hold one denominator per arrival id.
pub(crate) fn run<I, S>(
    platform: &Platform,
    arrivals: I,
    config: &ServiceConfig,
    opts: &ScheduleOptions<'_>,
    reference: bool,
    sink: &mut S,
) -> Result<ServiceReport, MultiLoadError>
where
    I: Iterator<Item = (u64, LoadSpec)>,
    S: CompletionSink,
{
    validate_config(config)?;
    if let Some(failures) = opts.failures {
        failures.validate_for(platform.len())?;
    }
    if reference {
        let selector = RescanSelector {
            ids: Vec::new(),
            order: config.order,
            speed_sum: platform.speeds().iter().sum(),
            high_water: 0,
        };
        engine(platform, arrivals, config, opts, selector, sink)
    } else {
        let selector = IndexedSelector(PendingSet::new(config.order));
        engine(platform, arrivals, config, opts, selector, sink)
    }
}

/// The engine: event loop over (arrival, window, failure, completion)
/// events. See the module docs for the event model; failure semantics
/// follow [`crate::failure`] — events at or before `now` apply before
/// every window, a group never starts across a pending event (it and the
/// later groups are pushed back and re-ranked), and a group in flight at
/// an event is cut pro rata.
fn engine<I, Sel, S>(
    platform: &Platform,
    mut arrivals: I,
    config: &ServiceConfig,
    opts: &ScheduleOptions<'_>,
    mut selector: Sel,
    sink: &mut S,
) -> Result<ServiceReport, MultiLoadError>
where
    I: Iterator<Item = (u64, LoadSpec)>,
    Sel: Selector,
    S: CompletionSink,
{
    let p = platform.len();
    let speed_sum: f64 = platform.speeds().iter().sum();
    let solver = nonlinear::SolverConfig::default();
    // Two solver handles: installment solves thread through one (the
    // first solve cold, so one immediate load reproduces the single-load
    // solver); admission-time alone solves thread through the other, in
    // admission order — kept apart so interleaving cannot perturb either
    // sequence's outer hints or share seeds. A `Down` event shrinks the
    // platform mid-trace; the handle detects the lane change and drops its
    // now wrong-length share seeds.
    let mut bsolver = BatchSolver::default();
    let mut bsolver_alone = BatchSolver::default();
    let no_failures = FailureTrace::none();
    let mut fstate = PlatformState::new(platform, opts.failures.unwrap_or(&no_failures));
    let mut scratch: Vec<f64> = Vec::new();
    let mut states: BTreeMap<u64, LoadState> = BTreeMap::new();
    let mut report = ServiceReport::new(p);
    let mut lookahead: Option<(u64, LoadSpec)> = None;
    let mut last_release = 0.0f64;
    let mut last_served: Option<u64> = None;
    let mut now = 0.0f64;
    let mut window: Vec<u64> = Vec::new();
    loop {
        // Failure event: apply everything at or before `now` before any
        // admission or ranking decision.
        fstate.advance_to(now)?;
        // Admission event: pull every arrival released by `now`, in stream
        // order.
        loop {
            if lookahead.is_none() {
                match arrivals.next() {
                    Some((id, spec)) => {
                        LoadSpec::new(spec.size, spec.model, spec.release)?;
                        if spec.release < last_release {
                            return Err(MultiLoadError::UnsortedArrivals { index: id });
                        }
                        last_release = spec.release;
                        lookahead = Some((id, spec));
                    }
                    None => break,
                }
            }
            let (id, spec) = lookahead.expect("just refilled");
            if spec.release > now {
                break;
            }
            lookahead = None;
            // Adaptive installments see the queue depth including the
            // load being admitted.
            let k = config.installments.pick(selector.len() + 1);
            let alone = match opts.alone {
                Some(alone) => alone[id as usize],
                None if config.track_stretch => {
                    report.alone_solves += k as u64;
                    alone_installment_makespan(platform, &spec, k, &solver, &mut bsolver_alone)?
                }
                None => 0.0,
            };
            let st = LoadState {
                spec,
                remaining: spec.size,
                inst_left: k,
                k,
                est: work_estimate(spec.size, spec.model, speed_sum),
                alone,
                started: f64::INFINITY,
                shares: vec![0.0; p],
                pieces: Vec::new(),
            };
            selector.push(st.entry(id), now);
            states.insert(id, st);
        }
        if selector.is_empty() {
            match lookahead {
                // Idle event: jump to the next arrival.
                Some((_, spec)) => {
                    now = spec.release;
                    continue;
                }
                None => break,
            }
        }
        // Window event: freeze the ranking, pop up to `batch` winners.
        window.clear();
        // Sized by what the window holds: `batch` may be `usize::MAX`
        // ("merge the whole pending set").
        let b = config.batch.min(selector.len());
        window.reserve(b);
        for _ in 0..b {
            let id = selector
                .pop_min(now, &states)
                .expect("selector length checked");
            window.push(id);
        }
        // Merge same-cost-law winners into one equal-finish solve each;
        // groups keep first-appearance (i.e. priority) order and are
        // served back to back. Membership keys on the bit pattern of the
        // law's parameters (the successor of the historical
        // `alpha.to_bits()` key).
        let mut groups: Vec<(CostLaw, Vec<(u64, f64)>)> = Vec::new();
        for &id in &window {
            let st = &states[&id];
            let data = next_installment(st.remaining, st.inst_left);
            match groups.iter_mut().find(|(m, _)| m.bits_eq(&st.spec.model)) {
                Some((_, members)) => members.push((id, data)),
                None => groups.push((st.spec.model, vec![(id, data)])),
            }
        }
        for gi in 0..groups.len() {
            let (model, members) = &groups[gi];
            // Every member is released by `now`: the group starts at once.
            let start = now;
            // Failure event before the group starts (an earlier group of
            // the window ended at or past it): this group and the remaining
            // winners go back to the pending set unserved, and the next
            // window applies the event and re-ranks against the degraded
            // platform.
            if fstate.next_event_at().is_some_and(|t| t <= start) {
                for (_, members) in &groups[gi..] {
                    for &(id, _) in members {
                        selector.push(states[&id].entry(id), now);
                    }
                }
                break;
            }
            let single = members.len() == 1;
            let total: f64 = if single {
                members[0].1
            } else {
                members.iter().map(|&(_, d)| d).sum()
            };
            let alloc = bsolver.solve(fstate.current(start)?.0, total, *model, &solver)?;
            report.solves += 1;
            let finish = start + alloc.makespan;
            // A failure strictly inside the group's round cuts every
            // member pro rata at the event time.
            let cut = fstate.next_event_at().filter(|&t| t < finish);
            let (served_until, phi) = match cut {
                Some(t) => (t, Some((t - start) / (finish - start))),
                None => (finish, None),
            };
            let x = fstate.scatter(&alloc.x, &mut scratch);
            for &(id, data) in members {
                // Preemption: a different load than last time, while that
                // one still has remaining data (a completed load has none
                // by definition — its state is gone).
                let preempted = last_served.is_some_and(|prev| {
                    prev != id && states.get(&prev).is_some_and(|s| s.remaining > 0.0)
                });
                if preempted {
                    report.preemptions += 1;
                }
                last_served = Some(id);
                report.decisions += 1;
                let st = states.get_mut(&id).expect("popped id is live");
                st.started = st.started.min(start);
                // Members split the merged allocation in proportion to
                // their data; a lone member takes it verbatim, so a
                // window of 1 solves exactly the installment. A cut member
                // keeps the served fraction φ of its share.
                let frac = data / total;
                for (w, &xi) in x.iter().enumerate() {
                    let mut share = if single { xi } else { xi * frac };
                    if let Some(phi) = phi {
                        share *= phi;
                    }
                    st.shares[w] += share;
                    if share > 0.0 {
                        report.worker_finish[w] = served_until;
                    }
                }
                let piece = match phi {
                    None => {
                        st.remaining = if st.inst_left == 1 {
                            0.0
                        } else {
                            st.remaining - data
                        };
                        st.inst_left -= 1;
                        ServedPiece {
                            data,
                            interrupted: false,
                            start,
                            finish: served_until,
                        }
                    }
                    Some(phi) => {
                        // Cut: retain the prefix, re-queue the remainder;
                        // the installment budget is not consumed.
                        let retained = data * phi;
                        let requeued = st.remaining - retained;
                        report.interruptions += 1;
                        report.requeued_data += requeued.max(0.0);
                        st.remaining = if requeued <= 0.0 { 0.0 } else { requeued };
                        ServedPiece {
                            data: retained,
                            interrupted: true,
                            start,
                            finish: served_until,
                        }
                    }
                };
                st.pieces.push(piece);
                if st.remaining <= 0.0 {
                    // Completion event: stream the load out and drop its
                    // state — nothing O(total-loads) survives it.
                    let st = states.remove(&id).expect("state is live");
                    report.loads += 1;
                    report.total_data += st.spec.size;
                    let flow = served_until - st.spec.release;
                    report.flow_sum += flow;
                    if config.track_stretch {
                        let stretch = flow / st.alone;
                        report.stretch_sum += stretch;
                        if stretch > report.max_stretch {
                            report.max_stretch = stretch;
                        }
                    }
                    sink.completed(CompletedLoad {
                        id,
                        spec: st.spec,
                        start: st.started,
                        finish: served_until,
                        alone: st.alone,
                        installments: st.k,
                        shares: st.shares,
                        pieces: st.pieces,
                    });
                } else {
                    // Only the served load's estimate changed: one powf —
                    // still the healthy-platform normalization — then
                    // back into the pending set under its new key.
                    st.est = work_estimate(st.remaining, st.spec.model, speed_sum);
                    selector.push(st.entry(id), served_until);
                }
            }
            now = served_until;
        }
    }
    report.makespan = now;
    report.pending_high_water = selector.high_water();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::from_speeds_and_costs(&[1.0, 3.0, 0.7], &[1.0, 0.2, 2.0]).unwrap()
    }

    fn sorted_loads() -> Vec<LoadSpec> {
        vec![
            LoadSpec::new(20.0, 2.0, 0.0).unwrap(),
            LoadSpec::new(5.0, 1.5, 0.5).unwrap(),
            LoadSpec::new(10.0, 1.0, 3.0).unwrap(),
            LoadSpec::new(12.0, 2.5, 8.0).unwrap(),
        ]
    }

    #[test]
    fn config_validation() {
        let platform = platform();
        let loads = [LoadSpec::immediate(1.0, 1.0).unwrap()];
        let run = |cfg: ServiceConfig| {
            serve_trace(
                &platform,
                loads.iter().copied(),
                &cfg,
                &mut DiscardCompletions,
            )
        };
        assert!(matches!(
            run(ServiceConfig {
                batch: 0,
                ..ServiceConfig::default()
            }),
            Err(MultiLoadError::ZeroBatch)
        ));
        assert!(matches!(
            run(ServiceConfig {
                installments: InstallmentPolicy::Fixed(0),
                ..ServiceConfig::default()
            }),
            Err(MultiLoadError::ZeroInstallments)
        ));
        assert!(matches!(
            run(ServiceConfig {
                installments: InstallmentPolicy::Adaptive { min: 0, max: 4 },
                ..ServiceConfig::default()
            }),
            Err(MultiLoadError::ZeroInstallments)
        ));
        assert!(matches!(
            run(ServiceConfig {
                installments: InstallmentPolicy::Adaptive { min: 5, max: 2 },
                ..ServiceConfig::default()
            }),
            Err(MultiLoadError::InvalidServiceConfig { .. })
        ));
        assert!(matches!(
            run(ServiceConfig {
                order: AdmissionOrder::WeightedStretch,
                track_stretch: false,
                ..ServiceConfig::default()
            }),
            Err(MultiLoadError::InvalidServiceConfig { .. })
        ));
    }

    #[test]
    fn unsorted_trace_rejected_sorted_accepted() {
        let platform = platform();
        let unsorted = [
            LoadSpec::new(1.0, 1.0, 5.0).unwrap(),
            LoadSpec::new(1.0, 1.0, 2.0).unwrap(),
        ];
        assert!(matches!(
            serve_trace(
                &platform,
                unsorted.iter().copied(),
                &ServiceConfig::default(),
                &mut DiscardCompletions,
            ),
            Err(MultiLoadError::UnsortedArrivals { index: 1 })
        ));
        let ok = serve_trace(
            &platform,
            sorted_loads(),
            &ServiceConfig::default(),
            &mut DiscardCompletions,
        )
        .unwrap();
        assert_eq!(ok.loads, 4);
    }

    #[test]
    fn empty_trace_is_an_empty_report_not_an_error() {
        let report = serve_trace(
            &platform(),
            std::iter::empty(),
            &ServiceConfig::default(),
            &mut DiscardCompletions,
        )
        .unwrap();
        assert_eq!(report.loads, 0);
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.pending_high_water, 0);
    }

    #[test]
    fn batching_amortizes_solves() {
        let platform = platform();
        // A burst of same-α loads: window 4 merges them into shared
        // solves, so the solve count drops well below the decision count.
        let loads: Vec<LoadSpec> = (0..16)
            .map(|j| LoadSpec::immediate(10.0 + j as f64, 1.5).unwrap())
            .collect();
        let cfg = ServiceConfig {
            order: AdmissionOrder::Srpt,
            batch: 4,
            installments: InstallmentPolicy::Fixed(1),
            track_stretch: true,
        };
        let report = serve_trace(
            &platform,
            loads.iter().copied(),
            &cfg,
            &mut DiscardCompletions,
        )
        .unwrap();
        assert_eq!(report.loads, 16);
        assert_eq!(report.decisions, 16);
        assert_eq!(
            report.solves, 4,
            "16 decisions in windows of 4 same-α loads"
        );
        // Mixed α within a window cannot merge: one solve per α group.
        // (FIFO keeps arrival order, so alternating α really lands mixed
        // windows — SRPT would sort the α groups apart again.)
        let mixed: Vec<LoadSpec> = (0..16)
            .map(|j| LoadSpec::immediate(10.0 + j as f64, 1.0 + 0.5 * (j % 2) as f64).unwrap())
            .collect();
        let mixed_report = serve_trace(
            &platform,
            mixed.iter().copied(),
            &ServiceConfig {
                order: AdmissionOrder::Fifo,
                ..cfg
            },
            &mut DiscardCompletions,
        )
        .unwrap();
        assert!(mixed_report.solves > 4);
        assert!(mixed_report.solves < mixed_report.decisions);
    }

    #[test]
    fn adaptive_installments_follow_queue_depth() {
        let platform = platform();
        // 6 loads all released at once: admitted into depths 1..=6, so
        // with Adaptive{1, 4} the picks are 1, 2, 3, 4, 4, 4.
        let loads: Vec<LoadSpec> = (0..6)
            .map(|j| LoadSpec::immediate(10.0 + j as f64, 1.5).unwrap())
            .collect();
        let cfg = ServiceConfig {
            order: AdmissionOrder::Fifo,
            batch: 1,
            installments: InstallmentPolicy::Adaptive { min: 1, max: 4 },
            track_stretch: true,
        };
        let mut done: Vec<CompletedLoad> = Vec::new();
        let report = serve_trace(&platform, loads.iter().copied(), &cfg, &mut done).unwrap();
        let mut picks: Vec<(u64, usize)> = done.iter().map(|c| (c.id, c.installments)).collect();
        picks.sort_unstable();
        let ks: Vec<usize> = picks.iter().map(|&(_, k)| k).collect();
        assert_eq!(ks, vec![1, 2, 3, 4, 4, 4]);
        assert_eq!(report.decisions, (1 + 2 + 3 + 4 + 4 + 4) as u64);
        // A lone load admitted into an empty queue is served whole.
        let lone = [LoadSpec::immediate(10.0, 1.5).unwrap()];
        let mut lone_done: Vec<CompletedLoad> = Vec::new();
        serve_trace(&platform, lone.iter().copied(), &cfg, &mut lone_done).unwrap();
        assert_eq!(lone_done[0].installments, 1);
    }

    #[test]
    fn conservation_and_stretch_floor_hold_under_batching() {
        let platform = platform();
        let loads = sorted_loads();
        for batch in [1usize, 2, 4] {
            let cfg = ServiceConfig {
                order: AdmissionOrder::Srpt,
                batch,
                installments: InstallmentPolicy::Fixed(2),
                track_stretch: true,
            };
            let mut done: Vec<CompletedLoad> = Vec::new();
            let report = serve_trace(&platform, loads.iter().copied(), &cfg, &mut done).unwrap();
            assert_eq!(report.loads, loads.len() as u64);
            for c in &done {
                let shipped: f64 = c.shares.iter().sum();
                let size = c.spec.size;
                assert!(
                    (shipped - size).abs() < 1e-9 * size,
                    "batch={batch}: load {} shipped {shipped} of {size}",
                    c.id
                );
                assert!(c.stretch() >= 1.0 - 1e-9, "batch={batch}");
            }
            assert!(report.mean_stretch() >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn invalid_spec_in_stream_is_rejected() {
        let bad = LoadSpec {
            size: -3.0,
            model: CostLaw::alpha_power(2.0),
            release: 0.0,
        };
        assert!(matches!(
            serve_trace(
                &platform(),
                [bad].into_iter(),
                &ServiceConfig::default(),
                &mut DiscardCompletions,
            ),
            Err(MultiLoadError::InvalidSize { .. })
        ));
    }
}
