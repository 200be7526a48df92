//! The two service workloads: a materialised arrival trace served by the
//! streaming engine (`dlt_multiload::serve_trace` /
//! `serve_trace_with_failures`) on one thread.
//!
//! * `service-steady` — Poisson arrivals at offered utilisation 0.8, SRPT,
//!   window 1, one installment per load: a shallow queue where solving
//!   dominates.
//! * `service-backlog` — MMPP bursts at nominal utilisation 0.8, weighted
//!   stretch (the lazily re-keyed pending list), window 8, adaptive 1–16
//!   installments and a few platform-degradation waves: a deep but bounded
//!   queue where selection, merging, preemption and the failure path work.
//!
//! Arrivals are paced in simulated time; in wall time the engine pulls the
//! next arrival as soon as it is ready (a closed loop), so there is no
//! generator lateness. A warm-up pass audits every completed load; timed
//! passes then stream completions into a sink that only stamps the wall
//! clock, and must reproduce the audited `ServiceReport` exactly.

use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats::{median, nearest_rank, tail, Percentile};
use crate::{time_setup, Budget};
use dlt_core::batch::{BatchSolver, SolveBackend};
use dlt_core::costmodel::CostModel;
use dlt_core::nonlinear::SolverConfig;
use dlt_experiments::generators::{degradation_trace, regime_loads, Regime};
use dlt_experiments::models::ModelFamily;
use dlt_experiments::multiload::{DEFAULT_ALPHAS, DEFAULT_BASE_SIZE};
use dlt_experiments::service::{arrival_trace, calibrated_spacing};
use dlt_multiload::{
    replay_ledger, serve_trace, serve_trace_reference, serve_trace_with_failures,
    serve_trace_with_failures_reference, AdmissionOrder, CompletedLoad, CompletionSink,
    FailureTrace, InstallmentPolicy, LoadSpec, MultiLoadError, PendingEntry, PendingSet,
    ServiceConfig, ServiceReport,
};
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use std::time::Instant;

/// Worker count of the service platform.
pub const P: usize = 8;

/// Seed of the service platform and of the backlog's failure scenario:
/// both are fixed, the workload seed draws the traffic.
const PLATFORM_SEED: u64 = 42;

/// Offered utilisation of `service-steady`.
const STEADY_UTILIZATION: f64 = 0.8;

/// Nominal utilisation of `service-backlog`. MMPP bursts and the
/// failure waves' lost capacity build a queue several times deeper than
/// `service-steady`'s, and adaptive installments (less total work for
/// α > 1 when a load is cut finer) keep it bounded. Higher values make
/// the stretch tail swing with the seed's worst bursts (1.2 with
/// seed-drawn waves left one seed's queue growing without bound).
const BACKLOG_UTILIZATION: f64 = 0.8;

/// Degradation waves of `service-backlog`.
const BACKLOG_WAVES: usize = 2;

/// Loads per `service-steady` trace.
pub const STEADY_LOADS: usize = 40_000;

/// Loads per `service-backlog` trace.
pub const BACKLOG_LOADS: usize = 20_000;

/// Loads of the trace prefix that set-up replays through the linear-rescan
/// reference twin.
const TWIN_PREFIX: usize = 2_000;

/// Relative tolerance of the per-load conservation check.
const CONSERVATION_TOL: f64 = 1e-9;

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `service-steady`.
    Steady,
    /// `service-backlog`.
    Backlog,
}

impl Kind {
    /// Engine configuration of the workload.
    pub fn config(self) -> ServiceConfig {
        match self {
            Kind::Steady => ServiceConfig {
                order: AdmissionOrder::Srpt,
                batch: 1,
                installments: InstallmentPolicy::Fixed(1),
                track_stretch: true,
            },
            Kind::Backlog => ServiceConfig {
                order: AdmissionOrder::WeightedStretch,
                batch: 8,
                installments: InstallmentPolicy::Adaptive { min: 1, max: 16 },
                track_stretch: true,
            },
        }
    }

    /// Default trace length.
    pub fn default_loads(self) -> usize {
        match self {
            Kind::Steady => STEADY_LOADS,
            Kind::Backlog => BACKLOG_LOADS,
        }
    }
}

/// A fully materialised service workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// The platform (p = 8, uniform speed profile, drawn from the seed).
    pub platform: Platform,
    /// The arrival trace, sorted by release.
    pub loads: Vec<LoadSpec>,
    /// Degradation waves (`service-backlog` only).
    pub failures: Option<FailureTrace>,
    /// Engine configuration.
    pub config: ServiceConfig,
}

/// Generates the workload from `seed`: platform, calibrated pacing, the
/// arrival trace of `loads` loads and, for the backlog, its failure waves.
pub fn generate(kind: Kind, seed: u64, loads: usize) -> Input {
    let platform = PlatformSpec::new(P, SpeedDistribution::paper_uniform())
        .generate_stream(PLATFORM_SEED, 0)
        .expect("valid platform spec");
    let family = ModelFamily::AlphaPower;
    let utilization = match kind {
        Kind::Steady => STEADY_UTILIZATION,
        Kind::Backlog => BACKLOG_UTILIZATION,
    };
    let spacing = calibrated_spacing(
        &platform,
        DEFAULT_BASE_SIZE,
        &DEFAULT_ALPHAS,
        utilization,
        family,
    );
    let (trace, failures) = match kind {
        Kind::Steady => {
            let trace = arrival_trace(
                loads,
                DEFAULT_BASE_SIZE,
                DEFAULT_ALPHAS.to_vec(),
                spacing,
                seed,
                family,
            )
            .collect();
            (trace, None)
        }
        Kind::Backlog => {
            let trace = regime_loads(
                Regime::MmppBurst,
                loads,
                DEFAULT_BASE_SIZE,
                &DEFAULT_ALPHAS,
                spacing,
                seed,
                0,
            );
            let failures = waves(span(&trace), 0);
            (trace, Some(failures))
        }
    };
    Input {
        platform,
        loads: trace,
        failures,
        config: kind.config(),
    }
}

/// The backlog's failure scenario over `horizon`: the first
/// `degradation_trace` stream of the scenario seed, from `first_stream`
/// on, that holds exactly [`BACKLOG_WAVES`] waves. Like the platform, the
/// scenario is fixed — its waves strike at the same fractions of every
/// trace's span — so that seeds differ only in their traffic.
fn waves(horizon: f64, first_stream: u64) -> FailureTrace {
    (first_stream..)
        .map(|stream| degradation_trace(P, horizon, BACKLOG_WAVES as f64, PLATFORM_SEED, stream))
        .find(|trace| {
            let mut times: Vec<f64> = trace.events().iter().map(|e| e.at).collect();
            times.dedup();
            times.len() == BACKLOG_WAVES
        })
        .expect("a stream with the wanted wave count exists")
}

/// Release span of a trace (positive, for use as a failure horizon).
fn span(loads: &[LoadSpec]) -> f64 {
    loads
        .last()
        .map_or(1.0, |l| l.release)
        .max(f64::MIN_POSITIVE)
}

/// Serves `loads` on the workload's platform through the public entry
/// point the workload names.
fn serve<S: CompletionSink>(
    input: &Input,
    loads: &[LoadSpec],
    failures: Option<&FailureTrace>,
    sink: &mut S,
) -> Result<ServiceReport, MultiLoadError> {
    let trace = loads.iter().copied();
    match failures {
        None => serve_trace(&input.platform, trace, &input.config, sink),
        Some(f) => serve_trace_with_failures(&input.platform, trace, &input.config, f, sink),
    }
}

/// The timed passes' sink: the wall instant of every completion, in
/// nanoseconds since the pass started, and nothing else.
struct StampSink {
    t0: Instant,
    stamps: Vec<u64>,
}

impl CompletionSink for StampSink {
    fn completed(&mut self, _load: CompletedLoad) {
        self.stamps.push(self.t0.elapsed().as_nanos() as u64);
    }
}

/// What the audit keeps of one completed load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Arrival id.
    pub id: u64,
    /// The load as admitted.
    pub spec: LoadSpec,
    /// Start of its first installment.
    pub start: f64,
    /// End of its last installment.
    pub finish: f64,
    /// Engine's alone makespan (stretch denominator).
    pub alone: f64,
    /// Installments it was cut into.
    pub installments: usize,
}

/// The audited pass's sink: checks every load as it completes and keeps
/// what the replays and the stretch percentiles need.
#[derive(Debug)]
pub struct AuditSink<'a> {
    /// Pristine platform (the realized-alone denominator of cut loads).
    platform: &'a Platform,
    /// Completed loads, in completion order.
    pub records: Vec<Completion>,
    /// Check failures, one message per failed load.
    pub failures: Vec<String>,
}

impl<'a> AuditSink<'a> {
    /// An empty audit on `platform`.
    pub fn new(platform: &'a Platform) -> Self {
        Self {
            platform,
            records: Vec::new(),
            failures: Vec::new(),
        }
    }
}

impl CompletionSink for AuditSink<'_> {
    fn completed(&mut self, load: CompletedLoad) {
        if let Err(e) = check_completion(&load, self.platform) {
            self.failures.push(format!("load {}: {e}", load.id));
        }
        self.records.push(Completion {
            id: load.id,
            spec: load.spec,
            start: load.start,
            finish: load.finish,
            alone: load.alone,
            installments: load.installments,
        });
    }
}

/// The per-load output checks: data conservation within 1e-9 relative,
/// a bitwise ledger replay ending at exactly `0.0`, and a stretch of at
/// least `1 − 1e-9`. The engine's stretch denominator assumes `k` uncut
/// installments; a load a failure cut was served in other, smaller
/// pieces (less total work for α > 1), so its floor is checked against
/// the alone makespan of the pieces it was actually served in.
pub fn check_completion(load: &CompletedLoad, platform: &Platform) -> Result<(), String> {
    let size = load.spec.size;
    let shipped: f64 = load.shares.iter().sum();
    // Written so that a NaN share fails too.
    let conserved = (shipped - size).abs() <= CONSERVATION_TOL * size;
    if !conserved {
        return Err(format!("shares sum to {shipped}, size is {size}"));
    }
    match replay_ledger(size, load.installments, &load.pieces) {
        Ok(rest) if rest.to_bits() == 0.0f64.to_bits() => {}
        Ok(rest) => return Err(format!("ledger replay leaves {rest}")),
        Err(e) => return Err(format!("ledger replay: {e}")),
    }
    let alone = if load.pieces.iter().any(|piece| piece.interrupted) {
        realized_alone(platform, load)?
    } else {
        load.alone
    };
    let stretch = load.flow() / alone;
    let at_least_alone = stretch >= 1.0 - 1e-9;
    if !at_least_alone {
        return Err(format!("stretch {stretch} below 1"));
    }
    Ok(())
}

/// Alone makespan of a load at its realized granularity: its served
/// pieces solved back to back on the pristine platform.
fn realized_alone(platform: &Platform, load: &CompletedLoad) -> Result<f64, String> {
    let config = SolverConfig::default();
    let mut solver = BatchSolver::new(SolveBackend::Scalar);
    let mut total = 0.0;
    for piece in load.pieces.iter().filter(|piece| piece.data > 0.0) {
        total += solver
            .solve(platform, piece.data, load.spec.model, &config)
            .map_err(|e| format!("realized alone solve: {e}"))?
            .makespan;
    }
    Ok(total)
}

/// Ids of `0..n` that never completed.
pub fn missing_ids(records: &[Completion], n: usize) -> Vec<u64> {
    let mut seen = vec![false; n];
    for r in records {
        if let Some(s) = seen.get_mut(r.id as usize) {
            *s = true;
        }
    }
    (0..n as u64).filter(|&i| !seen[i as usize]).collect()
}

/// Outcome of the audited pass.
struct Audit {
    report: ServiceReport,
    records: Vec<Completion>,
    /// Loads that failed a check or never completed.
    failed_loads: u64,
}

/// Serves the whole trace once into an [`AuditSink`], recording every
/// failed check in `out`.
fn audited_pass(input: &Input, out: &mut Outcome) -> Result<Audit, String> {
    let mut sink = AuditSink::new(&input.platform);
    let report = serve(input, &input.loads, input.failures.as_ref(), &mut sink)
        .map_err(|e| format!("engine error: {e}"))?;
    let missing = missing_ids(&sink.records, input.loads.len());
    let failed_loads = (sink.failures.len() + missing.len()) as u64;
    for msg in sink.failures.iter().take(5) {
        out.notes.push(format!("check failed: {msg}"));
    }
    if !missing.is_empty() {
        out.notes.push(format!(
            "check failed: {} loads never completed (first id {})",
            missing.len(),
            missing[0]
        ));
    }
    Ok(Audit {
        report,
        records: sink.records,
        failed_loads,
    })
}

/// What one timed pass measured.
struct Pass {
    /// Wall seconds.
    wall: f64,
    /// Decisions per wall second.
    rate: f64,
    /// Median gap (µs) between consecutive completion-sink calls.
    gap_p50: Percentile,
    /// Tail gap by the percentile rule.
    gap_p99: Percentile,
}

/// One timed pass. Gap percentiles are taken per pass (tens of thousands
/// of gaps each), so memory does not grow with the number of passes.
/// Errors when the pass does not reproduce the audited report.
fn timed_pass(input: &Input, audited: &ServiceReport) -> Result<Pass, String> {
    let mut sink = StampSink {
        t0: Instant::now(),
        stamps: Vec::with_capacity(input.loads.len()),
    };
    sink.t0 = Instant::now();
    let report = serve(input, &input.loads, input.failures.as_ref(), &mut sink)
        .map_err(|e| format!("engine error: {e}"))?;
    let wall = sink.t0.elapsed().as_secs_f64();
    if &report != audited || sink.stamps.len() != input.loads.len() {
        return Err("a timed pass diverged from the audited pass".into());
    }
    let mut gaps: Vec<f64> = sink
        .stamps
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 1e3)
        .collect();
    gaps.sort_by(f64::total_cmp);
    let too_few = || "too few completions for gap percentiles".to_string();
    Ok(Pass {
        wall,
        rate: report.decisions as f64 / wall,
        gap_p50: tail(&gaps, 50.0).ok_or_else(too_few)?,
        gap_p99: tail(&gaps, 99.0).ok_or_else(too_few)?,
    })
}

/// Set-up, untimed: a prefix of the trace through the engine and through
/// its linear-rescan reference twin must give identical reports and
/// completions. The backlog prefix gets degradation waves of its own, so
/// the failure path is compared too.
fn twin_check(kind: Kind, input: &Input) -> Result<(), String> {
    let loads = &input.loads[..TWIN_PREFIX.min(input.loads.len())];
    let failures = match kind {
        Kind::Steady => None,
        Kind::Backlog => Some(waves(span(loads), 1 << 32)),
    };
    let mut fast: Vec<CompletedLoad> = Vec::new();
    let mut reference: Vec<CompletedLoad> = Vec::new();
    let fast_report = serve(input, loads, failures.as_ref(), &mut fast);
    let ref_report = match &failures {
        None => serve_trace_reference(&input.platform, loads, &input.config, &mut reference),
        Some(f) => serve_trace_with_failures_reference(
            &input.platform,
            loads,
            &input.config,
            f,
            &mut reference,
        ),
    };
    match (fast_report, ref_report) {
        (Ok(a), Ok(b)) if a == b && fast == reference => Ok(()),
        (Ok(_), Ok(_)) => Err(format!(
            "engine and reference twin disagree on a {}-load prefix",
            loads.len()
        )),
        (a, b) => Err(format!("twin check errored: {:?} / {:?}", a.err(), b.err())),
    }
}

/// Shared front of both modes: set-up, twin check and the audited pass.
fn prepare(
    kind: Kind,
    seed: u64,
    loads: usize,
    out: &mut Outcome,
) -> Result<(Input, Audit), String> {
    let input = generate(kind, seed, loads);
    if let Err(e) = twin_check(kind, &input) {
        out.fail(e);
    }
    let audit = audited_pass(&input, out)?;
    let r = &audit.report;
    out.notes.push(format!(
        "{} loads, {} decisions, {} solves, {} alone solves, {} preemptions, \
         peak pending {}, {} interruptions, {} failure events",
        r.loads,
        r.decisions,
        r.solves,
        r.alone_solves,
        r.preemptions,
        r.pending_high_water,
        r.interruptions,
        input.failures.as_ref().map_or(0, FailureTrace::len),
    ));
    Ok((input, audit))
}

/// Untraced run: end-to-end metrics.
pub fn run(kind: Kind, seed: u64, loads: usize, budget: Budget) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (input, audit) = prepare(kind, seed, loads, &mut out)?;
    let n = input.loads.len() as u64;
    let mut passes = Vec::new();
    let mut tried = 0;
    let clock = Instant::now();
    while budget.more(tried, clock) {
        tried += 1;
        out.attempted += n;
        match timed_pass(&input, &audit.report) {
            Ok(pass) => {
                out.failed += audit.failed_loads;
                passes.push(pass);
            }
            Err(e) => {
                out.failed += n;
                out.notes.push(format!("check failed: {e}"));
            }
        }
    }
    let first = passes.first().ok_or("no timed pass succeeded")?;
    out.notes.push(format!(
        "{} timed passes; completion gaps per pass: {} samples, tail at p{}",
        passes.len(),
        first.gap_p99.samples,
        first.gap_p99.level,
    ));
    let med = |f: fn(&Pass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>()).expect("a pass succeeded")
    };
    let mut stretches: Vec<f64> = audit
        .records
        .iter()
        .map(|c| (c.finish - c.spec.release) / c.alone)
        .collect();
    stretches.sort_by(f64::total_cmp);
    out.set(
        "setup_s",
        time_setup(&input, || generate(kind, seed, loads))?,
    );
    out.set("wall_s", med(|p| p.wall));
    out.set("peak_rss_mb", peak_rss_mb()?);
    out.set("decisions_per_s", med(|p| p.rate));
    out.set("completion_gap_p50_us", med(|p| p.gap_p50.value));
    out.set("completion_gap_p99_us", med(|p| p.gap_p99.value));
    out.set("stretch_mean", audit.report.mean_stretch());
    out.set(
        "stretch_p99",
        nearest_rank(&stretches, 99.0).ok_or("no load completed")?,
    );
    Ok(out)
}

/// Replays the admission-time alone solves from the engine's output:
/// loads in id order, each cut by the documented `remaining / left` rule
/// into its own installment count, all threaded through one cold solver
/// handle — the engine's alone-solve sequence. Returns per-solve wall
/// times (µs) and the ids whose replayed makespan differs bitwise from
/// the engine's `alone`.
pub fn replay_alone(
    platform: &Platform,
    records: &[Completion],
) -> Result<(Vec<f64>, Vec<u64>), String> {
    let mut by_id: Vec<&Completion> = records.iter().collect();
    by_id.sort_by_key(|c| c.id);
    let config = SolverConfig::default();
    let mut solver = BatchSolver::new(SolveBackend::Scalar);
    let mut times = Vec::with_capacity(by_id.len());
    let mut mismatched = Vec::new();
    for c in by_id {
        let mut remaining = c.spec.size;
        let mut total = 0.0;
        for left in (1..=c.installments).rev() {
            let inst = if left <= 1 {
                remaining
            } else {
                remaining / left as f64
            };
            let t0 = Instant::now();
            let alloc = solver
                .solve(platform, inst, c.spec.model, &config)
                .map_err(|e| format!("alone replay of load {}: {e}", c.id))?;
            times.push(t0.elapsed().as_secs_f64() * 1e6);
            total += alloc.makespan;
            remaining = if left == 1 { 0.0 } else { remaining - inst };
        }
        if total.to_bits() != c.alone.to_bits() {
            mismatched.push(c.id);
        }
    }
    Ok((times, mismatched))
}

/// Replays the installment solves of a window-1, one-installment,
/// failure-free run: completion order is decision order, each load is
/// solved whole through one cold handle, and `start + makespan` must
/// equal the engine's `finish` bitwise. Returns per-solve wall times (µs)
/// and the mismatched ids.
pub fn replay_installments(
    platform: &Platform,
    records: &[Completion],
) -> Result<(Vec<f64>, Vec<u64>), String> {
    let config = SolverConfig::default();
    let mut solver = BatchSolver::new(SolveBackend::Scalar);
    let mut times = Vec::with_capacity(records.len());
    let mut mismatched = Vec::new();
    for c in records {
        let t0 = Instant::now();
        let alloc = solver
            .solve(platform, c.spec.size, c.spec.model, &config)
            .map_err(|e| format!("installment replay of load {}: {e}", c.id))?;
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        if (c.start + alloc.makespan).to_bits() != c.finish.to_bits() {
            mismatched.push(c.id);
        }
    }
    Ok((times, mismatched))
}

/// Cycles timed per batch of the pending-set microbenchmark.
const CYCLES_PER_BATCH: usize = 1_000;

/// Batches of the pending-set microbenchmark (the median is reported).
const CYCLE_BATCHES: usize = 21;

/// Microbenchmark of the engine's pending set: a `PendingSet` of the
/// workload's order holding its measured peak depth of entries, keyed
/// exactly as the engine keys them at admission and drawn from the
/// workload's first loads, timed over `push` + `pop_min` cycles. Median
/// µs per cycle.
pub fn pending_cycle_us(input: &Input, records: &[Completion], depth: usize) -> f64 {
    let speed_sum: f64 = input.platform.speeds().iter().sum();
    let mut by_id: Vec<&Completion> = records.iter().collect();
    by_id.sort_by_key(|c| c.id);
    let mut set = PendingSet::new(input.config.order);
    let entries: Vec<PendingEntry> = by_id
        .iter()
        .take(depth.max(1))
        .map(|c| PendingEntry {
            id: c.id,
            release: c.spec.release,
            est: c.spec.model.work(c.spec.size) / speed_sum,
            alone: c.alone,
        })
        .collect();
    let now = entries.last().map_or(0.0, |e| e.release);
    for &e in &entries {
        set.push(e, now);
    }
    let mut per_cycle = Vec::with_capacity(CYCLE_BATCHES);
    for _ in 0..CYCLE_BATCHES {
        let t0 = Instant::now();
        for _ in 0..CYCLES_PER_BATCH {
            let e = set.pop_min(now).expect("set holds `depth` entries");
            set.push(std::hint::black_box(e), now);
        }
        per_cycle.push(t0.elapsed().as_secs_f64() * 1e6 / CYCLES_PER_BATCH as f64);
    }
    median(&per_cycle).expect("CYCLE_BATCHES > 0")
}

/// Traced run: per-layer metrics. Pairs an untraced pass with a traced
/// (audited) pass and the solver replays until the budget is spent.
pub fn run_traced(kind: Kind, seed: u64, loads: usize, budget: Budget) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (input, audit) = prepare(kind, seed, loads, &mut out)?;
    let n = input.loads.len() as u64;
    let exact_installments = kind == Kind::Steady;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut alone_s = Vec::new();
    let mut inst_s = Vec::new();
    let mut alone_us = Vec::new();
    let mut inst_us = Vec::new();
    let mut gap_tail = None;
    let clock = Instant::now();
    while budget.more(traced.len(), clock) {
        out.attempted += n;
        let pass = timed_pass(&input, &audit.report)?;
        untraced.push(pass.wall);
        gap_tail = Some(pass.gap_p99);
        let mut sink = AuditSink::new(&input.platform);
        let t0 = Instant::now();
        let report = serve(&input, &input.loads, input.failures.as_ref(), &mut sink)
            .map_err(|e| format!("engine error: {e}"))?;
        traced.push(t0.elapsed().as_secs_f64());
        if report != audit.report || sink.records != audit.records {
            return Err("a traced pass diverged from the audited pass".into());
        }
        out.failed += audit.failed_loads;
        let (times, bad) = replay_alone(&input.platform, &sink.records)?;
        if let Some(id) = bad.first() {
            out.fail(format!(
                "{} alone replays differ bitwise from the engine (first: load {id})",
                bad.len()
            ));
        }
        alone_s.push(times.iter().sum::<f64>() / 1e6);
        alone_us.extend(times);
        if exact_installments {
            let (times, bad) = replay_installments(&input.platform, &sink.records)?;
            if let Some(id) = bad.first() {
                out.fail(format!(
                    "{} installment replays differ bitwise from the engine (first: load {id})",
                    bad.len()
                ));
            }
            inst_s.push(times.iter().sum::<f64>() / 1e6);
            inst_us.extend(times);
        }
    }
    let r = &audit.report;
    let untraced_wall = median(&untraced).ok_or("no pass")?;
    let traced_wall = median(&traced).ok_or("no pass")?;
    let alone_total = median(&alone_s).ok_or("no pass")?;
    alone_us.sort_by(f64::total_cmp);
    out.set("solver.alone_s", alone_total);
    set_percentiles(
        &mut out,
        &alone_us,
        "solver.alone_solve_us_p50",
        "solver.alone_solve_us_p99",
    );
    if exact_installments {
        let inst_total = median(&inst_s).ok_or("no pass")?;
        inst_us.sort_by(f64::total_cmp);
        out.set("solver.installment_s", inst_total);
        set_percentiles(
            &mut out,
            &inst_us,
            "solver.installment_solve_us_p50",
            "solver.installment_solve_us_p99",
        );
        // Derived: what the replays do not account for.
        out.set("service.self_s", untraced_wall - inst_total - alone_total);
    }
    out.set("service.decisions", r.decisions as f64);
    out.set("service.solves", r.solves as f64);
    out.set(
        "service.decisions_per_solve",
        r.decisions as f64 / r.solves as f64,
    );
    out.set("service.alone_solves", r.alone_solves as f64);
    out.set("service.preemptions", r.preemptions as f64);
    out.set("service.peak_pending", r.pending_high_water as f64);
    out.set(
        "event_queue.pop_us_at_peak",
        pending_cycle_us(&input, &audit.records, r.pending_high_water),
    );
    if let Some(f) = &input.failures {
        out.set("failure.events", f.len() as f64);
        out.set("failure.interruptions", r.interruptions as f64);
        out.set("failure.requeued_data", r.requeued_data);
    }
    if let Some(p) = gap_tail {
        out.set("completion_gap.samples", p.samples as f64);
        out.set("completion_gap.tail_level", p.level);
    }
    out.set("trace.untraced_wall_s", untraced_wall);
    out.set("trace.traced_wall_s", traced_wall);
    out.set("trace.overhead_s", traced_wall - untraced_wall);
    out.notes.push(format!(
        "{} traced pairs; {} alone and {} installment solves replayed per pass",
        traced.len(),
        r.alone_solves,
        if exact_installments { r.solves } else { 0 }
    ));
    Ok(out)
}

/// Sets a p50/p99 pair from sorted per-call samples (µs).
fn set_percentiles(out: &mut Outcome, sorted: &[f64], p50: &'static str, p99: &'static str) {
    if let Some(p) = tail(sorted, 50.0) {
        out.set(p50, p.value);
    }
    if let Some(p) = tail(sorted, 99.0) {
        out.set(p99, p.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short trace of `kind`, audited: input, completions, check
    /// failures and the report.
    fn small(kind: Kind) -> (Input, Vec<Completion>, Vec<String>, ServiceReport) {
        let input = generate(kind, 7, 300);
        let mut sink = AuditSink::new(&input.platform);
        let report = serve(&input, &input.loads, input.failures.as_ref(), &mut sink).unwrap();
        let (records, failures) = (sink.records, sink.failures);
        (input, records, failures, report)
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for kind in [Kind::Steady, Kind::Backlog] {
            let a = generate(kind, 3, 200);
            let b = generate(kind, 3, 200);
            assert_eq!(a.loads, b.loads);
            assert_eq!(a.failures, b.failures);
            assert_ne!(a.loads, generate(kind, 4, 200).loads);
        }
    }

    #[test]
    fn backlog_scenario_has_its_waves() {
        let input = generate(Kind::Backlog, 3, 200);
        let mut times: Vec<f64> = input
            .failures
            .unwrap()
            .events()
            .iter()
            .map(|e| e.at)
            .collect();
        times.dedup();
        assert_eq!(times.len(), BACKLOG_WAVES);
    }

    #[test]
    fn alone_replay_with_the_cut_rule_matches_the_engine_bitwise() {
        for kind in [Kind::Steady, Kind::Backlog] {
            let (input, records, failures, report) = small(kind);
            assert!(failures.is_empty(), "{failures:?}");
            let (times, bad) = replay_alone(&input.platform, &records).unwrap();
            assert!(bad.is_empty(), "{kind:?}: alone mismatches {bad:?}");
            assert_eq!(times.len() as u64, report.alone_solves);
        }
    }

    #[test]
    fn alone_replay_notices_a_wrong_cut() {
        // The backlog cuts loads into several installments; replaying one
        // with a different count solves other sizes and must not match.
        let (input, mut records, _, _) = small(Kind::Backlog);
        let victim = records
            .iter_mut()
            .find(|c| c.installments > 1)
            .expect("some load was cut");
        victim.installments -= 1;
        let id = victim.id;
        let (_, bad) = replay_alone(&input.platform, &records).unwrap();
        assert!(bad.contains(&id), "changed cut went unnoticed: {bad:?}");
    }

    #[test]
    fn installment_replay_matches_the_steady_engine_bitwise() {
        let (input, records, _, report) = small(Kind::Steady);
        let (times, bad) = replay_installments(&input.platform, &records).unwrap();
        assert!(bad.is_empty(), "installment mismatches {bad:?}");
        assert_eq!(times.len() as u64, report.solves);
        // A finish one ulp off is a mismatch.
        let mut shifted = records.clone();
        shifted[5].finish = f64::from_bits(shifted[5].finish.to_bits() + 1);
        let (_, bad) = replay_installments(&input.platform, &shifted).unwrap();
        assert_eq!(bad, vec![shifted[5].id]);
    }

    #[test]
    fn a_corrupted_completion_fails_its_checks() {
        let input = generate(Kind::Backlog, 5, 100);
        let platform = &input.platform;
        let mut done: Vec<CompletedLoad> = Vec::new();
        serve(&input, &input.loads, input.failures.as_ref(), &mut done).unwrap();
        let good = done[0].clone();
        assert!(check_completion(&good, platform).is_ok());
        let mut lost = good.clone();
        lost.shares[0] *= 0.5;
        assert!(
            check_completion(&lost, platform).is_err(),
            "lost data must fail"
        );
        let mut ledger = good.clone();
        ledger.pieces[0].data = f64::from_bits(ledger.pieces[0].data.to_bits() + 1);
        assert!(
            check_completion(&ledger, platform).is_err(),
            "ledger drift must fail"
        );
        let mut fast = good.clone();
        fast.finish = fast.spec.release + 0.5 * fast.alone;
        assert!(
            check_completion(&fast, platform).is_err(),
            "stretch below 1 must fail"
        );

        // Through the sink: corrupted loads are counted, good ones not.
        let mut sink = AuditSink::new(platform);
        sink.completed(good);
        sink.completed(lost);
        sink.completed(fast);
        assert_eq!(sink.failures.len(), 2);
        // All three records carry one id: every other id never completed.
        let expected: Vec<u64> = (0..4).filter(|&i| i != done[0].id).collect();
        assert_eq!(missing_ids(&sink.records, 4), expected);
    }

    #[test]
    fn the_pending_microbenchmark_runs_at_depth() {
        let (input, records, _, report) = small(Kind::Backlog);
        let us = pending_cycle_us(&input, &records, report.pending_high_water);
        assert!(us > 0.0 && us.is_finite());
    }
}
