//! The **fault-injection layer**: worker drop-out and slow-down events
//! threaded through the installment engine.
//!
//! The paper's no-free-lunch result gives failures a price tag: with
//! `α > 1`, cutting a load into more pieces does *more* total work
//! (`k · (N/k)^α = N^α / k^{α−1}` per load), so an emergency re-solve
//! after a worker dies mid-installment is never free. This module makes
//! that cost measurable instead of hypothetical.
//!
//! # Failure model
//!
//! A [`FailureTrace`] is a time-sorted list of [`FailureEvent`]s:
//!
//! * [`FailureKind::Down`] — the worker leaves the platform permanently;
//! * [`FailureKind::Slow`] — the worker's speed is divided (and its
//!   communication cost multiplied) by `factor ≥ 1`, compounding with
//!   earlier slow-downs.
//!
//! The engines apply every event at or before the current instant before
//! each decision. An installment in flight when an event fires is **cut
//! at the event time**: the completed prefix is retained (the served
//! fraction `φ = (t − start) / (finish − start)` of the installment's
//! data, credited to the workers pro rata), the remaining data is
//! re-queued, and the next admission re-solves on the degraded platform —
//! graceful degradation, never a lost byte. The ledger arithmetic is
//! chosen so conservation is *bitwise* replayable: the retained piece is
//! `data · φ` and the engine's next remaining size is exactly
//! `remaining − data · φ`, the same subtraction [`replay_ledger`]
//! performs.
//!
//! Priority keys deliberately keep the **pristine-platform**
//! normalization: remaining-work estimates divide by the healthy
//! `Σ s_i` and stretch denominators are the healthy-platform alone
//! makespans, so a failure changes *what a solve yields*, never *how
//! candidates are ranked*. That is what keeps zero-failure runs
//! structurally identical — bit for bit — to healthy runs, and the
//! engine in lockstep with its linear-rescan reference on failure paths
//! too.
//!
//! # Entry points
//!
//! A batch runs under failures through [`crate::schedule`] with
//! [`crate::ScheduleOptions::failures`] set. The streamed counterpart is
//! [`crate::service::serve_trace_with_failures`]. Each has a
//! `_reference` twin.

use crate::error::MultiLoadError;
use crate::load::LoadSpec;
use dlt_core::batch::BatchSolver;
use dlt_core::nonlinear;
use dlt_platform::Platform;

/// What happens to a worker at a failure event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureKind {
    /// The worker drops out permanently: it keeps the credit for data it
    /// processed before the event, but takes no further share.
    Down {
        /// Index of the failing worker.
        worker: usize,
    },
    /// The worker degrades: its speed is divided and its communication
    /// cost multiplied by `factor ≥ 1`, compounding with earlier
    /// slow-downs of the same worker.
    Slow {
        /// Index of the degrading worker.
        worker: usize,
        /// Degradation factor (`≥ 1`, `1` is a no-op).
        factor: f64,
    },
}

impl FailureKind {
    /// The worker the event applies to.
    pub fn worker(&self) -> usize {
        match *self {
            Self::Down { worker } | Self::Slow { worker, .. } => worker,
        }
    }
}

/// One failure event at an absolute time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// Instant the event takes effect.
    pub at: f64,
    /// What happens.
    pub kind: FailureKind,
}

impl FailureEvent {
    /// A permanent drop-out of `worker` at time `at`.
    pub fn down(at: f64, worker: usize) -> Self {
        Self {
            at,
            kind: FailureKind::Down { worker },
        }
    }

    /// A slow-down of `worker` by `factor` at time `at`.
    pub fn slow(at: f64, worker: usize, factor: f64) -> Self {
        Self {
            at,
            kind: FailureKind::Slow { worker, factor },
        }
    }
}

/// A validated, time-sorted adversarial failure scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailureTrace {
    events: Vec<FailureEvent>,
}

impl FailureTrace {
    /// The empty trace: no failures — every engine run with it is
    /// bit-identical to the failure-oblivious entry points.
    pub fn none() -> Self {
        Self { events: Vec::new() }
    }

    /// Validated constructor: event times must be finite, non-negative
    /// and non-decreasing; slow-down factors finite and ≥ 1. Worker
    /// indices are checked against the platform at schedule time
    /// ([`FailureTrace::validate_for`]).
    pub fn new(events: Vec<FailureEvent>) -> Result<Self, MultiLoadError> {
        let mut last = 0.0f64;
        for (i, e) in events.iter().enumerate() {
            let index = i as u64;
            if !(e.at.is_finite() && e.at >= 0.0) {
                return Err(MultiLoadError::InvalidFailureTrace {
                    index,
                    reason: "event time must be finite and >= 0",
                });
            }
            if e.at < last {
                return Err(MultiLoadError::InvalidFailureTrace {
                    index,
                    reason: "events must be sorted by non-decreasing time",
                });
            }
            last = e.at;
            if let FailureKind::Slow { factor, .. } = e.kind {
                if !(factor.is_finite() && factor >= 1.0) {
                    return Err(MultiLoadError::InvalidFailureTrace {
                        index,
                        reason: "slow-down factor must be finite and >= 1",
                    });
                }
            }
        }
        Ok(Self { events })
    }

    /// The events, in time order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Checks every worker index against a platform of `p` workers.
    pub fn validate_for(&self, p: usize) -> Result<(), MultiLoadError> {
        for (i, e) in self.events.iter().enumerate() {
            if e.kind.worker() >= p {
                return Err(MultiLoadError::InvalidFailureTrace {
                    index: i as u64,
                    reason: "worker index out of range for the platform",
                });
            }
        }
        Ok(())
    }
}

/// Mutable platform view the engines thread through a schedule: the
/// pristine platform until the first effective event, then a rebuilt
/// degraded sub-platform (alive workers only, speeds divided and costs
/// multiplied by the compounded slow-down factors) plus the map from
/// degraded worker indices back to the original ones.
pub(crate) struct PlatformState<'a> {
    base: &'a Platform,
    events: &'a [FailureEvent],
    next: usize,
    alive: Vec<bool>,
    factor: Vec<f64>,
    alive_count: usize,
    /// `None` while the platform is pristine (or fully dead — callers
    /// check [`PlatformState::current`] before solving).
    degraded: Option<(Platform, Vec<usize>)>,
}

impl<'a> PlatformState<'a> {
    pub(crate) fn new(base: &'a Platform, failures: &'a FailureTrace) -> Self {
        let p = base.len();
        Self {
            base,
            events: failures.events(),
            next: 0,
            alive: vec![true; p],
            factor: vec![1.0; p],
            alive_count: p,
            degraded: None,
        }
    }

    /// Time of the next unapplied event, if any.
    pub(crate) fn next_event_at(&self) -> Option<f64> {
        self.events.get(self.next).map(|e| e.at)
    }

    /// Applies every event at or before `now`.
    pub(crate) fn advance_to(&mut self, now: f64) -> Result<(), MultiLoadError> {
        let mut changed = false;
        while let Some(e) = self.events.get(self.next) {
            if e.at > now {
                break;
            }
            match e.kind {
                FailureKind::Down { worker } => {
                    if self.alive[worker] {
                        self.alive[worker] = false;
                        self.alive_count -= 1;
                        changed = true;
                    }
                }
                FailureKind::Slow { worker, factor } => {
                    if self.alive[worker] && factor != 1.0 {
                        self.factor[worker] *= factor;
                        changed = true;
                    }
                }
            }
            self.next += 1;
        }
        if changed {
            self.rebuild()?;
        }
        Ok(())
    }

    fn rebuild(&mut self) -> Result<(), MultiLoadError> {
        if self.alive_count == 0 {
            self.degraded = None;
            return Ok(());
        }
        let speeds = self.base.speeds();
        let costs = self.base.inv_bandwidths();
        let mut ds = Vec::with_capacity(self.alive_count);
        let mut dc = Vec::with_capacity(self.alive_count);
        let mut map = Vec::with_capacity(self.alive_count);
        for i in 0..self.base.len() {
            if self.alive[i] {
                ds.push(speeds[i] / self.factor[i]);
                dc.push(costs[i] * self.factor[i]);
                map.push(i);
            }
        }
        let platform = Platform::from_speeds_and_costs(&ds, &dc).map_err(|_| {
            // Compounded factors can underflow a speed to zero or blow a
            // cost up to infinity; surface that as a trace problem, not a
            // panic. `next` already moved past the offending event.
            MultiLoadError::InvalidFailureTrace {
                index: self.next.saturating_sub(1) as u64,
                reason: "compounded slow-down factors degrade a worker out of range",
            }
        })?;
        self.degraded = Some((platform, map));
        Ok(())
    }

    /// The platform to solve on right now, plus the degraded→original
    /// worker index map (`None` while pristine). Errors when every worker
    /// is down and data remains.
    pub(crate) fn current(&self, at: f64) -> Result<(&Platform, Option<&[usize]>), MultiLoadError> {
        if self.alive_count == 0 {
            return Err(MultiLoadError::AllWorkersFailed { at });
        }
        Ok(match &self.degraded {
            None => (self.base, None),
            Some((p, map)) => (p, Some(map)),
        })
    }

    /// Scatters a degraded-platform allocation back onto the full worker
    /// index space. The pristine path returns the allocation slice
    /// untouched — bit-identity with healthy runs is structural, not
    /// numerical.
    pub(crate) fn scatter<'x>(&self, x: &'x [f64], scratch: &'x mut Vec<f64>) -> &'x [f64] {
        let Some((_, map)) = &self.degraded else {
            return x;
        };
        scratch.clear();
        scratch.resize(self.base.len(), 0.0);
        for (i, &xi) in x.iter().enumerate() {
            scratch[map[i]] = xi;
        }
        scratch
    }
}

/// One served piece of a load, as the engine records it: either a full
/// installment or the retained prefix of a cut one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedPiece {
    /// Data units actually processed in the piece.
    pub data: f64,
    /// Whether a failure event cut the piece short.
    pub interrupted: bool,
    /// Instant the piece's equal-finish round started (≥ the load's
    /// release).
    pub start: f64,
    /// Instant every participating worker finished the piece — for an
    /// interrupted piece, the failure-event time it was cut at.
    pub finish: f64,
}

/// Alone makespans at the **realized** granularity: for each load, `Σ`
/// healthy-platform equal-finish solves of exactly the pieces the
/// schedule served it in (`pieces[j]`, in service order), one solver
/// handle threaded load by load with the first solve cold. Against this
/// denominator every realized stretch is ≥ 1 even under failures — cut
/// pieces shrink the denominator along with the numerator. With no
/// failures the pieces are the planned installments, and this is
/// [`crate::alone_makespans`] bit for bit.
pub fn realized_alone_makespans(
    platform: &Platform,
    loads: &[LoadSpec],
    pieces: &[Vec<ServedPiece>],
) -> Result<Vec<f64>, MultiLoadError> {
    let config = nonlinear::SolverConfig::default();
    let mut solver = BatchSolver::default();
    let mut alone = vec![0.0f64; loads.len()];
    for ((total, load), served) in alone.iter_mut().zip(loads).zip(pieces) {
        for piece in served.iter().filter(|piece| piece.data > 0.0) {
            *total += solver
                .solve(platform, piece.data, load.model, &config)?
                .makespan;
        }
    }
    Ok(alone)
}

/// Replays the engines' documented remaining-data update rule over one
/// load's served pieces, **bitwise**: a full installment must carry
/// exactly `next_installment(remaining, left)` data (the last takes all
/// remaining), an interrupted piece subtracts exactly what it retained.
/// Returns the final remaining size — `0.0` (exactly) for a completed
/// load — or a description of the first divergence. This is the
/// conservation property: retained prefixes + re-queued remainders
/// recompose the original size under the engine's own arithmetic, with
/// no tolerance.
pub fn replay_ledger(
    size: f64,
    installments: usize,
    pieces: &[ServedPiece],
) -> Result<f64, String> {
    let mut remaining = size;
    let mut left = installments;
    for (i, piece) in pieces.iter().enumerate() {
        if remaining <= 0.0 {
            return Err(format!("piece {i} served after the load completed"));
        }
        if piece.interrupted {
            // The engine computed `requeued = remaining − retained` and
            // carried that on; replay performs the same subtraction on
            // the same bits.
            remaining -= piece.data;
            if remaining <= 0.0 {
                remaining = 0.0;
            }
        } else {
            let expected = crate::policy::next_installment(remaining, left);
            if piece.data.to_bits() != expected.to_bits() {
                return Err(format!(
                    "piece {i}: served {} but the update rule demands {expected}",
                    piece.data
                ));
            }
            remaining = if left == 1 {
                0.0
            } else {
                remaining - piece.data
            };
            left -= 1;
        }
    }
    Ok(remaining)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        alone_makespans, schedule, schedule_reference, AdmissionOrder, PolicyConfig, PolicyOutcome,
        ScheduleOptions,
    };

    fn platform() -> Platform {
        Platform::from_speeds_and_costs(&[1.0, 3.0, 0.7], &[1.0, 0.2, 2.0]).unwrap()
    }

    fn loads() -> Vec<LoadSpec> {
        vec![
            LoadSpec::new(20.0, 2.0, 0.0).unwrap(),
            LoadSpec::new(10.0, 1.0, 3.0).unwrap(),
            LoadSpec::new(5.0, 1.5, 0.5).unwrap(),
        ]
    }

    fn cfg(order: AdmissionOrder, installments: usize) -> PolicyConfig {
        PolicyConfig {
            order,
            installments,
        }
    }

    fn under(failures: &FailureTrace) -> ScheduleOptions<'_> {
        ScheduleOptions {
            failures: Some(failures),
            alone: None,
        }
    }

    /// An online run under `failures`.
    fn online(
        platform: &Platform,
        loads: &[LoadSpec],
        c: &PolicyConfig,
        failures: &FailureTrace,
    ) -> Result<PolicyOutcome, MultiLoadError> {
        schedule(platform, loads, c, &under(failures))
    }

    #[test]
    fn trace_validation() {
        assert!(FailureTrace::new(vec![
            FailureEvent::slow(1.0, 0, 2.0),
            FailureEvent::down(2.0, 1),
        ])
        .is_ok());
        assert!(matches!(
            FailureTrace::new(vec![FailureEvent::down(f64::NAN, 0)]),
            Err(MultiLoadError::InvalidFailureTrace { index: 0, .. })
        ));
        assert!(matches!(
            FailureTrace::new(vec![FailureEvent::down(5.0, 0), FailureEvent::down(1.0, 1),]),
            Err(MultiLoadError::InvalidFailureTrace { index: 1, .. })
        ));
        assert!(matches!(
            FailureTrace::new(vec![FailureEvent::slow(0.0, 0, 0.5)]),
            Err(MultiLoadError::InvalidFailureTrace { index: 0, .. })
        ));
        let trace = FailureTrace::new(vec![FailureEvent::down(0.0, 7)]).unwrap();
        assert!(matches!(
            trace.validate_for(3),
            Err(MultiLoadError::InvalidFailureTrace { index: 0, .. })
        ));
        assert!(trace.validate_for(8).is_ok());
    }

    #[test]
    fn out_of_range_worker_is_a_typed_error() {
        let trace = FailureTrace::new(vec![FailureEvent::down(1.0, 99)]).unwrap();
        assert!(matches!(
            online(&platform(), &loads(), &cfg(AdmissionOrder::Fifo, 1), &trace),
            Err(MultiLoadError::InvalidFailureTrace { .. })
        ));
    }

    #[test]
    fn zero_failure_realized_alone_is_the_planned_alone() {
        let platform = platform();
        let loads = loads();
        for order in AdmissionOrder::ALL {
            for k in [1usize, 3] {
                let out = online(&platform, &loads, &cfg(order, k), &FailureTrace::none()).unwrap();
                assert_eq!(out.interruptions, 0);
                assert_eq!(
                    realized_alone_makespans(&platform, &loads, &out.pieces).unwrap(),
                    alone_makespans(&platform, &loads, k).unwrap()
                );
            }
        }
    }

    #[test]
    fn engine_matches_reference_under_failures() {
        let platform = platform();
        let loads = loads();
        let trace = FailureTrace::new(vec![
            FailureEvent::slow(2.0, 1, 3.0),
            FailureEvent::down(6.0, 0),
            FailureEvent::slow(9.0, 2, 1.5),
        ])
        .unwrap();
        for order in AdmissionOrder::ALL {
            for k in [1usize, 2, 4] {
                let c = cfg(order, k);
                let opts = under(&trace);
                let fast = schedule(&platform, &loads, &c, &opts).unwrap();
                let slow = schedule_reference(&platform, &loads, &c, &opts).unwrap();
                assert_eq!(fast, slow, "{order:?} k={k}");
            }
        }
    }

    #[test]
    fn mid_installment_failure_retains_the_prefix_and_requeues_the_rest() {
        // One long load alone; worker 1 (the fast one) dies mid-flight.
        // The installment is cut at the event, the prefix stays credited,
        // and the remainder is re-solved on the two survivors.
        let platform = platform();
        let loads = [LoadSpec::immediate(40.0, 1.5).unwrap()];
        let c = cfg(AdmissionOrder::Fifo, 1);
        let healthy = online(&platform, &loads, &c, &FailureTrace::none()).unwrap();
        let cut_at = healthy.report.makespan() * 0.5;
        let trace = FailureTrace::new(vec![FailureEvent::down(cut_at, 1)]).unwrap();
        let out = online(&platform, &loads, &c, &trace).unwrap();
        assert_eq!(out.interruptions, 1);
        assert!(out.requeued_data > 0.0);
        // Two pieces: the cut prefix and the re-queued remainder.
        let pieces = &out.pieces[0];
        assert_eq!(pieces.len(), 2);
        assert!(pieces[0].interrupted && !pieces[1].interrupted);
        assert_eq!(pieces[0].finish, cut_at);
        assert_eq!(pieces[1].start, cut_at);
        // The dead worker took no share of the remainder...
        let healthy_share_w1 = healthy.shares[0][1];
        assert!(out.shares[0][1] < healthy_share_w1);
        // ...and the degraded finish is strictly later than the healthy
        // one: no free lunch, the cut plus the slower platform both cost.
        assert!(out.report.makespan() > healthy.report.makespan());
        // Bitwise conservation, replayed from the public ledger.
        assert_eq!(replay_ledger(loads[0].size, 1, pieces).unwrap(), 0.0);
    }

    #[test]
    fn all_workers_down_is_a_typed_error() {
        let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        let loads = [LoadSpec::immediate(100.0, 1.5).unwrap()];
        let trace = FailureTrace::new(vec![FailureEvent::down(0.5, 0), FailureEvent::down(0.5, 1)])
            .unwrap();
        assert!(matches!(
            online(&platform, &loads, &cfg(AdmissionOrder::Fifo, 1), &trace),
            Err(MultiLoadError::AllWorkersFailed { .. })
        ));
    }

    #[test]
    fn slowdown_compounds_and_only_delays() {
        let platform = Platform::from_speeds(&[1.0, 2.0]).unwrap();
        let loads = [LoadSpec::immediate(30.0, 2.0).unwrap()];
        let c = cfg(AdmissionOrder::Fifo, 4);
        let one = FailureTrace::new(vec![FailureEvent::slow(0.0, 1, 2.0)]).unwrap();
        let two = FailureTrace::new(vec![
            FailureEvent::slow(0.0, 1, 2.0),
            FailureEvent::slow(0.0, 1, 2.0),
        ])
        .unwrap();
        let makespan = |trace: &FailureTrace| {
            online(&platform, &loads, &c, trace)
                .unwrap()
                .report
                .makespan()
        };
        let (m0, m1, m2) = (
            makespan(&FailureTrace::none()),
            makespan(&one),
            makespan(&two),
        );
        assert!(m0 < m1 && m1 < m2);
    }

    #[test]
    fn events_during_an_idle_gap_apply_before_the_solve() {
        // The platform idles until the first release; a failure lands
        // inside that gap. The solve at the release must already see the
        // degraded platform.
        let platform = Platform::from_speeds(&[1.0, 1.0]).unwrap();
        let loads = [LoadSpec::new(10.0, 1.0, 10.0).unwrap()];
        let trace = FailureTrace::new(vec![FailureEvent::down(5.0, 0)]).unwrap();
        let c = cfg(AdmissionOrder::Fifo, 1);
        let out = online(&platform, &loads, &c, &trace).unwrap();
        assert_eq!(out.shares[0][0], 0.0);
        assert!(out.shares[0][1] > 0.0);
        assert_eq!(out.interruptions, 0);
        assert_eq!(out.pieces[0][0].start, 10.0);
    }

    #[test]
    fn realized_stretch_is_at_least_one_under_failures() {
        let platform = platform();
        let loads = loads();
        let trace = FailureTrace::new(vec![
            FailureEvent::slow(1.0, 1, 2.5),
            FailureEvent::down(4.0, 2),
        ])
        .unwrap();
        for order in AdmissionOrder::ALL {
            for k in [1usize, 3] {
                let out = online(&platform, &loads, &cfg(order, k), &trace).unwrap();
                let realized = realized_alone_makespans(&platform, &loads, &out.pieces).unwrap();
                for (m, &alone) in out.report.per_load.iter().zip(&realized) {
                    let stretch = (m.finish - m.release) / alone;
                    assert!(
                        stretch >= 1.0 - 1e-7,
                        "{order:?} k={k}: realized stretch {stretch}"
                    );
                }
            }
        }
    }

    #[test]
    fn ledger_replay_rejects_a_perturbed_log() {
        let piece = |data: f64| ServedPiece {
            data,
            interrupted: false,
            start: 0.0,
            finish: 1.0,
        };
        assert_eq!(
            replay_ledger(10.0, 2, &[piece(5.0), piece(5.0)]).unwrap(),
            0.0
        );
        assert!(replay_ledger(10.0, 2, &[piece(5.0 + 1e-9), piece(5.0)]).is_err());
    }
}
