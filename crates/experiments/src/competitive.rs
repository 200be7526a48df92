//! Competitive-ratio experiment: online admission policies under
//! adversarial arrival regimes and injected failures, measured against the
//! single-machine SRPT lower bound on mean flow.
//!
//! Protocol: for each trial, draw a platform from the profile (the same
//! trial streams as every other multi-load experiment), calibrate the
//! nominal arrival spacing to a target utilization
//! ([`crate::service::calibrated_spacing`]), then for each
//! `(regime, failure_rate)` cell draw one arrival batch
//! ([`crate::generators::regime_loads`]) and one degradation scenario
//! ([`crate::generators::degradation_trace`]) — identical across every
//! policy × installment configuration, so rows differ only by scheduler.
//!
//! Each configuration runs once, through [`dlt_multiload::schedule`]:
//! loads are revealed at release and failures strike unannounced. Its
//! **flow ratio** is the run's mean flow over
//! [`dlt_multiload::PolicyOutcome::mean_flow_lower_bound`], the mean
//! flow of preemptive SRPT on one machine with one job
//! `(release_j, alone_j)` per load (Schrage 1968), read off the run with
//! no extra solve. On failure-free cells every ratio is ≥ 1 up to the
//! solver's tolerance (the method's doc says why). Failure rows use the
//! same failure-free bound, which does not hold there: with `α > 1` a
//! cut makes smaller pieces and therefore less work.
//!
//! Stretches are *realized*: flow divided by the healthy-platform alone
//! makespan at the granularity the load was actually served in
//! ([`dlt_multiload::realized_alone_makespans`] over the served pieces),
//! so they stay ≥ 1 even when a cut forces extra pieces. They describe
//! the runs; the bound covers mean flow, not mean stretch.

use crate::generators::{degradation_trace, regime_loads, Regime};
use crate::models::ModelFamily;
use crate::service::calibrated_spacing;
use dlt_multiload::{
    realized_alone_makespans, replay_ledger, schedule, serve_trace_with_failures, AdmissionOrder,
    CompletedLoad, CompletionSink, FailureTrace, InstallmentPolicy, LoadSpec, PolicyConfig,
    PolicyOutcome, ScheduleOptions, ServiceConfig,
};
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use dlt_stats::{Summary, Table};

/// Base load size the regime generators scale from.
const COMPETITIVE_BASE_SIZE: f64 = 200.0;

/// Nonlinearity exponents mixed into every batch.
const COMPETITIVE_ALPHAS: [f64; 3] = [1.0, 1.5, 2.0];

/// Offered utilization the nominal spacing is calibrated to.
const COMPETITIVE_UTILIZATION: f64 = 0.7;

/// Installment granularities swept (1 = non-preemptive).
const COMPETITIVE_INSTALLMENTS: [usize; 2] = [1, 4];

/// Expected failure waves over the arrival horizon, light scenario.
const FAILURE_RATE_LOW: f64 = 2.0;

/// Expected failure waves over the arrival horizon, heavy scenario.
const FAILURE_RATE_HIGH: f64 = 6.0;

/// One `(regime, failure_rate)` scenario of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CompetitiveCell {
    /// Arrival regime.
    pub regime: Regime,
    /// Expected failure waves over the horizon (0 = failure-free).
    pub failure_rate: f64,
}

/// Full-scale scenario grid: every arrival regime failure-free, plus
/// Poisson under light and heavy failures and bursty arrivals under
/// heavy failures (burst + degradation is the adversarial worst case).
pub(crate) fn default_cells() -> Vec<CompetitiveCell> {
    vec![
        CompetitiveCell {
            regime: Regime::Poisson,
            failure_rate: 0.0,
        },
        CompetitiveCell {
            regime: Regime::MmppBurst,
            failure_rate: 0.0,
        },
        CompetitiveCell {
            regime: Regime::HeavyTail,
            failure_rate: 0.0,
        },
        CompetitiveCell {
            regime: Regime::Poisson,
            failure_rate: FAILURE_RATE_LOW,
        },
        CompetitiveCell {
            regime: Regime::Poisson,
            failure_rate: FAILURE_RATE_HIGH,
        },
        CompetitiveCell {
            regime: Regime::MmppBurst,
            failure_rate: FAILURE_RATE_HIGH,
        },
    ]
}

/// Trimmed grid for smoke runs: one failure-free cell, one injected.
pub(crate) fn smoke_cells() -> Vec<CompetitiveCell> {
    vec![
        CompetitiveCell {
            regime: Regime::Poisson,
            failure_rate: 0.0,
        },
        CompetitiveCell {
            regime: Regime::MmppBurst,
            failure_rate: FAILURE_RATE_HIGH,
        },
    ]
}

/// One summarized table row: a `(cell, order, installments)`
/// configuration across trials.
#[derive(Debug, Clone)]
pub(crate) struct CompetitivePoint {
    /// The scenario.
    pub cell: CompetitiveCell,
    /// Admission order measured.
    pub order: AdmissionOrder,
    /// Installment granularity.
    pub installments: usize,
    /// Online realized mean stretch across trials.
    pub online_stretch: Summary,
    /// Online mean flow across trials.
    pub online_flow: Summary,
    /// Single-machine SRPT lower bound on mean flow across trials.
    pub flow_bound: Summary,
    /// Per-trial online mean flow over its bound.
    pub flow_ratio: Summary,
    /// Online installment interruptions per trial.
    pub interruptions: Summary,
    /// Fraction of total data the online run re-queued after cuts.
    pub requeued_frac: Summary,
}

/// Realized mean stretch of one failure-aware schedule: flow over the
/// realized-granularity alone makespan, averaged over the batch. With no
/// failure nothing is cut, so the engine's own denominators are the
/// realized ones bit for bit (property
/// `zero_failure_realized_alone_is_the_planned_alone`) and no piece is
/// re-solved.
fn mean_realized_stretch(
    platform: &Platform,
    loads: &[LoadSpec],
    failures: &FailureTrace,
    out: &PolicyOutcome,
) -> f64 {
    if failures.is_empty() {
        return out.report.aggregate().mean_stretch;
    }
    let realized = realized_alone_makespans(platform, loads, &out.pieces)
        .expect("healthy-platform solves converge");
    let per_load = &out.report.per_load;
    let sum: f64 = per_load
        .iter()
        .zip(&realized)
        .map(|(m, &alone)| (m.finish - m.release) / alone)
        .sum();
    sum / per_load.len() as f64
}

/// Runs the sweep for one profile. Trials are dispatched over `threads`
/// scoped workers and folded in trial order: tables are byte-identical
/// for every thread count.
pub(crate) fn run_competitive(
    profile: &SpeedDistribution,
    p: usize,
    n_loads: usize,
    cells: &[CompetitiveCell],
    trials: usize,
    seed: u64,
    threads: usize,
) -> Vec<CompetitivePoint> {
    let spec = PlatformSpec::new(p, profile.clone());
    let configs: Vec<(usize, AdmissionOrder)> = COMPETITIVE_INSTALLMENTS
        .iter()
        .flat_map(|&k| AdmissionOrder::ALL.iter().map(move |&order| (k, order)))
        .collect();
    // Per trial, one metric array per (cell, installments, order) slot:
    // [stretch, mean flow, flow bound, interruptions, requeued frac].
    let per_trial: Vec<Vec<[f64; 5]>> = crate::runner::par_map(trials, threads, |trial| {
        let platform = spec
            .generate_stream(seed, trial as u64)
            .expect("valid spec");
        let spacing = calibrated_spacing(
            &platform,
            COMPETITIVE_BASE_SIZE,
            &COMPETITIVE_ALPHAS,
            COMPETITIVE_UTILIZATION,
            ModelFamily::AlphaPower,
        );
        let horizon = spacing * n_loads as f64;
        let mut row = Vec::with_capacity(cells.len() * configs.len());
        for (ci, cell) in cells.iter().enumerate() {
            // Salt the stream with the cell index so scenarios are
            // independent across cells but shared across configs.
            let stream = (trial as u64) ^ ((ci as u64) << 32);
            let loads = regime_loads(
                cell.regime,
                n_loads,
                COMPETITIVE_BASE_SIZE,
                &COMPETITIVE_ALPHAS,
                spacing,
                seed,
                stream,
            );
            let failures = degradation_trace(p, horizon, cell.failure_rate, seed, stream);
            let total_data: f64 = loads.iter().map(|l| l.size).sum();
            let opts = ScheduleOptions {
                failures: Some(&failures),
                alone: None,
            };
            for &(k, order) in &configs {
                let cfg = PolicyConfig {
                    order,
                    installments: k,
                };
                let online = schedule(&platform, &loads, &cfg, &opts)
                    .expect("the scheduler survives the scenario");
                row.push([
                    mean_realized_stretch(&platform, &loads, &failures, &online),
                    online.report.aggregate().mean_flow,
                    online.mean_flow_lower_bound(),
                    online.interruptions as f64,
                    online.requeued_data / total_data,
                ]);
            }
        }
        row
    });
    let mut points = Vec::new();
    for (ci, &cell) in cells.iter().enumerate() {
        for (slot, &(k, order)) in configs.iter().enumerate() {
            let idx = ci * configs.len() + slot;
            let mut online_stretch = Summary::new();
            let mut online_flow = Summary::new();
            let mut flow_bound = Summary::new();
            let mut flow_ratio = Summary::new();
            let mut interruptions = Summary::new();
            let mut requeued_frac = Summary::new();
            for row in &per_trial {
                let [stretch, flow, bound, cuts, requeued] = row[idx];
                online_stretch.push(stretch);
                online_flow.push(flow);
                flow_bound.push(bound);
                flow_ratio.push(flow / bound);
                interruptions.push(cuts);
                requeued_frac.push(requeued);
            }
            points.push(CompetitivePoint {
                cell,
                order,
                installments: k,
                online_stretch,
                online_flow,
                flow_bound,
                flow_ratio,
                interruptions,
                requeued_frac,
            });
        }
    }
    points
}

/// Tabulates sweep points: one row per `(regime, failure_rate, policy,
/// installments)`.
pub(crate) fn competitive_table(
    profile_name: &str,
    p: usize,
    n_loads: usize,
    trials: usize,
    points: &[CompetitivePoint],
) -> Table {
    let mut t = Table::new(&[
        "profile",
        "p",
        "loads",
        "trials",
        "regime",
        "failure_rate",
        "policy",
        "installments",
        "online_stretch_mean",
        "online_flow_mean",
        "flow_lower_bound_mean",
        "flow_ratio_mean",
        "flow_ratio_min",
        "flow_ratio_max",
        "interruptions_mean",
        "requeued_frac_mean",
    ])
    .with_title(&format!(
        "Competitive ratios ({profile_name}, p={p}, {n_loads} loads x {trials} trials): \
         online mean flow over the single-machine SRPT lower bound, under adversarial \
         arrivals and failures"
    ));
    for pt in points {
        t.row([
            profile_name.into(),
            p.into(),
            n_loads.into(),
            trials.into(),
            pt.cell.regime.name().into(),
            pt.cell.failure_rate.into(),
            pt.order.name().into(),
            pt.installments.into(),
            pt.online_stretch.mean().into(),
            pt.online_flow.mean().into(),
            pt.flow_bound.mean().into(),
            pt.flow_ratio.mean().into(),
            pt.flow_ratio.min().into(),
            pt.flow_ratio.max().into(),
            pt.interruptions.mean().into(),
            pt.requeued_frac.mean().into(),
        ]);
    }
    t
}

/// Aggregates of one fault-injection soak run (the CI gate).
#[derive(Debug, Clone, PartialEq)]
pub struct SoakSummary {
    /// Loads completed (must equal the trace length).
    pub loads: u64,
    /// Installments cut by failure events.
    pub interruptions: u64,
    /// Data units re-queued by those cuts.
    pub requeued_data: f64,
    /// Engine makespan.
    pub makespan: f64,
    /// Peak pending-set size.
    pub peak_pending: usize,
}

/// Completion sink of [`run_soak`]: replays every completed load's piece
/// ledger bitwise and checks worker-share conservation, recording the
/// first violation instead of panicking inside the engine.
struct CheckingSink {
    completed: u64,
    violation: Option<String>,
}

impl CompletionSink for CheckingSink {
    fn completed(&mut self, load: CompletedLoad) {
        self.completed += 1;
        if self.violation.is_some() {
            return;
        }
        match replay_ledger(load.spec.size, load.installments, &load.pieces) {
            Ok(rest) => {
                if rest != 0.0 {
                    self.violation = Some(format!(
                        "load {}: ledger replays to {rest}, not 0.0",
                        load.id
                    ));
                }
            }
            Err(e) => self.violation = Some(format!("load {}: {e}", load.id)),
        }
        let shared: f64 = load.shares.iter().sum();
        if (shared - load.spec.size).abs() > 1e-6 * load.spec.size {
            self.violation = Some(format!(
                "load {}: workers processed {shared} of {} data units",
                load.id, load.spec.size
            ));
        }
    }
}

/// Deterministic fault-injection soak: streams a seeded bursty trace of
/// `n_loads` loads through [`serve_trace_with_failures`] on a degraded
/// uniform platform (heavy wave rate, drop-outs included) and verifies
/// that every load completes with a bitwise-replayable piece ledger and
/// conserved worker shares, and that failures actually cut something.
/// Returns the run's aggregates, or the first violation.
pub fn run_soak(n_loads: usize, p: usize, seed: u64) -> Result<SoakSummary, String> {
    let platform: Platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate_stream(seed, 0)
        .expect("valid spec");
    let spacing = calibrated_spacing(
        &platform,
        COMPETITIVE_BASE_SIZE,
        &COMPETITIVE_ALPHAS,
        0.8,
        ModelFamily::AlphaPower,
    );
    let loads = regime_loads(
        Regime::MmppBurst,
        n_loads,
        COMPETITIVE_BASE_SIZE,
        &COMPETITIVE_ALPHAS,
        spacing,
        seed,
        0,
    );
    let horizon = spacing * n_loads as f64;
    let failures = degradation_trace(p, horizon, 8.0, seed, 0);
    let config = ServiceConfig {
        order: AdmissionOrder::Srpt,
        batch: 4,
        installments: InstallmentPolicy::Fixed(2),
        track_stretch: true,
    };
    let mut sink = CheckingSink {
        completed: 0,
        violation: None,
    };
    let report = serve_trace_with_failures(&platform, loads, &config, &failures, &mut sink)
        .map_err(|e| format!("soak engine failed: {e}"))?;
    if let Some(v) = sink.violation {
        return Err(v);
    }
    if sink.completed != n_loads as u64 || report.loads != n_loads as u64 {
        return Err(format!(
            "completed {} of {n_loads} loads (report says {})",
            sink.completed, report.loads
        ));
    }
    if !failures.is_empty() && report.interruptions == 0 {
        return Err("failure trace fired no interruptions — the soak exercised nothing".into());
    }
    Ok(SoakSummary {
        loads: report.loads,
        interruptions: report.interruptions,
        requeued_data: report.requeued_data,
        makespan: report.makespan,
        peak_pending: report.pending_high_water,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_one_row_per_cell_config() {
        let cells = smoke_cells();
        let pts = run_competitive(&SpeedDistribution::paper_uniform(), 4, 8, &cells, 2, 7, 1);
        assert_eq!(
            pts.len(),
            cells.len() * COMPETITIVE_INSTALLMENTS.len() * AdmissionOrder::ALL.len()
        );
        let t = competitive_table("uniform", 4, 8, 2, &pts);
        assert_eq!(t.n_rows(), pts.len());
        let csv = t.to_csv();
        assert!(csv.contains("mmpp_burst") && csv.contains("poisson"));
        for order in AdmissionOrder::ALL {
            assert!(csv.contains(order.name()), "missing {}", order.name());
        }
    }

    #[test]
    fn stretches_and_failure_free_flow_ratios_stay_at_least_one() {
        let pts = run_competitive(
            &SpeedDistribution::paper_lognormal(),
            4,
            8,
            &smoke_cells(),
            2,
            11,
            2,
        );
        for pt in &pts {
            assert!(
                pt.online_stretch.min() >= 1.0 - 1e-7,
                "online stretch {} dipped below 1",
                pt.online_stretch.min()
            );
            assert!(pt.flow_ratio.mean().is_finite() && pt.flow_ratio.mean() > 0.0);
        }
        // Failure-free cells report no interruptions at all, and there the
        // bound holds.
        for pt in pts.iter().filter(|pt| pt.cell.failure_rate == 0.0) {
            assert_eq!(pt.interruptions.max(), 0.0);
            assert_eq!(pt.requeued_frac.max(), 0.0);
            assert!(
                pt.flow_ratio.min() >= 1.0 - 1e-9,
                "flow ratio {} below the bound",
                pt.flow_ratio.min()
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let profile = SpeedDistribution::paper_uniform();
        let cells = smoke_cells();
        let serial = run_competitive(&profile, 4, 6, &cells, 3, 3, 1);
        let parallel = run_competitive(&profile, 4, 6, &cells, 3, 3, 4);
        let a = competitive_table("uniform", 4, 6, 3, &serial);
        let b = competitive_table("uniform", 4, 6, 3, &parallel);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn soak_completes_and_conserves_at_smoke_scale() {
        let s = run_soak(400, 6, 7).expect("soak passes");
        assert_eq!(s.loads, 400);
        assert!(
            s.interruptions > 0,
            "the soak must actually cut installments"
        );
        assert!(s.requeued_data > 0.0);
        assert!(s.makespan.is_finite() && s.makespan > 0.0);
    }

    #[test]
    fn soak_is_deterministic() {
        assert_eq!(run_soak(200, 4, 5).unwrap(), run_soak(200, 4, 5).unwrap());
    }
}
