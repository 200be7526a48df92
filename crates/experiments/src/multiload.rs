//! Multi-load experiment: FIFO vs round-robin scheduling of several
//! divisible loads on one star platform, swept over load count,
//! heterogeneity profile and nonlinearity exponent.
//!
//! Protocol: for each `(loads, α)` point, draw `trials` random platforms
//! from the profile (one derived seed stream per trial, exactly like
//! Figure 4). The first load of every batch is the *base load*
//! (`N = base_size`, released at 0); the remaining loads draw their size
//! from `U[0.25, 1] · base_size` and their release from `U[0, T_alone]`
//! where `T_alone` is the base load's alone-on-the-platform makespan — so
//! later loads arrive while the first is still running and the schedulers
//! genuinely contend. Both schedulers run on the same batch; the table
//! reports makespan, mean flow time, and mean/max stretch summaries.
//!
//! The `loads = 1` rows double as a regression anchor: the FIFO scheduler
//! (`dlt_multiload::schedule` under FIFO, one installment per load) with a
//! single immediate load **is** the single-load solver
//! ([`dlt_core::nonlinear::equal_finish_parallel`]), bit for bit, which
//! the harness smoke test pins down against independently computed rows.

use crate::models::ModelFamily;
use dlt_multiload::{
    alone_makespans, round_robin_schedule, schedule, AdmissionOrder, LoadSpec, MultiLoadConfig,
    MultiLoadReport, PolicyConfig, ScheduleOptions, SchedulerKind,
};
use dlt_platform::rng::seeded_stream;
use dlt_platform::{PlatformSpec, SpeedDistribution};
use dlt_stats::{Summary, Table};
use rand::Rng;

/// Load counts swept by default.
pub const DEFAULT_LOAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Nonlinearity exponents swept by default (linear, sort-like, quadratic).
pub const DEFAULT_ALPHAS: [f64; 3] = [1.0, 1.5, 2.0];

/// Default worker count.
pub const DEFAULT_P: usize = 16;

/// Default base load size.
pub const DEFAULT_BASE_SIZE: f64 = 1000.0;

/// Default chunks per load for the round-robin scheduler.
pub const DEFAULT_CHUNKS: usize = 32;

/// Installment granularities swept by the policy experiment: `1` is
/// non-preemptive, `4` lets a load be paused at three boundaries.
pub const DEFAULT_INSTALLMENTS: [usize; 2] = [1, 4];

/// Salt mixed into the base seed for the load-generation streams, so load
/// parameters are independent of the platform draws sharing the seed.
const LOAD_SEED_SALT: u64 = 0x6D75_6C74_694C_6F61; // "multiLoa"

/// Per-trial measurements of one scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialMetrics {
    /// Batch makespan.
    pub makespan: f64,
    /// Mean flow time over the batch.
    pub mean_flow: f64,
    /// Mean stretch over the batch.
    pub mean_stretch: f64,
    /// Largest stretch in the batch.
    pub max_stretch: f64,
}

impl TrialMetrics {
    fn of(report: &MultiLoadReport) -> Self {
        let agg = report.aggregate();
        Self {
            makespan: agg.makespan,
            mean_flow: agg.mean_flow,
            mean_stretch: agg.mean_stretch,
            max_stretch: agg.max_stretch,
        }
    }
}

/// One table point: a `(loads, alpha, scheduler)` cell summarized over
/// trials.
#[derive(Debug, Clone)]
pub struct MultiloadPoint {
    /// Number of loads in the batch.
    pub loads: usize,
    /// Common nonlinearity exponent of the batch.
    pub alpha: f64,
    /// Scheduler measured.
    pub scheduler: SchedulerKind,
    /// Makespan summary across trials.
    pub makespan: Summary,
    /// Mean-flow summary across trials.
    pub mean_flow: Summary,
    /// Mean-stretch summary across trials.
    pub mean_stretch: Summary,
    /// Max-stretch summary across trials.
    pub max_stretch: Summary,
}

/// Deterministic batch of `n_loads` loads for one trial: the base load
/// first (size `base_size`, release 0), then loads with drawn sizes and
/// releases. `t_alone` is the base load's alone makespan on this trial's
/// platform (the release window). Every load carries `family.law(alpha)`
/// as its cost model; the RNG streams are independent of the family, so
/// two families see identical sizes and releases.
fn generate_loads(
    n_loads: usize,
    alpha: f64,
    base_size: f64,
    t_alone: f64,
    seed: u64,
    trial: u64,
    family: ModelFamily,
) -> Vec<LoadSpec> {
    let mut rng = seeded_stream(seed ^ LOAD_SEED_SALT, trial);
    let law = family.law(alpha);
    let mut loads = Vec::with_capacity(n_loads);
    loads.push(LoadSpec::with_model(base_size, law, 0.0).expect("valid base load"));
    for _ in 1..n_loads {
        let size = base_size * rng.gen_range(0.25..1.0);
        let release = rng.gen_range(0.0..t_alone.max(f64::MIN_POSITIVE));
        loads.push(LoadSpec::with_model(size, law, release).expect("valid generated load"));
    }
    loads
}

/// Runs the sweep for one profile. Trials are dispatched over `threads`
/// scoped workers ([`crate::runner::par_map`]) and folded back in trial
/// order, so the resulting table is byte-identical for every thread count.
#[allow(clippy::too_many_arguments)]
pub fn run_multiload(
    profile: &SpeedDistribution,
    p: usize,
    load_counts: &[usize],
    alphas: &[f64],
    base_size: f64,
    chunks_per_load: usize,
    trials: usize,
    seed: u64,
    threads: usize,
    family: ModelFamily,
) -> Vec<MultiloadPoint> {
    let spec = PlatformSpec::new(p, profile.clone());
    // Comm-inclusive occupancies: the FIFO installments' closed forms
    // charge `c_i·x + w_i·x^α` per worker, so the round-robin executor
    // must count transfer time too or its makespans/stretches would be
    // incomparably smaller on comm-bound platforms.
    let config = MultiLoadConfig {
        chunks_per_load,
        include_comm: true,
    };
    // The base load's alone-makespan (the release window of
    // `generate_loads`) depends only on (alpha, trial platform), not on
    // the load count — solve it once per pair here instead of once per
    // sweep point; the equal-finish solves are the dominant cost. Trials
    // stay cold-start on purpose: each runs on an independent platform
    // inside `par_map`, and warm-starting across them would make the CSV
    // bytes depend on the thread schedule.
    let t_alone_table: Vec<Vec<f64>> = alphas
        .iter()
        .map(|&alpha| {
            crate::runner::par_map(trials, threads, |trial| {
                let platform = spec
                    .generate_stream(seed, trial as u64)
                    .expect("valid spec");
                LoadSpec::with_model(base_size, family.law(alpha), 0.0)
                    .expect("valid base load")
                    .alone_makespan(&platform)
                    .expect("single-load solver converges")
            })
        })
        .collect();
    let mut points = Vec::new();
    for &n_loads in load_counts {
        for (alpha_idx, &alpha) in alphas.iter().enumerate() {
            let t_alone_by_trial = &t_alone_table[alpha_idx];
            let per_trial = crate::runner::par_map(trials, threads, |trial| {
                let platform = spec
                    .generate_stream(seed, trial as u64)
                    .expect("valid spec");
                let t_alone = t_alone_by_trial[trial];
                let loads = generate_loads(
                    n_loads,
                    alpha,
                    base_size,
                    t_alone,
                    seed,
                    trial as u64,
                    family,
                );
                let fifo = schedule(
                    &platform,
                    &loads,
                    &PolicyConfig::default(),
                    &ScheduleOptions::default(),
                )
                .expect("fifo schedules valid batch");
                // The FIFO run already solved every load's single-round
                // optimum for its stretch denominators; those ARE the
                // round-robin denominators, so hand them over instead of
                // re-running the equal-finish solver per load.
                let alone: Vec<f64> = fifo.report.per_load.iter().map(|m| m.alone).collect();
                let rr = round_robin_schedule(&platform, &loads, &config, &alone)
                    .expect("round-robin schedules valid batch");
                (TrialMetrics::of(&fifo.report), TrialMetrics::of(&rr.report))
            });
            for scheduler in [SchedulerKind::Fifo, SchedulerKind::RoundRobin] {
                let mut makespan = Summary::new();
                let mut mean_flow = Summary::new();
                let mut mean_stretch = Summary::new();
                let mut max_stretch = Summary::new();
                for &(fifo_m, rr_m) in &per_trial {
                    let m = if scheduler == SchedulerKind::Fifo {
                        fifo_m
                    } else {
                        rr_m
                    };
                    makespan.push(m.makespan);
                    mean_flow.push(m.mean_flow);
                    mean_stretch.push(m.mean_stretch);
                    max_stretch.push(m.max_stretch);
                }
                points.push(MultiloadPoint {
                    loads: n_loads,
                    alpha,
                    scheduler,
                    makespan,
                    mean_flow,
                    mean_stretch,
                    max_stretch,
                });
            }
        }
    }
    points
}

/// Tabulates sweep points: one row per `(loads, alpha, scheduler)`.
pub fn multiload_table(profile_name: &str, p: usize, points: &[MultiloadPoint]) -> Table {
    let mut t = Table::new(&[
        "profile",
        "p",
        "loads",
        "alpha",
        "scheduler",
        "makespan_mean",
        "makespan_std",
        "mean_flow_mean",
        "mean_stretch_mean",
        "max_stretch_mean",
    ])
    .with_title(&format!(
        "Multi-load scheduling ({profile_name}, p={p}): FIFO installments vs round-robin chunks"
    ));
    for pt in points {
        t.row([
            profile_name.into(),
            p.into(),
            pt.loads.into(),
            pt.alpha.into(),
            pt.scheduler.name().into(),
            pt.makespan.mean().into(),
            pt.makespan.population_std().into(),
            pt.mean_flow.mean().into(),
            pt.mean_stretch.mean().into(),
            pt.max_stretch.mean().into(),
        ]);
    }
    t
}

/// One policy-sweep table point: an `(loads, alpha, order, installments)`
/// cell summarized over trials.
#[derive(Debug, Clone)]
pub struct PolicyPoint {
    /// Number of loads in the batch.
    pub loads: usize,
    /// Common nonlinearity exponent of the batch.
    pub alpha: f64,
    /// Admission order measured.
    pub order: AdmissionOrder,
    /// Installment granularity (1 = non-preemptive).
    pub installments: usize,
    /// Makespan summary across trials.
    pub makespan: Summary,
    /// Mean-flow summary across trials.
    pub mean_flow: Summary,
    /// Mean-stretch summary across trials.
    pub mean_stretch: Summary,
    /// Max-stretch summary across trials.
    pub max_stretch: Summary,
    /// Preemption-count summary across trials.
    pub preemptions: Summary,
}

/// Runs the admission-policy sweep for one profile: every
/// [`AdmissionOrder`] × installment granularity on the **same** trial
/// batches the FIFO/round-robin sweep draws (`generate_loads`), through
/// the **online** scheduler (`dlt_multiload::schedule` with default
/// arrivals) — specs revealed at release time, no future knowledge.
/// Stretch denominators come from `dlt_multiload::alone_makespans` at the
/// matching granularity, computed once per `(trial, installments)` and
/// shared across the three orders. Trials are dispatched over `threads`
/// scoped workers and folded in trial order: tables are byte-identical
/// for every thread count.
#[allow(clippy::too_many_arguments)]
pub fn run_multiload_policy(
    profile: &SpeedDistribution,
    p: usize,
    load_counts: &[usize],
    alphas: &[f64],
    base_size: f64,
    installments: &[usize],
    trials: usize,
    seed: u64,
    threads: usize,
    family: ModelFamily,
) -> Vec<PolicyPoint> {
    let spec = PlatformSpec::new(p, profile.clone());
    // The release window (the base load's alone makespan) is shared with
    // `run_multiload`: same seed, same trial streams, same batches.
    let t_alone_table: Vec<Vec<f64>> = alphas
        .iter()
        .map(|&alpha| {
            crate::runner::par_map(trials, threads, |trial| {
                let platform = spec
                    .generate_stream(seed, trial as u64)
                    .expect("valid spec");
                LoadSpec::with_model(base_size, family.law(alpha), 0.0)
                    .expect("valid base load")
                    .alone_makespan(&platform)
                    .expect("single-load solver converges")
            })
        })
        .collect();
    let cells: Vec<(usize, AdmissionOrder)> = installments
        .iter()
        .flat_map(|&k| AdmissionOrder::ALL.iter().map(move |&order| (k, order)))
        .collect();
    let mut points = Vec::new();
    for &n_loads in load_counts {
        for (alpha_idx, &alpha) in alphas.iter().enumerate() {
            let t_alone_by_trial = &t_alone_table[alpha_idx];
            let per_trial: Vec<Vec<(TrialMetrics, f64)>> =
                crate::runner::par_map(trials, threads, |trial| {
                    let platform = spec
                        .generate_stream(seed, trial as u64)
                        .expect("valid spec");
                    let t_alone = t_alone_by_trial[trial];
                    let loads = generate_loads(
                        n_loads,
                        alpha,
                        base_size,
                        t_alone,
                        seed,
                        trial as u64,
                        family,
                    );
                    let mut row = Vec::with_capacity(cells.len());
                    for &k in installments {
                        let alone =
                            alone_makespans(&platform, &loads, k).expect("alone solves converge");
                        let opts = ScheduleOptions {
                            alone: Some(&alone),
                            ..ScheduleOptions::default()
                        };
                        for order in AdmissionOrder::ALL {
                            let cfg = PolicyConfig {
                                order,
                                installments: k,
                            };
                            let out = schedule(&platform, &loads, &cfg, &opts)
                                .expect("policy scheduler handles valid batch");
                            row.push((TrialMetrics::of(&out.report), out.preemptions as f64));
                        }
                    }
                    row
                });
            for (slot, &(k, order)) in cells.iter().enumerate() {
                let mut makespan = Summary::new();
                let mut mean_flow = Summary::new();
                let mut mean_stretch = Summary::new();
                let mut max_stretch = Summary::new();
                let mut preemptions = Summary::new();
                for row in &per_trial {
                    let (m, pre) = row[slot];
                    makespan.push(m.makespan);
                    mean_flow.push(m.mean_flow);
                    mean_stretch.push(m.mean_stretch);
                    max_stretch.push(m.max_stretch);
                    preemptions.push(pre);
                }
                points.push(PolicyPoint {
                    loads: n_loads,
                    alpha,
                    order,
                    installments: k,
                    makespan,
                    mean_flow,
                    mean_stretch,
                    max_stretch,
                    preemptions,
                });
            }
        }
    }
    points
}

/// Tabulates policy-sweep points: one row per
/// `(loads, alpha, policy, installments)`.
pub fn multiload_policy_table(profile_name: &str, p: usize, points: &[PolicyPoint]) -> Table {
    let mut t = Table::new(&[
        "profile",
        "p",
        "loads",
        "alpha",
        "policy",
        "installments",
        "makespan_mean",
        "mean_flow_mean",
        "mean_stretch_mean",
        "max_stretch_mean",
        "preemptions_mean",
    ])
    .with_title(&format!(
        "Multi-load admission policies ({profile_name}, p={p}): online FIFO vs SRPT vs \
         weighted stretch, preemption between installments"
    ));
    for pt in points {
        t.row([
            profile_name.into(),
            p.into(),
            pt.loads.into(),
            pt.alpha.into(),
            pt.order.name().into(),
            pt.installments.into(),
            pt.makespan.mean().into(),
            pt.mean_flow.mean().into(),
            pt.mean_stretch.mean().into(),
            pt.max_stretch.mean().into(),
            pt.preemptions.mean().into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_core::nonlinear;

    #[test]
    fn table_has_one_row_per_point() {
        let pts = run_multiload(
            &SpeedDistribution::paper_uniform(),
            4,
            &[1, 2],
            &[1.0, 2.0],
            200.0,
            4,
            2,
            7,
            1,
            ModelFamily::AlphaPower,
        );
        assert_eq!(pts.len(), 2 * 2 * 2);
        let t = multiload_table("uniform", 4, &pts);
        assert_eq!(t.n_rows(), pts.len());
        assert!(t.to_csv().contains("round_robin"));
    }

    #[test]
    fn n1_fifo_rows_match_single_load_solver_bitwise() {
        // The acceptance anchor: with one load the FIFO makespan summary
        // must reproduce the single-load solver's makespans exactly —
        // same platforms, same fold order, so the means are f64-identical.
        let profile = SpeedDistribution::paper_uniform();
        let (p, trials, seed, base) = (6usize, 5usize, 11u64, 300.0);
        let pts = run_multiload(
            &profile,
            p,
            &[1],
            &[2.0],
            base,
            8,
            trials,
            seed,
            2,
            ModelFamily::AlphaPower,
        );
        let fifo_pt = pts
            .iter()
            .find(|pt| pt.scheduler == SchedulerKind::Fifo)
            .unwrap();

        let spec = PlatformSpec::new(p, profile);
        let mut expect = Summary::new();
        for trial in 0..trials {
            let platform = spec.generate_stream(seed, trial as u64).unwrap();
            expect.push(
                nonlinear::equal_finish_parallel(&platform, base, 2.0)
                    .unwrap()
                    .makespan,
            );
        }
        assert_eq!(fifo_pt.makespan.mean(), expect.mean());
        assert_eq!(fifo_pt.makespan.min(), expect.min());
        assert_eq!(fifo_pt.makespan.max(), expect.max());
        // One immediate load: flow == makespan, stretch == 1 exactly.
        assert_eq!(fifo_pt.mean_flow.mean(), expect.mean());
        assert_eq!(fifo_pt.mean_stretch.mean(), 1.0);
        assert_eq!(fifo_pt.max_stretch.max(), 1.0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let profile = SpeedDistribution::paper_lognormal();
        let serial = run_multiload(
            &profile,
            4,
            &[2, 4],
            &[1.5],
            200.0,
            8,
            4,
            3,
            1,
            ModelFamily::AlphaPower,
        );
        let parallel = run_multiload(
            &profile,
            4,
            &[2, 4],
            &[1.5],
            200.0,
            8,
            4,
            3,
            4,
            ModelFamily::AlphaPower,
        );
        let a = multiload_table("lognormal", 4, &serial);
        let b = multiload_table("lognormal", 4, &parallel);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn contended_batch_metrics_obey_the_schedule_invariants() {
        let pts = run_multiload(
            &SpeedDistribution::paper_uniform(),
            8,
            &[4],
            &[1.0],
            400.0,
            32,
            5,
            13,
            2,
            ModelFamily::AlphaPower,
        );
        for pt in &pts {
            // A load's flow time `finish − release` never exceeds the batch
            // makespan (`finish ≤ makespan`, `release ≥ 0`), trial by
            // trial, so it survives the mean too.
            assert!(pt.mean_flow.mean() <= pt.makespan.mean());
            assert!(pt.makespan.min() > 0.0 && pt.makespan.max().is_finite());
            assert!(pt.max_stretch.mean() >= pt.mean_stretch.mean() - 1e-12);
        }
        // Serializing whole installments can never beat the per-load
        // optimum: FIFO stretch ≥ 1 by construction.
        let fifo = pts
            .iter()
            .find(|pt| pt.scheduler == SchedulerKind::Fifo)
            .unwrap();
        assert!(fifo.mean_stretch.min() >= 1.0 - 1e-12);
    }

    #[test]
    fn policy_table_has_one_row_per_cell() {
        let pts = run_multiload_policy(
            &SpeedDistribution::paper_uniform(),
            4,
            &[1, 2],
            &[1.0, 2.0],
            200.0,
            &[1, 2],
            2,
            7,
            1,
            ModelFamily::AlphaPower,
        );
        // loads × alphas × installments × orders.
        assert_eq!(pts.len(), 2 * 2 * 2 * AdmissionOrder::ALL.len());
        let t = multiload_policy_table("uniform", 4, &pts);
        assert_eq!(t.n_rows(), pts.len());
        let csv = t.to_csv();
        for order in AdmissionOrder::ALL {
            assert!(csv.contains(order.name()), "missing {}", order.name());
        }
    }

    #[test]
    fn policy_thread_count_does_not_change_results() {
        let profile = SpeedDistribution::paper_lognormal();
        let serial = run_multiload_policy(
            &profile,
            4,
            &[2, 4],
            &[1.5],
            200.0,
            &[1, 4],
            4,
            3,
            1,
            ModelFamily::AlphaPower,
        );
        let parallel = run_multiload_policy(
            &profile,
            4,
            &[2, 4],
            &[1.5],
            200.0,
            &[1, 4],
            4,
            3,
            4,
            ModelFamily::AlphaPower,
        );
        let a = multiload_policy_table("lognormal", 4, &serial);
        let b = multiload_policy_table("lognormal", 4, &parallel);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn policy_stretches_hold_and_fifo_never_preempts() {
        let pts = run_multiload_policy(
            &SpeedDistribution::paper_uniform(),
            8,
            &[4],
            &[1.5],
            400.0,
            &[1, 4],
            5,
            13,
            2,
            ModelFamily::AlphaPower,
        );
        for pt in &pts {
            // Granularity-matched stretch denominators: no policy dips
            // below 1, trial by trial.
            assert!(pt.mean_stretch.min() >= 1.0 - 1e-9);
            assert!(pt.max_stretch.mean() >= pt.mean_stretch.mean() - 1e-12);
            // Non-preemptive cells cannot preempt.
            if pt.installments == 1 {
                assert_eq!(pt.preemptions.max(), 0.0);
            }
        }
    }

    #[test]
    fn generated_loads_are_deterministic_and_valid() {
        let a = generate_loads(5, 1.5, 100.0, 40.0, 9, 3, ModelFamily::AlphaPower);
        let b = generate_loads(5, 1.5, 100.0, 40.0, 9, 3, ModelFamily::AlphaPower);
        assert_eq!(a, b);
        assert_eq!(a[0].release, 0.0);
        assert_eq!(a[0].size, 100.0);
        for l in &a[1..] {
            assert!(l.size >= 25.0 && l.size <= 100.0);
            assert!(l.release >= 0.0 && l.release <= 40.0);
        }
        // Different trials draw different batches.
        let c = generate_loads(5, 1.5, 100.0, 40.0, 9, 4, ModelFamily::AlphaPower);
        assert_ne!(a, c);
    }
}
