//! `paper-repro`: the paper's own artifacts through the `experiments`
//! runners, on one thread.
//!
//! The reproduction is cut into artifact jobs — one runner call per
//! parameter point (one `P` of Section 2, one profile and `p` of Figure 4,
//! ...). Splitting does not change a single row: every runner draws each
//! point from its own seed stream. A pass runs every job back to back, the
//! way a reader asking for the whole reproduction waits for it; each
//! job's output is then checked against the paper's claims.
//!
//! The artifacts are the paper's one instance — the runners' seed is the
//! reproduction's own ([`PAPER_SEED`], as the `all` binary uses) — so a
//! run's cost does not hinge on how hard a seed's random platforms happen
//! to be. The workload seed draws the order in which the jobs are asked
//! for.
//!
//! The service-shaped end-to-end metrics take their `paper-repro` meaning:
//! a *decision* is one artifact job, a *completion* is a job returning
//! its artifact, and *stretch* is Figure 4's communication volume over
//! its lower bound — achieved over ideal, the quantity the paper plots.

use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats::{median, nearest_rank, tail};
use crate::{time_setup, Budget};
use dlt_core::batch::{BatchSolver, SolveBackend};
use dlt_core::costmodel::CostLaw;
use dlt_core::nonlinear::SolverConfig;
use dlt_experiments::fig4::{run_fig4, Fig4Point, PAPER_P_VALUES};
use dlt_experiments::models::ModelFamily;
use dlt_experiments::partition_quality::run_partition_quality;
use dlt_experiments::rho::run_rho_table;
use dlt_experiments::sec2::{run_sec2, PAPER_ALPHAS};
use dlt_experiments::sec3::{run_hetero_sort, run_sample_sort};
use dlt_experiments::sec_amdahl::{run_sec_amdahl, PAPER_SERIALS};
use dlt_outer::strategies::PAPER_IMBALANCE_TARGET;
use dlt_outer::{evaluate, hom_blocks_abstract, Strategy};
use dlt_partition::{lower_bound, PeriSumDp};
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use dlt_sim::{simulate_demand, DemandConfig, DemandTask};
use dlt_stats::{Summary, Table};
use std::time::Instant;

/// Worker threads handed to the runners.
const THREADS: usize = 1;

/// Seed the runners draw the paper's random platforms and keys from.
pub const PAPER_SEED: u64 = 42;

/// Section 2 and Amdahl sweep: platform sizes and load size.
const SEC2_PS: [usize; 10] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
const SEC2_N: f64 = 4096.0;

/// Section 3.1 sample sort: key counts, worker counts, trials.
const SORT_NS: [usize; 2] = [1 << 14, 1 << 16];
const SORT_PS: [usize; 3] = [4, 16, 64];
const SORT_TRIALS: usize = 2;

/// Section 3.2 heterogeneous sort.
const HETERO_N: usize = 1 << 16;
const HETERO_PS: [usize; 4] = [4, 8, 16, 32];

/// Figure 4: random platforms per point and domain side.
const FIG4_TRIALS: usize = 10;
const FIG4_N: usize = 10_000;

/// Section 4.1.3 ρ table: speed ratios, platform size, domain side.
const RHO_KS: [f64; 9] = [1.0, 2.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0, 64.0];
const RHO_P: usize = 32;
const RHO_N: usize = 4096;

/// Section 4.1.2 partition quality: platform sizes and trials.
const PART_PS: [usize; 9] = [2, 4, 8, 16, 32, 64, 128, 256, 512];
const PART_TRIALS: usize = 10;

/// Figure 4(a): largest ratio to the lower bound any strategy may reach
/// on identical workers (PERI-SUM "within 2%").
const HOMOGENEOUS_RATIO_MAX: f64 = 1.02;

/// Tolerance of the Section 2 closed-form checks.
const CLOSED_FORM_TOL: f64 = 1e-6;

/// Gap samples a run must collect so that the p99 completion gap has ten
/// samples beyond it.
const MIN_GAP_SAMPLES: usize = 1_000;

/// One section of the reproduction — one `experiments` runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `sec2::run_sec2`.
    Sec2,
    /// `sec_amdahl::run_sec_amdahl`.
    SecAmdahl,
    /// `sec3::run_sample_sort`.
    SampleSort,
    /// `sec3::run_hetero_sort`.
    HeteroSort,
    /// `fig4::run_fig4`.
    Fig4,
    /// `rho::run_rho_table`.
    RhoTable,
    /// `partition_quality::run_partition_quality`.
    PartitionQuality,
}

impl Section {
    /// Every section, in run order.
    pub const ALL: [Section; 7] = [
        Section::Sec2,
        Section::SecAmdahl,
        Section::SampleSort,
        Section::HeteroSort,
        Section::Fig4,
        Section::RhoTable,
        Section::PartitionQuality,
    ];

    /// Per-layer metric carrying the section's runner time.
    pub fn metric(self) -> &'static str {
        match self {
            Section::Sec2 => "experiments.sec2_s",
            Section::SecAmdahl => "experiments.sec_amdahl_s",
            Section::SampleSort => "experiments.sample_sort_s",
            Section::HeteroSort => "experiments.hetero_sort_s",
            Section::Fig4 => "experiments.fig4_s",
            Section::RhoTable => "experiments.rho_table_s",
            Section::PartitionQuality => "experiments.partition_quality_s",
        }
    }
}

/// One artifact job: a runner call for one parameter point.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// Section 2 at one platform size.
    Sec2 { p: usize },
    /// Amdahl sweep at one platform size (every serial fraction).
    SecAmdahl { p: usize },
    /// Sample sort at one key count and worker count.
    SampleSort { n: usize, p: usize },
    /// Heterogeneous sort on one profile at one worker count.
    HeteroSort {
        profile: SpeedDistribution,
        p: usize,
    },
    /// Figure 4 on one profile at one worker count (all strategies).
    Fig4 {
        profile: SpeedDistribution,
        p: usize,
    },
    /// ρ table at one speed ratio.
    Rho { k: f64 },
    /// Partition quality on one profile at one worker count.
    Partition {
        profile: SpeedDistribution,
        p: usize,
    },
}

/// What a job returns.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A table, as every runner but Figure 4's returns.
    Table(Table),
    /// Figure 4 points.
    Fig4(Vec<Fig4Point>),
}

impl Job {
    /// The section the job belongs to.
    pub fn section(&self) -> Section {
        match self {
            Job::Sec2 { .. } => Section::Sec2,
            Job::SecAmdahl { .. } => Section::SecAmdahl,
            Job::SampleSort { .. } => Section::SampleSort,
            Job::HeteroSort { .. } => Section::HeteroSort,
            Job::Fig4 { .. } => Section::Fig4,
            Job::Rho { .. } => Section::RhoTable,
            Job::Partition { .. } => Section::PartitionQuality,
        }
    }

    /// Runs the job through its public runner, on the paper's instance.
    pub fn run(&self) -> Artifact {
        let seed = PAPER_SEED;
        let table = match self {
            Job::Sec2 { p } => {
                run_sec2(&[*p], &PAPER_ALPHAS, SEC2_N, seed, ModelFamily::AlphaPower)
            }
            Job::SecAmdahl { p } => {
                run_sec_amdahl(&[*p], &PAPER_SERIALS, &PAPER_ALPHAS, SEC2_N, seed, THREADS)
            }
            Job::SampleSort { n, p } => run_sample_sort(&[*n], &[*p], SORT_TRIALS, seed),
            Job::HeteroSort { profile, p } => {
                run_hetero_sort(HETERO_N, &[*p], profile, SORT_TRIALS, seed)
            }
            Job::Fig4 { profile, p } => {
                return Artifact::Fig4(run_fig4(profile, &[*p], FIG4_TRIALS, FIG4_N, seed, THREADS))
            }
            Job::Rho { k } => run_rho_table(&[*k], RHO_P, RHO_N, THREADS),
            Job::Partition { profile, p } => {
                run_partition_quality(&[*p], profile, PART_TRIALS, seed, THREADS)
            }
        };
        Artifact::Table(table)
    }
}

/// Every job of a pass, section by section.
pub fn jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    jobs.extend(SEC2_PS.iter().map(|&p| Job::Sec2 { p }));
    jobs.extend(SEC2_PS.iter().map(|&p| Job::SecAmdahl { p }));
    for &n in &SORT_NS {
        jobs.extend(SORT_PS.iter().map(|&p| Job::SampleSort { n, p }));
    }
    for profile in [
        SpeedDistribution::paper_uniform(),
        SpeedDistribution::paper_lognormal(),
    ] {
        jobs.extend(HETERO_PS.iter().map(|&p| Job::HeteroSort {
            profile: profile.clone(),
            p,
        }));
    }
    for profile in SpeedDistribution::paper_profiles() {
        jobs.extend(PAPER_P_VALUES.iter().map(|&p| Job::Fig4 {
            profile: profile.clone(),
            p,
        }));
    }
    jobs.extend(RHO_KS.iter().map(|&k| Job::Rho { k }));
    for profile in SpeedDistribution::paper_profiles() {
        jobs.extend(PART_PS.iter().map(|&p| Job::Partition {
            profile: profile.clone(),
            p,
        }));
    }
    jobs
}

/// The jobs in the order `seed` asks for them: a Fisher–Yates shuffle
/// driven by SplitMix64.
pub fn shuffled(mut jobs: Vec<Job>, seed: u64) -> Vec<Job> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..jobs.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        jobs.swap(i, j);
    }
    jobs
}

/// Remaining work fraction of one optimal round on `p` identical
/// workers, `1 − 1/P^{α−1}` — the paper's Section 2 result.
pub fn no_free_lunch(p: usize, alpha: f64) -> f64 {
    1.0 - (p as f64).powf(1.0 - alpha)
}

/// Column `name` of `table`, or a check failure.
fn column(table: &Table, name: &str) -> Result<Vec<f64>, String> {
    table
        .column(name)
        .ok_or_else(|| format!("table lacks numeric column {name}"))
}

/// Text column `name` of `table`, read back from its CSV form.
fn text_column(table: &Table, name: &str) -> Result<Vec<String>, String> {
    let idx = table
        .headers()
        .iter()
        .position(|h| h == name)
        .ok_or_else(|| format!("table lacks column {name}"))?;
    Ok(table
        .to_csv()
        .lines()
        .skip(1)
        .map(|line| line.split(',').nth(idx).unwrap_or("").to_string())
        .collect())
}

/// Checks one artifact against the paper's claims. Each check is one
/// attempted operation; a failed check is one failed operation.
pub fn check(job: &Job, artifact: &Artifact, out: &mut Outcome) {
    let results = match check_all(job, artifact) {
        Ok(results) => results,
        Err(e) => vec![Err(e)],
    };
    for r in results {
        out.attempted += 1;
        if let Err(e) = r {
            out.fail(format!("{job:?}: {e}"));
        }
    }
}

fn check_all(job: &Job, artifact: &Artifact) -> Result<Vec<Result<(), String>>, String> {
    let table = match artifact {
        Artifact::Table(t) => Some(t),
        Artifact::Fig4(_) => None,
    };
    let table = || table.ok_or_else(|| "expected a table".to_string());
    let checks = match job {
        Job::Sec2 { p } => {
            let t = table()?;
            closed_form_checks(
                *p,
                &column(t, "alpha")?,
                &column(t, "remaining_solver_hom")?,
                None,
            )
        }
        Job::SecAmdahl { p } => {
            let t = table()?;
            let serial = column(t, "serial")?;
            closed_form_checks(
                *p,
                &column(t, "alpha")?,
                &column(t, "remaining_solver_hom")?,
                Some(&serial),
            )
        }
        Job::SampleSort { .. } => column(table()?, "bound_violations")?
            .into_iter()
            .map(|v| {
                (v == 0.0)
                    .then_some(())
                    .ok_or(format!("{v} bucket-bound violations"))
            })
            .collect(),
        Job::HeteroSort { .. } => text_column(table()?, "sorted_ok")?
            .into_iter()
            .map(|v| (v == "yes").then_some(()).ok_or(format!("sorted_ok = {v}")))
            .collect(),
        Job::Fig4 { profile, p } => {
            let Artifact::Fig4(points) = artifact else {
                return Err("expected Figure 4 points".into());
            };
            let ratio = |name: &str| {
                points
                    .iter()
                    .find(|pt| pt.p == *p && pt.strategy.name() == name)
                    .map(|pt| pt.ratio.mean())
                    .ok_or_else(|| format!("no {name} point at p = {p}"))
            };
            if matches!(profile, SpeedDistribution::Homogeneous { .. }) {
                // Figure 4(a): on identical workers Commhom's blocks tile
                // the domain exactly (ratio 1) while PERI-SUM's rectangles
                // cannot, so the comparison below would fail; the paper's
                // claim is that every strategy sits at the bound.
                Strategy::paper_strategies()
                    .iter()
                    .map(|s| {
                        let r = ratio(s.name())?;
                        (r <= HOMOGENEOUS_RATIO_MAX)
                            .then_some(())
                            .ok_or(format!("{} ratio {r} on identical workers", s.name()))
                    })
                    .collect()
            } else {
                let (het, hom) = (ratio("Commhet")?, ratio("Commhom")?);
                vec![(het <= hom)
                    .then_some(())
                    .ok_or(format!("Commhet ratio {het} above Commhom ratio {hom}"))]
            }
        }
        Job::Rho { .. } => {
            let t = table()?;
            column(t, "rho_measured")?
                .into_iter()
                .zip(column(t, "bound_general")?)
                .map(|(m, b)| {
                    (m >= b - 1e-9)
                        .then_some(())
                        .ok_or(format!("measured rho {m} below the bound {b}"))
                })
                .collect()
        }
        Job::Partition { .. } => column(table()?, "guarantee_1_plus_5_4")?
            .into_iter()
            .map(|g| {
                (g <= 1.0 + 1e-9)
                    .then_some(())
                    .ok_or(format!("PERI-SUM above its 1 + 5/4 LB guarantee ({g})"))
            })
            .collect(),
    };
    Ok(checks)
}

/// Section 2 / Amdahl checks: every pure α-power row (all rows, or the
/// `serial = 0` rows of the Amdahl sweep) reproduces `1 − 1/P^{α−1}`.
fn closed_form_checks(
    p: usize,
    alphas: &[f64],
    solver: &[f64],
    serial: Option<&[f64]>,
) -> Vec<Result<(), String>> {
    (0..alphas.len())
        .filter(|&i| serial.is_none_or(|s| s[i] == 0.0))
        .map(|i| {
            let want = no_free_lunch(p, alphas[i]);
            ((solver[i] - want).abs() <= CLOSED_FORM_TOL)
                .then_some(())
                .ok_or(format!(
                    "P = {p}, alpha = {}: solver {} vs 1 - 1/P^(a-1) = {want}",
                    alphas[i], solver[i]
                ))
        })
        .collect()
}

/// Everything a run uses, generated in set-up: the job order and the
/// platforms the runners draw, materialised for the traced replays.
#[derive(Debug, PartialEq)]
pub struct Inputs {
    /// The artifact jobs of one pass.
    pub jobs: Vec<Job>,
    /// Section 2 platforms per `P`: homogeneous and uniform.
    pub sec2: Vec<(usize, Platform, Platform)>,
    /// Figure 4 platforms per Figure 4 job, one per trial.
    pub fig4: Vec<Vec<Platform>>,
    /// Partition-quality speed vectors per partition job, one per trial.
    pub partition: Vec<Vec<Vec<f64>>>,
}

/// Generates the inputs: the job order from `seed`, the platforms from
/// [`PAPER_SEED`].
pub fn generate(seed: u64) -> Inputs {
    let jobs = shuffled(jobs(), seed);
    let draw = |profile: &SpeedDistribution, p: usize, trials: usize| -> Vec<Platform> {
        let spec = PlatformSpec::new(p, profile.clone());
        (0..trials as u64)
            .map(|t| {
                spec.generate_stream(PAPER_SEED, t)
                    .expect("valid platform spec")
            })
            .collect()
    };
    let sec2 = SEC2_PS
        .iter()
        .map(|&p| {
            let hom = Platform::homogeneous(p, 1.0, 1.0).expect("valid platform");
            let uni = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
                .generate(PAPER_SEED)
                .expect("valid platform spec");
            (p, hom, uni)
        })
        .collect();
    let fig4 = jobs
        .iter()
        .filter_map(|j| match j {
            Job::Fig4 { profile, p } => Some(draw(profile, *p, FIG4_TRIALS)),
            _ => None,
        })
        .collect();
    let partition = jobs
        .iter()
        .filter_map(|j| match j {
            Job::Partition { profile, p } => Some(
                draw(profile, *p, PART_TRIALS)
                    .iter()
                    .map(Platform::speeds)
                    .collect(),
            ),
            _ => None,
        })
        .collect();
    Inputs {
        jobs,
        sec2,
        fig4,
        partition,
    }
}

/// One pass: every job back to back. Returns the artifacts, each job's
/// wall time (s) and the pass wall time (s).
fn pass(inputs: &Inputs) -> (Vec<Artifact>, Vec<f64>, f64) {
    let mut artifacts = Vec::with_capacity(inputs.jobs.len());
    let mut stamps = Vec::with_capacity(inputs.jobs.len());
    let t0 = Instant::now();
    for job in &inputs.jobs {
        artifacts.push(job.run());
        stamps.push(t0.elapsed().as_secs_f64());
    }
    let wall = t0.elapsed().as_secs_f64();
    let durations = std::iter::once(stamps[0])
        .chain(stamps.windows(2).map(|w| w[1] - w[0]))
        .collect();
    (artifacts, durations, wall)
}

/// Figure 4 mean ratios to the lower bound, one per point.
fn fig4_ratios(artifacts: &[Artifact]) -> Vec<f64> {
    artifacts
        .iter()
        .filter_map(|a| match a {
            Artifact::Fig4(points) => Some(points.iter().map(|pt| pt.ratio.mean())),
            Artifact::Table(_) => None,
        })
        .flatten()
        .collect()
}

/// Untraced run: end-to-end metrics.
pub fn run(seed: u64, budget: Budget) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = generate(seed);
    let jobs = inputs.jobs.len();
    let budget = budget.with_min_passes(MIN_GAP_SAMPLES.div_ceil(jobs - 1));
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut gaps = Vec::new();
    let mut ratios = Vec::new();
    let clock = Instant::now();
    while budget.more(walls.len(), clock) {
        let (artifacts, durations, wall) = pass(&inputs);
        walls.push(wall);
        rates.push(jobs as f64 / wall);
        // Gaps between consecutive completions: every job's duration
        // but the first's.
        gaps.extend(durations[1..].iter().map(|d| d * 1e6));
        for (job, artifact) in inputs.jobs.iter().zip(&artifacts) {
            check(job, artifact, &mut out);
        }
        ratios = fig4_ratios(&artifacts);
    }
    gaps.sort_by(f64::total_cmp);
    let p50 = tail(&gaps, 50.0).ok_or("too few completion gaps")?;
    let p99 = tail(&gaps, 99.0).ok_or("too few completion gaps")?;
    let stretch_mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    ratios.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "{} passes of {jobs} artifact jobs; completion gaps: {} samples, tail at p{}; \
         stretch over {} Figure 4 points",
        walls.len(),
        p99.samples,
        p99.level,
        ratios.len()
    ));
    out.set("setup_s", time_setup(&inputs, || generate(seed))?);
    out.set("wall_s", median(&walls).ok_or("no pass")?);
    out.set("peak_rss_mb", peak_rss_mb()?);
    out.set("decisions_per_s", median(&rates).ok_or("no pass")?);
    out.set("completion_gap_p50_us", p50.value);
    out.set("completion_gap_p99_us", p99.value);
    out.set("stretch_mean", stretch_mean);
    out.set(
        "stretch_p99",
        nearest_rank(&ratios, 99.0).ok_or("no Figure 4 point")?,
    );
    Ok(out)
}

/// Times accumulated by the replays of one traced pass.
#[derive(Debug, Default)]
struct Replay {
    sweep_s: f64,
    commhet_s: f64,
    commhom_s: f64,
    commhom_k_s: f64,
    refine_levels: u64,
    simulate_s: f64,
    tasks: u64,
    peri_sum_s: f64,
}

/// Replays the solver sweeps of Section 2 and the Amdahl sweep on the
/// platforms the runners draw — one `solve_sweep` per platform, cold
/// handle, as the runners do — and checks every remaining fraction
/// bitwise against the tables.
fn replay_sweeps(inputs: &Inputs, artifacts: &[Artifact], r: &mut Replay) -> Result<(), String> {
    let config = SolverConfig::default();
    let mut sweep = |platform: &Platform, laws: &[CostLaw], want: &[f64]| {
        let mut solver = BatchSolver::new(SolveBackend::Scalar);
        let t0 = Instant::now();
        let allocs = solver
            .solve_sweep(platform, SEC2_N, laws, &config)
            .map_err(|e| format!("sweep replay: {e}"))?;
        r.sweep_s += t0.elapsed().as_secs_f64();
        let same = allocs.len() == want.len()
            && allocs
                .iter()
                .zip(want)
                .all(|(a, w)| (1.0 - a.work_fraction_done()).to_bits() == w.to_bits());
        same.then_some(()).ok_or_else(|| {
            format!(
                "sweep replay on p = {} differs from the table",
                platform.len()
            )
        })
    };
    for (job, artifact) in inputs.jobs.iter().zip(artifacts) {
        let (p, serials): (usize, &[f64]) = match job {
            Job::Sec2 { p } => (*p, &[0.0]),
            Job::SecAmdahl { p } => (*p, &PAPER_SERIALS),
            _ => continue,
        };
        let Artifact::Table(t) = artifact else {
            return Err("expected a table".into());
        };
        let (_, hom, uni) = inputs
            .sec2
            .iter()
            .find(|(q, _, _)| *q == p)
            .ok_or("no Section 2 platform")?;
        let hom_col = column(t, "remaining_solver_hom")?;
        let uni_col = column(t, "remaining_solver_uniform")?;
        for (i, &serial) in serials.iter().enumerate() {
            let family = match job {
                Job::Sec2 { .. } => ModelFamily::AlphaPower,
                _ => ModelFamily::AmdahlSerial { serial },
            };
            let laws: Vec<CostLaw> = PAPER_ALPHAS.iter().map(|&a| family.law(a)).collect();
            let rows = i * laws.len()..(i + 1) * laws.len();
            sweep(hom, &laws, &hom_col[rows.clone()])?;
            sweep(uni, &laws, &uni_col[rows])?;
        }
    }
    Ok(())
}

/// Replays Figure 4 through `outer::evaluate` on the runners' platforms,
/// and the `Commhom` / `Commhom/k` block dispatches through
/// `sim::simulate_demand`, rebuilding the refinement loop from
/// `hom_blocks_abstract`'s public outputs. Checks every point's mean
/// ratio and mean `k` bitwise against the runner, and every replayed
/// dispatch's volume bitwise against the strategy's.
fn replay_outer(inputs: &Inputs, artifacts: &[Artifact], r: &mut Replay) -> Result<(), String> {
    let fig4_jobs = inputs
        .jobs
        .iter()
        .zip(artifacts)
        .filter_map(|(j, a)| match (j, a) {
            (Job::Fig4 { p, .. }, Artifact::Fig4(points)) => Some((*p, points)),
            _ => None,
        });
    for ((p, points), platforms) in fig4_jobs.zip(&inputs.fig4) {
        for strategy in Strategy::paper_strategies() {
            let mut ratio = Summary::new();
            let mut k_sum = 0.0;
            for platform in platforms {
                let t0 = Instant::now();
                let report = evaluate(platform, FIG4_N, strategy);
                let dt = t0.elapsed().as_secs_f64();
                match strategy {
                    Strategy::HetRects => r.commhet_s += dt,
                    Strategy::HomBlocks => r.commhom_s += dt,
                    _ => {
                        r.commhom_k_s += dt;
                        r.refine_levels += report.k as u64;
                    }
                }
                ratio.push(report.ratio_to_lb);
                k_sum += report.k as f64;
                replay_dispatch(platform, strategy, report.k, r)?;
            }
            let point = points
                .iter()
                .find(|pt| pt.p == p && pt.strategy.name() == strategy.name())
                .ok_or("missing Figure 4 point")?;
            let mean_k = k_sum / platforms.len() as f64;
            if ratio.mean().to_bits() != point.ratio.mean().to_bits()
                || mean_k.to_bits() != point.mean_k.to_bits()
            {
                return Err(format!(
                    "outer replay of {} at p = {p} differs from Figure 4",
                    strategy.name()
                ));
            }
        }
    }
    Ok(())
}

/// The demand-driven dispatches behind one `Commhom` (k = 1) or
/// `Commhom/k` evaluation, replayed level by level until the strategy's
/// own stopping rule (imbalance at target, or unit blocks) fires.
fn replay_dispatch(
    platform: &Platform,
    strategy: Strategy,
    k_reported: usize,
    r: &mut Replay,
) -> Result<(), String> {
    let refine = match strategy {
        Strategy::HomBlocks => false,
        Strategy::HomBlocksRefined { .. } => true,
        _ => return Ok(()),
    };
    let mut best: Option<(f64, usize)> = None;
    for k in 1.. {
        let out = hom_blocks_abstract(platform, FIG4_N, k);
        let d = out.block_side;
        let tasks = vec![DemandTask::new(2.0 * d, d * d); out.n_blocks];
        let t0 = Instant::now();
        let demand = simulate_demand(platform, &tasks, DemandConfig::default());
        r.simulate_s += t0.elapsed().as_secs_f64();
        r.tasks += tasks.len() as u64;
        if demand.total_comm().to_bits() != out.comm_volume.to_bits() {
            return Err(format!("simulate_demand replay at k = {k} differs"));
        }
        if best.is_none_or(|(imb, _)| out.imbalance < imb) {
            best = Some((out.imbalance, k));
        }
        if !refine || out.imbalance <= PAPER_IMBALANCE_TARGET || d <= 1.0 {
            break;
        }
    }
    match best {
        Some((_, k)) if k == k_reported => Ok(()),
        _ => Err(format!(
            "refinement replay chose k {best:?}, outer reported {k_reported}"
        )),
    }
}

/// Replays the partition-quality PERI-SUM calls on the runners' speed
/// vectors (one workspace per job, as the runner holds one per worker)
/// and checks each job's mean ratio to the lower bound bitwise.
fn replay_partition(inputs: &Inputs, artifacts: &[Artifact], r: &mut Replay) -> Result<(), String> {
    let part_jobs = inputs
        .jobs
        .iter()
        .zip(artifacts)
        .filter_map(|(j, a)| match (j, a) {
            (Job::Partition { .. }, Artifact::Table(t)) => Some(t),
            _ => None,
        });
    for (table, trials) in part_jobs.zip(&inputs.partition) {
        let mut dp = PeriSumDp::new();
        let mut ratio = Summary::new();
        for weights in trials {
            let t0 = Instant::now();
            let part = dp
                .partition(weights)
                .map_err(|e| format!("PERI-SUM: {e}"))?;
            r.peri_sum_s += t0.elapsed().as_secs_f64();
            let lb = lower_bound(weights).map_err(|e| format!("lower bound: {e}"))?;
            ratio.push(part.total_half_perimeter() / lb);
        }
        let want = column(table, "peri_sum_mean")?;
        if want.first().map(|w| w.to_bits()) != Some(ratio.mean().to_bits()) {
            return Err("PERI-SUM replay differs from the partition-quality table".into());
        }
    }
    Ok(())
}

/// Traced run: per-layer metrics. Pairs an untraced pass with a traced
/// pass (which keeps every artifact and each job's time) and the
/// replays, until the budget is spent.
pub fn run_traced(seed: u64, budget: Budget) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = generate(seed);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut sections: Vec<Vec<f64>> = vec![Vec::new(); Section::ALL.len()];
    let mut replays = Vec::new();
    let clock = Instant::now();
    while budget.more(traced.len(), clock) {
        untraced.push(pass(&inputs).2);
        let (artifacts, durations, wall) = pass(&inputs);
        traced.push(wall);
        for (job, artifact) in inputs.jobs.iter().zip(&artifacts) {
            check(job, artifact, &mut out);
        }
        for (s, section) in Section::ALL.iter().enumerate() {
            let total = inputs
                .jobs
                .iter()
                .zip(&durations)
                .filter(|(j, _)| j.section() == *section)
                .map(|(_, d)| d)
                .sum();
            sections[s].push(total);
        }
        let mut r = Replay::default();
        let replayed = replay_sweeps(&inputs, &artifacts, &mut r)
            .and_then(|()| replay_outer(&inputs, &artifacts, &mut r))
            .and_then(|()| replay_partition(&inputs, &artifacts, &mut r));
        if let Err(e) = replayed {
            out.fail(e);
            return Ok(out);
        }
        replays.push(r);
    }
    for (section, times) in Section::ALL.iter().zip(&sections) {
        out.set(section.metric(), median(times).ok_or("no pass")?);
    }
    let med = |f: fn(&Replay) -> f64| {
        median(&replays.iter().map(f).collect::<Vec<_>>()).expect("at least one replay")
    };
    out.set("solver.sweep_s", med(|r| r.sweep_s));
    out.set("outer.commhet_s", med(|r| r.commhet_s));
    out.set("outer.commhom_s", med(|r| r.commhom_s));
    out.set("outer.commhom_k_s", med(|r| r.commhom_k_s));
    out.set("outer.refine_levels", replays[0].refine_levels as f64);
    out.set("sim.simulate_demand_s", med(|r| r.simulate_s));
    out.set("sim.tasks", replays[0].tasks as f64);
    out.set("partition.peri_sum_s", med(|r| r.peri_sum_s));
    let untraced_wall = median(&untraced).ok_or("no pass")?;
    let traced_wall = median(&traced).ok_or("no pass")?;
    out.set("trace.untraced_wall_s", untraced_wall);
    out.set("trace.traced_wall_s", traced_wall);
    out.set("trace.overhead_s", traced_wall - untraced_wall);
    out.notes.push(format!("{} traced pairs", traced.len()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_the_paper_table_values() {
        assert_eq!(no_free_lunch(8, 1.0), 0.0);
        assert!((no_free_lunch(4, 2.0) - 0.75).abs() < 1e-15);
        assert!((no_free_lunch(64, 3.0) - (1.0 - 1.0 / 4096.0)).abs() < 1e-15);
    }

    #[test]
    fn the_seed_orders_the_jobs_and_nothing_else() {
        let names = |jobs: &[Job]| jobs.iter().map(|j| format!("{j:?}")).collect::<Vec<_>>();
        let (a, b) = (generate(1), generate(2));
        assert_eq!(names(&a.jobs), names(&generate(1).jobs));
        assert_ne!(names(&a.jobs), names(&b.jobs));
        let (mut sa, mut sb) = (names(&a.jobs), names(&b.jobs));
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
    }

    #[test]
    fn every_section_has_jobs() {
        let jobs = jobs();
        for section in Section::ALL {
            assert!(jobs.iter().any(|j| j.section() == section), "{section:?}");
        }
    }

    #[test]
    fn a_wrong_section2_row_fails_its_check() {
        let job = Job::Sec2 { p: 16 };
        let good = job.run();
        let mut out = Outcome::default();
        check(&job, &good, &mut out);
        assert_eq!(out.attempted, PAPER_ALPHAS.len() as u64);
        assert_eq!(out.failed, 0);
        let mut bad = Table::new(&["alpha", "remaining_solver_hom"]);
        bad.row([2.0.into(), 0.5.into()]);
        check(&job, &Artifact::Table(bad), &mut out);
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn replays_match_small_runs_bitwise() {
        let inputs = generate(3);
        let artifacts: Vec<Artifact> = inputs.jobs.iter().map(Job::run).collect();
        let mut r = Replay::default();
        replay_sweeps(&inputs, &artifacts, &mut r).unwrap();
        replay_partition(&inputs, &artifacts, &mut r).unwrap();
        assert!(r.sweep_s > 0.0 && r.peri_sum_s > 0.0);
    }
}
