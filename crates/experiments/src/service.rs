//! Service-engine experiment: streamed million-load arrival traces
//! through [`dlt_multiload::serve_trace`], swept over admission order,
//! admission-window size and installment policy.
//!
//! Protocol: one platform per profile (trial-0 stream of the shared
//! seed), one Poisson arrival trace per `(seed, cell)` — sizes drawn from
//! `U[0.25, 1] · base_size`, exponents drawn uniformly from the alpha
//! list, exponential inter-arrivals paced so the offered utilization hits
//! a target fraction of the platform's service rate
//! ([`calibrated_spacing`] probes the mean-size alone makespan per alpha,
//! communication included). Every cell consumes the *same* trace bytes —
//! the generator is deterministic in the seed — so rows differ only by
//! engine configuration.
//!
//! Cells run in parallel over [`crate::runner::par_map`], and every
//! column is a scheduling outcome (decisions, solves, makespan, stretch,
//! peak pending), so the CSV is byte-identical for a given seed at any
//! thread count. Service throughput is measured by `perfbench` and the
//! `multiload_service` hot-path record, not here.

use crate::models::ModelFamily;
use crate::runner::par_map;
use dlt_multiload::{
    serve_trace, AdmissionOrder, DiscardCompletions, InstallmentPolicy, LoadSpec, ServiceConfig,
    ServiceReport,
};
use dlt_platform::rng::seeded_stream;
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use dlt_stats::Table;
use rand::Rng;

/// Default offered utilization: loaded enough that admission genuinely
/// queues, light enough that the backlog stays bounded.
pub const DEFAULT_UTILIZATION: f64 = 0.8;

/// Salt mixed into the base seed for the arrival-trace stream, so trace
/// draws are independent of the platform draw sharing the seed.
const TRACE_SEED_SALT: u64 = 0x7365_7276_6963_6521; // "service!"

/// Mean of the `U[0.25, 1]` size factor — the probe size of
/// [`calibrated_spacing`] relative to `base_size`.
const MEAN_SIZE_FACTOR: f64 = 0.625;

/// One engine configuration measured by the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCell {
    /// Admission order ranking the pending set.
    pub order: AdmissionOrder,
    /// Admission-window size (1 = one solve per decision, as
    /// `dlt_multiload::schedule` runs).
    pub batch: usize,
    /// Installment policy applied at admission.
    pub installments: InstallmentPolicy,
}

impl ServiceCell {
    /// Compact label for the installment policy (CSV column).
    fn installments_label(&self) -> String {
        match self.installments {
            InstallmentPolicy::Fixed(k) => format!("fixed:{k}"),
            InstallmentPolicy::Adaptive { min, max } => format!("adaptive:{min}-{max}"),
        }
    }
}

/// Full-scale sweep: every admission order at the batch point (window 1,
/// one installment — what `dlt_multiload::schedule` runs) and at the
/// amortized point (window 8, adaptive installments), plus SRPT at a
/// fixed preemptive granularity.
pub(crate) fn default_cells() -> Vec<ServiceCell> {
    let amortized = InstallmentPolicy::Adaptive { min: 1, max: 16 };
    let mut cells = Vec::new();
    for order in AdmissionOrder::ALL {
        cells.push(ServiceCell {
            order,
            batch: 1,
            installments: InstallmentPolicy::Fixed(1),
        });
        cells.push(ServiceCell {
            order,
            batch: 8,
            installments: amortized,
        });
    }
    cells.push(ServiceCell {
        order: AdmissionOrder::Srpt,
        batch: 1,
        installments: InstallmentPolicy::Fixed(4),
    });
    cells
}

/// Trimmed sweep for smoke runs: one cell per engine mode (window 1,
/// batched/adaptive, lazily re-keyed weighted stretch).
pub fn smoke_cells() -> Vec<ServiceCell> {
    vec![
        ServiceCell {
            order: AdmissionOrder::Fifo,
            batch: 1,
            installments: InstallmentPolicy::Fixed(1),
        },
        ServiceCell {
            order: AdmissionOrder::Srpt,
            batch: 8,
            installments: InstallmentPolicy::Adaptive { min: 1, max: 8 },
        },
        ServiceCell {
            order: AdmissionOrder::WeightedStretch,
            batch: 1,
            installments: InstallmentPolicy::Fixed(1),
        },
    ]
}

/// Mean inter-arrival time that offers `utilization` of the platform's
/// service rate: the mean-size load's alone makespan (averaged over the
/// alpha list, communication included) divided by the target. Probed
/// with actual equal-finish solves — on comm-inclusive platforms the
/// naive `size / Σ speed` underestimates service time severely.
pub fn calibrated_spacing(
    platform: &Platform,
    base_size: f64,
    alphas: &[f64],
    utilization: f64,
    family: ModelFamily,
) -> f64 {
    assert!(utilization > 0.0, "utilization must be positive");
    let probe_size = base_size * MEAN_SIZE_FACTOR;
    let mean_alone: f64 = alphas
        .iter()
        .map(|&alpha| {
            LoadSpec::new(probe_size, family.law(alpha), 0.0)
                .expect("valid probe load")
                .alone_makespan(platform)
                .expect("single-load solver converges")
        })
        .sum::<f64>()
        / alphas.len() as f64;
    mean_alone / utilization
}

/// Deterministic streamed Poisson trace: `loads` arrivals, sizes
/// `U[0.25, 1] · base_size`, exponents uniform over `alphas`,
/// exponential inter-arrival gaps with mean `spacing`. Lazy — the
/// million-spec trace is never materialized, which is the point of the
/// service engine's streaming ingestion.
pub fn arrival_trace(
    loads: usize,
    base_size: f64,
    alphas: Vec<f64>,
    spacing: f64,
    seed: u64,
    family: ModelFamily,
) -> impl Iterator<Item = LoadSpec> {
    assert!(!alphas.is_empty(), "alpha list must be non-empty");
    let mut rng = seeded_stream(seed ^ TRACE_SEED_SALT, 0);
    let mut release = 0.0f64;
    let mut emitted = 0usize;
    std::iter::from_fn(move || {
        if emitted >= loads {
            return None;
        }
        emitted += 1;
        let size = base_size * rng.gen_range(0.25..1.0);
        let alpha = alphas[rng.gen_range(0..alphas.len())];
        // Inverse-CDF exponential gap; 1 − u > 0 because u ∈ [0, 1).
        let u: f64 = rng.gen_range(0.0..1.0);
        #[expect(
            clippy::disallowed_methods,
            reason = "arrival-time sampling; the committed CSVs pin these std-ln bits"
        )]
        let gap = -(1.0 - u).ln() * spacing;
        release += gap;
        Some(LoadSpec::new(size, family.law(alpha), release).expect("valid generated load"))
    })
}

/// One cell's outcome: the configuration and the engine's own report.
#[derive(Debug, Clone)]
pub struct ServicePoint {
    /// The configuration run.
    pub cell: ServiceCell,
    /// The engine's streaming aggregates.
    pub report: ServiceReport,
}

/// Runs one cell on an already-built platform and trace.
fn run_service_cell(
    platform: &Platform,
    trace: impl Iterator<Item = LoadSpec>,
    cell: ServiceCell,
) -> ServicePoint {
    let cfg = ServiceConfig {
        order: cell.order,
        batch: cell.batch,
        installments: cell.installments,
        track_stretch: true,
    };
    let report = serve_trace(platform, trace, &cfg, &mut DiscardCompletions)
        .expect("service engine handles generated trace");
    ServicePoint { cell, report }
}

/// Runs the sweep for one profile: the cells on `threads` workers, each
/// on an identical regenerated trace of `x^α` loads. Returns one point
/// per cell, in cell order.
#[allow(clippy::too_many_arguments)]
pub fn run_service(
    profile: &SpeedDistribution,
    p: usize,
    loads: usize,
    base_size: f64,
    alphas: &[f64],
    utilization: f64,
    cells: &[ServiceCell],
    seed: u64,
    threads: usize,
) -> Vec<ServicePoint> {
    let family = ModelFamily::AlphaPower;
    let platform = PlatformSpec::new(p, profile.clone())
        .generate_stream(seed, 0)
        .expect("valid spec");
    let spacing = calibrated_spacing(&platform, base_size, alphas, utilization, family);
    par_map(cells.len(), threads, |i| {
        let trace = arrival_trace(loads, base_size, alphas.to_vec(), spacing, seed, family);
        run_service_cell(&platform, trace, cells[i])
    })
}

/// Tabulates sweep points: one row per cell.
pub(crate) fn service_table(
    profile_name: &str,
    p: usize,
    loads: usize,
    utilization: f64,
    points: &[ServicePoint],
) -> Table {
    let mut t = Table::new(&[
        "profile",
        "p",
        "loads",
        "utilization",
        "order",
        "batch",
        "installments",
        "decisions",
        "solves",
        "alone_solves",
        "preemptions",
        "peak_pending",
        "makespan",
        "mean_flow",
        "mean_stretch",
        "max_stretch",
    ])
    .with_title(&format!(
        "Service engine ({profile_name}, p={p}, {loads} streamed loads @ {utilization} utilization)"
    ));
    for pt in points {
        t.row([
            profile_name.into(),
            p.into(),
            loads.into(),
            utilization.into(),
            pt.cell.order.name().into(),
            pt.cell.batch.into(),
            pt.cell.installments_label().into(),
            (pt.report.decisions as i64).into(),
            (pt.report.solves as i64).into(),
            (pt.report.alone_solves as i64).into(),
            (pt.report.preemptions as i64).into(),
            pt.report.pending_high_water.into(),
            pt.report.makespan.into(),
            pt.report.mean_flow().into(),
            pt.report.mean_stretch().into(),
            pt.report.max_stretch.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_trace_is_deterministic_sorted_and_lazy() {
        let a: Vec<LoadSpec> =
            arrival_trace(64, 100.0, vec![1.0, 2.0], 3.0, 7, ModelFamily::AlphaPower).collect();
        let b: Vec<LoadSpec> =
            arrival_trace(64, 100.0, vec![1.0, 2.0], 3.0, 7, ModelFamily::AlphaPower).collect();
        assert_eq!(a, b, "same seed must replay the same trace");
        assert_eq!(a.len(), 64);
        for w in a.windows(2) {
            assert!(w[0].release <= w[1].release, "releases must be sorted");
        }
        for spec in &a {
            assert!(spec.size >= 25.0 && spec.size < 100.0);
            assert!(spec.alpha() == 1.0 || spec.alpha() == 2.0);
        }
        // Mean gap tracks the requested spacing (law of large numbers at
        // a loose tolerance).
        let mean_gap = a.last().unwrap().release / 63.0;
        assert!(mean_gap > 1.5 && mean_gap < 6.0, "mean gap {mean_gap}");
    }

    #[test]
    fn calibrated_spacing_scales_inversely_with_utilization() {
        let platform = Platform::from_speeds(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let half = calibrated_spacing(&platform, 100.0, &[1.0, 2.0], 0.5, ModelFamily::AlphaPower);
        let full = calibrated_spacing(&platform, 100.0, &[1.0, 2.0], 1.0, ModelFamily::AlphaPower);
        assert!((half - 2.0 * full).abs() < 1e-9 * half);
        assert!(full > 0.0);
    }

    #[test]
    fn run_service_covers_every_cell_and_stays_bounded() {
        let cells = smoke_cells();
        let pts = run_service(
            &SpeedDistribution::paper_uniform(),
            4,
            300,
            100.0,
            &[1.0, 1.5],
            0.7,
            &cells,
            1,
            2,
        );
        assert_eq!(pts.len(), cells.len());
        for (pt, cell) in pts.iter().zip(&cells) {
            assert_eq!(pt.cell, *cell, "points come back in cell order");
            assert_eq!(pt.report.loads, 300);
            assert!(pt.report.mean_stretch() >= 1.0 - 1e-9);
            assert!(
                pt.report.pending_high_water < 300,
                "at 0.7 utilization the backlog must stay below the trace length"
            );
        }
        let table = service_table("uniform", 4, 300, 0.7, &pts);
        assert_eq!(table.n_rows(), pts.len());
        let csv = table.to_csv();
        assert!(csv.contains("fifo") && csv.contains("srpt") && csv.contains("weighted_stretch"));
    }

    #[test]
    fn identical_seed_gives_identical_reports_at_any_thread_count() {
        let cells = [
            ServiceCell {
                order: AdmissionOrder::Srpt,
                batch: 4,
                installments: InstallmentPolicy::Adaptive { min: 1, max: 4 },
            },
            ServiceCell {
                order: AdmissionOrder::Fifo,
                batch: 1,
                installments: InstallmentPolicy::Fixed(1),
            },
        ];
        let run = |threads| {
            run_service(
                &SpeedDistribution::paper_lognormal(),
                4,
                200,
                50.0,
                &[1.0, 2.0],
                0.8,
                &cells,
                3,
                threads,
            )
        };
        let (a, b) = (run(1), run(2));
        // Every field of every report, not just the rounded CSV columns.
        let reports = |pts: &[ServicePoint]| -> Vec<ServiceReport> {
            pts.iter().map(|p| p.report.clone()).collect()
        };
        assert_eq!(reports(&a), reports(&b));
        let csv = |pts: &[ServicePoint]| service_table("lognormal", 4, 200, 0.8, pts).to_csv();
        assert_eq!(csv(&a), csv(&b));
    }
}
