//! The artifact table behind the `all` binary: one entry per paper table,
//! figure or extension sweep.
//!
//! Each entry's function is the one place that holds the artifact's
//! paper-scale and `--smoke` parameters. It computes the artifact, prints
//! it (table, Gantt chart, Figure 4 plot, "Reading:" paragraph) and
//! writes its CSVs under `results/` (or `$DLT_RESULTS`). A new artifact
//! joins with one [`ARTIFACTS`] entry.
//!
//! Every entry runs from [`SEED`] and folds its trials in trial order, so
//! its CSVs are byte-identical for every `--threads` value. The committed
//! `results/*.csv` are the paper-scale output of [`ARTIFACTS`].

use crate::affinity::run_affinity;
use crate::competitive::{competitive_table, run_competitive};
use crate::fig4::{fig4_table, run_fig4, series_for, PAPER_P_VALUES};
use crate::footprint::run_fig2;
use crate::models::ModelFamily;
use crate::multiload::{
    multiload_policy_table, multiload_table, run_multiload, run_multiload_policy, DEFAULT_ALPHAS,
    DEFAULT_BASE_SIZE,
};
use crate::partition_quality::run_partition_quality;
use crate::rho::run_rho_table;
use crate::runner::{par_map, resolve_threads, write_and_print};
use crate::sec2::{run_sec2, PAPER_ALPHAS};
use crate::sec3::{run_distribution_robustness, run_hetero_sort, run_sample_sort};
use crate::sec_amdahl::{run_sec_amdahl, PAPER_SERIALS};
use crate::service::{run_service, service_table, DEFAULT_UTILIZATION};
use crate::traces::{fig1_sample_sort_trace, fig3_matmul_trace};
use crate::{competitive, service};
use dlt_outer::strategies::PAPER_IMBALANCE_TARGET;
use dlt_outer::Strategy;
use dlt_platform::SpeedDistribution;
use dlt_stats::AsciiPlot;

/// The seed every artifact runs from; the committed CSVs are its output.
pub const SEED: u64 = 42;

/// How `all` runs an artifact.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// `--smoke`: the smallest configuration that still exercises the
    /// artifact's runner end to end, in seconds even in a debug build.
    pub smoke: bool,
    /// Workers of the artifact's [`par_map`] pool, the only threads an
    /// artifact starts: `--threads W`, with `0` (the default) resolved
    /// to every core.
    pub threads: usize,
}

impl Settings {
    /// `smoke` under `--smoke`, `paper` otherwise.
    fn pick<T>(self, smoke: T, paper: T) -> T {
        if self.smoke {
            smoke
        } else {
            paper
        }
    }
}

/// One reproducible artifact.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// The name `all` takes on its command line.
    pub name: &'static str,
    /// The heading `all` prints before running it.
    pub title: &'static str,
    /// Computes the artifact, prints it and writes its CSVs; a CSV that
    /// cannot be written is an error naming its path.
    pub run: fn(Settings) -> Result<(), String>,
}

/// Every artifact, in the order `all` runs them.
pub const ARTIFACTS: [Artifact; 15] = [
    Artifact {
        name: "sec2-no-free-lunch",
        title: "Section 2: no free lunch",
        run: sec2_no_free_lunch,
    },
    Artifact {
        name: "sec-amdahl",
        title: "Extension: Amdahl-law relief of the no-free-lunch bound",
        run: sec_amdahl,
    },
    Artifact {
        name: "sec3-sample-sort",
        title: "Section 3.1: sample sort",
        run: sec3_sample_sort,
    },
    Artifact {
        name: "sec3-hetero-sort",
        title: "Section 3.2: heterogeneous sample sort",
        run: sec3_hetero_sort,
    },
    Artifact {
        name: "fig1-trace",
        title: "Figure 1: sample-sort trace",
        run: fig1_trace,
    },
    Artifact {
        name: "fig2-footprint",
        title: "Figure 2: footprints",
        run: fig2_footprint,
    },
    Artifact {
        name: "fig3-matmul-trace",
        title: "Figure 3: matmul trace",
        run: fig3_matmul,
    },
    Artifact {
        name: "fig4",
        title: "Figure 4 (a)(b)(c)",
        run: fig4,
    },
    Artifact {
        name: "rho-table",
        title: "Section 4.1.3: rho table",
        run: rho_table,
    },
    Artifact {
        name: "partition-quality",
        title: "Section 4.1.2: partition quality",
        run: partition_quality,
    },
    Artifact {
        name: "multiload",
        title: "Extension: multi-load scheduling (FIFO vs round-robin)",
        run: multiload,
    },
    Artifact {
        name: "multiload-policy",
        title: "Extension: multi-load admission policies (SRPT, preemption, online)",
        run: multiload_policy,
    },
    Artifact {
        name: "multiload-service",
        title: "Extension: service engine (streamed arrivals)",
        run: multiload_service,
    },
    Artifact {
        name: "multiload-competitive",
        title: "Extension: competitive ratios under adversarial arrivals and failures",
        run: multiload_competitive,
    },
    Artifact {
        name: "affinity",
        title: "Extension: affinity-aware dispatch (paper's conclusion)",
        run: affinity,
    },
];

/// Parses `all`'s command line, `[ARTIFACT…] [--smoke] [--threads W]`:
/// the named artifacts in table order (every artifact when none is
/// named) and the settings to run them with. An unknown flag or
/// artifact name, or a bad `--threads` value, is an error naming it.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<Artifact>, Settings), String> {
    let mut names = Vec::new();
    let mut settings = Settings {
        smoke: false,
        threads: 0,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => settings.smoke = true,
            "--threads" => {
                let value = args.next().ok_or("--threads needs a worker count")?;
                settings.threads = value
                    .parse()
                    .map_err(|_| format!("invalid value for --threads: {value:?}"))?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag} (allowed: --smoke, --threads)"));
            }
            name if ARTIFACTS.iter().any(|a| a.name == name) => names.push(arg),
            name => {
                let known: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
                return Err(format!(
                    "unknown artifact {name:?} (expected one of: {})",
                    known.join(", ")
                ));
            }
        }
    }
    settings.threads = resolve_threads(settings.threads);
    let selected = ARTIFACTS
        .into_iter()
        .filter(|a| names.is_empty() || names.iter().any(|n| n == a.name))
        .collect();
    Ok((selected, settings))
}

/// The processor counts of the Section 2 and Amdahl sweeps.
const SEC2_PS: [usize; 10] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

fn sec2_no_free_lunch(_: Settings) -> Result<(), String> {
    let t = run_sec2(
        &SEC2_PS,
        &PAPER_ALPHAS,
        4096.0,
        SEED,
        ModelFamily::AlphaPower,
    );
    write_and_print(&t, "sec2_no_free_lunch")?;
    println!(
        "Reading: for α > 1 the remaining fraction 1 − 1/P^(α−1) tends to 1 —\n\
         a single DLT round leaves asymptotically all of the work undone\n\
         (the paper's no-free-lunch result). The α = 1 rows stay at 0."
    );
    Ok(())
}

fn sec_amdahl(s: Settings) -> Result<(), String> {
    let ps: &[usize] = s.pick(&[2, 8, 32], &SEC2_PS);
    let t = run_sec_amdahl(ps, &PAPER_SERIALS, &PAPER_ALPHAS, 4096.0, SEED, s.threads);
    write_and_print(&t, "sec_amdahl")?;
    println!(
        "Reading: a serial fraction s caps the superlinear share of the work at\n\
         1 − s, so the remaining fraction no longer tends to 1 with P — the\n\
         no-free-lunch penalty applies only to the Amdahl-style parallelizable\n\
         part. s = 0 reproduces the paper's x^α rows; s = 1 is classical DLT."
    );
    Ok(())
}

fn sec3_sample_sort(s: Settings) -> Result<(), String> {
    let ns: &[usize] = s.pick(&[1 << 12], &[1 << 14, 1 << 16, 1 << 18, 1 << 20]);
    let (robustness_n, trials) = s.pick((1 << 12, 1), (1 << 18, 5));
    // The two tables are independent; each sorts on its own worker.
    let tables = par_map(2, s.threads, |i| match i {
        0 => run_sample_sort(ns, &[4, 16, 64], trials, SEED),
        _ => run_distribution_robustness(robustness_n, 16, trials, SEED),
    });
    write_and_print(&tables[0], "sec3_sample_sort")?;
    write_and_print(&tables[1], "sec3_distribution_robustness")?;
    println!(
        "Reading: frac_logp_logN = log p / log N is the non-divisible share of\n\
         the work; it shrinks as N grows. frac_cost_model is the master's\n\
         share of the modelled makespan, which grows with p. max_overload\n\
         stays below the Theorem B.4 bound (bound_overload) with high\n\
         probability."
    );
    Ok(())
}

fn sec3_hetero_sort(s: Settings) -> Result<(), String> {
    let (n, trials) = s.pick((1 << 12, 1), (1 << 18, 5));
    let profiles = [
        SpeedDistribution::paper_uniform(),
        SpeedDistribution::paper_lognormal(),
    ];
    let tables = par_map(profiles.len(), s.threads, |i| {
        run_hetero_sort(n, &[4, 8, 16, 32], &profiles[i], trials, SEED)
    });
    for (profile, t) in profiles.iter().zip(&tables) {
        write_and_print(t, &format!("sec3_hetero_sort_{}", profile.name()))?;
    }
    println!(
        "Reading: max_overload ≈ 1 means every worker's bucket matches its\n\
         speed share N·x_i — sorting stays divisible-load friendly even on\n\
         heterogeneous platforms (Section 3.2)."
    );
    Ok(())
}

fn fig1_trace(_: Settings) -> Result<(), String> {
    let n = 4096;
    let (events, chart) = fig1_sample_sort_trace(n, SEED);
    println!("Figure 1: sample sort, p = 4, s = 4, N = {n}");
    println!("(P1 is the master: pivot choice + pivot sort, then bucket");
    println!(" construction; P2..P5 receive their bucket and sort locally.)\n");
    println!("{chart}");
    println!("{} trace events", events.len());
    Ok(())
}

fn fig2_footprint(_: Settings) -> Result<(), String> {
    let t = run_fig2(4, 12.0, 240);
    write_and_print(&t, "fig2_footprint")?;
    println!(
        "Reading: under Commhom (demand-driven blocks) the fast workers'\n\
         footprint on a and b approaches 2N, while their Commhet rectangle\n\
         needs only its half-perimeter — Figure 2's 'memory footprint will\n\
         be high' vs 'highly reduced'."
    );
    Ok(())
}

fn fig3_matmul(_: Settings) -> Result<(), String> {
    let (n, q, steps) = (16, 2, 4);
    let (events, chart) = fig3_matmul_trace(n, q, steps);
    println!("Figure 3: outer-product MM on a {q}x{q} grid, N = {n}, first {steps} steps");
    println!("(each step: receive the broadcast row of A / column of B, then");
    println!(" apply the rank-1 update to the local C rectangle)\n");
    println!("{chart}");
    println!("{} trace events", events.len());
    Ok(())
}

fn fig4(s: Settings) -> Result<(), String> {
    // Paper scale: 100 random platforms per point on a 10⁴ × 10⁴ domain.
    let ps: &[usize] = s.pick(&[10, 20], &PAPER_P_VALUES);
    let (trials, n) = s.pick((1, 1_000), (100, 10_000));
    for profile in SpeedDistribution::paper_profiles() {
        let name = profile.name();
        let points = run_fig4(&profile, ps, trials, n, SEED, s.threads);
        write_and_print(&fig4_table(name, &points), &format!("fig4_{name}"))?;
        let mut plot = AsciiPlot::new(
            &format!("Figure 4 ({name}): communication / lower bound vs p"),
            64,
            16,
        )
        .with_labels("number of processors", "ratio to LBComm");
        plot.series("Commhet", 'h', &series_for(&points, Strategy::HetRects));
        plot.series("Commhom", 'o', &series_for(&points, Strategy::HomBlocks));
        let refined = Strategy::HomBlocksRefined {
            target: PAPER_IMBALANCE_TARGET,
        };
        plot.series("Commhom/k", 'k', &series_for(&points, refined));
        println!("{}", plot.render());
    }
    Ok(())
}

fn rho_table(s: Settings) -> Result<(), String> {
    let (p, n) = s.pick((4, 256), (32, 4096));
    let ks = [1.0, 2.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0, 64.0];
    let t = run_rho_table(&ks, p, n, s.threads);
    write_and_print(&t, "rho_table")?;
    println!(
        "Reading: the measured ratio rho grows like sqrt(k) and dominates the\n\
         rigorous bound (4/7)·Σs/(√s₁·Σ√s); the paper's headline two-class\n\
         bound (1+k)/(1+√k) ≥ √k−1 tracks it because Commhet sits within a\n\
         few percent of the lower bound."
    );
    Ok(())
}

fn partition_quality(s: Settings) -> Result<(), String> {
    let ps: &[usize] = s.pick(&[2, 8, 32], &[2, 4, 8, 16, 32, 64, 128, 256, 512]);
    let trials = s.pick(1, 50);
    for profile in SpeedDistribution::paper_profiles() {
        let t = run_partition_quality(ps, &profile, trials, SEED, s.threads);
        write_and_print(&t, &format!("partition_quality_{}", profile.name()))?;
    }
    println!(
        "Reading: peri_sum_max is the worst cost/LB ratio observed; the paper\n\
         reports ≤ ~1.02 for large p. guarantee_1_plus_5_4 must stay ≤ 1\n\
         (the proven bound Ĉ ≤ 1 + (5/4)·LB)."
    );
    Ok(())
}

fn multiload(s: Settings) -> Result<(), String> {
    // Round-robin cuts each load into `chunks` pieces.
    let (p, base_size, chunks, trials) = s.pick((4, 100.0, 4, 1), (16, DEFAULT_BASE_SIZE, 32, 50));
    let loads: &[usize] = s.pick(&[1, 2], &[1, 2, 4, 8]);
    for profile in SpeedDistribution::paper_profiles() {
        let points = run_multiload(
            &profile,
            p,
            loads,
            &DEFAULT_ALPHAS,
            base_size,
            chunks,
            trials,
            SEED,
            s.threads,
        );
        let t = multiload_table(profile.name(), p, &points);
        write_and_print(&t, &format!("multiload_{}", profile.name()))?;
    }
    Ok(())
}

fn multiload_policy(s: Settings) -> Result<(), String> {
    let (p, base_size, trials) = s.pick((4, 100.0, 1), (16, DEFAULT_BASE_SIZE, 50));
    let loads: &[usize] = s.pick(&[1, 2], &[1, 2, 4, 8]);
    // Installments per load: 1 is non-preemptive, 4 lets a load be
    // paused at three boundaries.
    let installments: &[usize] = s.pick(&[1, 2], &[1, 4]);
    for profile in SpeedDistribution::paper_profiles() {
        let points = run_multiload_policy(
            &profile,
            p,
            loads,
            &DEFAULT_ALPHAS,
            base_size,
            installments,
            trials,
            SEED,
            s.threads,
        );
        let t = multiload_policy_table(profile.name(), p, &points);
        write_and_print(&t, &format!("multiload_policy_{}", profile.name()))?;
    }
    Ok(())
}

fn multiload_service(s: Settings) -> Result<(), String> {
    // Paper scale streams a million loads per cell: the "millions of
    // arrivals at steady memory" point.
    let (p, loads, base_size) = s.pick((4, 2_000, 100.0), (8, 1_000_000, DEFAULT_BASE_SIZE));
    let cells = s.pick(service::smoke_cells(), service::default_cells());
    for profile in SpeedDistribution::paper_profiles() {
        let points = run_service(
            &profile,
            p,
            loads,
            base_size,
            &DEFAULT_ALPHAS,
            DEFAULT_UTILIZATION,
            &cells,
            SEED,
            s.threads,
        );
        let t = service_table(profile.name(), p, loads, DEFAULT_UTILIZATION, &points);
        write_and_print(&t, &format!("multiload_service_{}", profile.name()))?;
    }
    Ok(())
}

fn multiload_competitive(s: Settings) -> Result<(), String> {
    let (p, loads, trials) = s.pick((4, 8, 2), (8, 48, 30));
    let cells = s.pick(competitive::smoke_cells(), competitive::default_cells());
    for profile in SpeedDistribution::paper_profiles() {
        let points = run_competitive(&profile, p, loads, &cells, trials, SEED, s.threads);
        let t = competitive_table(profile.name(), p, loads, trials, &points);
        write_and_print(&t, &format!("multiload_competitive_{}", profile.name()))?;
    }
    Ok(())
}

fn affinity(s: Settings) -> Result<(), String> {
    let (p, n, trials) = s.pick((4, 256, 1), (32, 2048, 20));
    for profile in [
        SpeedDistribution::paper_uniform(),
        SpeedDistribution::paper_lognormal(),
    ] {
        let t = run_affinity(p, n, &profile, &[1, 2, 4, 8, 16, 32, 64], trials, SEED);
        write_and_print(&t, &format!("affinity_{}", profile.name()))?;
    }
    println!(
        "Reading: window = 1 is plain demand-driven FIFO; larger windows let a\n\
         free worker pick a pending block overlapping its cached rows/columns.\n\
         Shipped volume falls toward the footprint bound while the no-reuse\n\
         accounting and the load balance stay put — the improvement the paper's\n\
         conclusion predicts from affinity directives in MapReduce."
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<(Vec<&'static str>, Settings), String> {
        parse_args(words.iter().map(|s| s.to_string()))
            .map(|(artifacts, settings)| (artifacts.iter().map(|a| a.name).collect(), settings))
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in ARTIFACTS.iter().enumerate() {
            assert!(
                ARTIFACTS[..i].iter().all(|b| b.name != a.name),
                "duplicate artifact {}",
                a.name
            );
        }
    }

    #[test]
    fn no_name_selects_every_artifact_in_table_order() {
        let (names, settings) = parse(&[]).unwrap();
        let all: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        assert_eq!(names, all);
        assert!(!settings.smoke);
        assert!(settings.threads >= 1, "0 resolves to every core");
    }

    #[test]
    fn named_artifacts_run_once_in_table_order() {
        let (names, settings) = parse(&["fig4", "--smoke", "sec2-no-free-lunch", "fig4"]).unwrap();
        assert_eq!(names, ["sec2-no-free-lunch", "fig4"]);
        assert!(settings.smoke, "--smoke takes no value, even before a name");
        let (_, settings) = parse(&["--threads", "3", "affinity"]).unwrap();
        assert_eq!(settings.threads, 3);
    }

    #[test]
    fn a_flag_never_swallows_the_next_word() {
        // `--threads` needs its count, and `--smoke` takes none, so the
        // word after it is an artifact name. (The exit-2 path and the
        // other bad arguments are checked on the binary.)
        let e = parse(&["--threads"]).unwrap_err();
        assert!(e.contains("--threads"), "{e}");
        let e = parse(&["--smoke", "uniform"]).unwrap_err();
        assert!(e.contains("\"uniform\""), "{e}");
    }
}
