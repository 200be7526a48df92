//! Integration smoke tests for the experiment harness: every runner must
//! produce a well-formed table whose key invariants hold even at tiny
//! trial counts (the full-scale numbers are the committed `results/`
//! CSVs; `docs/paper-map.md` maps them to the paper), and the `all`
//! binary must run every artifact and reject what it does not take.

use dlt_experiments::models::ModelFamily;
use dlt_experiments::{
    affinity, fig4, footprint, multiload, partition_quality, rho, sec2, sec3, service, traces,
};
use dlt_multiload::SchedulerKind;
use dlt_outer::Strategy;
use dlt_platform::{PlatformSpec, SpeedDistribution};
use std::collections::BTreeMap;

#[test]
fn fig4_runner_covers_every_point() {
    let ps = [10usize, 20];
    let pts = fig4::run_fig4(&SpeedDistribution::paper_uniform(), &ps, 3, 2000, 1, 2);
    assert_eq!(pts.len(), ps.len() * 3);
    let table = fig4::fig4_table("uniform", &pts);
    assert_eq!(table.n_rows(), pts.len());
    // Every strategy appears for every p.
    for s in Strategy::paper_strategies() {
        assert_eq!(fig4::series_for(&pts, s).len(), ps.len());
    }
    let csv = table.to_csv();
    assert!(csv.contains("Commhet") && csv.contains("Commhom/k"));
}

#[test]
fn sec2_table_is_consistent() {
    let t = sec2::run_sec2(&[2, 32], &[1.0, 2.0], 256.0, 1, ModelFamily::AlphaPower);
    assert_eq!(t.n_rows(), 4);
    let closed = t.column("remaining_closed_form").unwrap();
    let hom = t.column("remaining_solver_hom").unwrap();
    for (c, h) in closed.iter().zip(&hom) {
        assert!((c - h).abs() < 1e-6);
    }
}

#[test]
fn sec3_tables_have_expected_shape() {
    let t = sec3::run_sample_sort(&[1 << 12], &[4], 2, 1);
    assert_eq!(t.n_rows(), 1);
    assert_eq!(t.column("bound_violations").unwrap()[0], 0.0);

    let t = sec3::run_hetero_sort(1 << 12, &[4], &SpeedDistribution::paper_uniform(), 2, 1);
    assert_eq!(t.n_rows(), 1);
    assert!(t.to_csv().contains("yes"));

    let t = sec3::run_distribution_robustness(1 << 12, 4, 1, 1);
    assert_eq!(t.n_rows(), 5);
}

#[test]
fn rho_table_monotone_in_k() {
    let t = rho::run_rho_table(&[1.0, 16.0], 8, 512, 2);
    let m = t.column("rho_measured").unwrap();
    assert!(m[1] > m[0]);
}

#[test]
fn partition_quality_within_guarantee() {
    let t = partition_quality::run_partition_quality(
        &[4, 16],
        &SpeedDistribution::paper_lognormal(),
        4,
        1,
        2,
    );
    for g in t.column("guarantee_1_plus_5_4").unwrap() {
        assert!(g <= 1.0);
    }
}

#[test]
fn footprint_table_has_one_row_per_worker() {
    let t = footprint::run_fig2(4, 8.0, 160);
    assert_eq!(t.n_rows(), 4);
    // het footprint equals het volume for single rectangles.
    let v = t.column("het_volume").unwrap();
    let f = t.column("het_footprint").unwrap();
    for (a, b) in v.iter().zip(&f) {
        assert_eq!(a, b);
    }
}

#[test]
fn affinity_table_improves_with_window() {
    let t = affinity::run_affinity(8, 512, &SpeedDistribution::paper_uniform(), &[1, 32], 3, 1);
    let shipped = t.column("shipped_over_lb_mean").unwrap();
    assert!(shipped[1] <= shipped[0] + 1e-9);
}

#[test]
fn multiload_runner_covers_every_point() {
    let pts = multiload::run_multiload(
        &SpeedDistribution::paper_uniform(),
        4,
        &[1, 2],
        &[1.0, 2.0],
        200.0,
        4,
        2,
        1,
        2,
    );
    // (loads × alphas) × two schedulers.
    assert_eq!(pts.len(), 2 * 2 * 2);
    let table = multiload::multiload_table("uniform", 4, &pts);
    assert_eq!(table.n_rows(), pts.len());
    let csv = table.to_csv();
    assert!(csv.contains("fifo") && csv.contains("round_robin"));
}

#[test]
fn multiload_n1_reproduces_single_load_rows_bitwise() {
    // Acceptance anchor: the `loads = 1` FIFO rows are the single-load
    // solver, bit for bit — recompute the same platforms with
    // `equal_finish_parallel` and compare the summarized cells exactly.
    let profile = SpeedDistribution::paper_lognormal();
    let (p, trials, seed, base, alpha) = (5usize, 4usize, 21u64, 500.0, 1.5);
    let pts = multiload::run_multiload(&profile, p, &[1], &[alpha], base, 8, trials, seed, 2);
    let fifo = pts
        .iter()
        .find(|pt| pt.scheduler == SchedulerKind::Fifo)
        .unwrap();

    let spec = PlatformSpec::new(p, profile);
    let mut expect = dlt_stats::Summary::new();
    for trial in 0..trials {
        let platform = spec.generate_stream(seed, trial as u64).unwrap();
        let direct = dlt_core::nonlinear::equal_finish_parallel(&platform, base, alpha).unwrap();
        expect.push(direct.makespan);
    }
    assert_eq!(fifo.makespan.mean(), expect.mean());
    assert_eq!(fifo.makespan.population_std(), expect.population_std());
    assert_eq!(fifo.mean_stretch.mean(), 1.0);
}

#[test]
fn multiload_policy_runner_exercises_every_admission_order() {
    use dlt_multiload::AdmissionOrder;
    let pts = multiload::run_multiload_policy(
        &SpeedDistribution::paper_uniform(),
        4,
        &[1, 2],
        &[1.0, 2.0],
        200.0,
        &[1, 2],
        2,
        1,
        2,
    );
    // loads × alphas × installments × every AdmissionOrder variant.
    assert_eq!(pts.len(), 2 * 2 * 2 * AdmissionOrder::ALL.len());
    let table = multiload::multiload_policy_table("uniform", 4, &pts);
    assert_eq!(table.n_rows(), pts.len());
    let csv = table.to_csv();
    for order in AdmissionOrder::ALL {
        assert!(csv.contains(order.name()), "CSV misses {}", order.name());
    }
    // Every cell's stretch stays ≥ 1 against the granularity-matched
    // alone denominators.
    for pt in &pts {
        assert!(pt.mean_stretch.min() >= 1.0 - 1e-9);
    }
}

#[test]
fn service_runner_oracle_cell_matches_schedule() {
    use dlt_multiload::{
        schedule, AdmissionOrder, InstallmentPolicy, PolicyConfig, ScheduleOptions,
    };

    // The service sweep's window-1/one-installment cell must BE the
    // online batch scheduler — recompute the same trace through
    // `schedule` and compare the makespan bitwise.
    let profile = SpeedDistribution::paper_uniform();
    let (p, loads, base, seed) = (4usize, 60usize, 100.0, 5u64);
    let cells = [service::ServiceCell {
        order: AdmissionOrder::Srpt,
        batch: 1,
        installments: InstallmentPolicy::Fixed(1),
    }];
    let pts = service::run_service(&profile, p, loads, base, &[1.0, 1.5], 0.8, &cells, seed, 1);

    let platform = PlatformSpec::new(p, profile)
        .generate_stream(seed, 0)
        .unwrap();
    let spacing =
        service::calibrated_spacing(&platform, base, &[1.0, 1.5], 0.8, ModelFamily::AlphaPower);
    let trace: Vec<_> = service::arrival_trace(
        loads,
        base,
        vec![1.0, 1.5],
        spacing,
        seed,
        ModelFamily::AlphaPower,
    )
    .collect();
    let cfg = PolicyConfig {
        order: AdmissionOrder::Srpt,
        installments: 1,
    };
    let oracle = schedule(&platform, &trace, &cfg, &ScheduleOptions::default()).unwrap();
    assert_eq!(pts[0].report.makespan, oracle.report.makespan());
    assert_eq!(pts[0].report.loads, loads as u64);
}

#[test]
fn traces_render_non_trivially() {
    let (events, chart) = traces::fig1_sample_sort_trace(1024, 1);
    assert!(events.len() >= 2 + 2 * 4);
    assert!(chart.lines().count() >= 6);
    let (events, chart) = traces::fig3_matmul_trace(8, 2, 2);
    assert_eq!(events.len(), 16);
    assert!(chart.contains('#'));
}

// ---------------------------------------------------------------------------
// The `all` binary. Cargo builds it for integration tests and exposes its
// path via `CARGO_BIN_EXE_all`.
// ---------------------------------------------------------------------------

/// Runs `all` with `args`, pointing `DLT_RESULTS` at a unique per-run
/// temp directory, and returns its stdout and the CSVs it wrote, by name.
/// A failed write exits non-zero (see `a_failed_csv_write_fails_all`);
/// the callers check the CSV list too, so an artifact that stops writing
/// a CSV cannot pass silently.
fn run_all(tag: &str, args: &[&str]) -> (String, BTreeMap<String, Vec<u8>>) {
    let results = std::env::temp_dir().join(format!("dlt-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&results).expect("create smoke results dir");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_all"))
        .args(args)
        .env("DLT_RESULTS", &results)
        .output()
        .expect("spawn all");
    assert!(
        out.status.success(),
        "all {args:?} exited with {}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let csvs = std::fs::read_dir(&results)
        .expect("read smoke results dir")
        .filter_map(Result::ok)
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .filter(|(name, _)| name.ends_with(".csv"))
        .map(|(name, path)| (name, std::fs::read(path).expect("read smoke CSV")))
        .collect();
    let _ = std::fs::remove_dir_all(&results);
    (String::from_utf8_lossy(&out.stdout).into_owned(), csvs)
}

#[test]
fn bin_all_smoke() {
    let (out, csvs) = run_all("all", &["--smoke"]);
    assert!(out.contains("all experiments done."));
    assert!(!csvs.is_empty(), "all --smoke wrote no CSV");
    // One string per artifact: its table columns, its chart or its
    // reading paragraph.
    for needle in [
        "remaining",
        "overload",
        "max_overload",
        "Figure 1",
        "trace events",
        "footprint",
        "Figure 3",
        "Commhet",
        "rho",
        "peri_sum",
        "fifo",
        "round_robin",
        "srpt",
        "weighted_stretch",
        "peak_pending",
        "max_stretch",
        "flow_ratio_min",
        "poisson",
        "mmpp_burst",
        "affinity",
    ] {
        assert!(out.contains(needle), "all --smoke output lacks {needle:?}");
    }
}

#[test]
fn every_smoke_csv_is_committed() {
    // CI regenerates `results/` and runs `git diff`, which cannot see an
    // untracked file: a new artifact's CSV must be committed too.
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let (_, csvs) = run_all("committed", &["--smoke"]);
    for name in csvs.keys() {
        assert!(
            committed.join(name).is_file(),
            "all --smoke writes {name}, which results/ does not hold"
        );
    }
}

#[test]
fn committed_failure_free_flow_ratios_meet_the_srpt_bound() {
    // The claim read from the committed full-scale tables: on every
    // failure-free row, no trial's online mean flow beats the
    // single-machine SRPT lower bound.
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut tables = 0;
    for entry in std::fs::read_dir(&committed).expect("read results/") {
        let name = entry.expect("results/ entry").file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with("multiload_competitive_") && name.ends_with(".csv")) {
            continue;
        }
        tables += 1;
        let text = std::fs::read_to_string(committed.join(name.as_ref())).expect("read CSV");
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().expect("header line").split(',').collect();
        let column = |h: &str| {
            header
                .iter()
                .position(|c| *c == h)
                .unwrap_or_else(|| panic!("{name} has no {h} column"))
        };
        let (rate, ratio_min) = (column("failure_rate"), column("flow_ratio_min"));
        let mut failure_free = 0;
        for line in lines {
            let cells: Vec<&str> = line.split(',').collect();
            if cells[rate].parse::<f64>().expect("failure_rate") != 0.0 {
                continue;
            }
            failure_free += 1;
            let ratio: f64 = cells[ratio_min].parse().expect("flow_ratio_min");
            assert!(ratio >= 1.0, "{name}: flow_ratio_min {ratio} < 1 in {line}");
        }
        assert!(failure_free > 0, "{name} has no failure-free row");
    }
    assert_eq!(tables, 3, "one competitive table per speed profile");
}

#[test]
fn every_csv_is_byte_identical_at_any_thread_count() {
    // One run per worker count covers every artifact's runner, the ones
    // no unit test runs at two counts included.
    let (_, one) = run_all("threads-1", &["--smoke", "--threads", "1"]);
    let (_, two) = run_all("threads-2", &["--smoke", "--threads", "2"]);
    assert!(!one.is_empty(), "all --smoke wrote no CSV");
    assert_eq!(
        one.keys().collect::<Vec<_>>(),
        two.keys().collect::<Vec<_>>()
    );
    for (name, csv) in &one {
        assert!(
            two[name] == *csv,
            "{name} differs between --threads 1 and --threads 2"
        );
    }
}

#[test]
fn one_named_artifact_writes_only_its_csvs() {
    let (out, csvs) = run_all("fig4", &["fig4", "--smoke"]);
    assert_eq!(
        csvs.keys().collect::<Vec<_>>(),
        [
            "fig4_homogeneous.csv",
            "fig4_lognormal.csv",
            "fig4_uniform.csv"
        ]
    );
    assert!(out.contains("Figure 4 (uniform)"), "the plot is printed");
}

#[test]
fn a_failed_csv_write_fails_all() {
    // `DLT_RESULTS` below a regular file: the directory does not exist
    // and cannot be created, so the first CSV write fails. `all` must
    // name the file and exit 1 (2 is the usage error), never report
    // success with nothing written.
    let blocker = std::env::temp_dir().join(format!("dlt-smoke-blocker-{}", std::process::id()));
    std::fs::write(&blocker, "not a directory").expect("create blocker file");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["fig2-footprint", "--smoke"])
        .env("DLT_RESULTS", blocker.join("results"))
        .output()
        .expect("spawn all");
    let _ = std::fs::remove_file(&blocker);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{}\n{stderr}", out.status);
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error: ") && l.contains("fig2_footprint.csv")),
        "stderr must name the unwritten CSV:\n{stderr}"
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("all experiments done."));
}

#[test]
fn all_rejects_what_it_does_not_take() {
    // A typo'd or unknown flag is a hard error, not a silently ignored
    // word: `--trails` once cost a full sweep re-run. `--threads` takes
    // a count, and an artifact name must be in the table.
    let cases: [(&[&str], &str); 5] = [
        (&["--trails", "5"], "--trails"),
        (&["--solver", "batched"], "--solver"),
        (&["--quick"], "--quick"),
        (&["--threads", "ten"], "ten"),
        (&["fig5"], "fig5"),
    ];
    for (args, needle) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_all"))
            .args(args)
            .output()
            .expect("spawn all");
        assert_eq!(out.status.code(), Some(2), "all {args:?}: {}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "all {args:?} must name {needle:?}:\n{stderr}"
        );
        if args == ["fig5"] {
            // The unknown-name error lists the valid names.
            for artifact in &dlt_experiments::artifacts::ARTIFACTS {
                assert!(stderr.contains(artifact.name), "{stderr}");
            }
        }
    }
}
