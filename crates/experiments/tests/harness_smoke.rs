//! Integration smoke tests for the experiment harness: every runner must
//! produce a well-formed table whose key invariants hold even at tiny
//! trial counts (the full-scale numbers live in EXPERIMENTS.md).

use dlt_experiments::models::ModelFamily;
use dlt_experiments::{
    affinity, fig4, footprint, multiload, partition_quality, rho, sec2, sec3, service, traces,
};
use dlt_multiload::SchedulerKind;
use dlt_outer::Strategy;
use dlt_platform::{PlatformSpec, SpeedDistribution};

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
        ModelFamily::AlphaPower,
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
    let pts = multiload::run_multiload(
        &profile,
        p,
        &[1],
        &[alpha],
        base,
        8,
        trials,
        seed,
        2,
        ModelFamily::AlphaPower,
    );
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
        ModelFamily::AlphaPower,
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
    let pts = service::run_service(
        &profile,
        p,
        loads,
        base,
        &[1.0, 1.5],
        0.8,
        &cells,
        seed,
        ModelFamily::AlphaPower,
    );

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
// Binary smoke tests: every experiment binary must parse its flags and run
// its smallest configuration to completion. Cargo builds the binaries for
// integration tests and exposes their paths via `CARGO_BIN_EXE_<name>`.
// ---------------------------------------------------------------------------

/// Runs one experiment binary with `args`, pointing `DLT_RESULTS` at a
/// unique per-run temp directory, and returns its stdout. When
/// `expects_csv` is set, asserts at least one CSV landed in that
/// directory — `write_and_print` only warns on write failures, so without
/// this check a CSV-output regression would pass the smoke suite silently.
fn run_bin(exe: &str, tag: &str, args: &[&str], expects_csv: bool) -> String {
    let results = std::env::temp_dir().join(format!("dlt-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&results).expect("create smoke results dir");
    let out = std::process::Command::new(exe)
        .args(args)
        .env("DLT_RESULTS", &results)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?} exited with {}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(!stdout.is_empty(), "{exe} produced no output");
    if expects_csv {
        let csvs = std::fs::read_dir(&results)
            .expect("read smoke results dir")
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "csv"))
            .count();
        assert!(csvs > 0, "{exe} wrote no CSV under {}", results.display());
    }
    let _ = std::fs::remove_dir_all(&results);
    stdout
}

#[test]
fn bin_affinity_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_affinity"),
        "affinity",
        &["--p", "4", "--n", "128", "--trials", "1", "--seed", "1"],
        true,
    );
    assert!(out.contains("affinity"));
}

#[test]
fn bin_all_smoke() {
    let out = run_bin(env!("CARGO_BIN_EXE_all"), "all", &["--smoke"], true);
    assert!(out.contains("all experiments done."));
}

#[test]
fn bin_fig1_trace_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_fig1-trace"),
        "fig1",
        &["--n", "512", "--seed", "1"],
        false,
    );
    assert!(out.contains("Figure 1"));
    assert!(out.contains("trace events"));
}

#[test]
fn bin_fig2_footprint_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_fig2-footprint"),
        "fig2",
        &["--p", "2", "--k", "4", "--n", "24"],
        true,
    );
    assert!(out.contains("footprint"));
}

#[test]
fn bin_fig3_matmul_trace_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_fig3-matmul-trace"),
        "fig3",
        &["--n", "4", "--q", "2", "--steps", "1"],
        false,
    );
    assert!(out.contains("Figure 3"));
}

#[test]
fn bin_fig4_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_fig4"),
        "fig4",
        &[
            "uniform",
            "--trials",
            "1",
            "--n",
            "400",
            "--seed",
            "1",
            "--threads",
            "2",
        ],
        true,
    );
    assert!(out.contains("Commhet"));
}

#[test]
fn bin_multiload_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_multiload"),
        "multiload",
        &[
            "uniform",
            "--p",
            "4",
            "--trials",
            "1",
            "--n",
            "100",
            "--chunks",
            "4",
            "--seed",
            "1",
            "--threads",
            "2",
        ],
        true,
    );
    assert!(out.contains("fifo") && out.contains("round_robin"));
}

#[test]
fn bin_multiload_policy_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_multiload-policy"),
        "multiload-policy",
        &[
            "uniform",
            "--p",
            "4",
            "--trials",
            "1",
            "--n",
            "100",
            "--installments",
            "1",
            "--installments",
            "2",
            "--seed",
            "1",
            "--threads",
            "2",
        ],
        true,
    );
    // The sweep covers every admission order.
    assert!(out.contains("fifo") && out.contains("srpt") && out.contains("weighted_stretch"));
}

#[test]
fn bin_multiload_service_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_multiload-service"),
        "mlservice",
        &[
            "--smoke",
            "--loads",
            "200",
            "--seed",
            "1",
            "--assert-peak-pending",
            "200",
        ],
        true,
    );
    assert!(out.contains("decisions_per_sec"));
    assert!(out.contains("fifo") && out.contains("weighted_stretch"));
}

#[test]
fn bin_multiload_competitive_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_multiload-competitive"),
        "mlcompetitive",
        &["uniform", "--smoke", "--seed", "1", "--threads", "2"],
        true,
    );
    assert!(out.contains("competitive_ratio_mean"));
    assert!(out.contains("poisson") && out.contains("mmpp_burst"));
    assert!(out.contains("fifo") && out.contains("srpt") && out.contains("weighted_stretch"));
}

#[test]
fn bin_multiload_competitive_soak_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_multiload-competitive"),
        "mlsoak",
        &["--soak", "300", "--p", "4", "--seed", "7"],
        false,
    );
    assert!(out.contains("soak ok"), "soak must report success: {out}");
}

/// Runs a binary expecting the strict flag parser to reject the
/// invocation: exit code 2 and a diagnostic naming the offender.
fn run_bin_expect_flag_error(exe: &str, args: &[&str], needle: &str) {
    let out = std::process::Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert_eq!(
        out.status.code(),
        Some(2),
        "{exe} {args:?} must exit 2 on a bad flag, got {}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{exe} {args:?} stderr must mention {needle:?}:\n{stderr}"
    );
}

#[test]
fn bins_reject_unknown_flags_instead_of_ignoring_them() {
    // A typo'd flag must be a hard error on every binary, not a silently
    // ignored word — `--trails` once cost a full sweep re-run.
    run_bin_expect_flag_error(env!("CARGO_BIN_EXE_fig4"), &["--trails", "5"], "--trails");
    run_bin_expect_flag_error(
        env!("CARGO_BIN_EXE_multiload-competitive"),
        &["--fail-rate", "2"],
        "--fail-rate",
    );
    run_bin_expect_flag_error(
        env!("CARGO_BIN_EXE_multiload-service"),
        &["--asert-peak-pending", "4096"],
        "--asert-peak-pending",
    );
    // One equal-finish kernel runs everywhere: there is no solver choice.
    run_bin_expect_flag_error(
        env!("CARGO_BIN_EXE_sec-amdahl"),
        &["--solver", "batched"],
        "--solver",
    );
}

#[test]
fn bins_reject_unknown_profiles_like_bad_flags() {
    // An unknown profile name takes the bad-flag path (exit 2, `error: …`
    // naming it), not a panic.
    for exe in [
        env!("CARGO_BIN_EXE_fig4"),
        env!("CARGO_BIN_EXE_multiload"),
        env!("CARGO_BIN_EXE_multiload-policy"),
        env!("CARGO_BIN_EXE_multiload-service"),
        env!("CARGO_BIN_EXE_multiload-competitive"),
    ] {
        run_bin_expect_flag_error(
            exe,
            &["bogus"],
            "error: invalid speed distribution: unknown profile 'bogus'",
        );
    }
}

#[test]
fn bins_reject_unparseable_flag_values_instead_of_defaulting() {
    // The original bug: `--assert-peak-pending 4O96` (letter O) parsed as
    // "no cap" and silently disabled the CI soak gate.
    run_bin_expect_flag_error(
        env!("CARGO_BIN_EXE_multiload-service"),
        &["--smoke", "--assert-peak-pending", "4O96"],
        "4O96",
    );
    run_bin_expect_flag_error(
        env!("CARGO_BIN_EXE_multiload-competitive"),
        &["--trials", "ten"],
        "ten",
    );
    // Out of range is unparseable too: an empty platform, a zero-size
    // load, no installments or chunks, an empty trace or zero
    // utilization used to reach an `expect` or an assert and exit 101.
    let ml = env!("CARGO_BIN_EXE_multiload");
    let policy = env!("CARGO_BIN_EXE_multiload-policy");
    let service = env!("CARGO_BIN_EXE_multiload-service");
    let competitive = env!("CARGO_BIN_EXE_multiload-competitive");
    let cases: &[(&str, &[&str], &str)] = &[
        (policy, &["--installments", "x"], "--installments"),
        (policy, &["--installments", "0"], "--installments"),
        (ml, &["--chunks", "0"], "--chunks"),
        (ml, &["--p", "0"], "--p"),
        (policy, &["--p", "0"], "--p"),
        (service, &["--smoke", "--p", "0"], "--p"),
        (competitive, &["--smoke", "--p", "0"], "--p"),
        (ml, &["--n", "0"], "--n"),
        (policy, &["--n", "0"], "--n"),
        (service, &["--smoke", "--n", "0"], "--n"),
        (competitive, &["--smoke", "--n", "0"], "--n"),
        (competitive, &["--soak", "0"], "--soak"),
        (service, &["--smoke", "--utilization", "0"], "--utilization"),
    ];
    for &(exe, args, needle) in cases {
        run_bin_expect_flag_error(exe, args, needle);
    }
}

#[test]
fn bin_partition_quality_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_partition-quality"),
        "partq",
        &["--trials", "1", "--seed", "1", "--threads", "2"],
        true,
    );
    assert!(out.contains("peri_sum"));
}

#[test]
fn bin_rho_table_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_rho-table"),
        "rho",
        &["--p", "4", "--n", "256"],
        true,
    );
    assert!(out.contains("rho"));
}

#[test]
fn bin_sec2_no_free_lunch_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_sec2-no-free-lunch"),
        "sec2",
        &["--n", "64", "--seed", "1"],
        true,
    );
    assert!(out.contains("remaining"));
}

#[test]
fn bin_sec3_hetero_sort_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_sec3-hetero-sort"),
        "sec3het",
        &["--trials", "1", "--n", "4096", "--seed", "1"],
        true,
    );
    assert!(out.contains("max_overload"));
}

#[test]
fn bin_sec3_sample_sort_smoke() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_sec3-sample-sort"),
        "sec3ss",
        &["--trials", "1", "--seed", "1"],
        true,
    );
    assert!(out.contains("overload"));
}
