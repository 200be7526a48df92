//! Integration tests pinning the paper's headline claims, end to end
//! across the workspace crates. Each test names the paper section it
//! checks.

use nonlinear_dlt::dlt::{analysis, linear, nonlinear};
use nonlinear_dlt::outer::{evaluate, Strategy};
use nonlinear_dlt::platform::{Platform, PlatformSpec, SpeedDistribution};
use nonlinear_dlt::sim::simulate;

/// Section 2: "W_partial/W = 1/P^{α−1} ... tends toward 0 when P becomes
/// large" — verified through the actual heterogeneous solver, not just
/// the closed form.
#[test]
fn sec2_single_round_work_vanishes() {
    let n = 2048.0;
    let alpha = 2.0;
    let mut last = 1.0;
    for p in [4usize, 16, 64, 256] {
        let platform = Platform::homogeneous(p, 1.0, 1.0).unwrap();
        let alloc = nonlinear::equal_finish_parallel(&platform, n, alpha).unwrap();
        let frac = alloc.work_fraction_done();
        let closed = 1.0 - analysis::remaining_fraction_homogeneous(p, alpha);
        assert!((frac - closed).abs() < 1e-6);
        assert!(frac < last);
        last = frac;
    }
    assert!(last < 0.005); // 1/256
}

/// Section 2 (contrast): linear loads are perfectly divisible — a single
/// round does ALL the work and the simulated makespan scales as 1/Σs.
#[test]
fn sec2_linear_loads_are_divisible() {
    let load = 1000.0;
    let small = Platform::homogeneous(4, 1.0, 0.0).unwrap();
    let large = Platform::homogeneous(64, 1.0, 0.0).unwrap();
    let a4 = linear::single_round_parallel(&small, load);
    let a64 = linear::single_round_parallel(&large, load);
    assert!((a4.total() - load).abs() < 1e-9);
    assert!((a64.total() - load).abs() < 1e-9);
    // With free communication the makespan is exactly W/(p·s).
    assert!((a4.makespan - load / 4.0).abs() < 1e-9);
    assert!((a64.makespan - load / 64.0).abs() < 1e-9);
}

/// Section 3.1: sorting's non-divisible fraction log p / log N vanishes,
/// and the real sample sort's buckets respect the w.h.p. bound.
#[test]
fn sec3_sorting_is_almost_divisible() {
    use nonlinear_dlt::samplesort::{max_bucket_bound, sample_sort, SampleSortConfig};
    use rand::Rng;
    let n = 1 << 18;
    let p = 16;
    assert!(analysis::sorting_nondivisible_fraction(n as f64, p) < 0.25);
    let mut rng = nonlinear_dlt::platform::rng::seeded(99);
    let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
    let out = sample_sort(data, &SampleSortConfig::homogeneous(p, 1));
    assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
    assert!((out.stats.max_size() as f64) <= max_bucket_bound(n, p) * 1.05);
}

/// Section 3.2: heterogeneous sample sort balances load proportionally to
/// speed "with high probability".
#[test]
fn sec3_heterogeneous_sorting_balances() {
    use nonlinear_dlt::samplesort::{sample_sort, SampleSortConfig};
    use rand::Rng;
    let n = 1 << 18;
    let platform = PlatformSpec::new(8, SpeedDistribution::paper_uniform())
        .generate(17)
        .unwrap();
    let mut rng = nonlinear_dlt::platform::rng::seeded(5);
    let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
    let out = sample_sort(data, &SampleSortConfig::heterogeneous(platform.speeds(), 2));
    assert!(
        out.stats.max_overload() < 1.2,
        "{}",
        out.stats.max_overload()
    );
}

/// Section 4.3, Figure 4(a): on homogeneous platforms every strategy is
/// within ~1% of the lower bound.
#[test]
fn fig4a_homogeneous_all_strategies_optimal() {
    let platform = Platform::homogeneous(40, 1.0, 1.0).unwrap();
    for s in Strategy::paper_strategies() {
        let r = evaluate(&platform, 10_000, s);
        assert!(r.ratio_to_lb < 1.02, "{}: {}", s.name(), r.ratio_to_lb);
    }
}

/// Section 4.3, Figures 4(b)/(c): on heterogeneous platforms Commhet
/// stays ≤ ~2% of LB while Commhom/k pays an order of magnitude more, and
/// the gap grows with p.
#[test]
fn fig4bc_heterogeneous_commhet_wins_by_an_order_of_magnitude() {
    for profile in [
        SpeedDistribution::paper_uniform(),
        SpeedDistribution::paper_lognormal(),
    ] {
        let mut homk_ratios = Vec::new();
        for (i, p) in [20usize, 100].iter().enumerate() {
            let platform = PlatformSpec::new(*p, profile.clone())
                .generate_stream(7, i as u64)
                .unwrap();
            let het = evaluate(&platform, 10_000, Strategy::HetRects);
            let homk = evaluate(
                &platform,
                10_000,
                Strategy::HomBlocksRefined { target: 0.01 },
            );
            assert!(
                het.ratio_to_lb < 1.05,
                "{}: {}",
                profile.name(),
                het.ratio_to_lb
            );
            assert!(
                homk.ratio_to_lb > 5.0,
                "{} p={p}: {}",
                profile.name(),
                homk.ratio_to_lb
            );
            homk_ratios.push(homk.ratio_to_lb);
        }
        // Commhom/k pays more than 8× the lower bound at p = 100 on this
        // one platform per profile. The committed fig4 tables, means over
        // 100 trials, read 37.1× (uniform) and 38.6× (lognormal).
        assert!(
            homk_ratios[1] > 8.0,
            "{}: Commhom/k only {}× LB at p=100",
            profile.name(),
            homk_ratios[1]
        );
    }
}

/// Section 4.1.3: the communication ratio ρ on two-class platforms grows
/// like √k and respects the rigorous 4/7-bound.
#[test]
fn sec413_rho_grows_with_heterogeneity() {
    use nonlinear_dlt::outer::{het_rects, hom_blocks_abstract, rho_lower_bound};
    let n = 4096;
    let mut prev = 0.0;
    for k in [4.0, 16.0, 64.0] {
        let platform = Platform::two_class(16, 1.0, k).unwrap();
        let hom = hom_blocks_abstract(&platform, n, 1);
        let het = het_rects(&platform, n);
        let rho = hom.comm_volume / het.comm_volume;
        assert!(rho > prev);
        assert!(rho >= rho_lower_bound(&platform) - 1e-9);
        prev = rho;
    }
}

/// Section 4.2: the matrix-multiplication communication ratio equals the
/// outer-product ratio, and the partitioned MM computes the right matrix.
#[test]
fn sec42_matmul_inherits_the_outer_product_ratio() {
    use nonlinear_dlt::linalg::Matrix;
    use nonlinear_dlt::outer::{execute_partitioned_matmul, het_rects, summa_comm_volume};
    let platform = PlatformSpec::new(8, SpeedDistribution::paper_uniform())
        .generate(23)
        .unwrap();
    let n = 64;
    let het = het_rects(&platform, n);
    let sim = summa_comm_volume(n, &het.rects);
    assert!((sim.total - n as f64 * het.comm_volume).abs() < 1e-6);
    let mut rng = nonlinear_dlt::platform::rng::seeded(3);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);
    let (_, err) = execute_partitioned_matmul(&a, &b, &het.rects);
    assert!(err < 1e-9);
}

/// Cross-check: the simulator, the closed forms and the solvers agree on
/// a non-trivial heterogeneous instance under both communication models.
#[test]
fn solvers_and_simulator_agree() {
    let platform =
        Platform::from_speeds_and_costs(&[1.0, 3.0, 2.0, 5.0], &[0.9, 0.3, 0.7, 0.5]).unwrap();
    let lin = linear::single_round_one_port(&platform, 77.0, None).unwrap();
    let report = simulate(&platform, &lin.to_schedule());
    assert!((report.makespan - lin.makespan).abs() < 1e-7);
    let nl = nonlinear::equal_finish_one_port(&platform, 77.0, 1.7, None).unwrap();
    let report = simulate(&platform, &nl.to_schedule());
    for t in report.finish_times() {
        assert!((t - nl.makespan).abs() < 1e-4 * nl.makespan);
    }
}
