//! End-to-end pipelines across the facade crate: from a random platform
//! to a verified numerical result, exercising every layer together.

use nonlinear_dlt::linalg::{outer_product, outer_product_block, Matrix};
use nonlinear_dlt::mapreduce::{jobs, JobConfig};
use nonlinear_dlt::outer::{demand_driven_affinity, het_rects, hom_block_side, tile_domain};
use nonlinear_dlt::platform::rng::seeded;
use nonlinear_dlt::platform::{PlatformSpec, SpeedDistribution};
use rand::Rng;

/// Platform → PERI-SUM rectangles → per-rectangle outer-product kernels →
/// exact reconstruction of `aᵀ×b`.
#[test]
fn commhet_pipeline_computes_the_exact_outer_product() {
    let platform = PlatformSpec::new(12, SpeedDistribution::paper_lognormal())
        .generate(31)
        .unwrap();
    let n = 300;
    let het = het_rects(&platform, n);

    let mut rng = seeded(8);
    let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

    let mut result = Matrix::zeros(n, n);
    let mut shipped = 0usize;
    for r in &het.rects {
        shipped += (r.row1 - r.row0) + (r.col1 - r.col0);
        outer_product_block(
            &mut result,
            &a[r.row0..r.row1],
            &b[r.col0..r.col1],
            r.row0,
            r.col0,
        );
    }
    assert!(result.approx_eq(&outer_product(&a, &b), 0.0));
    // The shipped element count is exactly the strategy's volume.
    assert_eq!(shipped as f64, het.comm_volume);
}

/// Platform → Commhom tiling → affinity dispatch → the shipped volume
/// decreases monotonically (within noise) as the scan window grows, and
/// never drops below the footprint bound of 2N per worker union.
#[test]
fn affinity_window_sweep_is_effective_and_sound() {
    let platform = PlatformSpec::new(16, SpeedDistribution::paper_uniform())
        .generate(13)
        .unwrap();
    let n = 1024;
    let blocks = tile_domain(n, hom_block_side(&platform, n));
    let fifo = demand_driven_affinity(&platform, n, &blocks, 1);
    let affine = demand_driven_affinity(&platform, n, &blocks, 64);
    assert!(affine.volume_with_reuse <= fifo.volume_with_reuse);
    // Caching can never beat shipping each of a and b once in total.
    assert!(affine.volume_with_reuse >= 2.0 * n as f64 - 1e-9);
    // Both runs assign every block exactly once.
    assert!(fifo.owner.iter().all(|&o| o < 16));
    assert_eq!(fifo.volume_no_reuse, affine.volume_no_reuse);
}

/// MapReduce matrix product (both the replicated and the chained variant)
/// agrees with the partitioned matmul and the reference GEMM.
#[test]
fn four_ways_to_multiply_agree() {
    use nonlinear_dlt::linalg::gemm_naive;
    use nonlinear_dlt::outer::execute_partitioned_matmul;

    let n = 16;
    let mut rng = seeded(21);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);
    let reference = gemm_naive(&a, &b);

    let platform = PlatformSpec::new(5, SpeedDistribution::paper_uniform())
        .generate(3)
        .unwrap();
    let het = het_rects(&platform, n);
    let (partitioned, err) = execute_partitioned_matmul(&a, &b, &het.rects);
    assert!(err < 1e-10);
    assert!(partitioned.approx_eq(&reference, 1e-10));

    let replicated = jobs::matmul::run(&a, &b, &JobConfig::new(3, 3));
    assert!(replicated.c.approx_eq(&reference, 1e-10));

    let chained = jobs::matmul_chained::run(&a, &b, &JobConfig::new(3, 3));
    assert!(chained.c.approx_eq(&reference, 1e-10));
}

/// The no-free-lunch fraction measured through three independent paths:
/// closed form, the allocation solver, and direct simulation of the
/// schedule's executed work.
#[test]
fn work_fraction_triangulates() {
    use nonlinear_dlt::dlt::{analysis, nonlinear};
    use nonlinear_dlt::platform::Platform;
    use nonlinear_dlt::sim::simulate;

    let p = 32;
    let alpha = 2.0;
    let n = 512.0;
    let platform = Platform::homogeneous(p, 1.0, 1.0).unwrap();
    let alloc = nonlinear::equal_finish_parallel(&platform, n, alpha).unwrap();

    let closed = 1.0 / (p as f64); // 1/P^{α−1} with α = 2
    assert!((alloc.work_fraction_done() - closed).abs() < 1e-9);
    assert!((analysis::remaining_fraction_homogeneous(p, alpha) - (1.0 - closed)).abs() < 1e-12);

    let report = simulate(&platform, &alloc.to_schedule());
    assert!((report.total_work - alloc.work_done()).abs() < 1e-6 * alloc.work_done());
}
