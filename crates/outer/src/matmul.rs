//! Matrix multiplication on a 2D data distribution (Section 4.2).
//!
//! The ScaLAPACK-style algorithm builds `C = A·B` from `N` successive
//! outer products: at step `k`, the owners of row `k` of `A` and column
//! `k` of `B` broadcast them, and every processor updates its rectangle
//! `C[I, J] += A[I, k]·B[k, J]`. Per step, the processor owning rectangle
//! `I × J` receives `|I| + |J|` elements, so the total communication is
//!
//! `N · Σ_i (|I_i| + |J_i|)` — `N` times the half-perimeter sum,
//!
//! which is why the outer-product ratio ρ of Section 4.1 carries over
//! verbatim to matrix multiplication. This module both *counts* that
//! volume ([`SummaSim`]) and *executes* the algorithm
//! ([`execute_partitioned_matmul`]) against the reference GEMM.

use dlt_linalg::{gemm_naive, Matrix};
use dlt_partition::IntRect;

/// Communication accounting for one SUMMA-style run over a rectangle
/// partition of the `N×N` result domain.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaSim {
    /// Problem size `N`.
    pub n: usize,
    /// Volume received per step (identical across steps for static
    /// partitions): `Σ half-perimeters`.
    pub per_step: f64,
    /// Total volume over the `N` steps.
    pub total: f64,
    /// Per-worker totals.
    pub per_worker: Vec<f64>,
}

/// Counts SUMMA communication volumes for a partition of the `N×N` domain.
pub fn summa_comm_volume(n: usize, rects: &[IntRect]) -> SummaSim {
    let per_worker: Vec<f64> = rects
        .iter()
        .map(|r| {
            if r.is_degenerate() {
                0.0
            } else {
                n as f64 * r.half_perimeter() as f64
            }
        })
        .collect();
    let total: f64 = per_worker.iter().sum();
    SummaSim {
        n,
        per_step: total / n as f64,
        total,
        per_worker,
    }
}

/// The classical homogeneous baseline: a `q × q` block grid over the
/// `N×N` domain (requires `p = q²` workers), as used by MapReduce/
/// ScaLAPACK implementations on homogeneous platforms. Returns one
/// rectangle per worker, row-major.
pub fn block_cyclic_rects(n: usize, q: usize) -> Vec<IntRect> {
    assert!(q >= 1 && q <= n, "grid must fit the domain");
    let mut rects = Vec::with_capacity(q * q);
    let bounds: Vec<usize> = (0..=q).map(|i| i * n / q).collect();
    for bi in 0..q {
        for bj in 0..q {
            rects.push(IntRect::new(
                bounds[bj],
                bounds[bj + 1],
                bounds[bi],
                bounds[bi + 1],
            ));
        }
    }
    rects
}

/// Executes the partitioned outer-product matrix multiplication: each
/// rectangle of `C` receives the `N` rank-1 updates
/// `C[I,J] += A[I,k]·B[k,J]` in step order, exactly as its owner would
/// perform them in the distributed algorithm. The rectangles are computed
/// one after another on the caller's thread. Returns the product together
/// with its max deviation from the reference GEMM.
///
/// Panics when the rectangles do not tile the `N×N` domain.
pub fn execute_partitioned_matmul(a: &Matrix, b: &Matrix, rects: &[IntRect]) -> (Matrix, f64) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "square matrices required");
    assert_eq!(b.rows(), n);
    assert_eq!(b.cols(), n);
    assert!(
        dlt_partition::grid::covers_exactly(rects, n),
        "rectangles must tile the domain"
    );

    let mut c = Matrix::zeros(n, n);
    for r in rects {
        for k in 0..n {
            // Receive A[I, k] and B[k, J] (the broadcast), then rank-1
            // update.
            let brow = &b.row(k)[r.col0..r.col1];
            for i in r.row0..r.row1 {
                let aval = a.get(i, k);
                if aval == 0.0 {
                    continue;
                }
                for (cell, &bv) in c.row_mut(i)[r.col0..r.col1].iter_mut().zip(brow) {
                    *cell += aval * bv;
                }
            }
        }
    }
    let reference = gemm_naive(a, b);
    let err = c.max_abs_diff(&reference);
    (c, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_partition::grid::covers_exactly;
    use dlt_platform::Platform;
    use rand::SeedableRng;

    fn random_square(n: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::random(n, n, &mut rng)
    }

    #[test]
    fn block_cyclic_grid_tiles() {
        for (n, q) in [(16usize, 4usize), (17, 4), (9, 3), (5, 1)] {
            let rects = block_cyclic_rects(n, q);
            assert_eq!(rects.len(), q * q);
            assert!(covers_exactly(&rects, n), "n={n} q={q}");
        }
    }

    #[test]
    fn summa_volume_equals_n_times_half_perimeters() {
        let rects = block_cyclic_rects(16, 4);
        let sim = summa_comm_volume(16, &rects);
        let hp: f64 = rects.iter().map(|r| r.half_perimeter() as f64).sum();
        assert!((sim.total - 16.0 * hp).abs() < 1e-9);
        assert!((sim.per_step - hp).abs() < 1e-9);
        assert_eq!(sim.per_worker.len(), 16);
    }

    #[test]
    fn summa_ratio_matches_outer_product_ratio() {
        // The MM ratio hom/het equals the outer-product ratio, since both
        // are proportional to half-perimeter sums (Section 4.2).
        let platform = Platform::two_class(4, 1.0, 9.0).unwrap();
        let n = 360;
        let het = crate::het::het_rects(&platform, n);
        let hom = crate::hom::hom_blocks(&platform, n);
        let mm_het = summa_comm_volume(n, &het.rects).total;
        // For hom blocks each *assignment* pays its half-perimeter per step.
        let mm_hom: f64 = n as f64 * hom.comm_volume;
        let outer_ratio = hom.comm_volume / het.comm_volume;
        let mm_ratio = mm_hom / mm_het;
        assert!((outer_ratio - mm_ratio).abs() < 1e-9);
    }

    #[test]
    fn partitioned_matmul_matches_reference_on_grid() {
        let n = 24;
        let a = random_square(n, 1);
        let b = random_square(n, 2);
        let rects = block_cyclic_rects(n, 3);
        let (_, err) = execute_partitioned_matmul(&a, &b, &rects);
        assert!(err < 1e-10, "max error {err}");
    }

    #[test]
    fn partitioned_matmul_matches_reference_on_peri_sum_partition() {
        let platform = Platform::from_speeds(&[1.0, 3.0, 2.0, 5.0, 4.0]).unwrap();
        let n = 40;
        let het = crate::het::het_rects(&platform, n);
        let a = random_square(n, 3);
        let b = random_square(n, 4);
        let (_, err) = execute_partitioned_matmul(&a, &b, &het.rects);
        assert!(err < 1e-10, "max error {err}");
    }

    #[test]
    fn identity_partitioned_multiply() {
        let n = 12;
        let a = random_square(n, 5);
        let id = Matrix::identity(n);
        let rects = block_cyclic_rects(n, 2);
        let (c, err) = execute_partitioned_matmul(&a, &id, &rects);
        assert!(err < 1e-12);
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    #[should_panic(expected = "tile the domain")]
    fn non_tiling_rects_panic() {
        let a = random_square(4, 6);
        let b = random_square(4, 7);
        let rects = vec![IntRect::new(0, 2, 0, 4)]; // covers half the domain
        let _ = execute_partitioned_matmul(&a, &b, &rects);
    }

    #[test]
    fn degenerate_rects_are_skipped() {
        let n = 10;
        let mut rects = vec![IntRect::new(0, 10, 0, 10)];
        rects.push(IntRect::new(10, 10, 0, 0)); // degenerate
        let a = random_square(n, 8);
        let b = random_square(n, 9);
        let (_, err) = execute_partitioned_matmul(&a, &b, &rects);
        assert!(err < 1e-10);
        let sim = summa_comm_volume(n, &rects);
        assert_eq!(sim.per_worker[1], 0.0);
    }
}
