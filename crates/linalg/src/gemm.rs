//! The reference general matrix multiplication kernel: `C ← A · B`.

use crate::matrix::Matrix;

/// Reference triple loop (`ikj` order so the inner loop streams rows).
/// The ground truth every distributed execution in this workspace is
/// checked against.
pub fn gemm_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for l in 0..k {
            let aval = a.get(i, l);
            if aval == 0.0 {
                continue;
            }
            let brow = b.row(l);
            let crow = c.row_mut(i);
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += aval * bv;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn random_pair(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            Matrix::random(m, k, &mut rng),
            Matrix::random(k, n, &mut rng),
        )
    }

    #[test]
    fn naive_identity() {
        let (a, _) = random_pair(4, 4, 4, 1);
        let c = gemm_naive(&a, &Matrix::identity(4));
        assert!(c.approx_eq(&a, 1e-12));
        let c2 = gemm_naive(&Matrix::identity(4), &a);
        assert!(c2.approx_eq(&a, 1e-12));
    }

    #[test]
    fn naive_known_product() {
        let a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j + 1) as f64); // [[1,2],[3,4]]
        let b = Matrix::from_fn(2, 2, |i, j| ((i + j) % 2) as f64); // [[0,1],[1,0]]
        let c = gemm_naive(&a, &b);
        assert_eq!(c.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn rectangular_shapes() {
        let (a, b) = random_pair(1, 7, 5, 5);
        let c = gemm_naive(&a, &b);
        assert_eq!(c.rows(), 1);
        assert_eq!(c.cols(), 5);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = gemm_naive(&a, &b);
    }
}
