//! The paper's replicated-input matrix multiplication over MapReduce
//! (Section 1.1):
//!
//! > "one could imagine to have as input dataset all compatible pairs
//! > `(a_{i,k}, b_{k,j})` for all `n³` possible values of `i, j, k`. In
//! > this case, the output of the Map operation would be a pair consisting
//! > of the value `a_{i,k} × b_{k,j}` and the key `(i, j)` ... the same
//! > reducer would in turn be responsible for computing their sum."
//!
//! The `N²` elements of data are replicated into `N³` input records —
//! this module *measures* that blow-up (`VolumeReport::replication_factor`
//! ≈ `N` for input units, and `N³` pairs cross the shuffle) while
//! verifying the product against the reference GEMM.

use crate::engine::{run_job, JobConfig, Mapper};
use crate::metrics::VolumeReport;
use dlt_linalg::Matrix;

/// One replicated input record: indices plus the two elements it carries.
#[derive(Debug, Clone, Copy)]
pub struct TripleRecord {
    /// Row of `A` / row of `C`.
    pub i: u32,
    /// Column of `B` / column of `C`.
    pub j: u32,
    /// Contraction index.
    pub k: u32,
    /// `a[i][k]`.
    pub a: f64,
    /// `b[k][j]`.
    pub b: f64,
}

/// Materializes the paper's `n³`-record input dataset from `A` and `B`.
/// Deliberately explicit about the cost: this is the data preparation the
/// paper says non-linear workloads *require* before MapReduce applies.
fn replicate_inputs(a: &Matrix, b: &Matrix) -> Vec<TripleRecord> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "square matrices only");
    assert_eq!(b.rows(), n);
    assert_eq!(b.cols(), n);
    let mut records = Vec::with_capacity(n * n * n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                records.push(TripleRecord {
                    i: i as u32,
                    j: j as u32,
                    k: k as u32,
                    a: a.get(i, k),
                    b: b.get(k, j),
                });
            }
        }
    }
    records
}

struct TripleMapper;

impl Mapper<TripleRecord, (u32, u32), f64> for TripleMapper {
    fn map(&self, r: TripleRecord, emit: &mut dyn FnMut((u32, u32), f64)) {
        emit((r.i, r.j), r.a * r.b);
    }
    fn input_units(&self, _r: &TripleRecord) -> usize {
        2 // each record ships one element of A and one of B
    }
}

/// MapReduce matrix-product output.
#[derive(Debug, Clone)]
pub struct MatMulOutput {
    /// The computed product.
    pub c: Matrix,
    /// Engine volume report (expect `map_input_units = 2n³`,
    /// `shuffle_pairs = n³`).
    pub volume: VolumeReport,
}

/// Runs the replicated-input matrix product `C = A·B` on the engine.
pub fn run(a: &Matrix, b: &Matrix, config: &JobConfig) -> MatMulOutput {
    let n = a.rows();
    let records = replicate_inputs(a, b);
    let (pairs, volume) = run_job(
        records,
        config,
        &TripleMapper,
        &|_key: &(u32, u32), products: Vec<f64>| products.iter().sum::<f64>(),
    );
    let mut c = Matrix::zeros(n, n);
    for ((i, j), sum) in pairs {
        c.set(i as usize, j as usize, sum);
    }
    MatMulOutput { c, volume }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_linalg::gemm_naive;
    use rand::SeedableRng;

    fn random_pair(n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            Matrix::random(n, n, &mut rng),
            Matrix::random(n, n, &mut rng),
        )
    }

    #[test]
    fn product_matches_reference() {
        let (a, b) = random_pair(12, 1);
        let out = run(&a, &b, &JobConfig::new(4, 4));
        let reference = gemm_naive(&a, &b);
        assert!(out.c.approx_eq(&reference, 1e-10));
    }

    #[test]
    fn volume_shows_the_cubic_blowup() {
        let n = 10;
        let (a, b) = random_pair(n, 2);
        let out = run(&a, &b, &JobConfig::new(2, 2));
        // 2n³ elements shipped to mappers for 2n² distinct elements.
        assert_eq!(out.volume.map_input_units, 2 * n * n * n);
        assert!((out.volume.replication_factor(2 * n * n) - n as f64).abs() < 1e-12);
        // n³ pairs cross the shuffle, n² come out.
        assert_eq!(out.volume.shuffle_pairs, n * n * n);
        assert_eq!(out.volume.reduce_output_records, n * n);
    }

    #[test]
    fn identity_product() {
        let (a, _) = random_pair(8, 3);
        let id = Matrix::identity(8);
        let out = run(&a, &id, &JobConfig::new(2, 3));
        assert!(out.c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let (a, b) = random_pair(9, 4);
        let r1 = run(&a, &b, &JobConfig::new(1, 1));
        let r2 = run(&a, &b, &JobConfig::new(8, 5));
        assert!(r1.c.approx_eq(&r2.c, 1e-12));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let _ = replicate_inputs(&a, &b);
    }
}
