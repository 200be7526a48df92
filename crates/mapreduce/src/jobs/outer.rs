//! Block-distributed outer product over MapReduce (Section 4.1.1's
//! `Commhom` as an actual job): each input record is one `D×D` block of
//! the computation domain carrying its slices of `a` and `b`; the map
//! function computes the block, and the (trivial) reduce phase
//! concatenates.
//!
//! The engine's `map_input_units` equals `Σ (height + width)` over the
//! blocks — exactly the paper's `Commhom = #blocks · 2D` accounting — so
//! the MapReduce run and the analytic formula can be asserted against
//! each other (the tests do).

use crate::engine::{run_job, JobConfig, Mapper};
use crate::metrics::VolumeReport;
use dlt_linalg::Matrix;

/// One block task: the sub-rectangle plus the data slices it needs.
#[derive(Debug, Clone)]
pub struct BlockRecord {
    /// First row of the block.
    pub row0: usize,
    /// First column of the block.
    pub col0: usize,
    /// Slice `a[row0 .. row0+h]`.
    pub a_slice: Vec<f64>,
    /// Slice `b[col0 .. col0+w]`.
    pub b_slice: Vec<f64>,
}

/// Cuts the `N×N` outer-product domain into `side × side` blocks and
/// materializes one [`BlockRecord`] per block (replicating the vector
/// slices, as the block distribution must).
fn block_inputs(a: &[f64], b: &[f64], side: usize) -> Vec<BlockRecord> {
    assert_eq!(a.len(), b.len(), "square domain expected");
    assert!(side >= 1);
    let n = a.len();
    let mut records = Vec::new();
    let mut row = 0;
    while row < n {
        let row1 = (row + side).min(n);
        let mut col = 0;
        while col < n {
            let col1 = (col + side).min(n);
            records.push(BlockRecord {
                row0: row,
                col0: col,
                a_slice: a[row..row1].to_vec(),
                b_slice: b[col..col1].to_vec(),
            });
            col = col1;
        }
        row = row1;
    }
    records
}

struct BlockMapper;

impl Mapper<BlockRecord, (u32, u32), f64> for BlockMapper {
    fn map(&self, r: BlockRecord, emit: &mut dyn FnMut((u32, u32), f64)) {
        for (di, &av) in r.a_slice.iter().enumerate() {
            for (dj, &bv) in r.b_slice.iter().enumerate() {
                emit(((r.row0 + di) as u32, (r.col0 + dj) as u32), av * bv);
            }
        }
    }
    fn input_units(&self, r: &BlockRecord) -> usize {
        r.a_slice.len() + r.b_slice.len() // the half-perimeter, in elements
    }
}

/// Outer-product job output.
#[derive(Debug, Clone)]
pub struct OuterOutput {
    /// The `N×N` outer-product matrix.
    pub m: Matrix,
    /// Engine volume report; `map_input_units` is the paper's `Commhom`
    /// volume for this block size.
    pub volume: VolumeReport,
}

/// Runs the block-distributed outer product `M = aᵀ×b`.
pub fn run(a: &[f64], b: &[f64], side: usize, config: &JobConfig) -> OuterOutput {
    let n = a.len();
    let records = block_inputs(a, b, side);
    let (pairs, volume) = run_job(
        records,
        config,
        &BlockMapper,
        // Blocks are disjoint, so each key carries exactly one value.
        &|_key: &(u32, u32), mut vs: Vec<f64>| {
            debug_assert_eq!(vs.len(), 1, "outer-product cells are written once");
            vs.pop().unwrap()
        },
    );
    let mut m = Matrix::zeros(n, n);
    for ((i, j), v) in pairs {
        m.set(i as usize, j as usize, v);
    }
    OuterOutput { m, volume }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_linalg::outer_product;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).sqrt()).collect();
        (a, b)
    }

    #[test]
    fn matches_reference_kernel() {
        let (a, b) = vecs(20);
        let out = run(&a, &b, 6, &JobConfig::new(3, 2));
        let reference = outer_product(&a, &b);
        assert!(out.m.approx_eq(&reference, 1e-12));
    }

    #[test]
    fn volume_equals_commhom_accounting() {
        // N divisible by D: #blocks = (N/D)², each ships 2D elements.
        let (a, b) = vecs(24);
        let side = 6;
        let out = run(&a, &b, side, &JobConfig::new(2, 2));
        let blocks = (24 / side) * (24 / side);
        assert_eq!(out.volume.map_input_units, blocks * 2 * side);
        // N² pairs cross the shuffle: the quadratic work is explicit.
        assert_eq!(out.volume.shuffle_pairs, 24 * 24);
    }

    #[test]
    fn smaller_blocks_ship_more_data() {
        // The Commhom/k effect: volume scales like k when D → D/k.
        let (a, b) = vecs(32);
        let v8 = run(&a, &b, 8, &JobConfig::new(2, 2)).volume.map_input_units;
        let v4 = run(&a, &b, 4, &JobConfig::new(2, 2)).volume.map_input_units;
        let v2 = run(&a, &b, 2, &JobConfig::new(2, 2)).volume.map_input_units;
        assert_eq!(v4, 2 * v8);
        assert_eq!(v2, 4 * v8);
    }

    #[test]
    fn non_divisible_edges_are_covered() {
        let (a, b) = vecs(17);
        let out = run(&a, &b, 5, &JobConfig::new(2, 2));
        let reference = outer_product(&a, &b);
        assert!(out.m.approx_eq(&reference, 1e-12));
    }

    #[test]
    fn single_block_is_the_whole_product() {
        let (a, b) = vecs(9);
        let out = run(&a, &b, 9, &JobConfig::new(1, 1));
        assert_eq!(out.volume.map_input_units, 18);
        assert!(out.m.approx_eq(&outer_product(&a, &b), 1e-12));
    }
}
