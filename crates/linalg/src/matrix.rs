//! Row-major dense matrices.

use rand::Rng;

/// A dense `rows × cols` matrix of `f64`, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a closure over `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Matrix with entries drawn uniformly from `[-1, 1)`.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to element `(i, j)`.
    #[inline]
    pub fn add_assign(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Underlying storage (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Splits the matrix into disjoint mutable bands of `band_rows` rows
    /// each (last band may be shorter) — the unit handed to worker threads.
    pub fn row_bands_mut(&mut self, band_rows: usize) -> Vec<&mut [f64]> {
        assert!(band_rows > 0);
        self.data.chunks_mut(band_rows * self.cols).collect()
    }

    /// Max absolute elementwise difference.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when all entries agree within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.max_abs_diff(other) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_get_set() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 0.0);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        m.add_assign(1, 2, 1.5);
        assert_eq!(m.get(1, 2), 6.5);
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 2, |i, j| (10 * i + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
        assert_eq!(m.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn identity_entries() {
        let id = Matrix::identity(4);
        assert_eq!(id.get(2, 2), 1.0);
        assert_eq!(id.get(2, 3), 0.0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(1);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(1);
        let a = Matrix::random(3, 3, &mut r1);
        let b = Matrix::random(3, 3, &mut r2);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::from_fn(1, 2, |_, j| j as f64);
        let b = Matrix::from_fn(1, 2, |_, j| j as f64 + 1e-9);
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
    }

    #[test]
    fn row_bands_cover_all_rows() {
        let mut m = Matrix::zeros(5, 2);
        let bands = m.row_bands_mut(2);
        assert_eq!(bands.len(), 3);
        assert_eq!(bands[0].len(), 4);
        assert_eq!(bands[2].len(), 2);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(0)[1] = 7.0;
        assert_eq!(m.get(0, 1), 7.0);
    }
}
