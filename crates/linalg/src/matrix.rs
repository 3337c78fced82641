//! Dense row-major matrix of `f64` values.

use crate::{LinalgError, Result};
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f64`.
///
/// Indexing is `(row, col)`, zero-based. The storage is a single
/// contiguous `Vec<f64>` of length `rows * cols`, which keeps row
/// traversals cache-friendly — the access pattern of both LU elimination
/// and the matrix–vector products that dominate FRAPP reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix with every entry equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from nested row slices (convenient in tests).
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds an `n × n` matrix by calling `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
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

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Whether the matrix is symmetric within absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Matrix–vector product `self * x`.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("vector of length {}", x.len()),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// Matrix–matrix product `self * other`.
    pub fn mul_mat(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{} rows", self.cols),
                found: format!("{} rows", other.rows),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order: the inner loop walks contiguous rows of both
        // `other` and `out`, which is markedly faster than the textbook
        // i-j-k order for row-major storage.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let other_row = other.row(k);
                let out_row = out.row_mut(i);
                for (o, b) in out_row.iter_mut().zip(other_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Scales every entry by `s`, in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Maximum absolute entry (the max-norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Sum of the diagonal entries.
    ///
    /// Used by the paper's Theorem 3 argument: the trace equals the sum of
    /// the eigenvalues, which bounds the smallest eigenvalue of a Markov
    /// matrix and hence its best achievable condition number.
    pub fn trace(&self) -> f64 {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).sum()
    }

    /// Checks that the matrix is *column*-stochastic (a Markov matrix in
    /// the paper's convention, Equation 1): entries nonnegative and every
    /// column sums to 1 within `tol`.
    pub fn is_column_stochastic(&self, tol: f64) -> bool {
        if self.data.iter().any(|&v| v < -tol) {
            return false;
        }
        for j in 0..self.cols {
            let s: f64 = (0..self.rows).map(|i| self[(i, j)]).sum();
            if (s - 1.0).abs() > tol {
                return false;
            }
        }
        true
    }

    /// The amplification factor of the matrix: the maximum over rows of
    /// the ratio between the largest and smallest entry of the row
    /// (paper Equation 2). Returns `f64::INFINITY` if some row contains a
    /// zero (or negative) entry together with a positive one.
    pub fn amplification(&self) -> f64 {
        let mut worst = 1.0_f64;
        for i in 0..self.rows {
            let row = self.row(i);
            let max = row.iter().fold(f64::MIN, |m, &v| m.max(v));
            let min = row.iter().fold(f64::MAX, |m, &v| m.min(v));
            if min <= 0.0 {
                if max > 0.0 {
                    return f64::INFINITY;
                }
                continue;
            }
            worst = worst.max(max / min);
        }
        worst
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in add"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in sub"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.mul_mat(rhs).expect("shape mismatch in mul")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn zeros_has_requested_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_round_trips_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn transpose_swaps_entries() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 0)], 3.0);
        assert_eq!(t[(0, 1)], 4.0);
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let y = m.mul_vec(&[5.0, 6.0]).unwrap();
        assert_eq!(y, vec![17.0, 39.0]);
    }

    #[test]
    fn mul_vec_rejects_wrong_length() {
        let m = Matrix::identity(2);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn mul_mat_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.mul_mat(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]));
    }

    #[test]
    fn mul_by_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.25, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.mul_mat(&i).unwrap(), a);
        assert_eq!(i.mul_mat(&a).unwrap(), a);
    }

    #[test]
    fn norms_match_hand_computation() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_close(m.max_abs(), 4.0, 1e-12);
    }

    #[test]
    fn trace_sums_diagonal() {
        let m = Matrix::from_rows(&[&[1.0, 9.0], &[9.0, 2.5]]);
        assert_close(m.trace(), 3.5, 1e-12);
    }

    #[test]
    fn column_stochastic_detection() {
        let markov = Matrix::from_rows(&[&[0.9, 0.2], &[0.1, 0.8]]);
        assert!(markov.is_column_stochastic(1e-12));
        let not = Matrix::from_rows(&[&[0.9, 0.2], &[0.2, 0.8]]);
        assert!(!not.is_column_stochastic(1e-12));
        let negative = Matrix::from_rows(&[&[1.1, 0.2], &[-0.1, 0.8]]);
        assert!(!negative.is_column_stochastic(1e-12));
    }

    #[test]
    fn amplification_of_uniform_rows_is_one() {
        let m = Matrix::filled(3, 3, 1.0 / 3.0);
        assert_close(m.amplification(), 1.0, 1e-12);
    }

    #[test]
    fn amplification_matches_gamma_diagonal() {
        // gamma-diagonal with gamma = 4, n = 3: diag 4x, off-diag x.
        let x = 1.0 / 6.0;
        let m = Matrix::from_fn(3, 3, |i, j| if i == j { 4.0 * x } else { x });
        assert_close(m.amplification(), 4.0, 1e-12);
    }

    #[test]
    fn amplification_with_zero_entry_is_infinite() {
        let m = Matrix::from_rows(&[&[0.5, 0.0], &[0.5, 1.0]]);
        assert_eq!(m.amplification(), f64::INFINITY);
    }

    #[test]
    fn symmetry_detection() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]);
        assert!(s.is_symmetric(1e-12));
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 5.0]]);
        assert!(!a.is_symmetric(1e-12));
        let rect = Matrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]);
        let sum = &a + &b;
        let back = &sum - &b;
        assert_eq!(back, a);
    }

    #[test]
    fn scale_mut_scales_all_entries() {
        let mut m = Matrix::identity(2);
        m.scale_mut(3.0);
        assert_eq!(m[(0, 0)], 3.0);
        assert_eq!(m[(0, 1)], 0.0);
    }
}
