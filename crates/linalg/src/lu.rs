//! LU decomposition with partial pivoting.
//!
//! FRAPP's generic reconstruction step solves `A X̂ = Y` for an arbitrary
//! perturbation matrix `A` (paper Equation 8). For the gamma-diagonal
//! family a closed form exists (see [`crate::structured`]), but the
//! framework must also invert the baselines' matrices — MASK's Kronecker
//! powers and Cut-and-Paste's intersection-size matrices — which are
//! dense and, at strict privacy settings, severely ill-conditioned. LU
//! with partial pivoting is the standard robust direct solver for that.

use crate::{LinalgError, Matrix, Result};

/// The result of factoring a square matrix `A` as `P·A = L·U`.
///
/// `L` is unit lower triangular, `U` upper triangular, `P` a row
/// permutation recorded in [`LuDecomposition::permutation`]. Once built,
/// the factorization solves any number of right-hand sides in `O(n²)`
/// each and computes the inverse in `O(n³)`.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined storage: strictly-lower part holds L (unit diagonal
    /// implicit), diagonal and upper part hold U.
    lu: Matrix,
    /// `permutation[i]` is the original row index now in position `i`.
    permutation: Vec<usize>,
}

impl LuDecomposition {
    /// Factors `a`. Returns [`LinalgError::NotSquare`] for non-square
    /// input and [`LinalgError::Singular`] if a pivot underflows
    /// (entirely zero column at elimination time).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut permutation: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: pick the largest |entry| in column k at or
            // below the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                permutation.swap(k, pivot_row);
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let sub = factor * lu[(k, j)];
                        lu[(i, j)] -= sub;
                    }
                }
            }
        }
        Ok(LuDecomposition { lu, permutation })
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// The row permutation applied by pivoting.
    pub fn permutation(&self) -> &[usize] {
        &self.permutation
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.n();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {}", b.len()),
            });
        }
        // Apply permutation, then forward-substitute L y = P b.
        let mut y: Vec<f64> = self.permutation.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = y[i];
            for (j, &yj) in y.iter().enumerate().take(i) {
                acc -= self.lu[(i, j)] * yj;
            }
            y[i] = acc;
        }
        // Back-substitute U x = y.
        for i in (0..n).rev() {
            let mut acc = y[i];
            for (j, &yj) in y.iter().enumerate().skip(i + 1) {
                acc -= self.lu[(i, j)] * yj;
            }
            let d = self.lu[(i, i)];
            if d == 0.0 {
                return Err(LinalgError::Singular);
            }
            y[i] = acc / d;
        }
        Ok(y)
    }

    /// Solves `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.rows() != self.n() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{} rows", self.n()),
                found: format!("{} rows", b.rows()),
            });
        }
        let mut out = Matrix::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for (i, v) in x.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// Computes `A⁻¹` by solving against the identity.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.n()))
    }
}

/// Convenience wrapper: factor `a` and solve a single system.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    LuDecomposition::new(a)?.solve(b)
}

/// Convenience wrapper: factor `a` and return its inverse.
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    LuDecomposition::new(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x - y).abs() <= tol,
                "expected {y}, got {x} (vectors {a:?} vs {b:?})"
            );
        }
    }

    #[test]
    fn solves_known_2x2_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        // Solution of [2 1; 1 3] x = [5; 10] is x = [1; 3].
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert_vec_close(&x, &[1.0, 3.0], 1e-12);
    }

    #[test]
    fn solves_system_requiring_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert_vec_close(&x, &[7.0, 3.0], 1e-12);
    }

    #[test]
    fn rejects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(LuDecomposition::new(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0, 2.0], &[2.0, 6.0, 1.0], &[1.0, 1.0, 3.0]]);
        let inv = inverse(&a).unwrap();
        let prod = a.mul_mat(&inv).unwrap();
        let diff = &prod - &Matrix::identity(3);
        assert!(diff.max_abs() < 1e-12, "max deviation {}", diff.max_abs());
    }

    #[test]
    fn solve_matrix_solves_each_column() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[4.0, 8.0]]);
        let x = LuDecomposition::new(&a).unwrap().solve_matrix(&b).unwrap();
        assert_vec_close(x.row(0), &[1.0, 2.0], 1e-12);
        assert_vec_close(x.row(1), &[1.0, 2.0], 1e-12);
    }

    #[test]
    fn solve_rejects_wrong_length_rhs() {
        let lu = LuDecomposition::new(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn reconstruction_of_markov_mixing() {
        // A small Markov matrix (column-stochastic) like FRAPP's: verify
        // that solving A x = A x0 recovers x0 — the exact reconstruction
        // scenario of paper Equation 8 with zero sampling noise.
        let a = Matrix::from_rows(&[&[0.8, 0.1, 0.1], &[0.1, 0.8, 0.1], &[0.1, 0.1, 0.8]]);
        assert!(a.is_column_stochastic(1e-12));
        let x0 = [100.0, 250.0, 650.0];
        let y = a.mul_vec(&x0).unwrap();
        let x = solve(&a, &y).unwrap();
        assert_vec_close(&x, &x0, 1e-9);
    }

    #[test]
    fn ill_conditioned_hilbert_still_factors() {
        // 5x5 Hilbert matrix: condition number ~1e5 (the paper's own
        // example of ill-conditioning, Section 2.3). LU should still
        // produce a usable factorization.
        let h = Matrix::from_fn(5, 5, |i, j| 1.0 / ((i + j + 1) as f64));
        let lu = LuDecomposition::new(&h).unwrap();
        let inv = lu.inverse().unwrap();
        let prod = h.mul_mat(&inv).unwrap();
        let diff = &prod - &Matrix::identity(5);
        // Tolerance loose because of the conditioning.
        assert!(diff.max_abs() < 1e-7, "max deviation {}", diff.max_abs());
    }
}
