//! Structured matrices with closed-form algebra.
//!
//! Two structures dominate the FRAPP reproduction:
//!
//! * **Uniform-diagonal matrices** `aI + bJ` (`J` = all-ones). The
//!   paper's gamma-diagonal perturbation matrix is the member with
//!   `a = x(γ−1)`, `b = x`, `x = 1/(γ+n−1)`, and its marginalization to
//!   an attribute subset (paper Equation 28) stays in the family. The
//!   family is closed under inversion via Sherman–Morrison, so FRAPP
//!   reconstruction never needs an `O(n³)` solve.
//! * **Kronecker products.** MASK's per-itemset reconstruction matrix is
//!   the k-fold Kronecker power of the 2×2 flip matrix
//!   `[[p, 1−p], [1−p, p]]`; its spectrum (and thus condition number) is
//!   the k-fold product of the base spectrum, which is why MASK's
//!   accuracy collapses exponentially with itemset length (paper Fig 4).

use crate::{LinalgError, Matrix, Result};

/// A matrix of the form `aI + bJ` where `J` is the all-ones matrix.
///
/// Stores only `(n, a, b)`; provides O(n) products, O(1) spectra and a
/// closed-form inverse. Densification via [`UniformDiagonal::to_dense`]
/// is available for validation against the generic LU path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformDiagonal {
    n: usize,
    a: f64,
    b: f64,
}

impl UniformDiagonal {
    /// Creates `aI + bJ` of dimension `n`.
    pub fn new(n: usize, a: f64, b: f64) -> Self {
        UniformDiagonal { n, a, b }
    }

    /// Constructs the paper's gamma-diagonal matrix for domain size `n`
    /// and amplification bound `gamma`: diagonal `γx`, off-diagonal `x`,
    /// with `x = 1/(γ+n−1)` (paper Equation 13).
    pub fn gamma_diagonal(n: usize, gamma: f64) -> Self {
        let x = 1.0 / (gamma + n as f64 - 1.0);
        // aI + bJ with diagonal a+b = γx and off-diagonal b = x.
        UniformDiagonal {
            n,
            a: (gamma - 1.0) * x,
            b: x,
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Coefficient of the identity part.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Coefficient of the all-ones part.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Diagonal entry `a + b`.
    pub fn diagonal(&self) -> f64 {
        self.a + self.b
    }

    /// Off-diagonal entry `b`.
    pub fn off_diagonal(&self) -> f64 {
        self.b
    }

    /// Whether the matrix is a Markov (column-stochastic) matrix:
    /// `a + n·b = 1` and entries nonnegative.
    pub fn is_markov(&self, tol: f64) -> bool {
        (self.a + self.n as f64 * self.b - 1.0).abs() <= tol
            && self.diagonal() >= -tol
            && self.off_diagonal() >= -tol
    }

    /// Matrix–vector product in O(n): `(aI + bJ)x = a·x + b·(Σx)·1`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.n),
                found: format!("vector of length {}", x.len()),
            });
        }
        let s: f64 = x.iter().sum();
        Ok(x.iter().map(|&v| self.a * v + self.b * s).collect())
    }

    /// Closed-form inverse, which is again uniform-diagonal:
    /// `(aI + bJ)⁻¹ = (1/a)I − (b / (a(a + nb)))J` (Sherman–Morrison).
    ///
    /// Returns [`LinalgError::Singular`] when `a = 0` or `a + nb = 0`.
    pub fn inverse(&self) -> Result<UniformDiagonal> {
        let denom = self.a * (self.a + self.n as f64 * self.b);
        if self.a == 0.0 || denom == 0.0 {
            return Err(LinalgError::Singular);
        }
        Ok(UniformDiagonal {
            n: self.n,
            a: 1.0 / self.a,
            b: -self.b / denom,
        })
    }

    /// Solves `(aI + bJ) x = y` in O(n) using the closed-form inverse.
    pub fn solve(&self, y: &[f64]) -> Result<Vec<f64>> {
        self.inverse()?.mul_vec(y)
    }

    /// The two distinct eigenvalues: `a` with multiplicity `n−1`
    /// (eigenvectors orthogonal to 1) and `a + nb` (eigenvector 1).
    pub fn eigenvalues(&self) -> (f64, f64) {
        (self.a, self.a + self.n as f64 * self.b)
    }

    /// Exact 2-norm condition number (the matrix is symmetric, so this is
    /// `max|λ| / min|λ|`). Infinite if any eigenvalue is zero.
    pub fn condition_number(&self) -> f64 {
        let (l1, l2) = self.eigenvalues();
        let (min, max) = (l1.abs().min(l2.abs()), l1.abs().max(l2.abs()));
        if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// Densifies to a [`Matrix`] (for tests and the generic LU path).
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| {
            if i == j {
                self.a + self.b
            } else {
                self.b
            }
        })
    }
}

/// Kronecker (tensor) product `a ⊗ b`.
///
/// `(a ⊗ b)[(i1·rb + i2, j1·cb + j2)] = a[(i1, j1)] · b[(i2, j2)]`.
pub fn kronecker(a: &Matrix, b: &Matrix) -> Matrix {
    let (ra, ca) = (a.rows(), a.cols());
    let (rb, cb) = (b.rows(), b.cols());
    Matrix::from_fn(ra * rb, ca * cb, |i, j| {
        let (i1, i2) = (i / rb, i % rb);
        let (j1, j2) = (j / cb, j % cb);
        a[(i1, j1)] * b[(i2, j2)]
    })
}

/// k-fold Kronecker power `a ⊗ a ⊗ … ⊗ a` (k ≥ 1); `k = 0` yields the
/// 1×1 identity.
pub fn kronecker_power(a: &Matrix, k: usize) -> Matrix {
    let mut out = Matrix::identity(1);
    for _ in 0..k {
        out = kronecker(&out, a);
    }
    out
}

/// Builds a symmetric Toeplitz matrix from its first row.
///
/// The paper remarks that the gamma-diagonal matrix "incidentally is a
/// symmetric Toeplitz matrix"; this constructor supports tests of that
/// observation and experimentation with other Toeplitz choices.
pub fn symmetric_toeplitz(first_row: &[f64]) -> Matrix {
    let n = first_row.len();
    Matrix::from_fn(n, n, |i, j| first_row[i.abs_diff(j)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eigen, lu};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn gamma_diagonal_entries_match_equation_13() {
        let gd = UniformDiagonal::gamma_diagonal(2000, 19.0);
        let x = 1.0 / (19.0 + 1999.0);
        assert_close(gd.diagonal(), 19.0 * x, 1e-15);
        assert_close(gd.off_diagonal(), x, 1e-15);
        assert!(gd.is_markov(1e-12));
    }

    #[test]
    fn gamma_diagonal_condition_number_formula() {
        // cond = (γ + n − 1)/(γ − 1), paper Section 3.
        let gd = UniformDiagonal::gamma_diagonal(2000, 19.0);
        assert_close(gd.condition_number(), (19.0 + 1999.0) / 18.0, 1e-12);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let gd = UniformDiagonal::new(5, 0.3, 0.14);
        let x = [1.0, -2.0, 3.0, 0.5, 4.0];
        let fast = gd.mul_vec(&x).unwrap();
        let dense = gd.to_dense().mul_vec(&x).unwrap();
        for (f, d) in fast.iter().zip(&dense) {
            assert_close(*f, *d, 1e-13);
        }
    }

    #[test]
    fn closed_form_inverse_matches_lu() {
        let gd = UniformDiagonal::gamma_diagonal(7, 19.0);
        let inv_closed = gd.inverse().unwrap().to_dense();
        let inv_lu = lu::inverse(&gd.to_dense()).unwrap();
        let diff = &inv_closed - &inv_lu;
        assert!(diff.max_abs() < 1e-10, "max deviation {}", diff.max_abs());
    }

    #[test]
    fn inverse_times_original_is_identity_in_on_time() {
        let gd = UniformDiagonal::gamma_diagonal(100, 19.0);
        let x: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let y = gd.mul_vec(&x).unwrap();
        let back = gd.solve(&y).unwrap();
        for (b, orig) in back.iter().zip(&x) {
            assert_close(*b, *orig, 1e-10);
        }
    }

    #[test]
    fn solve_rejects_wrong_length_rhs() {
        let gd = UniformDiagonal::gamma_diagonal(5, 3.0);
        assert!(gd.solve(&[1.0; 4]).is_err());
    }

    #[test]
    fn singular_family_member_detected() {
        // a = 0 makes the matrix rank 1.
        let gd = UniformDiagonal::new(4, 0.0, 0.25);
        assert_eq!(gd.inverse().unwrap_err(), LinalgError::Singular);
        assert_eq!(gd.condition_number(), f64::INFINITY);
    }

    #[test]
    fn eigenvalues_match_jacobi() {
        let gd = UniformDiagonal::gamma_diagonal(6, 19.0);
        let (small, markov) = gd.eigenvalues();
        let eig = eigen::jacobi_eigenvalues(&gd.to_dense()).unwrap();
        assert_close(eig[0], small, 1e-10);
        assert_close(eig[5], markov, 1e-10);
        assert_close(markov, 1.0, 1e-12);
    }

    #[test]
    fn kronecker_of_identities_is_identity() {
        let k = kronecker(&Matrix::identity(2), &Matrix::identity(3));
        let diff = &k - &Matrix::identity(6);
        assert!(diff.max_abs() < 1e-15);
    }

    #[test]
    fn kronecker_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.0, 5.0], &[6.0, 7.0]]);
        let k = kronecker(&a, &b);
        assert_eq!(k.rows(), 4);
        assert_eq!(k[(0, 1)], 5.0); // a00*b01
        assert_eq!(k[(1, 0)], 6.0); // a00*b10
        assert_eq!(k[(2, 3)], 4.0 * 5.0); // a11*b01
        assert_eq!(k[(3, 2)], 4.0 * 6.0); // a11*b10
        assert_eq!(k[(2, 0)], 3.0 * 0.0); // a10*b00
    }

    #[test]
    fn kronecker_power_zero_is_scalar_one() {
        let a = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]);
        let k = kronecker_power(&a, 0);
        assert_eq!(k.rows(), 1);
        assert_eq!(k[(0, 0)], 1.0);
    }

    #[test]
    fn mask_kronecker_condition_grows_exponentially() {
        // The MASK flip matrix with p: eigenvalues 1 and 2p−1, so the
        // k-fold power has condition (1/(2p−1))^k.
        let p = 0.7;
        let flip = Matrix::from_rows(&[&[p, 1.0 - p], &[1.0 - p, p]]);
        for k in 1..=4 {
            let m = kronecker_power(&flip, k);
            let cond = eigen::condition_number_2(&m).unwrap();
            let expected = (1.0 / (2.0 * p - 1.0)).powi(k as i32);
            assert_close(cond, expected, 1e-7);
        }
    }

    #[test]
    fn kronecker_preserves_column_stochasticity() {
        let a = Matrix::from_rows(&[&[0.9, 0.3], &[0.1, 0.7]]);
        let k = kronecker_power(&a, 3);
        assert!(k.is_column_stochastic(1e-12));
    }

    #[test]
    fn gamma_diagonal_is_symmetric_toeplitz() {
        let gd = UniformDiagonal::gamma_diagonal(4, 19.0).to_dense();
        let x = 1.0 / 22.0;
        let toeplitz = symmetric_toeplitz(&[19.0 * x, x, x, x]);
        let diff = &gd - &toeplitz;
        assert!(diff.max_abs() < 1e-15);
    }

    #[test]
    fn toeplitz_constructor_shape() {
        let t = symmetric_toeplitz(&[2.0, 1.0, 0.0]);
        assert_eq!(t[(0, 2)], 0.0);
        assert_eq!(t[(2, 0)], 0.0);
        assert_eq!(t[(1, 2)], 1.0);
        assert!(t.is_symmetric(0.0));
    }
}
