//! Eigenvalue computation and condition numbers.
//!
//! The FRAPP paper bounds reconstruction error by the condition number of
//! the perturbation matrix (Theorem 1) and proves the gamma-diagonal
//! matrix optimal among symmetric Markov matrices (Section 3). Figure 4
//! of the paper plots condition numbers of each method's reconstruction
//! matrix against itemset length; this module provides the numeric
//! machinery behind that figure:
//!
//! * [`jacobi_eigenvalues`] — the cyclic Jacobi method for symmetric
//!   matrices (all eigenvalues, robust even for clustered spectra),
//! * [`power_iteration`] / [`inverse_power_iteration`] — dominant and
//!   smallest-magnitude eigenpair estimation for general matrices,
//! * [`condition_number_2`] — `σ_max/σ_min` via the spectrum of `AᵀA`,
//!   valid for *any* square matrix (MASK and C&P matrices are not
//!   symmetric in general).

use crate::{lu, vector, LinalgError, Matrix, Result};

/// Default iteration budget for the iterative methods.
const MAX_SWEEPS: usize = 100;
const MAX_POWER_ITERS: usize = 10_000;

/// Computes all eigenvalues of a symmetric matrix with the cyclic Jacobi
/// method, returned in ascending order.
///
/// Returns [`LinalgError::NotSymmetric`] when the input is not symmetric
/// within `1e-9` (relative to the largest entry), and
/// [`LinalgError::NonConvergence`] if the off-diagonal mass fails to
/// vanish within the sweep budget (does not happen for well-formed
/// symmetric input).
pub fn jacobi_eigenvalues(a: &Matrix) -> Result<Vec<f64>> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let scale = a.max_abs().max(1.0);
    if !a.is_symmetric(1e-9 * scale) {
        return Err(LinalgError::NotSymmetric);
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut m = a.clone();
    let tol = 1e-14 * scale * (n as f64);

    for sweep in 0..MAX_SWEEPS {
        let mut off = 0.0_f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)].abs();
            }
        }
        if off <= tol {
            let mut eig: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
            eig.sort_by(|x, y| x.partial_cmp(y).expect("eigenvalues are finite"));
            return Ok(eig);
        }
        let _ = sweep;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol / (n * n) as f64 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Classic Jacobi rotation angle selection.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Update rows/columns p and q.
                for k in 0..n {
                    if k != p && k != q {
                        let akp = m[(k, p)];
                        let akq = m[(k, q)];
                        m[(k, p)] = c * akp - s * akq;
                        m[(p, k)] = m[(k, p)];
                        m[(k, q)] = s * akp + c * akq;
                        m[(q, k)] = m[(k, q)];
                    }
                }
                m[(p, p)] = app - t * apq;
                m[(q, q)] = aqq + t * apq;
                m[(p, q)] = 0.0;
                m[(q, p)] = 0.0;
            }
        }
    }
    Err(LinalgError::NonConvergence {
        iterations: MAX_SWEEPS,
    })
}

/// Estimates the dominant eigenvalue (by magnitude) and eigenvector of a
/// square matrix using power iteration.
///
/// Returns `(lambda, v)` with `‖v‖₂ = 1`. Convergence is declared when
/// successive eigenvalue estimates agree to relative `tol`.
pub fn power_iteration(a: &Matrix, tol: f64) -> Result<(f64, Vec<f64>)> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    // Deterministic, non-degenerate start vector: varying entries avoid
    // being orthogonal to the dominant eigenvector in common cases.
    let mut v: Vec<f64> = (0..n)
        .map(|i| 1.0 + (i as f64) / (n as f64 + 1.0))
        .collect();
    vector::normalize_mut(&mut v);
    let mut lambda_old = 0.0_f64;
    for it in 0..MAX_POWER_ITERS {
        let mut w = a.mul_vec(&v)?;
        let norm = vector::normalize_mut(&mut w);
        if norm == 0.0 {
            // v in the null space: dominant eigenvalue estimate is 0.
            return Ok((0.0, v));
        }
        // Rayleigh quotient gives a signed estimate.
        let av = a.mul_vec(&w)?;
        let lambda = vector::dot(&w, &av);
        if it > 0 && (lambda - lambda_old).abs() <= tol * lambda.abs().max(1e-300) {
            return Ok((lambda, w));
        }
        lambda_old = lambda;
        v = w;
    }
    Err(LinalgError::NonConvergence {
        iterations: MAX_POWER_ITERS,
    })
}

/// Estimates the smallest-magnitude eigenvalue of a square matrix via
/// inverse power iteration (power iteration on `A⁻¹` through an LU
/// factorization). Returns [`LinalgError::Singular`] when `A` cannot be
/// factored, in which case the smallest eigenvalue is 0.
pub fn inverse_power_iteration(a: &Matrix, tol: f64) -> Result<(f64, Vec<f64>)> {
    let lu = lu::LuDecomposition::new(a)?;
    let n = a.rows();
    let mut v: Vec<f64> = (0..n)
        .map(|i| 1.0 + (i as f64) / (n as f64 + 1.0))
        .collect();
    vector::normalize_mut(&mut v);
    let mut mu_old = 0.0_f64;
    for it in 0..MAX_POWER_ITERS {
        let mut w = lu.solve(&v)?;
        let norm = vector::normalize_mut(&mut w);
        if norm == 0.0 {
            return Err(LinalgError::Singular);
        }
        // Rayleigh quotient of A on the current iterate estimates the
        // smallest eigenvalue directly (with sign).
        let aw = a.mul_vec(&w)?;
        let mu = vector::dot(&w, &aw);
        if it > 0 && (mu - mu_old).abs() <= tol * mu.abs().max(1e-300) {
            return Ok((mu, w));
        }
        mu_old = mu;
        v = w;
    }
    Err(LinalgError::NonConvergence {
        iterations: MAX_POWER_ITERS,
    })
}

/// 2-norm condition number `σ_max / σ_min`, computed from the extreme
/// eigenvalues of the symmetric positive semidefinite matrix `AᵀA`
/// (σ = √λ). Works for any invertible square matrix.
///
/// For matrices up to 64×64 the full Jacobi spectrum of `AᵀA` is used
/// (exact); beyond that, power/inverse-power iteration estimates the
/// extremes, which is accurate to the requested tolerance and far
/// cheaper for the large domains FRAPP works with.
pub fn condition_number_2(a: &Matrix) -> Result<f64> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let ata = a.transpose().mul_mat(a)?;
    if a.rows() <= 64 {
        let eig = jacobi_eigenvalues(&ata)?;
        let min = eig.first().copied().unwrap_or(0.0).max(0.0);
        let max = eig.last().copied().unwrap_or(0.0).max(0.0);
        if min <= 0.0 {
            return Ok(f64::INFINITY);
        }
        Ok((max / min).sqrt())
    } else {
        let (lmax, _) = power_iteration(&ata, 1e-12)?;
        let lmin = match inverse_power_iteration(&ata, 1e-12) {
            Ok((l, _)) => l,
            Err(LinalgError::Singular) => return Ok(f64::INFINITY),
            Err(e) => return Err(e),
        };
        if lmin <= 0.0 {
            return Ok(f64::INFINITY);
        }
        Ok((lmax / lmin).sqrt())
    }
}

/// 2-norm condition number computed as `σ_max(A) · σ_max(A⁻¹)` with the
/// explicit inverse.
///
/// For *severely* ill-conditioned matrices (σ_min close to machine
/// epsilon relative to σ_max), [`condition_number_2`] loses σ_min to
/// rounding inside `AᵀA` and reports infinity. Going through the
/// inverse sidesteps that: σ_max(A⁻¹) = 1/σ_min(A) is the *largest*
/// singular value of the inverse and is computed without cancellation.
/// This is how the Cut-and-Paste condition numbers of the paper's
/// Figure 4 (~1e7 and beyond) are evaluated.
pub fn condition_number_2_robust(a: &Matrix) -> Result<f64> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let inv = match lu::inverse(a) {
        Ok(inv) => inv,
        Err(LinalgError::Singular) => return Ok(f64::INFINITY),
        Err(e) => return Err(e),
    };
    let ata = a.transpose().mul_mat(a)?;
    let (l_a, _) = power_iteration(&ata, 1e-12)?;
    let iti = inv.transpose().mul_mat(&inv)?;
    let (l_i, _) = power_iteration(&iti, 1e-12)?;
    if l_a <= 0.0 || l_i <= 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok((l_a.sqrt()) * (l_i.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn jacobi_diagonal_matrix_returns_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -1.0]]);
        let eig = jacobi_eigenvalues(&a).unwrap();
        assert_close(eig[0], -1.0, 1e-12);
        assert_close(eig[1], 3.0, 1e-12);
    }

    #[test]
    fn jacobi_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eig = jacobi_eigenvalues(&a).unwrap();
        assert_close(eig[0], 1.0, 1e-12);
        assert_close(eig[1], 3.0, 1e-12);
    }

    #[test]
    fn jacobi_rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(
            jacobi_eigenvalues(&a).unwrap_err(),
            LinalgError::NotSymmetric
        );
    }

    #[test]
    fn jacobi_gamma_diagonal_spectrum() {
        // gamma-diagonal aI + bJ has eigenvalues a (multiplicity n−1) and
        // a + nb (the Markov eigenvalue 1). Paper Section 3.
        let n = 6;
        let gamma = 19.0;
        let x = 1.0 / (gamma + (n as f64) - 1.0);
        let a = Matrix::from_fn(n, n, |i, j| if i == j { gamma * x } else { x });
        let eig = jacobi_eigenvalues(&a).unwrap();
        let expected_small = (gamma - 1.0) * x;
        for &e in &eig[..n - 1] {
            assert_close(e, expected_small, 1e-10);
        }
        assert_close(eig[n - 1], 1.0, 1e-10);
    }

    #[test]
    fn jacobi_trace_preserved() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 1.0]]);
        let eig = jacobi_eigenvalues(&a).unwrap();
        assert_close(eig.iter().sum::<f64>(), a.trace(), 1e-10);
    }

    #[test]
    fn power_iteration_finds_dominant() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 5.0]]);
        let (l, v) = power_iteration(&a, 1e-13).unwrap();
        assert_close(l, 5.0, 1e-9);
        assert!(v[1].abs() > 0.99);
    }

    #[test]
    fn inverse_power_iteration_finds_smallest() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 5.0]]);
        let (l, v) = inverse_power_iteration(&a, 1e-13).unwrap();
        assert_close(l, 2.0, 1e-9);
        assert!(v[0].abs() > 0.99);
    }

    #[test]
    fn condition_number_of_identity_is_one() {
        let i = Matrix::identity(4);
        assert_close(condition_number_2(&i).unwrap(), 1.0, 1e-9);
    }

    #[test]
    fn condition_number_2_diagonal() {
        let a = Matrix::from_rows(&[&[10.0, 0.0], &[0.0, 0.1]]);
        assert_close(condition_number_2(&a).unwrap(), 100.0, 1e-8);
    }

    #[test]
    fn condition_number_gamma_diagonal_matches_formula() {
        // Paper Section 3: cond = (gamma + n − 1)/(gamma − 1).
        let n = 8;
        let gamma = 19.0;
        let x = 1.0 / (gamma + (n as f64) - 1.0);
        let a = Matrix::from_fn(n, n, |i, j| if i == j { gamma * x } else { x });
        let expected = (gamma + n as f64 - 1.0) / (gamma - 1.0);
        assert_close(condition_number_2(&a).unwrap(), expected, 1e-8);
    }

    #[test]
    fn condition_number_singular_is_infinite() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(condition_number_2(&a).unwrap(), f64::INFINITY);
    }

    #[test]
    fn large_matrix_uses_iterative_path() {
        // 80x80 gamma-diagonal: iterative path, exact formula known.
        let n = 80;
        let gamma = 19.0;
        let x = 1.0 / (gamma + (n as f64) - 1.0);
        let a = Matrix::from_fn(n, n, |i, j| if i == j { gamma * x } else { x });
        let expected = (gamma + n as f64 - 1.0) / (gamma - 1.0);
        let got = condition_number_2(&a).unwrap();
        assert_close(got, expected, 1e-6);
    }

    #[test]
    fn hilbert_5x5_condition_is_order_1e5() {
        // The paper (Section 2.3) cites ~1e5 for the 5×5 Hilbert matrix.
        let h = Matrix::from_fn(5, 5, |i, j| 1.0 / ((i + j + 1) as f64));
        let c = condition_number_2(&h).unwrap();
        assert!(c > 1e4 && c < 1e6, "got {c}");
    }
}
