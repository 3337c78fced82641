//! Dense linear-algebra substrate for the FRAPP reproduction.
//!
//! The FRAPP paper (Agrawal & Haritsa, ICDE 2005) models random data
//! perturbation as multiplication by a Markov matrix `A` and reconstructs
//! the original data distribution as `X̂ = A⁻¹Y`. The quality of the
//! reconstruction is governed by the *condition number* of `A`
//! (paper Theorem 1). This crate provides everything the framework needs:
//!
//! * a dense row-major [`Matrix`] with the usual arithmetic,
//! * [`lu::LuDecomposition`] — partial-pivoting LU for solving and
//!   inversion,
//! * [`eigen`] — a Jacobi eigensolver for symmetric matrices, power /
//!   inverse iteration, and the 2-norm condition number (exact, and a
//!   robust variant for the ill-conditioned matrices of Figure 4),
//! * [`structured`] — closed forms for the paper's "gamma-diagonal"
//!   family `aI + bJ` (Sherman–Morrison inverse, exact spectra) and
//!   Kronecker products (MASK's reconstruction matrices are Kronecker
//!   powers of a 2×2 flip matrix).
//!
//! Everything is implemented from scratch on `f64`; no external linear
//! algebra crates are used.

#![warn(missing_docs)]

pub mod eigen;
pub mod lu;
pub mod matrix;
pub mod structured;
pub mod vector;

pub use eigen::{condition_number_2, condition_number_2_robust, jacobi_eigenvalues};
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use structured::{kronecker, kronecker_power, UniformDiagonal};

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was found.
        found: String,
    },
    /// The matrix is singular (or numerically so) and cannot be factored
    /// or inverted.
    Singular,
    /// An iterative method failed to converge within its iteration budget.
    NonConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// The operation requires a symmetric matrix.
    NotSymmetric,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NonConvergence { iterations } => {
                write!(
                    f,
                    "iteration failed to converge after {iterations} iterations"
                )
            }
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "operation requires a square matrix, got {rows}x{cols}")
            }
            LinalgError::NotSymmetric => write!(f, "operation requires a symmetric matrix"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
