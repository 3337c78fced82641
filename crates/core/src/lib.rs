//! The FRAPP framework (Agrawal & Haritsa, ICDE 2005).
//!
//! FRAPP — *FRamework for Accuracy in Privacy-Preserving mining* — models
//! privacy-preserving data collection as a Markov process: every client
//! record `u` (a point in the cross-product domain of `M` categorical
//! attributes) is replaced, at the client, by a random record `v` drawn
//! with probability `A[v][u]` from a column-stochastic *perturbation
//! matrix* `A`. The miner, who knows `A` (or its distribution), undoes
//! the distortion in aggregate by solving `A X̂ = Y`.
//!
//! The crate is organised exactly along the paper's sections:
//!
//! * [`schema`] — the data model of Section 2: categorical attributes,
//!   the mixed-radix bijection between records and the index set `I_U`.
//! * [`privacy`] — Section 2.1 and Section 4.1: `(ρ1, ρ2)` amplification
//!   privacy, the induced bound `γ`, posterior-probability computations
//!   for deterministic and randomized matrices.
//! * [`perturb`] — Sections 3–5: the gamma-diagonal matrix (Equation 13),
//!   its randomized variant and an explicit-matrix perturber, each with
//!   one sampler on encoded indices (at most two draws per record for
//!   the gamma-diagonal family).
//! * [`reconstruct`] — Sections 2.2–2.3 and 6: generic LU-based
//!   reconstruction, O(n) closed forms for the gamma-diagonal family,
//!   the marginalized matrices `A_Cs` for itemset supports
//!   (Equation 28), and Theorem-1 error bounds.

#![warn(missing_docs)]

pub mod dataset;
pub mod em;
pub mod perturb;
pub mod privacy;
pub mod reconstruct;
pub mod schema;

pub use dataset::{CountAccumulator, Dataset};
pub use perturb::{GammaDiagonal, Perturber, RandomizedGammaDiagonal};
pub use privacy::PrivacyRequirement;
pub use schema::Schema;

/// Errors produced by the FRAPP framework.
#[derive(Debug, Clone, PartialEq)]
pub enum FrappError {
    /// A parameter was outside its legal range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// A record does not conform to the schema.
    InvalidRecord {
        /// Why the record was rejected.
        reason: String,
    },
    /// The cross-product domain exceeds what can be indexed in memory.
    DomainTooLarge {
        /// Number of attributes seen before the overflow.
        attributes: usize,
    },
    /// An underlying linear-algebra failure.
    Linalg(frapp_linalg::LinalgError),
}

impl std::fmt::Display for FrappError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrappError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            FrappError::InvalidRecord { reason } => write!(f, "invalid record: {reason}"),
            FrappError::DomainTooLarge { attributes } => {
                write!(
                    f,
                    "domain size overflows usize after {attributes} attributes"
                )
            }
            FrappError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for FrappError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrappError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<frapp_linalg::LinalgError> for FrappError {
    fn from(e: frapp_linalg::LinalgError) -> Self {
        FrappError::Linalg(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FrappError>;

#[cfg(test)]
mod error_tests {
    use super::FrappError;

    /// `FrappError` must stay `Send + Sync + 'static` so it can cross
    /// thread and crate boundaries inside `frapp-service` (worker
    /// threads return `Result<_, ServiceError>` wrapping it).
    #[test]
    fn frapp_error_is_send_sync_static_error() {
        fn assert_bounds<T: Send + Sync + std::error::Error + 'static>() {}
        assert_bounds::<FrappError>();
    }
}
