//! Prior perturbation techniques that FRAPP is evaluated against.
//!
//! The paper's experimental section (Section 7) compares the
//! gamma-diagonal mechanisms against two representative prior schemes,
//! both operating on the boolean mapping of the categorical database
//! (each categorical attribute `j` becomes `|S_j|` boolean columns, of
//! which exactly one is set per record):
//!
//! * [`mask`] — **MASK** (Rizvi & Haritsa, VLDB 2002): every bit of the
//!   boolean record is independently flipped with probability `1−p`.
//!   Its per-itemset reconstruction matrix is the k-fold Kronecker power
//!   of the 2×2 flip matrix, whose condition number `(1/(2p−1))^k` grows
//!   exponentially in the itemset length — the root cause of MASK's
//!   collapse in the paper's Figures 1–4.
//! * [`cnp`] — the **Cut-and-Paste** randomization operator
//!   (Evfimievski, Srikant, Agrawal & Gehrke, KDD 2002): keep a
//!   uniformly-chosen subset of the record's items and re-insert every
//!   other universe item with probability ρ. Reconstruction uses
//!   per-itemset `(k+1)×(k+1)` intersection-size transition matrices.
//! * [`combinatorics`] — the binomial and hypergeometric terms those
//!   Cut-and-Paste matrices are built from.
//!
//! These are the only two prior schemes the paper measures, so they are
//! the only two this crate carries. Both modules provide privacy-constrained parameter selection
//! mirroring the paper's choices (`p = 0.5611/0.5524` for
//! CENSUS/HEALTH and `(K, ρ) = (3, 0.494)` at `γ = 19`).

#![warn(missing_docs)]

pub mod cnp;
pub mod combinatorics;
pub mod mask;

pub use cnp::CutAndPaste;
pub use mask::Mask;
