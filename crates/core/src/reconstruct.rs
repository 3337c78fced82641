//! Distribution reconstruction (paper Sections 2.2, 2.3 and 6).
//!
//! The miner observes the perturbed count vector `Y` and estimates the
//! original counts as the solution of `A X̂ = Y` (Equation 8). This
//! module provides:
//!
//! * [`reconstruct_counts`] — the generic dense path via LU,
//! * [`GammaDiagonalReconstructor`] — the O(n) closed form for the
//!   gamma-diagonal family, valid for both DET-GD and RAN-GD (whose
//!   expected matrix is the deterministic one, Equation 19–23),
//! * [`reconstruct_itemset_support`] — the O(1) per-itemset support
//!   estimator from the marginalized matrix `A_Cs` (Equation 28), the
//!   workhorse of the privacy-preserving Apriori in `frapp-mining`,
//! * [`ErrorBound`] — the Theorem-1 bound
//!   `‖X̂−X‖/‖X‖ ≤ cond(A) · ‖Y−E(Y)‖/‖E(Y)‖` and the Poisson-Binomial
//!   variance of the perturbed counts (Equation 10).

use crate::perturb::GammaDiagonal;
use crate::{FrappError, Result};
use frapp_linalg::{lu, vector, Matrix};

/// Solves `A X̂ = Y` for an arbitrary dense perturbation matrix.
///
/// `counts_v` is the perturbed count vector `Y`; the result is the
/// estimated original count vector `X̂`. Entries of `X̂` may be negative
/// (sampling noise); see [`clamp_counts`].
pub fn reconstruct_counts(matrix: &Matrix, counts_v: &[f64]) -> Result<Vec<f64>> {
    lu::solve(matrix, counts_v).map_err(FrappError::from)
}

/// Clamps negative estimates to zero and rescales so the total matches
/// `n`. Reconstruction can produce slightly negative cell estimates;
/// for mining purposes they are noise around zero.
///
/// Degenerate case: if *every* estimate clamps to zero (possible at
/// tiny `N`, where sampling noise can push all cells negative), there
/// is no shape left to rescale, so the estimate falls back to the
/// maximum-entropy answer — the uniform distribution `n / len` —
/// instead of an all-zero vector that would contradict the
/// total-matches-`n` contract.
pub fn clamp_counts(estimates: &mut [f64], n: f64) {
    let mut total = 0.0;
    for e in estimates.iter_mut() {
        if *e < 0.0 {
            *e = 0.0;
        }
        total += *e;
    }
    if total > 0.0 && n > 0.0 {
        let scale = n / total;
        for e in estimates.iter_mut() {
            *e *= scale;
        }
    } else if n > 0.0 && !estimates.is_empty() {
        let uniform = n / estimates.len() as f64;
        for e in estimates.iter_mut() {
            *e = uniform;
        }
    }
}

/// O(n) reconstruction for the gamma-diagonal matrix.
///
/// With `A = aI + bJ`, `a = x(γ−1)`, `b = x` and `a + nb = 1`
/// (column-stochastic), Sherman–Morrison gives `A⁻¹ = (1/a)I − (b/a)J`,
/// hence `X̂_u = (Y_u − x·N)/a` where `N = Σ_v Y_v`.
#[derive(Debug, Clone)]
pub struct GammaDiagonalReconstructor {
    x: f64,
    a: f64,
}

impl GammaDiagonalReconstructor {
    /// Builds the reconstructor for a [`GammaDiagonal`] perturber.
    pub fn new(gd: &GammaDiagonal) -> Self {
        Self::from_domain(gd.domain_size(), gd.gamma())
    }

    /// Builds the reconstructor for the gamma-diagonal matrix over a
    /// domain of `domain_size` cells: `x = 1/(γ + n − 1)` and
    /// `a = (γ−1)x`, the same expressions as [`GammaDiagonal::new`], so
    /// both constructors give the same bits. `γ` must be finite and
    /// exceed 1, as there.
    pub fn from_domain(domain_size: usize, gamma: f64) -> Self {
        let x = 1.0 / (gamma + domain_size as f64 - 1.0);
        GammaDiagonalReconstructor {
            x,
            a: (gamma - 1.0) * x,
        }
    }

    /// Reconstructs the full count vector in O(n).
    pub fn reconstruct(&self, counts_v: &[f64]) -> Vec<f64> {
        let n_total: f64 = counts_v.iter().sum();
        counts_v
            .iter()
            .map(|&y| (y - self.x * n_total) / self.a)
            .collect()
    }
}

/// O(1) itemset-support reconstruction from the marginalized matrix
/// `A_Cs` (paper Equation 28).
///
/// `sup_v` is the itemset's support (fraction) in the perturbed
/// database; `n_c` the full domain size; `n_cs` the sub-domain size of
/// the itemset's attribute set. Since `A_Cs = aI + b'J` with
/// `b' = (n_c/n_cs)x` and column sums 1, and sub-domain supports sum to
/// 1, the estimate is `(sup_v − b')/a`.
pub fn reconstruct_itemset_support(sup_v: f64, n_c: usize, n_cs: usize, gamma: f64) -> f64 {
    let x = 1.0 / (gamma + n_c as f64 - 1.0);
    let a = (gamma - 1.0) * x;
    let b = (n_c as f64 / n_cs as f64) * x;
    (sup_v - b) / a
}

/// The Theorem-1 relative error bound and its ingredients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBound {
    /// Condition number `c` of the perturbation matrix.
    pub condition_number: f64,
    /// Observed relative deviation `‖Y − E(Y)‖ / ‖E(Y)‖`.
    pub relative_deviation: f64,
    /// The bound `c · ‖Y − E(Y)‖ / ‖E(Y)‖` on `‖X̂ − X‖/‖X‖`.
    pub bound: f64,
}

/// Evaluates the Theorem-1 bound given the observed perturbed counts
/// `Y`, their expectation `E(Y) = A·X` and the matrix condition number.
pub fn error_bound(condition_number: f64, observed: &[f64], expected: &[f64]) -> ErrorBound {
    let relative_deviation = vector::relative_error_2(observed, expected);
    ErrorBound {
        condition_number,
        relative_deviation,
        bound: condition_number * relative_deviation,
    }
}

/// Variance of the perturbed count `Y_v` under the Poisson-Binomial
/// distribution (paper Equation 10):
///
/// ```text
/// Var(Y_v) = A_v·X (1 − A_v·X/N) − Σ_u (A_vu − A_v·X/N)² X_u
/// ```
///
/// where `A_v` is row `v` of the matrix and `X` the original counts.
pub fn poisson_binomial_variance(row: &[f64], counts_u: &[f64]) -> f64 {
    let n: f64 = counts_u.iter().sum();
    if n == 0.0 {
        return 0.0;
    }
    let mean: f64 = row.iter().zip(counts_u).map(|(a, x)| a * x).sum();
    let avg = mean / n;
    let spread: f64 = row
        .iter()
        .zip(counts_u)
        .map(|(a, x)| (a - avg) * (a - avg) * x)
        .sum();
    mean * (1.0 - avg) - spread
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::Perturber;
    use crate::schema::Schema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn the_domain_constructor_gives_the_matrix_constructors_bits() {
        for (specs, gamma) in [
            (vec![("a", 3), ("b", 2), ("c", 2)], 19.0),
            (vec![("a", 2)], 1.5),
            (vec![("a", 50), ("b", 40)], 3.7),
        ] {
            let s = Schema::new(specs).unwrap();
            let gd = GammaDiagonal::new(&s, gamma).unwrap();
            let r = GammaDiagonalReconstructor::from_domain(s.domain_size(), gamma);
            assert_eq!(r.x.to_bits(), gd.x().to_bits());
            assert_eq!(r.a.to_bits(), ((gamma - 1.0) * gd.x()).to_bits());
        }
    }

    #[test]
    fn closed_form_matches_lu_on_dense_matrix() {
        let s = Schema::new(vec![("a", 3), ("b", 2)]).unwrap();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let y = vec![120.0, 80.0, 33.0, 260.0, 5.0, 2.0];
        let closed = GammaDiagonalReconstructor::new(&gd).reconstruct(&y);
        let dense = gd.as_uniform_diagonal().to_dense();
        let via_lu = reconstruct_counts(&dense, &y).unwrap();
        for (c, l) in closed.iter().zip(&via_lu) {
            assert_close(*c, *l, 1e-9);
        }
    }

    #[test]
    fn noiseless_reconstruction_is_exact() {
        let s = Schema::new(vec![("a", 4), ("b", 3)]).unwrap();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let x: Vec<f64> = (0..12).map(|i| (i * 13 % 7) as f64 * 10.0).collect();
        let y = gd.as_uniform_diagonal().mul_vec(&x).unwrap();
        let back = GammaDiagonalReconstructor::new(&gd).reconstruct(&y);
        for (b, orig) in back.iter().zip(&x) {
            assert_close(*b, *orig, 1e-9);
        }
    }

    #[test]
    fn end_to_end_reconstruction_recovers_distribution() {
        // Perturb a skewed dataset and verify the reconstructed counts
        // approach the originals: the paper's core accuracy claim.
        let s = Schema::new(vec![("a", 3), ("b", 2)]).unwrap();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let mut records = Vec::new();
        // Skew: cell [0,0] dominates.
        for _ in 0..6000 {
            records.push(vec![0u32, 0u32]);
        }
        for _ in 0..3000 {
            records.push(vec![1u32, 1u32]);
        }
        for _ in 0..1000 {
            records.push(vec![2u32, 0u32]);
        }
        let mut rng = StdRng::seed_from_u64(11);
        let perturbed = gd.perturb_dataset(&records, &mut rng).unwrap();
        let ds = crate::Dataset::from_trusted(s.clone(), perturbed);
        let y = ds.count_vector();
        let xhat = GammaDiagonalReconstructor::new(&gd).reconstruct(&y);
        // True counts: indices [0,0]→0, [1,1]→3, [2,0]→4.
        assert!((xhat[0] - 6000.0).abs() < 450.0, "xhat[0] = {}", xhat[0]);
        assert!((xhat[3] - 3000.0).abs() < 450.0, "xhat[3] = {}", xhat[3]);
        assert!((xhat[4] - 1000.0).abs() < 450.0, "xhat[4] = {}", xhat[4]);
        // Empty cells reconstruct near zero.
        assert!(xhat[1].abs() < 450.0);
    }

    #[test]
    fn clamp_counts_preserves_total_and_nonnegativity() {
        let mut est = vec![-50.0, 150.0, 900.0];
        clamp_counts(&mut est, 1000.0);
        assert!(est.iter().all(|&e| e >= 0.0));
        assert_close(est.iter().sum::<f64>(), 1000.0, 1e-9);
    }

    #[test]
    fn clamp_counts_all_negative_falls_back_to_uniform() {
        // Every estimate clamps to zero: rather than returning an
        // all-zero vector whose total contradicts `n`, the fallback is
        // the uniform distribution over the domain.
        let mut est = vec![-1.0, -2.0];
        clamp_counts(&mut est, 10.0);
        assert_eq!(est, vec![5.0, 5.0]);
        assert_close(est.iter().sum::<f64>(), 10.0, 1e-12);
    }

    #[test]
    fn clamp_counts_degenerate_inputs_stay_safe() {
        // n = 0: nothing to rescale to, all-zero is the right answer.
        let mut est = vec![-1.0, -2.0];
        clamp_counts(&mut est, 0.0);
        assert_eq!(est, vec![0.0, 0.0]);
        // Empty slice: must not divide by zero.
        let mut empty: Vec<f64> = vec![];
        clamp_counts(&mut empty, 10.0);
        assert!(empty.is_empty());
        // Exact zeros (not negative) with n > 0 also take the fallback.
        let mut zeros = vec![0.0; 4];
        clamp_counts(&mut zeros, 8.0);
        assert_eq!(zeros, vec![2.0; 4]);
    }

    #[test]
    fn itemset_support_reconstruction_matches_marginal_matrix_solve() {
        // Cross-validate the O(1) formula against a dense solve of the
        // marginalized matrix.
        let s = Schema::new(vec![("a", 3), ("b", 2), ("c", 2)]).unwrap();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let attrs = [0usize, 1usize];
        let n_cs = s.subdomain_size(&attrs);
        // An arbitrary perturbed support distribution over the
        // sub-domain (sums to 1).
        let sup_v = [0.30, 0.05, 0.20, 0.10, 0.25, 0.10];
        let dense = gd.marginal_matrix(&attrs).to_dense();
        let solved = lu::solve(&dense, &sup_v).unwrap();
        for (cell, &sv) in sup_v.iter().enumerate() {
            let fast = reconstruct_itemset_support(sv, s.domain_size(), n_cs, 19.0);
            assert_close(fast, solved[cell], 1e-10);
        }
    }

    #[test]
    fn full_domain_itemset_reconstruction_equals_cell_reconstruction() {
        // For Cs = all attributes the marginalized formula must agree
        // with the full-domain closed form (as fractions).
        let s = Schema::new(vec![("a", 2), ("b", 2)]).unwrap();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let y = [400.0, 100.0, 300.0, 200.0];
        let n: f64 = y.iter().sum();
        let full = GammaDiagonalReconstructor::new(&gd).reconstruct(&y);
        for u in 0..4 {
            let frac = reconstruct_itemset_support(y[u] / n, 4, 4, 19.0);
            assert_close(frac, full[u] / n, 1e-12);
        }
    }

    #[test]
    fn error_bound_zero_for_exact_observation() {
        let b = error_bound(112.0, &[1.0, 2.0], &[1.0, 2.0]);
        assert_eq!(b.bound, 0.0);
        assert_eq!(b.relative_deviation, 0.0);
    }

    #[test]
    fn error_bound_scales_with_condition_number() {
        let lo = error_bound(2.0, &[1.1, 2.0], &[1.0, 2.0]);
        let hi = error_bound(200.0, &[1.1, 2.0], &[1.0, 2.0]);
        assert_close(hi.bound / lo.bound, 100.0, 1e-9);
    }

    #[test]
    fn theorem_1_bound_holds_empirically() {
        // The actual estimation error must respect the Theorem-1 bound.
        let s = Schema::new(vec![("a", 3), ("b", 2)]).unwrap();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let records: Vec<Vec<u32>> = (0..8000)
            .map(|i| vec![(i % 4 == 0) as u32 * 2, (i % 3 == 0) as u32])
            .collect();
        let x_true = crate::Dataset::new(s.clone(), records.clone())
            .unwrap()
            .count_vector();
        let mut rng = StdRng::seed_from_u64(5);
        let perturbed = gd.perturb_dataset(&records, &mut rng).unwrap();
        let y = crate::Dataset::from_trusted(s.clone(), perturbed).count_vector();
        let expected_y = gd.as_uniform_diagonal().mul_vec(&x_true).unwrap();
        let xhat = GammaDiagonalReconstructor::new(&gd).reconstruct(&y);
        let cond = gd.as_uniform_diagonal().condition_number();
        let bound = error_bound(cond, &y, &expected_y);
        let actual = vector::relative_error_2(&xhat, &x_true);
        assert!(
            actual <= bound.bound * (1.0 + 1e-9),
            "actual {actual} exceeds bound {}",
            bound.bound
        );
    }

    #[test]
    fn poisson_binomial_variance_identical_trials_reduces_to_binomial() {
        // All records in the same cell u: Y_v ~ Binomial(N, A_vu).
        let row = [0.3, 0.7];
        let counts = [100.0, 0.0];
        let var = poisson_binomial_variance(&row, &counts);
        assert_close(var, 100.0 * 0.3 * 0.7, 1e-9);
    }

    #[test]
    fn poisson_binomial_variance_heterogeneity_reduces_variance() {
        // Feller's observation used in paper Section 4.2: for a fixed
        // average success probability, making the per-trial
        // probabilities unequal *decreases* the variance.
        let uniform_row = [0.5, 0.5];
        let mixed_row = [0.1, 0.9];
        let counts = [50.0, 50.0];
        let var_uniform = poisson_binomial_variance(&uniform_row, &counts);
        let var_mixed = poisson_binomial_variance(&mixed_row, &counts);
        assert!(var_mixed < var_uniform);
        // Both have the same mean.
        assert_close(
            uniform_row
                .iter()
                .zip(&counts)
                .map(|(a, x)| a * x)
                .sum::<f64>(),
            mixed_row
                .iter()
                .zip(&counts)
                .map(|(a, x)| a * x)
                .sum::<f64>(),
            1e-12,
        );
    }

    #[test]
    fn poisson_binomial_variance_empty_dataset_is_zero() {
        assert_eq!(poisson_binomial_variance(&[0.5], &[0.0]), 0.0);
    }
}
