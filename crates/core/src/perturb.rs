//! Perturbation matrices and samplers (paper Sections 3–5).
//!
//! Three perturbers are provided:
//!
//! * [`GammaDiagonal`] — the paper's optimal deterministic matrix
//!   (Equation 13): diagonal `γx`, off-diagonal `x`, `x = 1/(γ+n−1)`.
//!   Its sampler needs at most two RNG draws per record (see below).
//! * [`RandomizedGammaDiagonal`] — Section 4: each client perturbs with
//!   a *realization* `diag = γx + r`, `off = x − r/(n−1)`, `r ~ U[−α,α]`,
//!   so the miner knows only the matrix distribution.
//! * [`ExplicitMatrix`] — an arbitrary column-stochastic matrix sampled
//!   by a CDF walk over the full domain; `O(|S_V|)` per record, intended
//!   for small domains, cross-validation and experimentation.
//!
//! ## One sampler per mechanism
//!
//! Each perturber implements one sampler, [`Perturber::perturb_index`].
//! The record APIs are encode → `perturb_index` → decode, so the server,
//! the offline experiments and a client perturbing its own record
//! realise the same matrix, which the tests compute exactly.
//!
//! The two gamma-diagonal samplers also implement [`BatchSampler`], the
//! same batch loop generic over the RNG type. Their `Perturber` methods
//! run it on `dyn RngCore`; the server's ingest runs it on its shards'
//! concrete generator, so each draw is a direct call there. One body
//! serves both, so the draws are the same.
//!
//! For the gamma-diagonal family, `A = x(γ−1)I + xJ` is a mixture: with
//! probability `(γ−1)x` keep the index, otherwise draw a uniform index
//! over the whole domain. Then `P(v=u) = (γ−1)x + nx/n = γx` and
//! `P(v)=x` for `v≠u`, exactly Equation 13, at one raw `u64` compare
//! and one bounded draw instead of the naive `O(Π_j |S_j|)` walk or the
//! Section-5 algorithm's `Σ_j |S_j|`.

use crate::schema::Schema;
use crate::{FrappError, PrivacyRequirement, Result};
use frapp_linalg::structured::UniformDiagonal;
use frapp_linalg::Matrix;
use rand::Rng;
use rand::RngCore;

/// A client-side record perturber: the FRAPP trust model has every
/// client independently randomizing their own record before submission,
/// so the interface is strictly record-at-a-time. Implementations
/// provide [`Perturber::schema`] and the one sampler,
/// [`Perturber::perturb_index`]; the other methods are built on them.
///
/// The trait is object-safe (samplers take `&mut dyn RngCore`), so the
/// offline tools take any mechanism as `&dyn Perturber`, and requires
/// `Send + Sync` so one perturber can be shared across threads. The
/// server does not perturb through it: its shards run the served
/// mechanisms' [`BatchSampler`] on their own RNG type, which draws the
/// same numbers without a virtual call per draw.
pub trait Perturber: Send + Sync {
    /// The schema both the original and perturbed records conform to
    /// (FRAPP here uses `S_V = S_U`).
    fn schema(&self) -> &Schema;

    /// Perturbs a record that is already encoded as a domain index
    /// (trusted input — e.g. the output of [`Schema::encode`]). This is
    /// the mechanism's sampler, allocation-free.
    ///
    /// # Panics
    /// May panic if `index` is outside the schema's domain.
    fn perturb_index(&self, index: usize, rng: &mut dyn RngCore) -> usize;

    /// Perturbs a batch of encoded domain indices *in place* (trusted
    /// input, like [`Perturber::perturb_index`]).
    ///
    /// One virtual dispatch per batch instead of one per record. The
    /// gamma-diagonal samplers run their [`BatchSampler`] loop here, with
    /// the mixture parameters hoisted out; the default loops
    /// [`Perturber::perturb_index`]. The draw sequence is identical
    /// either way.
    fn perturb_indices(&self, indices: &mut [usize], rng: &mut dyn RngCore) {
        for slot in indices {
            *slot = self.perturb_index(*slot, rng);
        }
    }

    /// Perturbs one record: encode → [`Perturber::perturb_index`] →
    /// decode. The draw sequence is therefore the index sampler's, and
    /// an invalid record fails before any draw.
    fn perturb_record(&self, record: &[u32], rng: &mut dyn RngCore) -> Result<Vec<u32>> {
        let index = self.schema().encode(record)?;
        Ok(self.schema().decode(self.perturb_index(index, rng)))
    }

    /// Perturbs a whole dataset: every record is encoded first, so an
    /// invalid batch fails before any draw, then the batch runs through
    /// [`Perturber::perturb_indices`] — the same draws as
    /// [`Perturber::perturb_record`] record by record.
    fn perturb_dataset(
        &self,
        records: &[Vec<u32>],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Vec<u32>>> {
        let schema = self.schema();
        let mut indices = Vec::with_capacity(records.len());
        schema.encode_batch(records, &mut indices)?;
        self.perturb_indices(&mut indices, rng);
        Ok(indices.into_iter().map(|i| schema.decode(i)).collect())
    }
}

/// A mechanism's batch sampler, generic over the RNG type: the loop
/// [`Perturber::perturb_indices`] runs, on any [`RngCore`] — a
/// concrete one, or `dyn RngCore` as the `Perturber` methods pass it.
/// Monomorphised on a concrete generator, each draw is a direct,
/// inlinable call instead of a virtual one; the draws are the same.
pub trait BatchSampler {
    /// Perturbs a batch of encoded domain indices *in place* (trusted
    /// input, like [`Perturber::perturb_index`]).
    fn perturb_batch<R: RngCore + ?Sized>(&self, indices: &mut [usize], rng: &mut R);
}

// ---------------------------------------------------------------------
// Deterministic gamma-diagonal (DET-GD)
// ---------------------------------------------------------------------

/// The paper's gamma-diagonal perturbation matrix (Equation 13) over the
/// full record domain of a [`Schema`].
#[derive(Debug, Clone)]
pub struct GammaDiagonal {
    schema: Schema,
    gamma: f64,
    /// `x = 1/(γ + n − 1)` where `n` is the domain size.
    x: f64,
}

impl GammaDiagonal {
    /// Creates the matrix for a given amplification bound `γ > 1`.
    /// `γ` must be finite: at `γ = ∞` the matrix degenerates to
    /// `x = 0` and every downstream coefficient becomes NaN.
    pub fn new(schema: &Schema, gamma: f64) -> Result<Self> {
        if gamma <= 1.0 || !gamma.is_finite() {
            return Err(FrappError::InvalidParameter {
                name: "gamma",
                reason: format!("must be finite and exceed 1, got {gamma}"),
            });
        }
        let n = schema.domain_size() as f64;
        Ok(GammaDiagonal {
            schema: schema.clone(),
            gamma,
            x: 1.0 / (gamma + n - 1.0),
        })
    }

    /// Creates the matrix for a `(ρ1, ρ2)` privacy requirement,
    /// using the maximal `γ` the requirement permits.
    pub fn from_requirement(schema: &Schema, req: &PrivacyRequirement) -> Self {
        // req guarantees gamma() > 1 because rho2 > rho1.
        GammaDiagonal::new(schema, req.gamma()).expect("privacy requirement yields gamma > 1")
    }

    /// The amplification parameter γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The matrix parameter `x = 1/(γ+n−1)`.
    pub fn x(&self) -> f64 {
        self.x
    }

    /// Domain size `n = |S_U|`.
    pub fn domain_size(&self) -> usize {
        self.schema.domain_size()
    }

    /// Transition probability `A[v][u]` for encoded domain indices.
    pub fn matrix_entry(&self, v: usize, u: usize) -> f64 {
        if v == u {
            self.gamma * self.x
        } else {
            self.x
        }
    }

    /// The matrix as a structured [`UniformDiagonal`] (O(1) storage).
    pub fn as_uniform_diagonal(&self) -> UniformDiagonal {
        UniformDiagonal::gamma_diagonal(self.schema.domain_size(), self.gamma)
    }

    /// The marginalized matrix `A_Cs` for itemsets over the attribute
    /// subset `attrs` (paper Equation 28): a `n_Cs × n_Cs` matrix with
    /// diagonal `γx + (n_C/n_Cs − 1)x` and off-diagonal `(n_C/n_Cs)x`.
    /// It stays in the uniform-diagonal family, with the *same* identity
    /// coefficient `a = x(γ−1)` — which is why FRAPP's condition number
    /// is flat across itemset lengths (paper Figure 4).
    pub fn marginal_matrix(&self, attrs: &[usize]) -> UniformDiagonal {
        let n_c = self.schema.domain_size() as f64;
        let n_cs = self.schema.subdomain_size(attrs) as f64;
        let b = (n_c / n_cs) * self.x;
        UniformDiagonal::new(
            self.schema.subdomain_size(attrs),
            (self.gamma - 1.0) * self.x,
            b,
        )
    }

    /// Probability of emitting the original record unchanged in the
    /// mixture decomposition: `(γ−1)x`.
    pub fn retention_probability(&self) -> f64 {
        (self.gamma - 1.0) * self.x
    }

    /// The retention probability scaled onto the full `u64` range:
    /// exactly `T` of the 2⁶⁴ raw draws keep the index. `T` comes from
    /// the smaller of the two masses, rounded towards less retention:
    /// past `(γ−1)x = ½` that float is `1 − nx` rounded, and scaling it
    /// would leave the non-retained mass `nx` — every off-diagonal
    /// entry — to the rounding error, so `nx` is scaled and rounded up.
    #[inline]
    fn retention_threshold(&self) -> u64 {
        let two_64 = u64::MAX as f64 + 1.0;
        let keep = self.retention_probability();
        if keep <= 0.5 {
            (keep * two_64) as u64
        } else {
            // At least 1 (nx > 0) and at most 2⁶³, so 2⁶⁴ − release fits.
            let release = (self.domain_size() as f64 * self.x * two_64).ceil() as u64;
            0u64.wrapping_sub(release)
        }
    }
}

impl Perturber for GammaDiagonal {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The mixture sampler of the module docs, as a batch of one.
    fn perturb_index(&self, index: usize, rng: &mut dyn RngCore) -> usize {
        let mut slot = [index];
        self.perturb_batch(&mut slot, rng);
        slot[0]
    }

    fn perturb_indices(&self, indices: &mut [usize], rng: &mut dyn RngCore) {
        self.perturb_batch(indices, rng);
    }
}

impl BatchSampler for GammaDiagonal {
    /// The mixture sampler of the module docs, with its parameters
    /// hoisted out of the loop: keep the index on `next_u64() < T`,
    /// else draw a uniform index over the domain.
    fn perturb_batch<R: RngCore + ?Sized>(&self, indices: &mut [usize], rng: &mut R) {
        let threshold = self.retention_threshold();
        let n = self.schema.domain_size();
        for slot in indices {
            debug_assert!(*slot < n);
            if rng.next_u64() >= threshold {
                *slot = rng.gen_range(0..n);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Randomized gamma-diagonal (RAN-GD)
// ---------------------------------------------------------------------

/// The randomized gamma-diagonal matrix of paper Section 4: each client
/// independently draws `r ~ U[−α, α]` and perturbs with the realized
/// matrix `diag = γx + r`, `off = x − r/(n−1)`. The *expected* matrix
/// equals the deterministic [`GammaDiagonal`], which is what the miner
/// uses for reconstruction.
#[derive(Debug, Clone)]
pub struct RandomizedGammaDiagonal {
    base: GammaDiagonal,
    alpha: f64,
}

impl RandomizedGammaDiagonal {
    /// Creates the randomized matrix. `alpha` must be nonnegative and
    /// small enough that every realization is a valid Markov matrix:
    /// `α ≤ γx` (diagonal nonnegative) and `α ≤ (n−1)x` (off-diagonal
    /// nonnegative). In the paper's regimes `n−1 ≫ γ`, so `γx` binds.
    pub fn new(schema: &Schema, gamma: f64, alpha: f64) -> Result<Self> {
        let base = GammaDiagonal::new(schema, gamma)?;
        let n = schema.domain_size() as f64;
        let max_alpha = (gamma * base.x()).min((n - 1.0) * base.x());
        if !(0.0..=max_alpha * (1.0 + 1e-12)).contains(&alpha) {
            return Err(FrappError::InvalidParameter {
                name: "alpha",
                reason: format!("must be in [0, {max_alpha}], got {alpha}"),
            });
        }
        Ok(RandomizedGammaDiagonal { base, alpha })
    }

    /// Convenience constructor with `α` expressed as a fraction of its
    /// natural scale `γx` (the x-axis of the paper's Figure 3).
    pub fn with_alpha_fraction(schema: &Schema, gamma: f64, fraction: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(FrappError::InvalidParameter {
                name: "fraction",
                reason: format!("must be in [0,1], got {fraction}"),
            });
        }
        let x = 1.0 / (gamma + schema.domain_size() as f64 - 1.0);
        RandomizedGammaDiagonal::new(schema, gamma, fraction * gamma * x)
    }

    /// The randomization half-width α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The underlying deterministic matrix (the expectation of the
    /// randomized one) — the matrix the miner reconstructs with.
    pub fn expected(&self) -> &GammaDiagonal {
        &self.base
    }

    /// The realized matrix for a given draw of `r`, as a structured
    /// uniform-diagonal matrix.
    pub fn realized_matrix(&self, r: f64) -> UniformDiagonal {
        let n = self.base.domain_size();
        let off = self.base.x() - r / (n as f64 - 1.0);
        let diag = self.base.gamma() * self.base.x() + r;
        UniformDiagonal::new(n, diag - off, off)
    }

    /// Perturbs an encoded index under a *given* realization `r`
    /// (exposed so tests and experiments can pin the randomization).
    pub fn perturb_index_with_r<R: RngCore + ?Sized>(
        &self,
        index: usize,
        r: f64,
        rng: &mut R,
    ) -> usize {
        let n = self.base.domain_size();
        let n_f = n as f64;
        let diag = self.base.gamma() * self.base.x() + r;
        if diag >= 1.0 / n_f {
            // Mixture: retain with probability k, else uniform over all.
            let k = (diag * n_f - 1.0) / (n_f - 1.0);
            if rng.gen::<f64>() < k {
                index
            } else {
                rng.gen_range(0..n)
            }
        } else {
            // Anti-diagonal regime: with probability q force a change
            // (uniform over the other n−1 indices, by rejection), else
            // uniform over all.
            let q = 1.0 - n_f * diag.max(0.0);
            if rng.gen::<f64>() < q {
                loop {
                    let candidate = rng.gen_range(0..n);
                    if candidate != index {
                        return candidate;
                    }
                }
            } else {
                rng.gen_range(0..n)
            }
        }
    }

    /// Draws the per-record matrix realization `r ~ U[−α, α]` (zero
    /// when `α = 0`, consuming no draw).
    fn draw_r<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.alpha == 0.0 {
            0.0
        } else {
            rng.gen_range(-self.alpha..=self.alpha)
        }
    }
}

impl Perturber for RandomizedGammaDiagonal {
    fn schema(&self) -> &Schema {
        &self.base.schema
    }

    fn perturb_index(&self, index: usize, rng: &mut dyn RngCore) -> usize {
        let mut slot = [index];
        self.perturb_batch(&mut slot, rng);
        slot[0]
    }

    fn perturb_indices(&self, indices: &mut [usize], rng: &mut dyn RngCore) {
        self.perturb_batch(indices, rng);
    }
}

impl BatchSampler for RandomizedGammaDiagonal {
    /// Per record: draw the realization `r`, then sample under it.
    fn perturb_batch<R: RngCore + ?Sized>(&self, indices: &mut [usize], rng: &mut R) {
        for slot in indices {
            debug_assert!(*slot < self.base.domain_size());
            let r = self.draw_r(rng);
            *slot = self.perturb_index_with_r(*slot, r, rng);
        }
    }
}

// ---------------------------------------------------------------------
// Explicit matrix perturber
// ---------------------------------------------------------------------

/// Perturbation by an arbitrary explicit column-stochastic matrix over
/// the full record domain, sampled with a CDF walk (the paper's
/// "straightforward algorithm" of Section 5; `O(|S_V|)` per record).
///
/// Intended for small domains: cross-validating the structured samplers
/// and experimenting with custom matrices in the FRAPP design space.
#[derive(Debug, Clone)]
pub struct ExplicitMatrix {
    schema: Schema,
    matrix: Matrix,
}

impl ExplicitMatrix {
    /// Wraps a matrix; it must be `n × n` for the schema's domain size
    /// `n` and column-stochastic within `1e-9`.
    pub fn new(schema: &Schema, matrix: Matrix) -> Result<Self> {
        let n = schema.domain_size();
        if matrix.rows() != n || matrix.cols() != n {
            return Err(FrappError::InvalidParameter {
                name: "matrix",
                reason: format!(
                    "expected {n}x{n} for the schema domain, got {}x{}",
                    matrix.rows(),
                    matrix.cols()
                ),
            });
        }
        if !matrix.is_column_stochastic(1e-9) {
            return Err(FrappError::InvalidParameter {
                name: "matrix",
                reason: "matrix is not column-stochastic".into(),
            });
        }
        Ok(ExplicitMatrix {
            schema: schema.clone(),
            matrix,
        })
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }
}

impl Perturber for ExplicitMatrix {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The CDF walk down column `index` of the matrix.
    fn perturb_index(&self, index: usize, rng: &mut dyn RngCore) -> usize {
        debug_assert!(index < self.schema.domain_size());
        let r: f64 = rng.gen::<f64>();
        let mut acc = 0.0;
        let n = self.schema.domain_size();
        let mut chosen = n - 1;
        for v in 0..n {
            acc += self.matrix[(v, index)];
            if r < acc {
                chosen = v;
                break;
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema_small() -> Schema {
        Schema::new(vec![("a", 3), ("b", 2)]).unwrap()
    }

    /// Empirical transition distribution from a fixed original record.
    fn empirical_distribution(
        f: impl Fn(&mut StdRng) -> Vec<u32>,
        schema: &Schema,
        trials: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; schema.domain_size()];
        for _ in 0..trials {
            let v = f(&mut rng);
            counts[schema.encode(&v).unwrap()] += 1;
        }
        counts.iter().map(|&c| c as f64 / trials as f64).collect()
    }

    /// Chi-square-style check that empirical probabilities match the
    /// expected column of the transition matrix.
    fn assert_distribution_close(empirical: &[f64], expected: &[f64], trials: usize) {
        for (i, (e, x)) in empirical.iter().zip(expected).enumerate() {
            // Standard error of a Bernoulli proportion.
            let se = (x * (1.0 - x) / trials as f64).sqrt();
            assert!(
                (e - x).abs() < 6.0 * se + 1e-4,
                "cell {i}: empirical {e}, expected {x} (se {se})"
            );
        }
    }

    #[test]
    fn gamma_diagonal_rejects_gamma_at_most_one() {
        let s = schema_small();
        assert!(GammaDiagonal::new(&s, 1.0).is_err());
        assert!(GammaDiagonal::new(&s, 0.5).is_err());
    }

    #[test]
    fn gamma_diagonal_rejects_non_finite_gamma() {
        // gamma = inf would give x = 0 and NaN reconstruction
        // coefficients; the service layer feeds this from untrusted
        // input, so it must be a validation error, not silent NaN.
        let s = schema_small();
        assert!(GammaDiagonal::new(&s, f64::INFINITY).is_err());
        assert!(GammaDiagonal::new(&s, f64::NAN).is_err());
    }

    #[test]
    fn gamma_diagonal_matrix_entries() {
        let s = schema_small();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let x = 1.0 / (19.0 + 5.0);
        assert!((gd.matrix_entry(0, 0) - 19.0 * x).abs() < 1e-15);
        assert!((gd.matrix_entry(1, 0) - x).abs() < 1e-15);
        assert!(gd.as_uniform_diagonal().is_markov(1e-12));
    }

    #[test]
    fn from_requirement_uses_gamma_19() {
        let s = schema_small();
        let gd = GammaDiagonal::from_requirement(&s, &PrivacyRequirement::paper_default());
        assert!((gd.gamma() - 19.0).abs() < 1e-12);
    }

    #[test]
    fn mixture_sampler_matches_matrix_distribution() {
        let s = schema_small();
        let gd = GammaDiagonal::new(&s, 4.0).unwrap();
        let record = vec![2u32, 1u32];
        let u = s.encode(&record).unwrap();
        let trials = 200_000;
        let emp = empirical_distribution(
            |rng| gd.perturb_record(&record, rng).unwrap(),
            &s,
            trials,
            42,
        );
        let expected: Vec<f64> = (0..s.domain_size())
            .map(|v| gd.matrix_entry(v, u))
            .collect();
        assert_distribution_close(&emp, &expected, trials);
    }

    #[test]
    fn explicit_matrix_sampler_matches_gamma_diagonal() {
        let s = schema_small();
        let gd = GammaDiagonal::new(&s, 4.0).unwrap();
        let dense = gd.as_uniform_diagonal().to_dense();
        let explicit = ExplicitMatrix::new(&s, dense).unwrap();
        let record = vec![0u32, 1u32];
        let u = s.encode(&record).unwrap();
        let trials = 200_000;
        let emp = empirical_distribution(
            |rng| explicit.perturb_record(&record, rng).unwrap(),
            &s,
            trials,
            44,
        );
        let expected: Vec<f64> = (0..s.domain_size())
            .map(|v| gd.matrix_entry(v, u))
            .collect();
        assert_distribution_close(&emp, &expected, trials);
    }

    #[test]
    fn explicit_matrix_validates_shape_and_stochasticity() {
        let s = schema_small();
        assert!(ExplicitMatrix::new(&s, Matrix::identity(3)).is_err());
        let bad = Matrix::filled(6, 6, 0.2); // columns sum to 1.2
        assert!(ExplicitMatrix::new(&s, bad).is_err());
        let good = Matrix::filled(6, 6, 1.0 / 6.0);
        assert!(ExplicitMatrix::new(&s, good).is_ok());
    }

    #[test]
    fn perturb_rejects_invalid_record() {
        let s = schema_small();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(gd.perturb_record(&[5, 0], &mut rng).is_err());
        assert!(gd.perturb_record(&[0], &mut rng).is_err());
    }

    #[test]
    fn marginal_matrix_is_markov_and_matches_equation_28() {
        let s = Schema::new(vec![("a", 3), ("b", 2), ("c", 4)]).unwrap();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let attrs = [0usize, 2usize];
        let m = gd.marginal_matrix(&attrs);
        let n_c = 24.0;
        let n_cs = 12.0;
        let x = gd.x();
        assert!((m.off_diagonal() - (n_c / n_cs) * x).abs() < 1e-15);
        assert!((m.diagonal() - (19.0 * x + (n_c / n_cs - 1.0) * x)).abs() < 1e-15);
        assert!(m.is_markov(1e-12));
    }

    #[test]
    fn marginal_matrix_condition_number_is_flat_across_subsets() {
        // The paper's key structural result behind Figure 4: cond(A_Cs)
        // equals cond(A) = (γ+n_C−1)/(γ−1) for every subset.
        let s = Schema::new(vec![
            ("a", 4),
            ("b", 5),
            ("c", 5),
            ("d", 5),
            ("e", 2),
            ("f", 2),
        ])
        .unwrap();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let full_cond = gd.as_uniform_diagonal().condition_number();
        for attrs in [vec![0], vec![0, 1], vec![1, 2, 3], vec![0, 1, 2, 3, 4, 5]] {
            let c = gd.marginal_matrix(&attrs).condition_number();
            assert!(
                (c - full_cond).abs() < 1e-9 * full_cond,
                "subset {attrs:?}: {c} vs {full_cond}"
            );
        }
    }

    #[test]
    fn marginal_of_all_attributes_is_original() {
        let s = schema_small();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let m = gd.marginal_matrix(&[0, 1]);
        let orig = gd.as_uniform_diagonal();
        assert!((m.diagonal() - orig.diagonal()).abs() < 1e-15);
        assert!((m.off_diagonal() - orig.off_diagonal()).abs() < 1e-15);
    }

    #[test]
    fn randomized_alpha_validation() {
        let s = schema_small();
        let x = 1.0 / (19.0 + 5.0);
        assert!(RandomizedGammaDiagonal::new(&s, 19.0, 0.0).is_ok());
        assert!(RandomizedGammaDiagonal::new(&s, 19.0, -0.1).is_err());
        // n = 6, so (n−1)x = 5x binds before γx = 19x here.
        assert!(RandomizedGammaDiagonal::new(&s, 19.0, 5.0 * x).is_ok());
        assert!(RandomizedGammaDiagonal::new(&s, 19.0, 5.1 * x).is_err());
    }

    #[test]
    fn randomized_with_fraction_on_large_domain() {
        let s = Schema::new(vec![("a", 40), ("b", 50)]).unwrap();
        let r = RandomizedGammaDiagonal::with_alpha_fraction(&s, 19.0, 0.5).unwrap();
        let x = 1.0 / (19.0 + 2000.0 - 1.0);
        assert!((r.alpha() - 9.5 * x).abs() < 1e-15);
        assert!(RandomizedGammaDiagonal::with_alpha_fraction(&s, 19.0, 1.5).is_err());
    }

    #[test]
    fn realized_matrix_is_markov_over_alpha_range() {
        let s = Schema::new(vec![("a", 40), ("b", 50)]).unwrap();
        let rgd = RandomizedGammaDiagonal::with_alpha_fraction(&s, 19.0, 1.0).unwrap();
        for &r in &[
            -rgd.alpha(),
            -rgd.alpha() / 2.0,
            0.0,
            rgd.alpha() / 2.0,
            rgd.alpha(),
        ] {
            let m = rgd.realized_matrix(r);
            assert!(m.is_markov(1e-9), "not Markov at r={r}");
        }
    }

    #[test]
    fn zero_alpha_randomized_equals_deterministic() {
        let s = schema_small();
        let rgd = RandomizedGammaDiagonal::new(&s, 19.0, 0.0).unwrap();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let record = vec![2u32, 0u32];
        let u = s.encode(&record).unwrap();
        let trials = 100_000;
        let emp = empirical_distribution(
            |rng| rgd.perturb_record(&record, rng).unwrap(),
            &s,
            trials,
            47,
        );
        let expected: Vec<f64> = (0..s.domain_size())
            .map(|v| gd.matrix_entry(v, u))
            .collect();
        assert_distribution_close(&emp, &expected, trials);
    }

    /// Empirical per-cell counts of `trials` draws from an index-domain
    /// sampler, starting from a fixed source index.
    fn index_counts(
        f: impl Fn(&mut StdRng) -> usize,
        domain: usize,
        trials: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0.0; domain];
        for _ in 0..trials {
            counts[f(&mut rng)] += 1.0;
        }
        counts
    }

    /// Pearson chi-squared statistic of observed counts against an
    /// expected probability vector.
    fn chi_squared(observed: &[f64], expected_probs: &[f64], trials: usize) -> f64 {
        observed
            .iter()
            .zip(expected_probs)
            .map(|(&o, &p)| {
                let e = p * trials as f64;
                (o - e).powi(2) / e
            })
            .sum()
    }

    #[test]
    fn index_sampler_matches_matrix_distribution_chi_squared() {
        // The index-domain fast path must sample exactly the
        // gamma-diagonal column: chi-squared against the matrix with
        // df = 5 (threshold far beyond the 99.9th percentile ≈ 20.5).
        let s = schema_small();
        let gd = GammaDiagonal::new(&s, 4.0).unwrap();
        let u = s.encode(&[2, 1]).unwrap();
        let trials = 200_000;
        let observed = index_counts(|rng| gd.perturb_index(u, rng), s.domain_size(), trials, 48);
        let expected: Vec<f64> = (0..s.domain_size())
            .map(|v| gd.matrix_entry(v, u))
            .collect();
        let x2 = chi_squared(&observed, &expected, trials);
        assert!(x2 < 30.0, "chi-squared {x2} too large for df=5");
    }

    #[test]
    fn randomized_index_sampler_matches_realized_matrix() {
        let s = schema_small();
        let x = 1.0 / 24.0;
        let rgd = RandomizedGammaDiagonal::new(&s, 19.0, 4.0 * x).unwrap();
        let u = s.encode(&[1, 1]).unwrap();
        let r_fixed = -3.0 * x;
        let trials = 200_000;
        let observed = index_counts(
            |rng| rgd.perturb_index_with_r(u, r_fixed, rng),
            s.domain_size(),
            trials,
            51,
        );
        let m = rgd.realized_matrix(r_fixed);
        let expected: Vec<f64> = (0..s.domain_size())
            .map(|v| {
                if v == u {
                    m.diagonal()
                } else {
                    m.off_diagonal()
                }
            })
            .collect();
        let x2 = chi_squared(&observed, &expected, trials);
        assert!(x2 < 30.0, "chi-squared {x2} too large for df=5");
    }

    #[test]
    fn randomized_index_sampler_anti_diagonal_regime() {
        // n = 6, gamma = 2 ⇒ x = 1/7, diag = 2/7; r = −0.2 pushes the
        // realized diagonal to ≈ 0.0857, below 1/n = 1/6.
        let s = schema_small();
        let rgd = RandomizedGammaDiagonal::new(&s, 2.0, 0.25).unwrap();
        let u = s.encode(&[0, 0]).unwrap();
        let r_fixed = -0.2;
        let m = rgd.realized_matrix(r_fixed);
        assert!(m.diagonal() < 1.0 / 6.0);
        let trials = 200_000;
        let observed = index_counts(
            |rng| rgd.perturb_index_with_r(u, r_fixed, rng),
            s.domain_size(),
            trials,
            52,
        );
        let expected: Vec<f64> = (0..s.domain_size())
            .map(|v| {
                if v == u {
                    m.diagonal()
                } else {
                    m.off_diagonal()
                }
            })
            .collect();
        let x2 = chi_squared(&observed, &expected, trials);
        assert!(x2 < 30.0, "chi-squared {x2} too large for df=5");
    }

    #[test]
    fn perturb_dataset_rejects_invalid_batches_before_sampling() {
        let s = schema_small();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        // An invalid record anywhere fails the whole batch up front.
        let bad = vec![vec![0, 0], vec![9, 9], vec![1, 1]];
        assert!(gd.perturb_dataset(&bad, &mut rng).is_err());
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(11).next_u64());
    }

    #[test]
    fn perturb_dataset_perturbs_every_record() {
        let s = schema_small();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let records: Vec<Vec<u32>> = (0..50).map(|i| vec![i % 3, i % 2]).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let perturbed = gd.perturb_dataset(&records, &mut rng).unwrap();
        assert_eq!(perturbed.len(), records.len());
        for v in &perturbed {
            assert!(s.validate_record(v).is_ok());
        }
    }

    #[test]
    fn record_and_dataset_apis_replay_the_index_sampler() {
        // perturb_record and perturb_dataset are encode → perturb_index
        // (perturb_indices) → decode for every perturber, so one seed
        // gives the same records through all three entry points.
        let s = schema_small();
        let gd = GammaDiagonal::new(&s, 4.0).unwrap();
        // γ = 2, α = 0.25 on n = 6 reaches both RAN-GD regimes: the
        // anti-diagonal one for r < 1/6 − 2/7.
        let rgd = RandomizedGammaDiagonal::new(&s, 2.0, 0.25).unwrap();
        let explicit = ExplicitMatrix::new(&s, gd.as_uniform_diagonal().to_dense()).unwrap();
        let records: Vec<Vec<u32>> = (0..600).map(|i| s.decode(i % s.domain_size())).collect();
        let perturbers: [(&str, &dyn Perturber); 3] =
            [("DET-GD", &gd), ("RAN-GD", &rgd), ("explicit", &explicit)];
        for (name, p) in perturbers {
            let batch = p
                .perturb_dataset(&records, &mut StdRng::seed_from_u64(9))
                .unwrap();
            let mut by_record = StdRng::seed_from_u64(9);
            let mut by_index = StdRng::seed_from_u64(9);
            for (i, (record, batched)) in records.iter().zip(&batch).enumerate() {
                let via_record = p.perturb_record(record, &mut by_record).unwrap();
                let index = p.perturb_index(s.encode(record).unwrap(), &mut by_index);
                assert_eq!(via_record, s.decode(index), "{name}, record {i}");
                assert_eq!(&via_record, batched, "{name}, record {i}");
            }
        }
    }

    const TWO_53: u128 = 1 << 53;
    const TWO_64: u128 = 1 << 64;
    /// The unit roundoff of `f64`, 2⁻⁵³.
    const U: f64 = f64::EPSILON / 2.0;

    /// An RNG that replays fixed raw draws (and panics past their end).
    struct Replay(Vec<u64>);

    impl RngCore for Replay {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.remove(0)
        }
    }

    /// The least number of raw draws the `rand` shim's bounded draw
    /// (Lemire's multiply-shift `(x·n) >> 64`) maps to one value of
    /// `0..n`. Value `v` gets the draws from `⌈v·2⁶⁴/n⌉` up to
    /// `⌈(v+1)·2⁶⁴/n⌉`, which is ⌊2⁶⁴/n⌋ or ⌈2⁶⁴/n⌉ of them; the
    /// boundaries are checked against the shim.
    fn lemire_least_preimages(n: usize) -> u128 {
        let first_draw = |v: u128| (v * TWO_64).div_ceil(n as u128) as u64;
        for v in [1, n / 2, n - 1] {
            let x = first_draw(v as u128);
            assert_eq!(Replay(vec![x]).gen_range(0..n), v, "n = {n}");
            assert_eq!(Replay(vec![x - 1]).gen_range(0..n), v - 1, "n = {n}");
        }
        TWO_64 / n as u128
    }

    /// DET-GD's largest realised ratio `P(v|u₁)/P(v|u₂)`, minus one, as
    /// an exact fraction. The sampler keeps exactly the `T` raw draws
    /// below its threshold, and otherwise lands on `v` with probability
    /// `c_v/2⁶⁴`, `c_v ≥ L = ⌊2⁶⁴/n⌋`; the ratio peaks at `v = u₁` with
    /// `c = L`: `R − 1 = T·2⁶⁴ / ((2⁶⁴ − T)·L)`.
    fn det_gd_realised_excess(gd: &GammaDiagonal) -> (u128, u128) {
        let n = gd.domain_size();
        let t = gd.retention_threshold();
        if t > 0 {
            assert_eq!(gd.perturb_index(n - 1, &mut Replay(vec![t - 1])), n - 1);
        }
        assert_eq!(gd.perturb_index(n - 1, &mut Replay(vec![t, 0])), 0);
        let t = t as u128;
        (t * TWO_64, (TWO_64 - t) * lemire_least_preimages(n))
    }

    /// Holds DET-GD's realised ratio to γ within the slack derived in
    /// ARCHITECTURE.md (section 2, "The mechanism's realised matrix"):
    ///
    /// * Threshold rounding, `12u`. The smaller mass, `(γ−1)x` or `nx`,
    ///   carries at most 5.5 roundings (`x` 3.5, `γ−1` one, the product
    ///   one), and the odds `k/(1−k)` at most twice its relative error
    ///   because that mass is ≤ ½: 11u, and 12u with the second-order
    ///   terms. The 2⁶⁴ grid rounds towards less retention, so it only
    ///   lowers the ratio — by at most `2⁻⁶⁴/(s(1−s))` relative, `s`
    ///   the smaller mass.
    /// * Lemire, `1/L`: `2⁶⁴/(nL) − 1 < 1/L`, `L = ⌊2⁶⁴/n⌋`.
    ///
    /// `R − 1 = (γ−1) · (odds ratio) · 2⁶⁴/(nL)`, so
    /// `R ≤ γ(1+ε)` with `ε = (1+12u)(1+1/L) − 1`. This test evaluates
    /// `R` with four roundings and each bound with three, so both
    /// sides get 7u more.
    fn assert_det_gd_within_slack(schema: &Schema, gamma: f64) {
        let n = schema.domain_size();
        let gd = GammaDiagonal::new(schema, gamma).unwrap();
        let (num, den) = det_gd_realised_excess(&gd);
        let excess = num as f64 / den as f64;
        let ratio = 1.0 + excess;
        let eps = (1.0 + 12.0 * U) * (1.0 + 1.0 / lemire_least_preimages(n) as f64) - 1.0;
        assert!(
            ratio <= gamma * (1.0 + eps + 7.0 * U),
            "n = {n}, γ = {gamma:e}: realised ratio {ratio:e} = γ·{:e}, ε = {eps:e}",
            ratio / gamma
        );
        let s = gd.retention_probability().min(n as f64 * gd.x());
        let grid = 2f64.powi(-64) / (s * (1.0 - s));
        assert!(
            excess >= (gamma - 1.0) * (1.0 - (12.0 + 7.0) * U - grid),
            "n = {n}, γ = {gamma:e}: realised excess {excess:e} below γ − 1"
        );
    }

    /// The paper's schemas: CENSUS (Table 1, n = 2000) and HEALTH
    /// (Table 2, n = 7500), which the benchmark also serves, and
    /// Section 5's 31 boolean attributes (n = 2³¹).
    fn corpus_schemas() -> Vec<Schema> {
        let cards = |cs: &[u32]| Schema::new(cs.iter().map(|&c| ("a", c)).collect()).unwrap();
        vec![
            cards(&[4, 5, 5, 5, 2, 2]),
            cards(&[5, 5, 5, 3, 2, 2, 5]),
            cards(&[2; 31]),
        ]
    }

    #[test]
    fn gamma_diagonal_realised_matrix_is_within_derived_slack_of_gamma() {
        let mut schemas = corpus_schemas();
        for n in [2u32, 3, 7, 1 << 20, 3 * (1 << 20) + 7, 1 << 31] {
            schemas.push(Schema::new(vec![("a", n)]).unwrap());
        }
        let mut gammas = vec![1.0 + 1e-7, 1.0 + 1e-3, 1.5, 2.0, 3.0, 19.0, 100.0];
        // 1e16 at n = 2 is the case the plain scaling of (γ−1)x broke.
        gammas.extend((3..=20).map(|e| 10f64.powi(e)));
        gammas.extend([1e50, 1e100, 1e200, 1e300]);
        for schema in &schemas {
            // The seam between the two threshold formulas: (γ−1)x = ½.
            let seam = schema.domain_size() as f64 + 1.0;
            let seams = [seam * (1.0 - 4.0 * U), seam, seam * (1.0 + 4.0 * U)];
            for &gamma in gammas.iter().chain(&seams) {
                assert_det_gd_within_slack(schema, gamma);
            }
        }
    }

    /// How many of the 2⁵³ float draws take `perturb_index_with_r`'s
    /// first branch (keep the index in the mixture regime, force a
    /// change in the anti-diagonal one), and whether the regime is the
    /// mixture — both read off the sampler with replayed draws.
    /// `gen::<f64>()` is `(x >> 11)/2⁵³`.
    fn ran_gd_first_branch(rgd: &RandomizedGammaDiagonal, r: f64) -> (u128, bool) {
        let last = rgd.expected().domain_size() - 1;
        let run = |draws: Vec<u64>| rgd.perturb_index_with_r(0, r, &mut Replay(draws));
        // A zero draw takes the first branch: the mixture keeps index 0,
        // the anti-diagonal regime rejects the bounded draw 0.
        let mixture = run(vec![0, 0, u64::MAX]) == 0;
        let taken = |j: u128| {
            let draw = (j as u64) << 11;
            if mixture {
                run(vec![draw, u64::MAX]) == 0
            } else {
                run(vec![draw, 0, u64::MAX]) == last
            }
        };
        let (mut lo, mut hi) = (0, TWO_53);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if taken(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo, mixture)
    }

    #[test]
    fn randomized_realised_matrix_matches_realized_matrix_within_derived_slack() {
        let mut regimes = [false; 2];
        for schema in corpus_schemas() {
            let n = schema.domain_size();
            for fraction in [0.5, 0.99] {
                let rgd =
                    RandomizedGammaDiagonal::with_alpha_fraction(&schema, 19.0, fraction).unwrap();
                for r in [-rgd.alpha(), 0.0, rgd.alpha()] {
                    let (a, mixture) = ran_gd_first_branch(&rgd, r);
                    regimes[mixture as usize] = true;
                    let m = rgd.realized_matrix(r);
                    let (d, o) = (m.diagonal(), m.off_diagonal());
                    let least = lemire_least_preimages(n);
                    // The largest realised ratio minus one, exactly:
                    // diagonal over off-diagonal in the mixture, the
                    // reverse in the anti-diagonal regime, where the
                    // forced change rejects the source's c ≤ ⌈2⁶⁴/n⌉.
                    let (num, den, branch) = if mixture {
                        (a * TWO_64, (TWO_53 - a) * least, d - o)
                    } else {
                        let most = TWO_64.div_ceil(n as u128);
                        (
                            a * TWO_64,
                            (TWO_53 - a) * (TWO_64 - most),
                            (o - d) * (n - 1) as f64,
                        )
                    };
                    let realised = num as f64 / den as f64;
                    let ideal = (d - o).abs() / d.min(o);
                    // The branch probability k (or q) is rounded up to
                    // the 2⁻⁵³ grid; Lemire adds 1/L. 64u bounds the f64
                    // arithmetic: the sampler's k or q (3 roundings) and
                    // realized_matrix's entries (about 10), amplified at
                    // most 1.25× by the d − o difference at these r, and
                    // this comparison (7).
                    let eps = U / (branch * (1.0 - branch)) + 1.0 / least as f64 + 64.0 * U;
                    assert!(
                        (realised / ideal - 1.0).abs() <= eps,
                        "n = {n}, r = {r:e}: realised excess {realised:e}, \
                         realized_matrix {ideal:e}, ε = {eps:e}"
                    );
                }
            }
        }
        assert_eq!(regimes, [true, true], "both regimes exercised");
    }
}
