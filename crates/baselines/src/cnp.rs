//! The Cut-and-Paste randomization operator
//! (Evfimievski, Srikant, Agrawal & Gehrke, KDD 2002).
//!
//! **Operator.** Given a transaction `t` with `m` items over a universe
//! of `M_b` items and parameters `(K, ρ)`:
//!
//! 1. draw `j` uniformly from `{0, …, K}`, truncated to `j = min(j, m)`
//!    (so when `m < K` the probability mass of `{m, …, K}` accumulates
//!    on `j = m`, matching the FRAPP paper's `1 − M/(K+1)` weight);
//! 2. select `j` items of `t` uniformly at random without replacement
//!    and place them in the output `t′`;
//! 3. insert every *other* universe item (whether or not it was in `t`)
//!    into `t′` independently with probability ρ.
//!
//! In the FRAPP setting every categorical record maps to a boolean
//! transaction with exactly `m = M` items (one category per attribute).
//!
//! **Note on the paper's Equation 12.** The FRAPP rendering of the
//! Cut-and-Paste matrix is garbled by the arXiv text extraction, so this
//! implementation derives everything from the operator definition above;
//! the transition matrices are Monte-Carlo validated against the
//! simulated operator in this module's tests.
//!
//! **Reconstruction.** For a `k`-itemset `A`, the number of `A`-items in
//! the output depends on the input only through `l = |t ∩ A|`, giving a
//! `(k+1)×(k+1)` column-stochastic transition matrix
//!
//! ```text
//! P[l′|l] = Σ_j p_j · Σ_q Hyp(q; M, l, j) · C(k−q, l′−q) ρ^{l′−q} (1−ρ)^{k−l′}
//! ```
//!
//! (hypergeometric keep of `q` of the `l` present items, binomial
//! ρ-insertion of the remaining `k−q` itemset slots). Supports are
//! reconstructed by solving `P · X̂ = Y` over the observed
//! intersection-size histogram — the "partial supports" method of
//! KDD 2002. At strict privacy settings `P` is severely
//! ill-conditioned, which is why C&P stops finding itemsets beyond
//! length 3 in the FRAPP paper's Figures 1–2.

use crate::combinatorics::{binomial_pmf, hypergeometric};
use frapp_core::schema::Schema;
use frapp_core::{FrappError, Result};
use frapp_linalg::{lu, Matrix};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::RngCore;

/// The Cut-and-Paste perturbation scheme over a categorical schema's
/// boolean mapping.
#[derive(Debug, Clone)]
pub struct CutAndPaste {
    schema: Schema,
    /// The cutoff `K`: `j` is drawn uniformly from `{0, …, K}`.
    k_cutoff: usize,
    /// Insertion probability ρ.
    rho: f64,
}

impl CutAndPaste {
    /// Creates the operator with explicit parameters. `rho ∈ (0, 1)`.
    pub fn new(schema: &Schema, k_cutoff: usize, rho: f64) -> Result<Self> {
        if !(rho > 0.0 && rho < 1.0) {
            return Err(FrappError::InvalidParameter {
                name: "rho",
                reason: format!("must be in (0,1), got {rho}"),
            });
        }
        Ok(CutAndPaste {
            schema: schema.clone(),
            k_cutoff,
            rho,
        })
    }

    /// The paper's experimental configuration at `γ = 19`:
    /// `K = 3, ρ = 0.494` (Section 7).
    pub fn paper_params(schema: &Schema) -> Result<Self> {
        CutAndPaste::new(schema, 3, 0.494)
    }

    /// Selects, for a given `K`, the smallest ρ (most accurate within
    /// the family; larger insertion noise hurts accuracy) whose
    /// worst-case record-level amplification is within `γ`, via
    /// bisection on [`CutAndPaste::amplification_upper_bound`]. Returns
    /// an error when even `ρ → 1` cannot satisfy the bound.
    pub fn from_gamma(schema: &Schema, k_cutoff: usize, gamma: f64) -> Result<Self> {
        let m = schema.num_attributes();
        let feasible = |rho: f64| Self::amplification_upper_bound(k_cutoff, m, rho) <= gamma;
        if !feasible(1.0 - 1e-9) {
            return Err(FrappError::InvalidParameter {
                name: "gamma",
                reason: format!("K={k_cutoff} cannot satisfy gamma={gamma} for any rho"),
            });
        }
        let (mut lo, mut hi) = (1e-9, 1.0 - 1e-9);
        // Bisect for the smallest feasible rho (the bound is decreasing
        // in rho).
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        CutAndPaste::new(schema, k_cutoff, hi)
    }

    /// Worst-case within-row entry ratio of the record-level transition
    /// matrix (the amplification of paper Equation 2) under this
    /// operator for records with exactly `m` items:
    /// `Σ_j p_j ρ^{−j} / p_0` — attained by an output `v` containing all
    /// of one record's items versus a record disjoint from `v`.
    pub fn amplification_upper_bound(k_cutoff: usize, m: usize, rho: f64) -> f64 {
        let pj = Self::cut_distribution(k_cutoff, m);
        let total: f64 = pj
            .iter()
            .enumerate()
            .map(|(j, &p)| p * rho.powi(-(j as i32)))
            .sum();
        total / pj[0]
    }

    /// The distribution of the cut size `j`: uniform on `{0,…,K}`
    /// truncated at `m` (mass of `{m,…,K}` collapses onto `j = m`).
    fn cut_distribution(k_cutoff: usize, m: usize) -> Vec<f64> {
        let kk = k_cutoff as f64;
        let top = k_cutoff.min(m);
        let mut pj = vec![0.0; top + 1];
        for (j, p) in pj.iter_mut().enumerate() {
            *p = if j < top || m > k_cutoff {
                1.0 / (kk + 1.0)
            } else {
                // j == m <= K: collect the tail {m, …, K}.
                (kk - m as f64 + 1.0) / (kk + 1.0)
            };
        }
        pj
    }

    /// The cutoff `K`.
    pub fn k_cutoff(&self) -> usize {
        self.k_cutoff
    }

    /// The insertion probability ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The schema whose boolean mapping is perturbed.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Perturbs a categorical record into a boolean transaction row.
    pub fn perturb_record(&self, record: &[u32], rng: &mut dyn RngCore) -> Result<Vec<bool>> {
        self.schema.validate_record(record)?;
        let width = self.schema.boolean_width();
        // The record's item list (column ids), exactly M items.
        let items: Vec<usize> = record
            .iter()
            .enumerate()
            .map(|(j, &v)| self.schema.boolean_offset(j) + v as usize)
            .collect();
        let m = items.len();

        // Step 1: cut size.
        let mut j = rng.gen_range(0..=self.k_cutoff);
        if j > m {
            j = m;
        }
        // Step 2: keep j items uniformly without replacement.
        let mut shuffled = items.clone();
        shuffled.partial_shuffle(rng, j);
        let kept = &shuffled[..j];

        let mut out = vec![false; width];
        for &c in kept {
            out[c] = true;
        }
        // Step 3: rho-insertion of every non-kept universe item.
        for bit in out.iter_mut() {
            if !*bit && rng.gen::<f64>() < self.rho {
                *bit = true;
            }
        }
        Ok(out)
    }

    /// Perturbs a whole dataset.
    pub fn perturb_dataset(
        &self,
        records: &[Vec<u32>],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Vec<bool>>> {
        records
            .iter()
            .map(|r| self.perturb_record(r, rng))
            .collect()
    }

    /// The `(k+1)×(k+1)` column-stochastic transition matrix over
    /// itemset intersection sizes: entry `(l′, l)` is the probability
    /// that a record with `l` of the `k` itemset items produces output
    /// with `l′` of them. `m` is the transaction size (`= M` for
    /// categorical records).
    pub fn itemset_transition_matrix(&self, k: usize, m: usize) -> Matrix {
        let pj = Self::cut_distribution(self.k_cutoff, m);
        Matrix::from_fn(k + 1, k + 1, |l_out, l_in| {
            if l_in > m {
                // A record with m items cannot contain more than m of
                // the itemset; keep the matrix well-formed by making
                // impossible columns deterministic.
                return f64::from(l_out == l_in);
            }
            let mut total = 0.0;
            for (j, &p_j) in pj.iter().enumerate() {
                for q in 0..=j.min(l_in).min(l_out) {
                    let keep = hypergeometric(q, m, l_in, j);
                    if keep == 0.0 {
                        continue;
                    }
                    let insert = if l_out >= q {
                        binomial_pmf(l_out - q, k - q, self.rho)
                    } else {
                        0.0
                    };
                    total += p_j * keep * insert;
                }
            }
            total
        })
    }

    /// Condition number (2-norm) of the `k`-itemset transition matrix —
    /// the quantity plotted for C&P in the paper's Figure 4.
    pub fn itemset_condition_number(&self, k: usize) -> f64 {
        let m = self.schema.num_attributes();
        frapp_linalg::eigen::condition_number_2_robust(&self.itemset_transition_matrix(k, m))
            .unwrap_or(f64::INFINITY)
    }

    /// Counts the intersection-size histogram `Y[l′]` of a candidate
    /// itemset (given as boolean column ids) over a perturbed dataset.
    pub fn count_intersections(rows: &[Vec<bool>], columns: &[usize]) -> Vec<f64> {
        let k = columns.len();
        let mut counts = vec![0.0; k + 1];
        for row in rows {
            let l = columns.iter().filter(|&&c| row[c]).count();
            counts[l] += 1.0;
        }
        counts
    }

    /// Estimated fractional support of a `k`-itemset from the perturbed
    /// dataset: solve `P X̂ = Y` over the intersection-size histogram
    /// and return `X̂[k]/N` (the partial-supports method of KDD 2002).
    pub fn estimate_support(&self, rows: &[Vec<bool>], columns: &[usize]) -> Result<f64> {
        if rows.is_empty() {
            return Ok(0.0);
        }
        let counts = Self::count_intersections(rows, columns);
        let p = self.itemset_transition_matrix(columns.len(), self.schema.num_attributes());
        let xhat = lu::solve(&p, &counts).map_err(FrappError::from)?;
        Ok(xhat[columns.len()] / rows.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    fn schema() -> Schema {
        // 3 attributes -> M = 3 items per transaction, Mb = 7 columns.
        Schema::new(vec![("a", 2), ("b", 2), ("c", 3)]).unwrap()
    }

    #[test]
    fn rejects_degenerate_rho() {
        let s = schema();
        assert!(CutAndPaste::new(&s, 3, 0.0).is_err());
        assert!(CutAndPaste::new(&s, 3, 1.0).is_err());
        assert!(CutAndPaste::new(&s, 3, 0.5).is_ok());
    }

    #[test]
    fn cut_distribution_sums_to_one() {
        for (k, m) in [(3usize, 6usize), (3, 2), (0, 5), (5, 3)] {
            let pj = CutAndPaste::cut_distribution(k, m);
            assert_close(pj.iter().sum::<f64>(), 1.0, 1e-12);
            assert_eq!(pj.len(), k.min(m) + 1);
        }
    }

    #[test]
    fn cut_distribution_truncation_collapses_tail() {
        // K = 5, m = 3: P(j=3) = (5−3+1)/6 = 3/6.
        let pj = CutAndPaste::cut_distribution(5, 3);
        assert_close(pj[3], 0.5, 1e-12);
        assert_close(pj[0], 1.0 / 6.0, 1e-12);
    }

    #[test]
    fn transition_matrix_is_column_stochastic() {
        let s = schema();
        let cnp = CutAndPaste::new(&s, 3, 0.494).unwrap();
        for k in 1..=3 {
            let p = cnp.itemset_transition_matrix(k, 3);
            assert!(p.is_column_stochastic(1e-10), "k = {k}");
        }
    }

    #[test]
    fn transition_matrix_monte_carlo_validation() {
        // The analytic P[l'|l] must match the simulated operator. Build
        // records with known intersection l against a fixed itemset.
        let s = schema();
        let cnp = CutAndPaste::new(&s, 2, 0.4).unwrap();
        // Itemset: columns {0, 2, 4} = (a=0), (b=0), (c=0): k = 3.
        let columns = [0usize, 2, 4];
        // Record [0,0,0] has items {0,2,4}: l = 3.
        // Record [0,0,2] has items {0,2,6}: l = 2.
        // Record [1,1,1] has items {1,3,5}: l = 0.
        for (record, l_in) in [([0u32, 0, 0], 3usize), ([0, 0, 2], 2), ([1, 1, 1], 0)] {
            let trials = 120_000;
            let mut rng = StdRng::seed_from_u64(100 + l_in as u64);
            let mut hist = [0.0; 4];
            for _ in 0..trials {
                let row = cnp.perturb_record(&record, &mut rng).unwrap();
                let l_out = columns.iter().filter(|&&c| row[c]).count();
                hist[l_out] += 1.0;
            }
            let p = cnp.itemset_transition_matrix(3, 3);
            for l_out in 0..4 {
                let expected = p[(l_out, l_in)];
                let emp = hist[l_out] / trials as f64;
                let se = (expected * (1.0 - expected) / trials as f64).sqrt();
                assert!(
                    (emp - expected).abs() < 6.0 * se + 1e-4,
                    "l={l_in}->l'={l_out}: empirical {emp}, analytic {expected}"
                );
            }
        }
    }

    #[test]
    fn amplification_bound_monotone_decreasing_in_rho() {
        let b1 = CutAndPaste::amplification_upper_bound(3, 6, 0.3);
        let b2 = CutAndPaste::amplification_upper_bound(3, 6, 0.6);
        assert!(b1 > b2);
    }

    #[test]
    fn from_gamma_saturates_bound() {
        let s = Schema::new(vec![
            ("a", 4),
            ("b", 5),
            ("c", 5),
            ("d", 5),
            ("e", 2),
            ("f", 2),
        ])
        .unwrap();
        let cnp = CutAndPaste::from_gamma(&s, 3, 19.0).unwrap();
        let bound = CutAndPaste::amplification_upper_bound(3, 6, cnp.rho());
        assert_close(bound, 19.0, 1e-6);
        // The selected rho is in the ballpark of the paper's 0.494
        // (the paper's exact value depends on its Eq-12 variant).
        assert!(cnp.rho() > 0.3 && cnp.rho() < 0.6, "rho = {}", cnp.rho());
    }

    #[test]
    fn from_gamma_infeasible_detected() {
        let s = schema();
        // gamma barely above 1 cannot be met with K >= 1 (the j=1 term
        // alone forces ratio > 2 for rho < 1).
        assert!(CutAndPaste::from_gamma(&s, 3, 1.5).is_err());
    }

    #[test]
    fn perturb_preserves_width_and_validates() {
        let s = schema();
        let cnp = CutAndPaste::paper_params(&s).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let row = cnp.perturb_record(&[1, 0, 2], &mut rng).unwrap();
        assert_eq!(row.len(), 7);
        assert!(cnp.perturb_record(&[5, 0, 0], &mut rng).is_err());
    }

    #[test]
    fn insertion_rate_empirically_correct() {
        // With K = 0 nothing is kept; every column is an independent
        // rho-insertion.
        let s = schema();
        let cnp = CutAndPaste::new(&s, 0, 0.35).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 50_000;
        let mut ones = 0usize;
        for _ in 0..trials {
            let row = cnp.perturb_record(&[0, 1, 1], &mut rng).unwrap();
            ones += row.iter().filter(|&&b| b).count();
        }
        let rate = ones as f64 / (trials * 7) as f64;
        assert!((rate - 0.35).abs() < 0.01, "insertion rate {rate}");
    }

    #[test]
    fn end_to_end_support_recovery() {
        // 40% of records are [0,0,0]; estimate the support of the
        // 2-itemset {a=0, b=0} (columns 0, 2) which also holds in the
        // 60% records [0,0,2]? No: use {a=0,c=0} (columns 0,4): only
        // the 40% group supports it.
        let s = schema();
        let cnp = CutAndPaste::new(&s, 3, 0.494).unwrap();
        let n = 60_000;
        let records: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                if i % 10 < 4 {
                    vec![0, 0, 0]
                } else {
                    vec![0, 0, 2]
                }
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(8);
        let rows = cnp.perturb_dataset(&records, &mut rng).unwrap();
        let est = cnp.estimate_support(&rows, &[0, 4]).unwrap();
        assert!((est - 0.4).abs() < 0.05, "estimated support {est}");
    }

    #[test]
    fn condition_number_grows_with_itemset_length() {
        let s = Schema::new(vec![
            ("a", 4),
            ("b", 5),
            ("c", 5),
            ("d", 5),
            ("e", 2),
            ("f", 2),
        ])
        .unwrap();
        let cnp = CutAndPaste::paper_params(&s).unwrap();
        let c2 = cnp.itemset_condition_number(2);
        let c3 = cnp.itemset_condition_number(3);
        let c4 = cnp.itemset_condition_number(4);
        let c6 = cnp.itemset_condition_number(6);
        // Strict growth while the matrices are still resolvable; beyond
        // k = 4 the condition saturates around 1/eps and is only
        // guaranteed to stay astronomically large.
        assert!(c2 < c3 && c3 < c4, "c2={c2} c3={c3} c4={c4}");
        // At the paper's settings the long-itemset matrices are severely
        // ill-conditioned (the paper's C&P fails beyond length 3).
        assert!(c4 > 1e6, "c4 = {c4}");
        assert!(c6 > 1e6, "c6 = {c6}");
    }

    #[test]
    fn empty_dataset_support_is_zero() {
        let s = schema();
        let cnp = CutAndPaste::paper_params(&s).unwrap();
        assert_eq!(cnp.estimate_support(&[], &[0, 1]).unwrap(), 0.0);
    }
}
