//! Integration tests pinning the paper's quantitative anchor points —
//! every number the paper states in prose is checked here against the
//! implementation.

use frapp::baselines::{CutAndPaste, Mask};
use frapp::core::perturb::GammaDiagonal;
use frapp::core::privacy::{worst_case_posterior, PrivacyRequirement, RandomizedPosterior};
use frapp::linalg::structured::UniformDiagonal;

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "expected {b}, got {a}");
}

/// Section 7: "(rho1, rho2) = (5%, 50%) ... results in gamma = 19".
#[test]
fn paper_privacy_setting_yields_gamma_19() {
    assert_close(
        PrivacyRequirement::new(0.05, 0.50).unwrap().gamma(),
        19.0,
        1e-9,
    );
}

/// Section 4.1: "if P(Q(u)) = 5%, gamma = 19, the posterior probability
/// can be computed to be 50% for perturbation with the gamma-diagonal
/// matrix".
#[test]
fn paper_posterior_example() {
    assert_close(worst_case_posterior(0.05, 19.0), 0.50, 1e-9);
}

/// Section 4.1: "for P(Q(u)) = 5%, gamma = 19, alpha = gamma*x/2 ...
/// the posterior probability lies in the range [33%, 60%]".
#[test]
fn paper_randomized_posterior_range() {
    let n = 2000;
    let x = 1.0 / (19.0 + n as f64 - 1.0);
    let rp = RandomizedPosterior {
        prior: 0.05,
        gamma: 19.0,
        n,
        alpha: 19.0 * x / 2.0,
    };
    let (lo, hi) = rp.range();
    assert_close(lo, 0.33, 0.005);
    assert_close(hi, 0.60, 0.005);
}

/// Section 7: "Value of p turns out be 0.5610 and 0.5524 respectively
/// for CENSUS and HEALTH datasets for gamma = 19".
#[test]
fn paper_mask_parameters() {
    let census = Mask::from_gamma(&frapp::data::census::schema(), 19.0).unwrap();
    assert_close(census.p(), 0.5610, 5e-4);
    let health = Mask::from_gamma(&frapp::data::health::schema(), 19.0).unwrap();
    assert_close(health.p(), 0.5524, 5e-4);
}

/// Section 3: the gamma-diagonal condition number is
/// `(gamma + n - 1)/(gamma - 1)` = `1 + |S_U|/(gamma-1)` ... wait — the
/// paper writes it both ways; the exact closed form is the former,
/// which for CENSUS (n = 2000) gives ~112.
#[test]
fn paper_gamma_diagonal_condition_numbers() {
    let census = UniformDiagonal::gamma_diagonal(2000, 19.0);
    assert_close(census.condition_number(), (19.0 + 1999.0) / 18.0, 1e-9);
    let health = UniformDiagonal::gamma_diagonal(7500, 19.0);
    assert_close(health.condition_number(), (19.0 + 7499.0) / 18.0, 1e-9);
}

/// Section 7 / Figure 4: "the condition number for MASK and C&P
/// increase exponentially with increasing itemset length" while
/// "the condition number for DET-GD and RAN-GD is not only low but also
/// constant over all lengths of frequent itemsets".
#[test]
fn paper_condition_number_shapes() {
    let schema = frapp::data::census::schema();
    let gd = GammaDiagonal::new(&schema, 19.0).unwrap();
    let flat: Vec<f64> = (1..=6)
        .map(|_k| gd.as_uniform_diagonal().condition_number())
        .collect();
    for w in flat.windows(2) {
        assert_close(w[0], w[1], 1e-9);
    }
    // Marginal matrices share the same condition number (Equation 28).
    for attrs in [vec![0usize], vec![0, 1, 2], vec![0, 1, 2, 3, 4, 5]] {
        assert_close(
            gd.marginal_matrix(&attrs).condition_number(),
            flat[0],
            1e-6 * flat[0],
        );
    }

    let mask = Mask::from_gamma(&schema, 19.0).unwrap();
    let mask_conds: Vec<f64> = (1..=6).map(|k| mask.itemset_condition_number(k)).collect();
    for w in mask_conds.windows(2) {
        // Exponential: constant multiplicative factor 1/(2p-1) ~ 8.2.
        assert_close(w[1] / w[0], mask_conds[0], 1e-6 * mask_conds[0]);
    }
    // Paper: MASK condition numbers reach ~1e5 at the longest lengths.
    assert!(mask_conds[5] > 1e5, "mask cond at k=6: {}", mask_conds[5]);

    let cnp = CutAndPaste::paper_params(&schema).unwrap();
    let c3 = cnp.itemset_condition_number(3);
    let c4 = cnp.itemset_condition_number(4);
    // Paper: C&P condition numbers blow up (~1e7 scale and beyond);
    // that is why it "does not work after 3-length itemsets".
    assert!(c3 < 1e4, "c3 = {c3}");
    assert!(c4 > 1e6, "c4 = {c4}");
}

/// Section 3's optimality theorem, checked empirically on a small
/// domain: no symmetric Markov matrix within the gamma constraint beats
/// `(gamma + n - 1)/(gamma - 1)`.
#[test]
fn gamma_diagonal_is_condition_number_optimal_small_domain() {
    use frapp::linalg::{condition_number_2, Matrix};
    let n = 6;
    let gamma = 4.0;
    let optimal = (gamma + n as f64 - 1.0) / (gamma - 1.0);
    // A few hand-crafted feasible alternatives.
    let x = 1.0 / (gamma + n as f64 - 1.0);
    let candidates = vec![
        // Uniform matrix (gamma_eff = 1 < 4: feasible); singular.
        Matrix::filled(n, n, 1.0 / n as f64),
        // Damped gamma-diagonal (diag 3x instead of 4x, rescaled).
        {
            let d = 3.0;
            let xx = 1.0 / (d + n as f64 - 1.0);
            Matrix::from_fn(n, n, |i, j| if i == j { d * xx } else { xx })
        },
        // Two-level Toeplitz within the constraint.
        {
            let row = [4.0, 2.0, 1.0, 1.0, 1.0, 2.0];
            let s: f64 = row.iter().sum();
            Matrix::from_fn(n, n, |i, j| row[(i + n - j) % n] / s)
        },
    ];
    let _ = x;
    for m in candidates {
        assert!(m.is_column_stochastic(1e-9));
        assert!(m.amplification() <= gamma * (1.0 + 1e-9));
        let c = condition_number_2(&m).unwrap();
        assert!(
            c >= optimal * (1.0 - 1e-9),
            "feasible matrix beat the optimal bound: {c} < {optimal}"
        );
    }
}

/// The paper's Table 3 calibration targets: our synthetic datasets'
/// *expected* profiles land near the published counts.
#[test]
fn table_3_calibration_holds() {
    let census = frapp::data::census::model().frequent_profile(0.02);
    assert_eq!(census.len(), 6);
    let paper_census = [19usize, 102, 203, 165, 64, 10];
    for (ours, paper) in census.iter().zip(paper_census) {
        let tol = (paper as f64 * 0.25).max(4.0);
        assert!(
            (*ours as f64 - paper as f64).abs() <= tol,
            "census profile {census:?} vs paper {paper_census:?}"
        );
    }
    let health = frapp::data::health::model().frequent_profile(0.02);
    assert_eq!(health.len(), 7);
    let paper_health = [23usize, 123, 292, 361, 250, 86, 12];
    for (ours, paper) in health.iter().zip(paper_health) {
        let tol = (paper as f64 * 0.25).max(6.0);
        assert!(
            (*ours as f64 - paper as f64).abs() <= tol,
            "health profile {health:?} vs paper {paper_health:?}"
        );
    }
}

/// Section 5's efficiency claim: perturbation must not walk the record
/// domain, so a 2^31-sized domain that the naive CDF walk could never
/// touch is served. The index sampler draws at most twice per record,
/// below the dependent-column algorithm's `Σ_j |S_j|`.
#[test]
fn section_5_sampler_handles_astronomical_domains() {
    use frapp::core::perturb::Perturber;
    use frapp::core::Schema;
    use rand::SeedableRng;
    // 31 boolean attributes: |S_U| = 2^31 (the paper's own example).
    let specs: Vec<(&str, u32)> = (0..31).map(|_| ("b", 2u32)).collect();
    let schema = Schema::new(specs).unwrap();
    assert_eq!(schema.domain_size(), 1usize << 31);
    let gd = GammaDiagonal::new(&schema, 19.0).unwrap();
    let record: Vec<u32> = (0..31).map(|i| i % 2).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    for _ in 0..100 {
        let v = gd.perturb_record(&record, &mut rng).unwrap();
        assert_eq!(v.len(), 31);
    }
}
