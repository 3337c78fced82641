//! The paper's mining-accuracy metrics (Section 7).
//!
//! Two kinds of error are reported per itemset length:
//!
//! * **Support error ρ** — mean percentage relative error of the
//!   reconstructed supports over the itemsets *correctly identified* as
//!   frequent: `ρ = 100/|F| Σ_{f∈F∩R} |ŝup_f − sup_f| / sup_f`
//!   (averaged over the correctly-identified set, as in the paper).
//! * **Identity error σ** — `σ⁺ = 100·|R−F|/|F|` (false positives) and
//!   `σ⁻ = 100·|F−R|/|F|` (false negatives), where `F` is the true set
//!   of frequent itemsets and `R` the reconstructed set.

use crate::apriori::FrequentItemsets;

/// Accuracy of one mining run for a single itemset length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthMetrics {
    /// Itemset length `k`.
    pub length: usize,
    /// Number of truly frequent `k`-itemsets `|F_k|`.
    pub true_count: usize,
    /// Number of mined `k`-itemsets `|R_k|`.
    pub mined_count: usize,
    /// Number correctly identified `|F_k ∩ R_k|`.
    pub correct_count: usize,
    /// Support error ρ in percent over `F_k ∩ R_k`; `None` when nothing
    /// was correctly identified.
    pub support_error: Option<f64>,
    /// False-positive percentage `σ⁺`.
    pub false_positives: f64,
    /// False-negative percentage `σ⁻`.
    pub false_negatives: f64,
}

/// Accuracy of one mining run, per itemset length.
#[derive(Debug, Clone, Default)]
pub struct AccuracyMetrics {
    /// Metrics per length, index 0 = length 1.
    pub per_length: Vec<LengthMetrics>,
}

impl AccuracyMetrics {
    /// Metrics for itemsets of length `k`, if that length occurs in the
    /// ground truth.
    pub fn of_length(&self, k: usize) -> Option<&LengthMetrics> {
        self.per_length.iter().find(|m| m.length == k)
    }
}

/// Compares a privacy-preserving mining run against ground truth.
///
/// `truth` must carry the *actual* supports; `mined` carries the
/// reconstructed supports. Lengths with no truly frequent itemsets are
/// skipped (the paper's plots range over lengths present in `F`).
pub fn compare(truth: &FrequentItemsets, mined: &FrequentItemsets) -> AccuracyMetrics {
    let mut per_length = Vec::new();
    for k in 1..=truth.max_length().max(mined.max_length()) {
        let f = truth.of_length(k);
        if f.is_empty() {
            continue;
        }
        let r_set = mined.set_of_length(k);
        let f_count = f.len();
        let r_count = r_set.len();

        let mut correct = 0usize;
        let mut err_sum = 0.0;
        for &(itemset, true_sup) in f {
            if r_set.contains(&itemset) {
                correct += 1;
                let est = mined.support_of(itemset).expect("present in r_set");
                if true_sup > 0.0 {
                    err_sum += (est - true_sup).abs() / true_sup;
                }
            }
        }
        let false_neg = f_count - correct;
        let false_pos = r_count - correct;
        per_length.push(LengthMetrics {
            length: k,
            true_count: f_count,
            mined_count: r_count,
            correct_count: correct,
            support_error: if correct > 0 {
                Some(100.0 * err_sum / correct as f64)
            } else {
                None
            },
            false_positives: 100.0 * false_pos as f64 / f_count as f64,
            false_negatives: 100.0 * false_neg as f64 / f_count as f64,
        });
    }
    AccuracyMetrics { per_length }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{apriori, AprioriParams, SupportEstimator};
    use crate::itemset::ItemSet;

    /// Fixed supports estimator for crafting exact scenarios.
    struct FixedSupports {
        num_items: usize,
        entries: Vec<(ItemSet, f64)>,
    }

    impl SupportEstimator for FixedSupports {
        fn num_items(&self) -> usize {
            self.num_items
        }

        fn estimate(&self, itemset: ItemSet) -> f64 {
            self.entries
                .iter()
                .find(|(i, _)| *i == itemset)
                .map(|&(_, s)| s)
                .unwrap_or(0.0)
        }
    }

    fn mine(entries: Vec<(ItemSet, f64)>) -> FrequentItemsets {
        let est = FixedSupports {
            num_items: 4,
            entries,
        };
        apriori(
            &est,
            &AprioriParams {
                min_support: 0.1,
                max_length: 0,
                max_candidates: 0,
            },
        )
    }

    #[test]
    fn perfect_run_has_zero_errors() {
        let entries = vec![
            (ItemSet::singleton(0), 0.5),
            (ItemSet::singleton(1), 0.4),
            (ItemSet::from_items(&[0, 1]), 0.3),
        ];
        let truth = mine(entries.clone());
        let mined = mine(entries);
        let m = compare(&truth, &mined);
        assert_eq!(m.per_length.len(), 2);
        for lm in &m.per_length {
            assert_eq!(lm.support_error, Some(0.0));
            assert_eq!(lm.false_positives, 0.0);
            assert_eq!(lm.false_negatives, 0.0);
        }
    }

    #[test]
    fn support_error_is_mean_relative_percentage() {
        let truth = mine(vec![
            (ItemSet::singleton(0), 0.5),
            (ItemSet::singleton(1), 0.4),
        ]);
        // Estimates off by +10% and −25% relative.
        let mined = mine(vec![
            (ItemSet::singleton(0), 0.55),
            (ItemSet::singleton(1), 0.3),
        ]);
        let m = compare(&truth, &mined);
        let lm = m.of_length(1).unwrap();
        assert!((lm.support_error.unwrap() - (10.0 + 25.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn false_negative_counting() {
        let truth = mine(vec![
            (ItemSet::singleton(0), 0.5),
            (ItemSet::singleton(1), 0.4),
        ]);
        let mined = mine(vec![(ItemSet::singleton(0), 0.5)]);
        let m = compare(&truth, &mined);
        let lm = m.of_length(1).unwrap();
        assert_eq!(lm.false_negatives, 50.0);
        assert_eq!(lm.false_positives, 0.0);
        assert_eq!(lm.correct_count, 1);
    }

    #[test]
    fn false_positive_counting() {
        let truth = mine(vec![(ItemSet::singleton(0), 0.5)]);
        let mined = mine(vec![
            (ItemSet::singleton(0), 0.5),
            (ItemSet::singleton(1), 0.2),
            (ItemSet::singleton(2), 0.2),
        ]);
        let m = compare(&truth, &mined);
        let lm = m.of_length(1).unwrap();
        // 2 spurious / 1 true = 200%.
        assert_eq!(lm.false_positives, 200.0);
        assert_eq!(lm.false_negatives, 0.0);
    }

    #[test]
    fn missing_length_yields_undefined_support_error() {
        let truth = mine(vec![
            (ItemSet::singleton(0), 0.5),
            (ItemSet::singleton(1), 0.4),
            (ItemSet::from_items(&[0, 1]), 0.35),
        ]);
        let mined = mine(vec![(ItemSet::singleton(0), 0.5)]);
        let m = compare(&truth, &mined);
        let lm2 = m.of_length(2).unwrap();
        assert_eq!(lm2.support_error, None);
        assert_eq!(lm2.false_negatives, 100.0);
    }

    #[test]
    fn lengths_absent_from_truth_are_skipped() {
        let truth = mine(vec![(ItemSet::singleton(0), 0.5)]);
        let mined = mine(vec![
            (ItemSet::singleton(0), 0.5),
            (ItemSet::singleton(1), 0.3),
            (ItemSet::from_items(&[0, 1]), 0.3),
        ]);
        let m = compare(&truth, &mined);
        // Length 2 exists only in `mined`; the paper plots over lengths
        // in F, so it is skipped.
        assert!(m.of_length(2).is_none());
        assert_eq!(m.per_length.len(), 1);
    }
}
