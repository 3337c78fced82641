//! Frequent-itemset mining substrate for the FRAPP reproduction
//! (paper Section 6 and the experimental Section 7).
//!
//! The paper evaluates FRAPP on association-rule mining: find all
//! itemsets whose support exceeds `sup_min` with the Apriori algorithm,
//! where each pass counts supports on the *perturbed* database and then
//! reconstructs the original supports before the frequency test.
//!
//! * [`itemset`] — compact bitmask itemsets over the boolean item view
//!   (`M_b = Σ_j |S_j|` items; at most one item per attribute holds in a
//!   categorical record).
//! * [`mod@apriori`] — the bottom-up Apriori of Agrawal & Srikant (VLDB
//!   1994) parameterised by a [`apriori::SupportEstimator`], so the same
//!   mining loop runs exact (ground truth), DET-GD, RAN-GD, MASK and
//!   C&P configurations.
//! * [`estimators`] — the per-method support reconstruction plugged into
//!   each Apriori pass.
//! * [`fpgrowth`] — FP-growth (Han, Pei & Yin, SIGMOD 2000) for the exact
//!   ground-truth pass and for mining a reconstructed count vector.
//! * [`classify`] — the Bayes-optimal classifier over a reconstructed
//!   joint distribution, the paper's second mining workload.
//! * [`hook`] — cooperative cancellation and progress for long mining
//!   runs (the service's job pool cancels through it).
//! * [`metrics`] — the paper's accuracy measures: support error `ρ` and
//!   identity errors `σ⁺`/`σ⁻` per itemset length (Section 7).
//! * [`rules`] — confidence-based association-rule generation on top of
//!   the mined itemsets.

#![warn(missing_docs)]

pub mod apriori;
pub mod classify;
pub mod estimators;
pub mod fpgrowth;
pub mod hook;
pub mod itemset;
pub mod metrics;
pub mod rules;

pub use apriori::{apriori, apriori_with_hook, AprioriParams, FrequentItemsets, SupportEstimator};
pub use classify::{bayes_classify, bayes_rule, rule_accuracy, ClassifierReport};
pub use fpgrowth::{fp_growth, fp_growth_from_counts};
pub use hook::{Cancelled, MineHook, NoHook};
pub use itemset::ItemSet;
pub use metrics::{compare, AccuracyMetrics};
