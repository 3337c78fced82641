//! Support estimators: exact counting and the per-method support
//! reconstruction of paper Sections 6 and 7.

use crate::apriori::SupportEstimator;
use crate::itemset::{row_to_mask, ItemSet};
use frapp_baselines::{CutAndPaste, Mask};
use frapp_core::perturb::GammaDiagonal;
use frapp_core::reconstruct::reconstruct_itemset_support;
use frapp_core::schema::Schema;
use frapp_core::Dataset;

/// Exact support counting over boolean masks — the ground-truth miner.
#[derive(Debug, Clone)]
pub struct ExactSupport {
    masks: Vec<u64>,
    num_items: usize,
}

impl ExactSupport {
    /// Builds the estimator from a categorical dataset via its boolean
    /// mapping.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        let masks = dataset
            .to_boolean()
            .iter()
            .map(|row| row_to_mask(row))
            .collect();
        ExactSupport {
            masks,
            num_items: dataset.schema().boolean_width(),
        }
    }
}

impl SupportEstimator for ExactSupport {
    fn num_items(&self) -> usize {
        self.num_items
    }

    fn estimate(&self, itemset: ItemSet) -> f64 {
        if self.masks.is_empty() {
            return 0.0;
        }
        let hits = self
            .masks
            .iter()
            .filter(|&&m| m & itemset.0 == itemset.0)
            .count();
        hits as f64 / self.masks.len() as f64
    }
}

/// Gamma-diagonal support reconstruction (DET-GD and RAN-GD; the latter
/// reconstructs with the expected matrix, paper Equation 23).
///
/// For a candidate itemset over boolean columns, maps the columns back
/// to `(attribute, category)` pairs. Candidates touching the same
/// attribute twice are structurally impossible in the categorical model
/// (their true support is 0) and estimate to −1. Otherwise applies the
/// O(1) marginalized closed form (paper Equation 28):
/// `ŝup = (sup_V − (n_C/n_Cs)x) / ((γ−1)x)`.
#[derive(Debug, Clone)]
pub struct GammaDiagonalSupport {
    /// Perturbed records as boolean masks.
    masks: Vec<u64>,
    /// Per-mask multiplicity; empty means unit weights (one record per
    /// mask). Non-empty when built from aggregated domain-cell counts.
    weights: Vec<f64>,
    /// For each boolean column, the owning attribute.
    column_attr: Vec<usize>,
    /// Attribute cardinalities.
    cardinalities: Vec<usize>,
    domain_size: usize,
    gamma: f64,
    num_items: usize,
}

impl GammaDiagonalSupport {
    /// Builds the estimator from the perturbed categorical dataset and
    /// the gamma-diagonal perturber used to produce it.
    pub fn new(perturbed: &Dataset, gd: &GammaDiagonal) -> Self {
        let schema = perturbed.schema();
        Self::from_parts(schema, perturbed.to_boolean(), gd.gamma())
    }

    /// Builds the estimator from raw parts (used by RAN-GD, whose
    /// reconstruction matrix is the expected deterministic one).
    pub fn from_parts(schema: &Schema, boolean_rows: Vec<Vec<bool>>, gamma: f64) -> Self {
        let num_items = schema.boolean_width();
        let column_attr = (0..num_items)
            .map(|c| schema.boolean_column_to_item(c).expect("column in range").0)
            .collect();
        let cardinalities = (0..schema.num_attributes())
            .map(|j| schema.cardinality(j) as usize)
            .collect();
        GammaDiagonalSupport {
            masks: boolean_rows.iter().map(|r| row_to_mask(r)).collect(),
            weights: Vec::new(),
            column_attr,
            cardinalities,
            domain_size: schema.domain_size(),
            gamma,
            num_items,
        }
    }

    /// Builds the estimator from aggregated *perturbed* domain-cell
    /// counts (`counts[i]` = weight of the record `schema.decode(i)`),
    /// the shape the collection server accumulates. One weighted mask
    /// per non-zero cell keeps the per-candidate scan `O(n_cells)`
    /// instead of `O(n_records)`. The schema's boolean width must fit in
    /// a `u64` mask.
    pub fn from_cell_counts(schema: &Schema, counts: &[f64], gamma: f64) -> Self {
        assert!(
            schema.boolean_width() <= 64,
            "boolean item universe must fit in a u64 mask"
        );
        assert_eq!(counts.len(), schema.domain_size(), "one count per cell");
        let num_items = schema.boolean_width();
        let column_attr = (0..num_items)
            .map(|c| schema.boolean_column_to_item(c).expect("column in range").0)
            .collect();
        let cardinalities: Vec<usize> = (0..schema.num_attributes())
            .map(|j| schema.cardinality(j) as usize)
            .collect();
        let mut masks = Vec::new();
        let mut weights = Vec::new();
        for (index, &count) in counts.iter().enumerate() {
            if count <= 0.0 {
                continue;
            }
            let record = schema.decode(index);
            let mut mask = 0u64;
            for (j, &v) in record.iter().enumerate() {
                mask |= 1 << (schema.boolean_offset(j) + v as usize);
            }
            masks.push(mask);
            weights.push(count);
        }
        GammaDiagonalSupport {
            masks,
            weights,
            column_attr,
            cardinalities,
            domain_size: schema.domain_size(),
            gamma,
            num_items,
        }
    }

    /// The sub-domain size `n_Cs` of the candidate's attribute set, or
    /// `None` when two items share an attribute.
    fn subdomain_size(&self, itemset: ItemSet) -> Option<usize> {
        let mut n_cs = 1usize;
        let mut seen_attrs = 0u64;
        for item in itemset.items() {
            let attr = self.column_attr[item];
            if seen_attrs >> attr & 1 == 1 {
                return None;
            }
            seen_attrs |= 1 << attr;
            n_cs *= self.cardinalities[attr];
        }
        Some(n_cs)
    }
}

impl SupportEstimator for GammaDiagonalSupport {
    fn num_items(&self) -> usize {
        self.num_items
    }

    fn estimate(&self, itemset: ItemSet) -> f64 {
        let Some(n_cs) = self.subdomain_size(itemset) else {
            return -1.0; // same-attribute candidate: impossible itemset
        };
        if self.masks.is_empty() {
            return 0.0;
        }
        let sup_v = if self.weights.is_empty() {
            let hits = self
                .masks
                .iter()
                .filter(|&&m| m & itemset.0 == itemset.0)
                .count();
            hits as f64 / self.masks.len() as f64
        } else {
            let mut hit = 0.0f64;
            let mut total = 0.0f64;
            for (&m, &w) in self.masks.iter().zip(&self.weights) {
                total += w;
                if m & itemset.0 == itemset.0 {
                    hit += w;
                }
            }
            if total <= 0.0 {
                return 0.0;
            }
            hit / total
        };
        reconstruct_itemset_support(sup_v, self.domain_size, n_cs, self.gamma)
    }
}

/// MASK support reconstruction: per-candidate `2^k` pattern histogram,
/// Kronecker-factored inverse of the flip matrix.
#[derive(Debug, Clone)]
pub struct MaskSupport<'a> {
    mask: &'a Mask,
    rows: &'a [Vec<bool>],
}

impl<'a> MaskSupport<'a> {
    /// Builds the estimator over a MASK-perturbed boolean dataset.
    pub fn new(mask: &'a Mask, rows: &'a [Vec<bool>]) -> Self {
        MaskSupport { mask, rows }
    }
}

impl SupportEstimator for MaskSupport<'_> {
    fn num_items(&self) -> usize {
        self.mask.schema().boolean_width()
    }

    fn estimate(&self, itemset: ItemSet) -> f64 {
        let columns = itemset.to_vec();
        self.mask.estimate_support(self.rows, &columns)
    }
}

/// Cut-and-Paste support reconstruction: per-candidate intersection-size
/// histogram, `(k+1)×(k+1)` partial-support solve.
#[derive(Debug, Clone)]
pub struct CnpSupport<'a> {
    cnp: &'a CutAndPaste,
    rows: &'a [Vec<bool>],
}

impl<'a> CnpSupport<'a> {
    /// Builds the estimator over a C&P-perturbed boolean dataset.
    pub fn new(cnp: &'a CutAndPaste, rows: &'a [Vec<bool>]) -> Self {
        CnpSupport { cnp, rows }
    }
}

impl SupportEstimator for CnpSupport<'_> {
    fn num_items(&self) -> usize {
        self.cnp.schema().boolean_width()
    }

    fn estimate(&self, itemset: ItemSet) -> f64 {
        let columns = itemset.to_vec();
        // A singular transition matrix (possible only at degenerate
        // parameters) yields "no information": report not-frequent.
        self.cnp
            .estimate_support(self.rows, &columns)
            .unwrap_or(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{apriori, AprioriParams};
    use frapp_core::perturb::Perturber;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(vec![("a", 3), ("b", 2), ("c", 2)]).unwrap()
    }

    /// A dataset where [0,0,0] has 50% support, [1,1,1] has 30%,
    /// [2,0,1] has 20%.
    fn dataset() -> Dataset {
        let mut records = Vec::new();
        for i in 0..10_000u32 {
            let r = match i % 10 {
                0..=4 => vec![0, 0, 0],
                5..=7 => vec![1, 1, 1],
                _ => vec![2, 0, 1],
            };
            records.push(r);
        }
        Dataset::new(schema(), records).unwrap()
    }

    #[test]
    fn exact_support_counts_fractions() {
        let ds = dataset();
        let est = ExactSupport::from_dataset(&ds);
        assert_eq!(est.num_items(), 7);
        // Column 0 = (a=0): supported by 50% + 20%? No: [2,0,1] has a=2.
        // a=0 only in the 50% group.
        assert!((est.estimate(ItemSet::singleton(0)) - 0.5).abs() < 1e-12);
        // Column 3 = (b=0): 50% + 20% = 70%.
        assert!((est.estimate(ItemSet::singleton(3)) - 0.7).abs() < 1e-12);
        // Pair (a=0, b=0): 50%.
        assert!((est.estimate(ItemSet::from_items(&[0, 3])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gamma_diagonal_estimator_recovers_supports() {
        let ds = dataset();
        let gd = GammaDiagonal::new(ds.schema(), 19.0).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let perturbed_records = gd.perturb_dataset(ds.records(), &mut rng).unwrap();
        let perturbed = Dataset::from_trusted(schema(), perturbed_records);
        let est = GammaDiagonalSupport::new(&perturbed, &gd);
        // (a=0): true 0.5.
        let s = est.estimate(ItemSet::singleton(0));
        assert!((s - 0.5).abs() < 0.08, "estimate {s}");
        // (a=0, b=0, c=0): true 0.5.
        let s3 = est.estimate(ItemSet::from_items(&[0, 3, 5]));
        assert!((s3 - 0.5).abs() < 0.08, "estimate {s3}");
        // (a=1, c=1): true 0.3.
        let s2 = est.estimate(ItemSet::from_items(&[1, 6]));
        assert!((s2 - 0.3).abs() < 0.08, "estimate {s2}");
    }

    #[test]
    fn gamma_diagonal_same_attribute_candidate_is_rejected() {
        let ds = dataset();
        let gd = GammaDiagonal::new(ds.schema(), 19.0).unwrap();
        let est = GammaDiagonalSupport::new(&ds, &gd);
        // Columns 0 and 1 are both attribute `a`.
        assert_eq!(est.estimate(ItemSet::from_items(&[0, 1])), -1.0);
    }

    #[test]
    fn mask_estimator_recovers_single_and_pair_supports() {
        let ds = dataset();
        let mask = Mask::new(ds.schema(), 0.85).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let rows = mask.perturb_dataset(ds.records(), &mut rng).unwrap();
        let est = MaskSupport::new(&mask, &rows);
        let s = est.estimate(ItemSet::singleton(0));
        assert!((s - 0.5).abs() < 0.05, "estimate {s}");
        let s2 = est.estimate(ItemSet::from_items(&[0, 3]));
        assert!((s2 - 0.5).abs() < 0.05, "estimate {s2}");
    }

    #[test]
    fn cnp_estimator_recovers_single_supports() {
        let ds = dataset();
        let cnp = CutAndPaste::new(ds.schema(), 3, 0.494).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let rows = cnp.perturb_dataset(ds.records(), &mut rng).unwrap();
        let est = CnpSupport::new(&cnp, &rows);
        let s = est.estimate(ItemSet::singleton(0));
        assert!((s - 0.5).abs() < 0.1, "estimate {s}");
    }

    #[test]
    fn cell_count_estimator_matches_record_estimator() {
        let ds = dataset();
        let gd = GammaDiagonal::new(ds.schema(), 19.0).unwrap();
        let mut rng = StdRng::seed_from_u64(25);
        let perturbed_records = gd.perturb_dataset(ds.records(), &mut rng).unwrap();
        let perturbed = Dataset::from_trusted(schema(), perturbed_records);
        // Aggregate the perturbed records into domain-cell counts.
        let sc = schema();
        let mut counts = vec![0.0f64; sc.domain_size()];
        for r in perturbed.records() {
            counts[sc.encode(r).unwrap()] += 1.0;
        }
        let by_record = GammaDiagonalSupport::new(&perturbed, &gd);
        let by_cell = GammaDiagonalSupport::from_cell_counts(&sc, &counts, gd.gamma());
        assert_eq!(by_cell.num_items(), by_record.num_items());
        for set in [
            ItemSet::singleton(0),
            ItemSet::singleton(3),
            ItemSet::from_items(&[0, 3]),
            ItemSet::from_items(&[0, 3, 5]),
            ItemSet::from_items(&[1, 4, 6]),
            ItemSet::from_items(&[0, 1]), // same-attribute: both reject
        ] {
            let a = by_record.estimate(set);
            let b = by_cell.estimate(set);
            assert!((a - b).abs() < 1e-9, "{set}: {a} vs {b}");
        }
    }

    #[test]
    fn full_pipeline_gd_apriori_finds_planted_itemsets() {
        let ds = dataset();
        let gd = GammaDiagonal::new(ds.schema(), 19.0).unwrap();
        let mut rng = StdRng::seed_from_u64(24);
        let perturbed_records = gd.perturb_dataset(ds.records(), &mut rng).unwrap();
        let perturbed = Dataset::from_trusted(schema(), perturbed_records);
        let est = GammaDiagonalSupport::new(&perturbed, &gd);
        let mined = apriori(
            &est,
            &AprioriParams {
                min_support: 0.15,
                max_length: 0,
                max_candidates: 0,
            },
        );
        // The planted triple (a=0, b=0, c=0) = columns {0, 3, 5} at 50%
        // must be found.
        assert!(
            mined.support_of(ItemSet::from_items(&[0, 3, 5])).is_some(),
            "profile: {:?}",
            mined.length_profile()
        );
    }
}
