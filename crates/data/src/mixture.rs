//! Latent-class mixture models over categorical schemas.
//!
//! A [`MixtureModel`] draws a latent class `c` with probability `w_c`,
//! then each attribute independently from the class-conditional
//! categorical distribution. Attribute correlations — the source of
//! long frequent itemsets — arise entirely from the class structure.
//!
//! The model's closed-form itemset supports
//! (`P(itemset) = Σ_c w_c Π_j p_c[j][v_j]`) make calibration cheap: the
//! expected frequent-itemset length profile can be enumerated exactly,
//! without sampling or mining.

use frapp_core::schema::Schema;
use frapp_core::{Dataset, FrappError, Result};
use rand::Rng;
use rand::RngCore;

/// A categorical distribution with a precomputed CDF.
#[derive(Debug, Clone)]
pub struct Categorical {
    probs: Vec<f64>,
    cdf: Vec<f64>,
}

impl Categorical {
    /// Creates a distribution from (unnormalised) nonnegative weights.
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(FrappError::InvalidParameter {
                name: "weights",
                reason: "distribution must have at least one category".into(),
            });
        }
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err(FrappError::InvalidParameter {
                name: "weights",
                reason: "weights must be finite and nonnegative".into(),
            });
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(FrappError::InvalidParameter {
                name: "weights",
                reason: "weights must not all be zero".into(),
            });
        }
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut cdf = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cdf.push(acc);
        }
        // Guard against rounding: force the last step to exactly 1.
        *cdf.last_mut().expect("nonempty") = 1.0;
        Ok(Categorical { probs, cdf })
    }

    /// Probability of category `v`.
    pub fn prob(&self, v: usize) -> f64 {
        self.probs[v]
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the distribution is empty (never: construction forbids).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Samples a category.
    pub fn sample(&self, rng: &mut dyn RngCore) -> u32 {
        let r: f64 = rng.gen::<f64>();
        match self.cdf.iter().position(|&c| r < c) {
            Some(i) => i as u32,
            None => (self.cdf.len() - 1) as u32,
        }
    }
}

/// One latent class: a mixture weight plus a class-conditional
/// categorical distribution per attribute.
#[derive(Debug, Clone)]
pub struct MixtureClass {
    weight: f64,
    attr_dists: Vec<Categorical>,
}

impl MixtureClass {
    /// Creates a class; `attr_weights` gives unnormalised weights per
    /// attribute, which must match the schema passed to
    /// [`MixtureModel::new`].
    pub fn new(weight: f64, attr_weights: Vec<Vec<f64>>) -> Result<Self> {
        if weight < 0.0 || !weight.is_finite() {
            return Err(FrappError::InvalidParameter {
                name: "weight",
                reason: format!("class weight must be finite and nonnegative, got {weight}"),
            });
        }
        let attr_dists = attr_weights
            .iter()
            .map(|w| Categorical::new(w))
            .collect::<Result<Vec<_>>>()?;
        Ok(MixtureClass { weight, attr_dists })
    }

    /// A class that concentrates probability `peak` on one chosen value
    /// per attribute, spreading the remainder uniformly — the
    /// "prototype record" classes used by the CENSUS/HEALTH calibration.
    pub fn prototype(weight: f64, schema: &Schema, values: &[u32], peak: f64) -> Result<Self> {
        schema.validate_record(values)?;
        if !(0.0..=1.0).contains(&peak) {
            return Err(FrappError::InvalidParameter {
                name: "peak",
                reason: format!("must be in [0,1], got {peak}"),
            });
        }
        let attr_weights = values
            .iter()
            .enumerate()
            .map(|(j, &v)| {
                let card = schema.cardinality(j) as usize;
                let rest = if card > 1 {
                    (1.0 - peak) / (card - 1) as f64
                } else {
                    0.0
                };
                (0..card)
                    .map(|c| if c as u32 == v { peak.max(1e-12) } else { rest })
                    .collect()
            })
            .collect();
        MixtureClass::new(weight, attr_weights)
    }

    /// The (unnormalised) class weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

/// A latent-class mixture over a categorical schema.
#[derive(Debug, Clone)]
pub struct MixtureModel {
    schema: Schema,
    classes: Vec<MixtureClass>,
    class_cdf: Vec<f64>,
}

impl MixtureModel {
    /// Builds the model; class weights are normalised internally. Every
    /// class must provide one distribution per schema attribute with
    /// the attribute's cardinality.
    pub fn new(schema: Schema, classes: Vec<MixtureClass>) -> Result<Self> {
        if classes.is_empty() {
            return Err(FrappError::InvalidParameter {
                name: "classes",
                reason: "mixture needs at least one class".into(),
            });
        }
        for (c, class) in classes.iter().enumerate() {
            if class.attr_dists.len() != schema.num_attributes() {
                return Err(FrappError::InvalidParameter {
                    name: "classes",
                    reason: format!(
                        "class {c} has {} attribute distributions, schema has {}",
                        class.attr_dists.len(),
                        schema.num_attributes()
                    ),
                });
            }
            for (j, d) in class.attr_dists.iter().enumerate() {
                if d.len() != schema.cardinality(j) as usize {
                    return Err(FrappError::InvalidParameter {
                        name: "classes",
                        reason: format!(
                            "class {c} attribute {j}: {} categories, schema has {}",
                            d.len(),
                            schema.cardinality(j)
                        ),
                    });
                }
            }
        }
        let total: f64 = classes.iter().map(|c| c.weight).sum();
        if total <= 0.0 {
            return Err(FrappError::InvalidParameter {
                name: "classes",
                reason: "class weights must not all be zero".into(),
            });
        }
        let mut class_cdf = Vec::with_capacity(classes.len());
        let mut acc = 0.0;
        for c in &classes {
            acc += c.weight / total;
            class_cdf.push(acc);
        }
        *class_cdf.last_mut().expect("nonempty") = 1.0;
        Ok(MixtureModel {
            schema,
            classes,
            class_cdf,
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Samples one record.
    pub fn sample_record(&self, rng: &mut dyn RngCore) -> Vec<u32> {
        let r: f64 = rng.gen::<f64>();
        let c = self
            .class_cdf
            .iter()
            .position(|&x| r < x)
            .unwrap_or(self.classes.len() - 1);
        self.classes[c]
            .attr_dists
            .iter()
            .map(|d| d.sample(rng))
            .collect()
    }

    /// Samples a dataset of `n` records.
    pub fn sample(&self, n: usize, rng: &mut dyn RngCore) -> Dataset {
        let records = (0..n).map(|_| self.sample_record(rng)).collect();
        Dataset::from_trusted(self.schema.clone(), records)
    }

    /// Exact probability (expected support) of the itemset fixing
    /// `attrs[i] = values[i]`: `Σ_c w_c Π_i p_c[attrs[i]][values[i]]`.
    pub fn expected_support(&self, attrs: &[usize], values: &[u32]) -> f64 {
        assert_eq!(attrs.len(), values.len(), "attrs/values length mismatch");
        let total_weight: f64 = self.classes.iter().map(|c| c.weight).sum();
        self.classes
            .iter()
            .map(|class| {
                let p: f64 = attrs
                    .iter()
                    .zip(values)
                    .map(|(&j, &v)| class.attr_dists[j].prob(v as usize))
                    .product();
                class.weight / total_weight * p
            })
            .sum()
    }

    /// The exact expected frequent-itemset length profile at threshold
    /// `min_support`: entry `k−1` counts the itemsets of length `k`
    /// (over all attribute subsets and value assignments) whose expected
    /// support reaches the threshold. This is the analytic counterpart
    /// of the paper's Table 3 and is what the CENSUS/HEALTH models are
    /// calibrated against.
    pub fn frequent_profile(&self, min_support: f64) -> Vec<usize> {
        let m = self.schema.num_attributes();
        let mut counts = vec![0usize; m];
        // Enumerate attribute subsets.
        for subset in 1u32..(1 << m) {
            let attrs: Vec<usize> = (0..m).filter(|&j| subset >> j & 1 == 1).collect();
            let k = attrs.len();
            // Enumerate value assignments over the subset.
            let mut values: Vec<u32> = vec![0; k];
            loop {
                if self.expected_support(&attrs, &values) >= min_support {
                    counts[k - 1] += 1;
                }
                // Mixed-radix increment.
                let mut pos = k;
                while pos > 0 {
                    pos -= 1;
                    values[pos] += 1;
                    if values[pos] < self.schema.cardinality(attrs[pos]) {
                        break;
                    }
                    values[pos] = 0;
                    if pos == 0 {
                        pos = usize::MAX;
                        break;
                    }
                }
                if pos == usize::MAX {
                    break;
                }
            }
        }
        // Trim trailing zero lengths.
        while counts.last() == Some(&0) {
            counts.pop();
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(vec![("a", 3), ("b", 2)]).unwrap()
    }

    #[test]
    fn categorical_normalises_weights() {
        let d = Categorical::new(&[2.0, 6.0]).unwrap();
        assert!((d.prob(0) - 0.25).abs() < 1e-12);
        assert!((d.prob(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[-1.0, 2.0]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn categorical_sampling_matches_probs() {
        let d = Categorical::new(&[1.0, 3.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 100_000;
        let ones = (0..trials).filter(|_| d.sample(&mut rng) == 1).count();
        let frac = ones as f64 / trials as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn prototype_class_peaks_where_asked() {
        let s = schema();
        let c = MixtureClass::prototype(1.0, &s, &[2, 0], 0.9).unwrap();
        assert!((c.attr_dists[0].prob(2) - 0.9).abs() < 1e-12);
        assert!((c.attr_dists[0].prob(0) - 0.05).abs() < 1e-12);
        assert!((c.attr_dists[1].prob(0) - 0.9).abs() < 1e-12);
        assert!((c.attr_dists[1].prob(1) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn model_validates_class_shapes() {
        let s = schema();
        // Wrong number of attributes.
        let bad = MixtureClass::new(1.0, vec![vec![1.0, 1.0, 1.0]]).unwrap();
        assert!(MixtureModel::new(s.clone(), vec![bad]).is_err());
        // Wrong cardinality.
        let bad2 = MixtureClass::new(1.0, vec![vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!(MixtureModel::new(s, vec![bad2]).is_err());
    }

    #[test]
    fn expected_support_single_class_is_product() {
        let s = schema();
        let c = MixtureClass::new(1.0, vec![vec![0.5, 0.3, 0.2], vec![0.4, 0.6]]).unwrap();
        let m = MixtureModel::new(s, vec![c]).unwrap();
        assert!((m.expected_support(&[0], &[1]) - 0.3).abs() < 1e-12);
        assert!((m.expected_support(&[0, 1], &[1, 1]) - 0.18).abs() < 1e-12);
    }

    #[test]
    fn expected_support_mixes_classes() {
        let s = schema();
        let c1 = MixtureClass::prototype(0.5, &s, &[0, 0], 1.0).unwrap();
        let c2 = MixtureClass::prototype(0.5, &s, &[1, 1], 1.0).unwrap();
        let m = MixtureModel::new(s, vec![c1, c2]).unwrap();
        assert!((m.expected_support(&[0], &[0]) - 0.5).abs() < 1e-12);
        assert!((m.expected_support(&[0, 1], &[1, 1]) - 0.5).abs() < 1e-12);
        assert!((m.expected_support(&[0, 1], &[0, 1]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_supports_match_expected_supports() {
        let s = schema();
        let c1 = MixtureClass::prototype(0.7, &s, &[0, 1], 0.8).unwrap();
        let c2 = MixtureClass::prototype(0.3, &s, &[2, 0], 0.9).unwrap();
        let m = MixtureModel::new(s, vec![c1, c2]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let ds = m.sample(60_000, &mut rng);
        for (attrs, values) in [
            (vec![0usize], vec![0u32]),
            (vec![1], vec![1]),
            (vec![0, 1], vec![0, 1]),
            (vec![0, 1], vec![2, 0]),
        ] {
            let expected = m.expected_support(&attrs, &values);
            let got = ds.itemset_support(&attrs, &values);
            assert!(
                (got - expected).abs() < 0.01,
                "itemset {attrs:?}={values:?}: sampled {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn frequent_profile_counts_exactly() {
        // Deterministic single class: record always [0, 0]. Every
        // subset-itemset containing only those values has support 1.
        let s = schema();
        let c = MixtureClass::prototype(1.0, &s, &[0, 0], 1.0).unwrap();
        let m = MixtureModel::new(s, vec![c]).unwrap();
        // Length 1: (a=0), (b=0) -> 2. Length 2: (a=0,b=0) -> 1.
        assert_eq!(m.frequent_profile(0.5), vec![2, 1]);
    }

    #[test]
    fn frequent_profile_threshold_monotone() {
        let s = schema();
        let c1 = MixtureClass::prototype(0.6, &s, &[0, 0], 0.9).unwrap();
        let c2 = MixtureClass::prototype(0.4, &s, &[1, 1], 0.9).unwrap();
        let m = MixtureModel::new(s, vec![c1, c2]).unwrap();
        let loose: usize = m.frequent_profile(0.05).iter().sum();
        let strict: usize = m.frequent_profile(0.3).iter().sum();
        assert!(loose >= strict);
    }

    #[test]
    fn sample_has_requested_size_and_valid_records() {
        let s = schema();
        let c = MixtureClass::prototype(1.0, &s, &[1, 0], 0.5).unwrap();
        let m = MixtureModel::new(s.clone(), vec![c]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let ds = m.sample(500, &mut rng);
        assert_eq!(ds.len(), 500);
        for r in ds.records() {
            assert!(s.validate_record(r).is_ok());
        }
    }
}
