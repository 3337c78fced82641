//! Categorical datasets: a schema plus `N` records.
//!
//! The reconstruction pipeline works on the count vector
//! `X = [X_1 … X_{|S_U|}]` of records per domain cell (paper Section
//! 2.2). [`Dataset`] owns the records and materialises count vectors,
//! projections and boolean views on demand.

use crate::schema::Schema;
use crate::{FrappError, Result};

/// An incrementally updatable count vector over a schema's domain.
///
/// [`Dataset::count_vector`] recomputes counts from scratch on every
/// call, which is the right shape for offline experiments but not for a
/// collection server ingesting a perturbed record stream. A
/// `CountAccumulator` is the streaming counterpart: `O(M)` per observed
/// record, mergeable across shards, and convertible into the same
/// `Vec<f64>` the reconstruction APIs consume.
#[derive(Debug, Clone, PartialEq)]
pub struct CountAccumulator {
    schema: Schema,
    counts: Vec<f64>,
    n: u64,
}

impl CountAccumulator {
    /// An empty accumulator over `schema`'s full domain.
    pub fn new(schema: Schema) -> Self {
        let counts = vec![0.0; schema.domain_size()];
        CountAccumulator {
            schema,
            counts,
            n: 0,
        }
    }

    /// Rebuilds an accumulator from a previously materialised count
    /// vector (e.g. a persisted snapshot being recovered). `counts`
    /// must hold exactly one finite, non-negative entry per domain
    /// cell; `n` is recovered as the rounded total, matching the
    /// invariant that every `observe` adds exactly 1.0 to one cell.
    /// Whole counts are summed as integers, so that a total past 2^53
    /// stays exact; fractional ones (or a total past `u64::MAX`) as
    /// `f64`.
    pub fn from_counts(schema: Schema, counts: Vec<f64>) -> Result<Self> {
        if counts.len() != schema.domain_size() {
            return Err(FrappError::InvalidParameter {
                name: "counts",
                reason: format!(
                    "expected {} domain cells, got {}",
                    schema.domain_size(),
                    counts.len()
                ),
            });
        }
        if counts.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return Err(FrappError::InvalidParameter {
                name: "counts",
                reason: "every count must be finite and non-negative".into(),
            });
        }
        let whole = counts.iter().try_fold(0u64, |n, &c| {
            // Below 2^64 a whole `f64` converts exactly.
            if c.fract() == 0.0 && c < 18_446_744_073_709_551_616.0 {
                n.checked_add(c as u64)
            } else {
                None
            }
        });
        let n = whole.unwrap_or_else(|| counts.iter().sum::<f64>().round() as u64);
        Ok(CountAccumulator { schema, counts, n })
    }

    /// The schema being counted over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records observed so far.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Validates `record` against the schema and counts it.
    pub fn observe(&mut self, record: &[u32]) -> Result<()> {
        let idx = self.schema.encode(record)?;
        self.observe_index(idx);
        Ok(())
    }

    /// Counts a pre-encoded domain index (trusted input — e.g. the
    /// output of this crate's own samplers).
    ///
    /// # Panics
    /// If `index` is outside the domain.
    pub fn observe_index(&mut self, index: usize) {
        self.counts[index] += 1.0;
        self.n += 1;
    }

    /// Counts a batch of pre-encoded domain indices (trusted input) —
    /// the ingest hot path's form: one record-count update per batch
    /// instead of one per record.
    ///
    /// # Panics
    /// If any index is outside the domain.
    pub fn observe_indices(&mut self, indices: &[usize]) {
        for &index in indices {
            self.counts[index] += 1.0;
        }
        self.n += indices.len() as u64;
    }

    /// Adds another accumulator's counts into this one. The two must
    /// share a schema.
    pub fn merge(&mut self, other: &CountAccumulator) -> Result<()> {
        if self.schema != other.schema {
            return Err(FrappError::InvalidParameter {
                name: "other",
                reason: "cannot merge accumulators over different schemas".into(),
            });
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        Ok(())
    }

    /// [`Self::merge`] with overflow checking: fails (leaving `self`
    /// untouched) if the merged record total would overflow `u64` or
    /// any merged cell count would leave the finite range. This is the
    /// variant a federated merge uses: a corrupt or adversarial peer
    /// snapshot must surface as an error, not wrap a counter.
    pub fn merge_checked(&mut self, other: &CountAccumulator) -> Result<()> {
        if self.schema != other.schema {
            return Err(FrappError::InvalidParameter {
                name: "other",
                reason: "cannot merge accumulators over different schemas".into(),
            });
        }
        let n = self
            .n
            .checked_add(other.n)
            .ok_or_else(|| FrappError::InvalidParameter {
                name: "other",
                reason: "merged record total overflows u64".into(),
            })?;
        // Validate every cell before mutating any: a failed merge must
        // not leave `self` half-updated.
        for (a, b) in self.counts.iter().zip(&other.counts) {
            if !(a + b).is_finite() {
                return Err(FrappError::InvalidParameter {
                    name: "other",
                    reason: "merged cell count is not finite".into(),
                });
            }
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n = n;
        Ok(())
    }

    /// The current count vector.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Consumes the accumulator, yielding the count vector.
    pub fn into_counts(self) -> Vec<f64> {
        self.counts
    }

    /// Resets all counts to zero.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0.0);
        self.n = 0;
    }
}

/// A categorical database: `N` records over a [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Schema,
    records: Vec<Vec<u32>>,
}

impl Dataset {
    /// Creates a dataset after validating every record against the
    /// schema.
    pub fn new(schema: Schema, records: Vec<Vec<u32>>) -> Result<Self> {
        for (i, r) in records.iter().enumerate() {
            schema
                .validate_record(r)
                .map_err(|e| FrappError::InvalidRecord {
                    reason: format!("record {i}: {e}"),
                })?;
        }
        Ok(Dataset { schema, records })
    }

    /// Creates a dataset without validation. Intended for perturbed
    /// output of this crate's own samplers, which is valid by
    /// construction.
    pub fn from_trusted(schema: Schema, records: Vec<Vec<u32>>) -> Self {
        Dataset { schema, records }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records `N`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records.
    pub fn records(&self) -> &[Vec<u32>] {
        &self.records
    }

    /// Validates one record against the schema and appends it.
    pub fn push(&mut self, record: Vec<u32>) -> Result<()> {
        self.schema
            .validate_record(&record)
            .map_err(|e| FrappError::InvalidRecord {
                reason: format!("record {}: {e}", self.records.len()),
            })?;
        self.records.push(record);
        Ok(())
    }

    /// Count vector `X` over the full domain: `X[u]` = number of records
    /// equal to domain cell `u`.
    pub fn count_vector(&self) -> Vec<f64> {
        self.count_accumulator().into_counts()
    }

    /// The same counts as [`Dataset::count_vector`], as a
    /// [`CountAccumulator`] that can keep absorbing a record stream or
    /// be merged with per-shard accumulators.
    pub fn count_accumulator(&self) -> CountAccumulator {
        let mut acc = CountAccumulator::new(self.schema.clone());
        for r in &self.records {
            let idx = self
                .schema
                .encode(r)
                .expect("records validated at construction");
            acc.observe_index(idx);
        }
        acc
    }

    /// Count vector over the sub-domain spanned by `attrs`.
    pub fn projected_counts(&self, attrs: &[usize]) -> Vec<f64> {
        let mut counts = vec![0.0; self.schema.subdomain_size(attrs)];
        for r in &self.records {
            counts[self.schema.encode_projection(r, attrs)] += 1.0;
        }
        counts
    }

    /// Fraction of records whose projection onto `attrs` equals
    /// `values` — the *support* of the itemset `{(attrs[i] = values[i])}`
    /// in the paper's Section 6 terminology.
    pub fn itemset_support(&self, attrs: &[usize], values: &[u32]) -> f64 {
        assert_eq!(attrs.len(), values.len(), "attrs/values length mismatch");
        if self.records.is_empty() {
            return 0.0;
        }
        let hits = self
            .records
            .iter()
            .filter(|r| attrs.iter().zip(values).all(|(&j, &v)| r[j] == v))
            .count();
        hits as f64 / self.records.len() as f64
    }

    /// The boolean view used by MASK-style methods: each record becomes
    /// a bit row of width `Σ_j |S_j|` with exactly one bit set per
    /// attribute.
    pub fn to_boolean(&self) -> Vec<Vec<bool>> {
        let width = self.schema.boolean_width();
        self.records
            .iter()
            .map(|r| {
                let mut row = vec![false; width];
                for (j, &v) in r.iter().enumerate() {
                    row[self.schema.boolean_offset(j) + v as usize] = true;
                }
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![("a", 2), ("b", 3)]).unwrap()
    }

    #[test]
    fn from_counts_roundtrips_and_validates() {
        let s = schema();
        let mut acc = CountAccumulator::new(s.clone());
        acc.observe(&[0, 0]).unwrap();
        acc.observe(&[0, 0]).unwrap();
        acc.observe(&[1, 2]).unwrap();
        let rebuilt = CountAccumulator::from_counts(s.clone(), acc.counts().to_vec()).unwrap();
        assert_eq!(rebuilt.n(), 3);
        assert_eq!(rebuilt.counts(), acc.counts());

        // Wrong length, negative and non-finite vectors are rejected.
        assert!(CountAccumulator::from_counts(s.clone(), vec![0.0; 2]).is_err());
        assert!(CountAccumulator::from_counts(s.clone(), vec![-1.0; 6]).is_err());
        assert!(CountAccumulator::from_counts(s, vec![f64::NAN; 6]).is_err());
    }

    #[test]
    fn merge_adds_counts_and_rejects_schema_mismatch() {
        let s = schema();
        let mut a = CountAccumulator::new(s.clone());
        a.observe(&[0, 0]).unwrap();
        let mut b = CountAccumulator::new(s.clone());
        b.observe(&[1, 2]).unwrap();
        b.observe(&[1, 2]).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.n(), 3);
        assert_eq!(a.counts()[s.encode(&[1, 2]).unwrap()], 2.0);

        let other = Schema::new(vec![("a", 4)]).unwrap();
        let c = CountAccumulator::new(other);
        assert!(a.merge(&c).is_err());
        assert!(a.merge_checked(&c).is_err());
    }

    #[test]
    fn merge_checked_refuses_overflow_without_mutating() {
        let s = schema();
        let mut a =
            CountAccumulator::from_counts(s.clone(), vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        // Force the overflow arms directly: `n` at the ceiling and a
        // cell near f64::MAX can never arise from unit observations,
        // but a corrupt peer snapshot could claim them.
        let mut big = CountAccumulator::new(s.clone());
        big.n = u64::MAX;
        assert!(a.merge_checked(&big).is_err());
        assert_eq!(a.n(), 1, "failed merge must leave self untouched");

        let mut huge = CountAccumulator::new(s.clone());
        huge.counts[0] = f64::MAX;
        let mut b = CountAccumulator::new(s);
        b.counts[0] = f64::MAX;
        b.n = 1;
        assert!(huge.merge_checked(&b).is_err());
        assert_eq!(huge.counts()[0], f64::MAX, "no cell may be half-merged");
    }

    #[test]
    fn new_validates_records() {
        let s = schema();
        assert!(Dataset::new(s.clone(), vec![vec![0, 0], vec![1, 2]]).is_ok());
        assert!(Dataset::new(s.clone(), vec![vec![2, 0]]).is_err());
        assert!(Dataset::new(s, vec![vec![0]]).is_err());
    }

    #[test]
    fn count_vector_sums_to_n() {
        let s = schema();
        let ds = Dataset::new(s, vec![vec![0, 0], vec![0, 0], vec![1, 2]]).unwrap();
        let x = ds.count_vector();
        assert_eq!(x.iter().sum::<f64>(), 3.0);
        assert_eq!(x[0], 2.0); // [0,0] encodes to 0
        assert_eq!(x[5], 1.0); // [1,2] encodes to 1*3+2 = 5
    }

    #[test]
    fn projected_counts_marginalize() {
        let s = schema();
        let ds = Dataset::new(s, vec![vec![0, 0], vec![0, 1], vec![1, 1], vec![1, 1]]).unwrap();
        let pa = ds.projected_counts(&[0]);
        assert_eq!(pa, vec![2.0, 2.0]);
        let pb = ds.projected_counts(&[1]);
        assert_eq!(pb, vec![1.0, 3.0, 0.0]);
    }

    #[test]
    fn itemset_support_counts_matches() {
        let s = schema();
        let ds = Dataset::new(s, vec![vec![0, 0], vec![0, 1], vec![1, 1], vec![1, 1]]).unwrap();
        assert_eq!(ds.itemset_support(&[0], &[1]), 0.5);
        assert_eq!(ds.itemset_support(&[0, 1], &[1, 1]), 0.5);
        assert_eq!(ds.itemset_support(&[1], &[2]), 0.0);
    }

    #[test]
    fn empty_dataset_support_is_zero() {
        let ds = Dataset::new(schema(), vec![]).unwrap();
        assert!(ds.is_empty());
        assert_eq!(ds.itemset_support(&[0], &[0]), 0.0);
    }

    #[test]
    fn boolean_view_has_one_bit_per_attribute() {
        let s = schema();
        let ds = Dataset::new(s.clone(), vec![vec![1, 2]]).unwrap();
        let b = ds.to_boolean();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].len(), 5);
        // attribute 0 (width 2): bit 1 set; attribute 1 (width 3): bit 2+2=4.
        assert_eq!(b[0], vec![false, true, false, false, true]);
    }

    #[test]
    fn accumulator_matches_count_vector() {
        let s = schema();
        let records: Vec<Vec<u32>> = (0..40).map(|i| vec![i % 2, i % 3]).collect();
        let ds = Dataset::new(s.clone(), records.clone()).unwrap();
        let mut acc = CountAccumulator::new(s);
        for r in &records {
            acc.observe(r).unwrap();
        }
        assert_eq!(acc.n(), 40);
        assert_eq!(acc.counts(), ds.count_vector().as_slice());
        assert_eq!(ds.count_accumulator(), acc);
    }

    #[test]
    fn accumulator_merge_equals_single_stream() {
        let s = schema();
        let records: Vec<Vec<u32>> = (0..30).map(|i| vec![i % 2, (i / 2) % 3]).collect();
        let mut whole = CountAccumulator::new(s.clone());
        let mut left = CountAccumulator::new(s.clone());
        let mut right = CountAccumulator::new(s.clone());
        for (i, r) in records.iter().enumerate() {
            whole.observe(r).unwrap();
            if i % 2 == 0 {
                left.observe(r).unwrap();
            } else {
                right.observe(r).unwrap();
            }
        }
        left.merge(&right).unwrap();
        assert_eq!(left, whole);
        // Schema mismatch is rejected.
        let other = CountAccumulator::new(Schema::new(vec![("z", 4)]).unwrap());
        assert!(left.merge(&other).is_err());
    }

    #[test]
    fn accumulator_rejects_invalid_and_clears() {
        let s = schema();
        let mut acc = CountAccumulator::new(s);
        assert!(acc.observe(&[5, 0]).is_err());
        acc.observe(&[1, 2]).unwrap();
        assert_eq!(acc.n(), 1);
        acc.clear();
        assert_eq!(acc.n(), 0);
        assert!(acc.counts().iter().all(|&c| c == 0.0));
    }

    #[test]
    fn push_validates_and_appends() {
        let s = schema();
        let mut ds = Dataset::new(s, vec![]).unwrap();
        assert!(ds.push(vec![1, 2]).is_ok());
        assert!(ds.push(vec![2, 0]).is_err());
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn projection_counts_total_is_n() {
        let s = schema();
        let records: Vec<Vec<u32>> = (0..30).map(|i| vec![i % 2, i % 3]).collect();
        let ds = Dataset::new(s, records).unwrap();
        for attrs in [vec![0usize], vec![1], vec![0, 1]] {
            assert_eq!(ds.projected_counts(&attrs).iter().sum::<f64>(), 30.0);
        }
    }
}
