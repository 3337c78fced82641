//! The categorical data model of the paper's Section 2.
//!
//! A database `U` has `N` records over `M` categorical attributes; the
//! domain of attribute `j` is `S_j` with finite cardinality `|S_j|`. The
//! record domain is the cross product `S_U = Π_j S_j`, mapped to the
//! index set `I_U = {0, …, |S_U|−1}` (the paper uses 1-based indices; we
//! use 0-based throughout). [`Schema`] owns the attribute metadata and
//! the mixed-radix bijection between attribute-value tuples and `I_U`.

use crate::{FrappError, Result};

/// The largest arity [`Schema::encode_batch`] encodes with an encoder
/// compiled for that arity; a wider schema takes [`Schema::encode`]
/// record by record. It covers the paper's CENSUS (6 attributes) and
/// HEALTH (7).
const FIXED_ARITY_CAP: usize = 8;

/// A single categorical attribute: a name plus a finite domain
/// `{0, …, cardinality−1}`. Continuous source attributes are expected to
/// be discretised into intervals before entering the framework (the
/// paper partitions its continuous CENSUS/HEALTH attributes into
/// equi-width intervals, Tables 1 and 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    name: String,
    cardinality: u32,
    /// Optional human-readable labels for each category (e.g. the
    /// interval strings of the paper's Table 1). Empty when unspecified.
    labels: Vec<String>,
}

impl Attribute {
    /// Creates an attribute with `cardinality` unlabeled categories.
    pub fn new(name: impl Into<String>, cardinality: u32) -> Result<Self> {
        if cardinality == 0 {
            return Err(FrappError::InvalidParameter {
                name: "cardinality",
                reason: "attribute domain must be non-empty".into(),
            });
        }
        Ok(Attribute {
            name: name.into(),
            cardinality,
            labels: Vec::new(),
        })
    }

    /// Creates an attribute whose categories carry the given labels.
    pub fn with_labels(name: impl Into<String>, labels: Vec<String>) -> Result<Self> {
        let card = labels.len() as u32;
        let mut a = Attribute::new(name, card)?;
        a.labels = labels;
        Ok(a)
    }

    /// The attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of categories in the domain.
    pub fn cardinality(&self) -> u32 {
        self.cardinality
    }

    /// Label for category `value`, if labels were provided.
    pub fn label(&self, value: u32) -> Option<&str> {
        self.labels.get(value as usize).map(String::as_str)
    }
}

/// The schema of a categorical database: an ordered list of attributes
/// plus precomputed radix information for encoding records as domain
/// indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attributes: Vec<Attribute>,
    /// `strides[j]` = Π_{k>j} |S_k|, so that
    /// `index = Σ_j record[j] * strides[j]` — attribute 0 is the most
    /// significant digit.
    strides: Vec<usize>,
    /// Per-attribute cardinalities, contiguous: the encode hot loop
    /// bounds-checks against this array instead of chasing pointers
    /// into the (string-bearing, cache-sparse) `Attribute` structs.
    cards: Vec<u32>,
    domain_size: usize,
}

impl Schema {
    /// Builds a schema from `(name, cardinality)` pairs.
    pub fn new(specs: Vec<(&str, u32)>) -> Result<Self> {
        let attrs = specs
            .into_iter()
            .map(|(n, c)| Attribute::new(n, c))
            .collect::<Result<Vec<_>>>()?;
        Schema::from_attributes(attrs)
    }

    /// Builds a schema from fully-specified attributes.
    pub fn from_attributes(attributes: Vec<Attribute>) -> Result<Self> {
        if attributes.is_empty() {
            return Err(FrappError::InvalidParameter {
                name: "attributes",
                reason: "schema must have at least one attribute".into(),
            });
        }
        let m = attributes.len();
        let mut strides = vec![0usize; m];
        let mut acc: usize = 1;
        for j in (0..m).rev() {
            strides[j] = acc;
            acc = acc
                .checked_mul(attributes[j].cardinality() as usize)
                .ok_or(FrappError::DomainTooLarge { attributes: m - j })?;
        }
        let cards = attributes.iter().map(Attribute::cardinality).collect();
        Ok(Schema {
            attributes,
            strides,
            cards,
            domain_size: acc,
        })
    }

    /// Number of attributes `M`.
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// The attributes, in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Attribute `j`.
    pub fn attribute(&self, j: usize) -> &Attribute {
        &self.attributes[j]
    }

    /// Cardinality `|S_j|` of attribute `j`.
    pub fn cardinality(&self, j: usize) -> u32 {
        self.attributes[j].cardinality()
    }

    /// Total domain size `|S_U| = Π_j |S_j|`.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// Width of the boolean mapping `M_b = Σ_j |S_j|` used by MASK: each
    /// categorical attribute becomes `|S_j|` boolean columns of which
    /// exactly one is set per record.
    pub fn boolean_width(&self) -> usize {
        self.attributes
            .iter()
            .map(|a| a.cardinality() as usize)
            .sum()
    }

    /// Offset of attribute `j`'s first boolean column in the boolean
    /// mapping.
    pub fn boolean_offset(&self, j: usize) -> usize {
        self.attributes[..j]
            .iter()
            .map(|a| a.cardinality() as usize)
            .sum()
    }

    /// Maps a boolean column index back to `(attribute, category)`.
    pub fn boolean_column_to_item(&self, col: usize) -> Option<(usize, u32)> {
        let mut start = 0usize;
        for (j, a) in self.attributes.iter().enumerate() {
            let width = a.cardinality() as usize;
            if col < start + width {
                return Some((j, (col - start) as u32));
            }
            start += width;
        }
        None
    }

    /// Validates that `record` has one in-domain value per attribute.
    pub fn validate_record(&self, record: &[u32]) -> Result<()> {
        if record.len() != self.num_attributes() {
            return Err(FrappError::InvalidRecord {
                reason: format!(
                    "expected {} attributes, got {}",
                    self.num_attributes(),
                    record.len()
                ),
            });
        }
        for (j, (&v, a)) in record.iter().zip(&self.attributes).enumerate() {
            if v >= a.cardinality() {
                return Err(FrappError::InvalidRecord {
                    reason: format!(
                        "attribute {j} (`{}`) value {v} out of domain 0..{}",
                        a.name(),
                        a.cardinality()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Encodes a record as its index in `I_U` (mixed-radix, attribute 0
    /// most significant). Validation and accumulation run in a single
    /// pass over contiguous arrays — this sits on the server's ingest
    /// hot path, where encoding a batch is the per-record cost — with
    /// diagnostic message construction kept out of line.
    pub fn encode(&self, record: &[u32]) -> Result<usize> {
        if record.len() != self.cards.len() {
            return Err(self.wrong_length_error(record.len()));
        }
        let mut index = 0usize;
        for ((&v, &card), &stride) in record.iter().zip(&self.cards).zip(&self.strides) {
            if v >= card {
                return Err(self.out_of_domain_error(record));
            }
            index += v as usize * stride;
        }
        Ok(index)
    }

    /// Encodes `records` in order, appending each index to `out`, and
    /// stops at the first invalid record with [`Schema::encode`]'s error
    /// for it; the valid prefix stays in `out`.
    ///
    /// This is the server's per-batch encode. For a schema of at most
    /// `FIXED_ARITY_CAP` (8) attributes it picks, once per batch, an
    /// encoder compiled for exactly that arity: the per-record loop is
    /// unrolled and validates without a branch per attribute. A record
    /// that encoder rejects goes to [`Schema::encode`], which gives the
    /// error, so the indices and errors are `encode`'s either way.
    pub fn encode_batch<R: AsRef<[u32]>>(
        &self,
        records: impl IntoIterator<Item = R>,
        out: &mut Vec<usize>,
    ) -> Result<()> {
        let records = records.into_iter();
        match self.cards.len() {
            1 => self.encode_fixed::<1, R>(records, out),
            2 => self.encode_fixed::<2, R>(records, out),
            3 => self.encode_fixed::<3, R>(records, out),
            4 => self.encode_fixed::<4, R>(records, out),
            5 => self.encode_fixed::<5, R>(records, out),
            6 => self.encode_fixed::<6, R>(records, out),
            7 => self.encode_fixed::<7, R>(records, out),
            FIXED_ARITY_CAP => self.encode_fixed::<FIXED_ARITY_CAP, R>(records, out),
            _ => {
                for record in records {
                    out.push(self.encode(record.as_ref())?);
                }
                Ok(())
            }
        }
    }

    /// [`Schema::encode_batch`] at arity `A`, which must be the schema's.
    fn encode_fixed<const A: usize, R: AsRef<[u32]>>(
        &self,
        records: impl Iterator<Item = R>,
        out: &mut Vec<usize>,
    ) -> Result<()> {
        let encoder = FixedArity::<A>::new(self);
        for record in records {
            let record = record.as_ref();
            match encoder.encode(record) {
                Some(index) => out.push(index),
                None => out.push(self.encode(record)?),
            }
        }
        Ok(())
    }

    #[cold]
    fn wrong_length_error(&self, got: usize) -> FrappError {
        FrappError::InvalidRecord {
            reason: format!("expected {} attributes, got {got}", self.num_attributes()),
        }
    }

    #[cold]
    fn out_of_domain_error(&self, record: &[u32]) -> FrappError {
        for (j, (&v, a)) in record.iter().zip(&self.attributes).enumerate() {
            if v >= a.cardinality() {
                return FrappError::InvalidRecord {
                    reason: format!(
                        "attribute {j} (`{}`) value {v} out of domain 0..{}",
                        a.name(),
                        a.cardinality()
                    ),
                };
            }
        }
        unreachable!("out_of_domain_error called on a valid record")
    }

    /// Decodes a domain index back into a record.
    ///
    /// # Panics
    /// Panics if `index >= self.domain_size()`.
    pub fn decode(&self, index: usize) -> Vec<u32> {
        assert!(
            index < self.domain_size,
            "index {index} out of domain {}",
            self.domain_size
        );
        let mut rec = Vec::with_capacity(self.num_attributes());
        let mut rest = index;
        for &s in &self.strides {
            rec.push((rest / s) as u32);
            rest %= s;
        }
        rec
    }

    /// Domain size of the sub-domain spanned by the attribute subset
    /// `attrs` (the paper's `n_Cs = Π_{j∈Cs} |S_j|`).
    pub fn subdomain_size(&self, attrs: &[usize]) -> usize {
        attrs
            .iter()
            .map(|&j| self.cardinality(j) as usize)
            .product()
    }

    /// Encodes the projection of a record onto `attrs` as an index into
    /// the sub-domain (mixed radix in the order of `attrs`).
    pub fn encode_projection(&self, record: &[u32], attrs: &[usize]) -> usize {
        let mut idx = 0usize;
        for &j in attrs {
            idx = idx * self.cardinality(j) as usize + record[j] as usize;
        }
        idx
    }
}

/// A record encoder for schemas of exactly `A` attributes, the
/// cardinalities and strides copied into arrays so the loop over a
/// record's cells has a compile-time trip count.
struct FixedArity<const A: usize> {
    cards: [u32; A],
    strides: [usize; A],
}

impl<const A: usize> FixedArity<A> {
    /// The encoder for `schema`, which must have `A` attributes.
    fn new(schema: &Schema) -> Self {
        FixedArity {
            cards: std::array::from_fn(|j| schema.cards[j]),
            strides: std::array::from_fn(|j| schema.strides[j]),
        }
    }

    /// The record's index, or `None` if it has another length or a cell
    /// out of its attribute's domain. Every cell is checked and
    /// accumulated without a branch; the sum wraps, because a rejected
    /// record's may overflow and is discarded.
    #[inline]
    fn encode(&self, record: &[u32]) -> Option<usize> {
        let record: &[u32; A] = record.try_into().ok()?;
        let mut valid = true;
        let mut index = 0usize;
        for ((&v, &card), &stride) in record.iter().zip(&self.cards).zip(&self.strides) {
            valid &= v < card;
            index = index.wrapping_add((v as usize).wrapping_mul(stride));
        }
        valid.then_some(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Schema {
        Schema::new(vec![("a", 3), ("b", 2), ("c", 4)]).unwrap()
    }

    #[test]
    fn attribute_rejects_empty_domain() {
        assert!(Attribute::new("x", 0).is_err());
    }

    #[test]
    fn attribute_labels_round_trip() {
        let a = Attribute::with_labels("sex", vec!["Female".into(), "Male".into()]).unwrap();
        assert_eq!(a.cardinality(), 2);
        assert_eq!(a.label(1), Some("Male"));
        assert_eq!(a.label(2), None);
    }

    #[test]
    fn schema_rejects_empty() {
        assert!(Schema::from_attributes(vec![]).is_err());
    }

    #[test]
    fn domain_size_is_product() {
        assert_eq!(small().domain_size(), 24);
    }

    #[test]
    fn boolean_width_is_sum() {
        let s = small();
        assert_eq!(s.boolean_width(), 9);
        assert_eq!(s.boolean_offset(0), 0);
        assert_eq!(s.boolean_offset(1), 3);
        assert_eq!(s.boolean_offset(2), 5);
    }

    #[test]
    fn boolean_column_mapping() {
        let s = small();
        assert_eq!(s.boolean_column_to_item(0), Some((0, 0)));
        assert_eq!(s.boolean_column_to_item(2), Some((0, 2)));
        assert_eq!(s.boolean_column_to_item(3), Some((1, 0)));
        assert_eq!(s.boolean_column_to_item(8), Some((2, 3)));
        assert_eq!(s.boolean_column_to_item(9), None);
    }

    #[test]
    fn encode_decode_round_trip_entire_domain() {
        let s = small();
        for idx in 0..s.domain_size() {
            let rec = s.decode(idx);
            assert_eq!(s.encode(&rec).unwrap(), idx);
        }
    }

    #[test]
    fn encode_is_mixed_radix_most_significant_first() {
        let s = small();
        // record [1, 0, 2]: 1*(2*4) + 0*4 + 2 = 10
        assert_eq!(s.encode(&[1, 0, 2]).unwrap(), 10);
        assert_eq!(s.decode(10), vec![1, 0, 2]);
    }

    #[test]
    fn encode_rejects_out_of_domain() {
        let s = small();
        assert!(s.encode(&[3, 0, 0]).is_err());
        assert!(s.encode(&[0, 0]).is_err());
        assert!(s.encode(&[0, 0, 0, 0]).is_err());
    }

    #[test]
    fn subdomain_size_matches_product() {
        let s = small();
        assert_eq!(s.subdomain_size(&[0, 2]), 12);
        assert_eq!(s.subdomain_size(&[1]), 2);
        assert_eq!(s.subdomain_size(&[]), 1);
    }

    #[test]
    fn encode_projection_consistency() {
        let s = small();
        let rec = [2, 1, 3];
        // Projection onto [0, 2]: 2 * 4 + 3 = 11.
        assert_eq!(s.encode_projection(&rec, &[0, 2]), 11);
        // Full projection equals full encode.
        assert_eq!(
            s.encode_projection(&rec, &[0, 1, 2]),
            s.encode(&rec).unwrap()
        );
    }

    #[test]
    fn projection_covers_subdomain_bijectively() {
        let s = small();
        let attrs = [0usize, 2usize];
        let mut seen = vec![false; s.subdomain_size(&attrs)];
        for idx in 0..s.domain_size() {
            let rec = s.decode(idx);
            seen[s.encode_projection(&rec, &attrs)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn census_schema_domain_is_2000() {
        // Table 1 of the paper: 4 * 5 * 5 * 5 * 2 * 2 = 2000.
        let s = Schema::new(vec![
            ("age", 4),
            ("fnlwgt", 5),
            ("hours-per-week", 5),
            ("race", 5),
            ("sex", 2),
            ("native-country", 2),
        ])
        .unwrap();
        assert_eq!(s.domain_size(), 2000);
        assert_eq!(s.boolean_width(), 23);
    }

    /// A seeded record for `schema`: in-domain cells mostly, and now and
    /// then a cell at `card − 1`, `card` or `u32::MAX`, a ragged or an
    /// empty record.
    fn seeded_record(schema: &Schema, rng: &mut impl rand::Rng) -> Vec<u32> {
        let arity = schema.num_attributes();
        let len = match rng.gen_range(0..16) {
            0 => 0,
            1 => rng.gen_range(0..arity + 3),
            _ => arity,
        };
        (0..len)
            .map(|j| {
                let card = schema.cards.get(j).copied().unwrap_or(3);
                match rng.gen_range(0..40) {
                    0 => card - 1,
                    1 => card,
                    2 => u32::MAX,
                    3 => rng.gen_range(card..card.saturating_mul(4)),
                    _ => rng.gen_range(0..card),
                }
            })
            .collect()
    }

    /// What the batch encode must give: [`Schema::encode`] record by
    /// record up to the first error.
    fn encode_one_by_one(
        schema: &Schema,
        records: &[Vec<u32>],
    ) -> (Vec<usize>, Option<FrappError>) {
        let mut indices = Vec::new();
        for record in records {
            match schema.encode(record) {
                Ok(index) => indices.push(index),
                Err(e) => return (indices, Some(e)),
            }
        }
        (indices, None)
    }

    /// Holds [`Schema::encode_batch`] to [`Schema::encode`] on about
    /// `records` seeded records in batches of up to 23, at every arity
    /// from 1 to one past the fixed-arity cap: each record alone, then
    /// whole batches.
    fn assert_batch_encode_agrees(records: usize) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(39);
        let (mut made, mut rejected) = (0, 0);
        for arity in 1..=FIXED_ARITY_CAP + 1 {
            while made < records * arity / (FIXED_ARITY_CAP + 1) {
                // Cardinalities up to 10, or a wide attribute now and then.
                let specs: Vec<(&str, u32)> = (0..arity)
                    .map(|_| match rng.gen_range(0..8) {
                        0 => ("w", rng.gen_range(11..70_000)),
                        _ => ("a", rng.gen_range(1..11)),
                    })
                    .collect();
                let Ok(schema) = Schema::new(specs) else {
                    continue; // a domain past usize::MAX
                };
                let batch: Vec<Vec<u32>> = (0..rng.gen_range(0..24))
                    .map(|_| seeded_record(&schema, &mut rng))
                    .collect();
                made += batch.len();
                for record in &batch {
                    let mut out = vec![7];
                    let got = schema.encode_batch([record], &mut out);
                    match schema.encode(record) {
                        Ok(index) => assert_eq!((got, out), (Ok(()), vec![7, index]), "{record:?}"),
                        Err(e) => {
                            rejected += 1;
                            assert_eq!((got, out), (Err(e), vec![7]), "{record:?}");
                        }
                    }
                }
                let mut out = Vec::new();
                let got = schema.encode_batch(&batch, &mut out);
                let (want, error) = encode_one_by_one(&schema, &batch);
                assert_eq!(out, want, "{schema:?} {batch:?}");
                assert_eq!(got.err(), error, "{schema:?} {batch:?}");
            }
        }
        assert!(
            rejected > records / 10,
            "only {rejected} of {made} records rejected"
        );
    }

    #[test]
    fn batch_encode_agrees_with_encode_at_every_arity() {
        assert_batch_encode_agrees(50_000);
    }

    #[test]
    #[ignore = "10^6 seeded records; run in release"]
    fn a_million_records_encode_as_encode_does() {
        assert_batch_encode_agrees(1_000_000);
    }

    #[test]
    fn batch_encode_keeps_the_valid_prefix_and_the_first_error() {
        let s = small();
        let good = [vec![1, 0, 2], vec![2, 1, 3], vec![0, 0, 0]];
        for bad in [
            vec![3, 0, 0],
            vec![0, 2, 0],
            vec![0, 0, 4],
            vec![0, 0],
            vec![],
        ] {
            for at in 0..=good.len() {
                let mut batch = good.to_vec();
                batch.insert(at, bad.clone());
                let mut out = Vec::new();
                let err = s.encode_batch(&batch, &mut out).unwrap_err();
                assert_eq!(err, s.encode(&bad).unwrap_err());
                let prefix: Vec<usize> = good[..at].iter().map(|r| s.encode(r).unwrap()).collect();
                assert_eq!(out, prefix);
            }
        }
        // The exact texts of both errors.
        let mut out = Vec::new();
        let err = s.encode_batch([[0, 2, 0]], &mut out).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid record: attribute 1 (`b`) value 2 out of domain 0..2"
        );
        let err = s.encode_batch([[0u32; 4]], &mut out).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid record: expected 3 attributes, got 4"
        );
    }

    #[test]
    fn overflow_is_detected() {
        let specs: Vec<(&str, u32)> = (0..11).map(|_| ("big", 1_000_000u32)).collect();
        let err = Schema::new(specs).unwrap_err();
        assert!(matches!(err, FrappError::DomainTooLarge { .. }));
    }
}
