//! Property tests for the `CountAccumulator` merge algebra.
//!
//! A federated collection tier merges per-node accumulators in whatever
//! order fan-out responses arrive, so the merge must be a commutative
//! monoid over integral count vectors: `a ⊕ b = b ⊕ a`,
//! `(a ⊕ b) ⊕ c = a ⊕ (b ⊕ c)`, with the empty accumulator as the
//! identity. Integral counts (every observation adds exactly 1.0 to one
//! cell) keep f64 addition exact below 2^53, so these laws hold
//! *bitwise*, not just approximately — the foundation of the federated
//! tier's bit-identical reconstruction guarantee.

use frapp_core::{CountAccumulator, Schema};
use proptest::prelude::*;

fn schema_strategy() -> impl Strategy<Value = Schema> {
    prop::collection::vec(2u32..=5, 1..=4).prop_map(|cards| {
        let specs: Vec<(&str, u32)> = cards.iter().map(|&c| ("a", c)).collect();
        Schema::new(specs).expect("valid cardinalities")
    })
}

/// An accumulator over `schema` filled from a seed of raw indices.
fn filled(schema: &Schema, raw: &[usize]) -> CountAccumulator {
    let mut acc = CountAccumulator::new(schema.clone());
    for &r in raw {
        acc.observe_index(r % schema.domain_size());
    }
    acc
}

proptest! {
    /// Merge is commutative, bitwise.
    #[test]
    fn merge_is_commutative(
        schema in schema_strategy(),
        xs in prop::collection::vec(0usize..10_000, 0..64),
        ys in prop::collection::vec(0usize..10_000, 0..64),
    ) {
        let a = filled(&schema, &xs);
        let b = filled(&schema, &ys);
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(ab.counts(), ba.counts());
        prop_assert_eq!(ab.n(), ba.n());
    }

    /// Merge is associative, bitwise, and the checked variant agrees
    /// with the unchecked one on well-formed inputs.
    #[test]
    fn merge_is_associative(
        schema in schema_strategy(),
        xs in prop::collection::vec(0usize..10_000, 0..48),
        ys in prop::collection::vec(0usize..10_000, 0..48),
        zs in prop::collection::vec(0usize..10_000, 0..48),
    ) {
        let a = filled(&schema, &xs);
        let b = filled(&schema, &ys);
        let c = filled(&schema, &zs);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b).unwrap();
        left.merge(&c).unwrap();
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut right = a.clone();
        right.merge(&bc).unwrap();

        prop_assert_eq!(left.counts(), right.counts());
        prop_assert_eq!(left.n(), right.n());

        // merge_checked agrees with merge on the same sane inputs:
        // the same counts and the same record total.
        let mut checked = a.clone();
        checked.merge_checked(&b).unwrap();
        checked.merge_checked(&c).unwrap();
        prop_assert_eq!(checked.counts(), left.counts());
        prop_assert_eq!(checked.n(), left.n());
    }

    /// The empty accumulator is a two-sided identity.
    #[test]
    fn empty_is_identity(
        schema in schema_strategy(),
        xs in prop::collection::vec(0usize..10_000, 0..64),
    ) {
        let a = filled(&schema, &xs);
        let empty = CountAccumulator::new(schema);
        let mut left = empty.clone();
        left.merge(&a).unwrap();
        let mut right = a.clone();
        right.merge(&empty).unwrap();
        prop_assert_eq!(left.counts(), a.counts());
        prop_assert_eq!(right.counts(), a.counts());
        prop_assert_eq!(left.n(), a.n());
        prop_assert_eq!(right.n(), a.n());
    }
}
