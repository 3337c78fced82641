//! A uniform synthetic generator for tests and micro-benchmarks.

use frapp_core::schema::Schema;
use frapp_core::Dataset;
use rand::Rng;
use rand::RngCore;

/// A dataset with every attribute drawn independently and uniformly —
/// the "no structure" null model (nothing beyond trivial itemsets is
/// frequent at realistic thresholds on large domains).
pub fn uniform(schema: &Schema, n: usize, rng: &mut dyn RngCore) -> Dataset {
    let records = (0..n)
        .map(|_| {
            (0..schema.num_attributes())
                .map(|j| rng.gen_range(0..schema.cardinality(j)))
                .collect()
        })
        .collect();
    Dataset::from_trusted(schema.clone(), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(vec![("a", 4), ("b", 3)]).unwrap()
    }

    #[test]
    fn uniform_covers_domain_roughly_evenly() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(1);
        let ds = uniform(&s, 24_000, &mut rng);
        let counts = ds.count_vector();
        for &c in &counts {
            // 12 cells, expected 2000 each.
            assert!((c - 2000.0).abs() < 300.0, "cell count {c}");
        }
    }

    #[test]
    fn generators_respect_n_and_validity() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(3);
        for n in [0, 77] {
            let ds = uniform(&s, n, &mut rng);
            assert_eq!(ds.len(), n);
            for r in ds.records() {
                assert!(s.validate_record(r).is_ok());
            }
        }
    }
}
