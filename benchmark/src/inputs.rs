//! Seeded inputs: record pools the generators cycle through, the true
//! histogram of what was sent, and the exact-mining reference.
//!
//! Everything here derives from `--seed`; the server only ever sees
//! the generated requests.

use frapp_core::perturb::{GammaDiagonal, Perturber};
use frapp_core::schema::Schema;
use frapp_mining::apriori::{apriori, AprioriParams, FrequentItemsets, SupportEstimator};
use frapp_mining::ItemSet;
use frapp_service::json::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's amplification bound (ρ1 = 5%, ρ2 = 50%).
pub const GAMMA: f64 = 19.0;
/// The paper's mining threshold.
pub const MIN_SUPPORT: f64 = 0.02;

/// Which of the paper's two schemas a pool draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// 6 attributes, 2000 cells.
    Census,
    /// 7 attributes, 7500 cells.
    Health,
}

impl Data {
    pub fn schema(self) -> Schema {
        match self {
            Data::Census => frapp_data::census::schema(),
            Data::Health => frapp_data::health::schema(),
        }
    }

    fn raw_records(self, n: usize, seed: u64) -> Vec<Vec<u32>> {
        let dataset = match self {
            Data::Census => frapp_data::census::census_like_n(n, seed),
            Data::Health => frapp_data::health::health_like_n(n, seed),
        };
        dataset.records().to_vec()
    }
}

/// `(name, cardinality)` pairs for `SessionSpec`.
pub fn schema_pairs(schema: &Schema) -> Vec<(String, u32)> {
    schema
        .attributes()
        .iter()
        .map(|a| (a.name().to_owned(), a.cardinality()))
        .collect()
}

/// A fixed pool of request batches, cycled through by the generators.
pub struct Pool {
    pub schema: Schema,
    /// What goes on the wire: raw records, or their client-side
    /// perturbation when the pool was built `pre_perturbed`.
    pub batches: Vec<Vec<Vec<u32>>>,
    /// The *raw* domain cell of every record, same layout as `batches`
    /// — the ground truth the perturbation hides.
    pub raw_cells: Vec<Vec<u32>>,
    pub pre_perturbed: bool,
}

impl Pool {
    /// `records` seeded records in batches of `batch` (a ragged last
    /// batch is dropped so every request has the same size).
    pub fn generate(
        data: Data,
        seed: u64,
        records: usize,
        batch: usize,
        pre_perturbed: bool,
    ) -> Pool {
        let schema = data.schema();
        let raw = data.raw_records(records, seed);
        let raw_cells: Vec<u32> = raw
            .iter()
            .map(|r| {
                schema
                    .encode(r)
                    .expect("generated records are schema-valid") as u32
            })
            .collect();
        let wire = if pre_perturbed {
            // The paper's trust model: each client perturbs its own
            // record, so the server never sees `raw`.
            let gd = GammaDiagonal::new(&schema, GAMMA).expect("gamma 19 is valid");
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
            gd.perturb_dataset(&raw, &mut rng)
                .expect("generated records are schema-valid")
        } else {
            raw
        };
        let full = records / batch * batch;
        Pool {
            schema,
            batches: wire[..full].chunks(batch).map(<[_]>::to_vec).collect(),
            raw_cells: raw_cells[..full].chunks(batch).map(<[_]>::to_vec).collect(),
            pre_perturbed,
        }
    }

    pub fn batch_size(&self) -> usize {
        self.batches[0].len()
    }

    /// The true (raw) cell histogram of a run that sent batch `b`
    /// `sent[b]` times.
    pub fn truth(&self, sent: &[u64]) -> Vec<f64> {
        let mut counts = vec![0.0; self.schema.domain_size()];
        for (cells, &times) in self.raw_cells.iter().zip(sent) {
            for &cell in cells {
                counts[cell as usize] += times as f64;
            }
        }
        counts
    }
}

/// Boolean-item mask of one domain cell (one bit per attribute value).
pub fn cell_mask(schema: &Schema, cell: usize) -> u64 {
    schema
        .decode(cell)
        .iter()
        .enumerate()
        .fold(0, |mask, (j, &v)| {
            mask | 1 << (schema.boolean_offset(j) + v as usize)
        })
}

/// Exact supports over a weighted cell histogram: the ground-truth
/// estimator, equal to counting the raw records one by one.
struct CellSupport {
    masks: Vec<u64>,
    weights: Vec<f64>,
    total: f64,
    num_items: usize,
}

impl SupportEstimator for CellSupport {
    fn num_items(&self) -> usize {
        self.num_items
    }

    fn estimate(&self, itemset: ItemSet) -> f64 {
        let hit: f64 = self
            .masks
            .iter()
            .zip(&self.weights)
            .filter(|(&m, _)| m & itemset.0 == itemset.0)
            .map(|(_, &w)| w)
            .sum();
        hit / self.total
    }
}

/// Exact Apriori at [`MIN_SUPPORT`] over the true histogram: the
/// reference the served mining results are judged against.
pub fn exact_frequent(schema: &Schema, truth: &[f64]) -> FrequentItemsets {
    let (masks, weights): (Vec<u64>, Vec<f64>) = truth
        .iter()
        .enumerate()
        .filter(|(_, &w)| w > 0.0)
        .map(|(cell, &w)| (cell_mask(schema, cell), w))
        .unzip();
    let est = CellSupport {
        total: weights.iter().sum(),
        masks,
        weights,
        num_items: schema.boolean_width(),
    };
    apriori(
        &est,
        &AprioriParams {
            min_support: MIN_SUPPORT,
            max_length: 0,
            max_candidates: 0,
        },
    )
}

/// The frequent itemsets of a `job_result` payload.
pub fn frequent_of_result(result: &Value) -> Option<FrequentItemsets> {
    let mut levels: Vec<Vec<(ItemSet, f64)>> = Vec::new();
    for entry in result.get("itemsets")?.as_array()? {
        let items: Vec<usize> = entry
            .get("items")?
            .as_array()?
            .iter()
            .map(Value::as_usize)
            .collect::<Option<_>>()?;
        let support = entry.get("support")?.as_f64()?;
        if items.is_empty() {
            return None;
        }
        if levels.len() < items.len() {
            levels.resize_with(items.len(), Vec::new);
        }
        levels[items.len() - 1].push((ItemSet::from_items(&items), support));
    }
    let mut frequent = FrequentItemsets::default();
    for level in levels {
        frequent.push_level(level);
    }
    Some(frequent)
}

/// The paper's accuracy numbers over all itemset lengths, in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// ρ: mean relative support error over correctly identified itemsets.
    pub support_error: f64,
    /// σ⁺: false positives / truly frequent.
    pub false_positives: f64,
    /// σ⁻: false negatives / truly frequent.
    pub false_negatives: f64,
}

pub fn accuracy(truth: &FrequentItemsets, mined: &FrequentItemsets) -> Accuracy {
    let per_length = frapp_mining::compare(truth, mined).per_length;
    let sum = |f: fn(&frapp_mining::metrics::LengthMetrics) -> f64| -> f64 {
        per_length.iter().map(f).sum()
    };
    let truly = sum(|m| m.true_count as f64).max(1.0);
    let correct = sum(|m| m.correct_count as f64);
    Accuracy {
        support_error: sum(|m| m.support_error.unwrap_or(0.0) * m.correct_count as f64)
            / correct.max(1.0),
        false_positives: 100.0 * sum(|m| (m.mined_count - m.correct_count) as f64) / truly,
        false_negatives: 100.0 * sum(|m| (m.true_count - m.correct_count) as f64) / truly,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frapp_mining::estimators::ExactSupport;

    #[test]
    fn same_seed_same_pool() {
        let a = Pool::generate(Data::Census, 5, 600, 256, true);
        let b = Pool::generate(Data::Census, 5, 600, 256, true);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.batches.len(), 2);
        assert_ne!(
            a.batches,
            Pool::generate(Data::Census, 6, 600, 256, true).batches
        );
    }

    #[test]
    fn histogram_reference_equals_record_level_apriori() {
        let pool = Pool::generate(Data::Census, 3, 4096, 256, false);
        let truth = pool.truth(&vec![1; pool.batches.len()]);
        let from_cells = exact_frequent(&pool.schema, &truth);
        let records: Vec<Vec<u32>> = pool.batches.concat();
        let dataset = frapp_core::Dataset::from_trusted(pool.schema.clone(), records);
        let from_records = apriori(
            &ExactSupport::from_dataset(&dataset),
            &AprioriParams {
                min_support: MIN_SUPPORT,
                max_length: 0,
                max_candidates: 0,
            },
        );
        assert_eq!(from_cells.length_profile(), from_records.length_profile());
        assert!(from_cells.total() > 100);
        let a = accuracy(&from_records, &from_cells);
        assert!(a.support_error < 1e-9 && a.false_positives == 0.0 && a.false_negatives == 0.0);
    }
}
