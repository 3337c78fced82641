//! Property-based tests (proptest) over the workspace's core data
//! structures and invariants.

use frapp::baselines::{combinatorics, CutAndPaste, Mask};
use frapp::core::perturb::GammaDiagonal;
use frapp::core::reconstruct::{reconstruct_itemset_support, GammaDiagonalReconstructor};
use frapp::core::Schema;
use frapp::linalg::structured::UniformDiagonal;
use frapp::linalg::{lu, Matrix};
use frapp::mining::ItemSet;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a small random schema (1-5 attributes, cardinalities 2-6).
fn schema_strategy() -> impl Strategy<Value = Schema> {
    prop::collection::vec(2u32..=6, 1..=5).prop_map(|cards| {
        let specs: Vec<(&str, u32)> = cards.iter().map(|&c| ("a", c)).collect();
        Schema::new(specs).expect("valid cardinalities")
    })
}

proptest! {
    /// encode/decode is a bijection on the whole domain.
    #[test]
    fn schema_encode_decode_roundtrip(schema in schema_strategy()) {
        let mut seen = vec![false; schema.domain_size()];
        for (idx, seen_slot) in seen.iter_mut().enumerate() {
            let rec = schema.decode(idx);
            let back = schema.encode(&rec).expect("decoded record is valid");
            prop_assert_eq!(back, idx);
            prop_assert!(!*seen_slot);
            *seen_slot = true;
        }
    }

    /// Projections are consistent with full encoding: two records equal
    /// on the projected attributes project to the same index.
    #[test]
    fn schema_projection_consistency(
        schema in schema_strategy(),
        raw_idx in 0usize..10_000,
        mask in 0u8..32,
    ) {
        let idx = raw_idx % schema.domain_size();
        let rec = schema.decode(idx);
        let attrs: Vec<usize> =
            (0..schema.num_attributes()).filter(|&j| mask >> j & 1 == 1).collect();
        let proj = schema.encode_projection(&rec, &attrs);
        prop_assert!(proj < schema.subdomain_size(&attrs).max(1));
        // Changing a non-projected attribute must not change the index.
        if attrs.len() < schema.num_attributes() {
            let other = (0..schema.num_attributes()).find(|j| !attrs.contains(j)).unwrap();
            let mut rec2 = rec.clone();
            rec2[other] = (rec2[other] + 1) % schema.cardinality(other);
            prop_assert_eq!(schema.encode_projection(&rec2, &attrs), proj);
        }
    }

    /// The gamma-diagonal family: `A⁻¹ A x = x` for arbitrary vectors,
    /// sizes and gamma values.
    #[test]
    fn uniform_diagonal_inverse_roundtrip(
        n in 2usize..60,
        gamma in 1.01f64..200.0,
        seed in 0u64..1000,
    ) {
        let gd = UniformDiagonal::gamma_diagonal(n, gamma);
        prop_assert!(gd.is_markov(1e-9));
        let x: Vec<f64> = (0..n).map(|i| ((i as u64 * 2654435761 + seed) % 997) as f64).collect();
        let y = gd.mul_vec(&x).expect("matching length");
        let back = gd.solve(&y).expect("invertible");
        for (b, orig) in back.iter().zip(&x) {
            prop_assert!((b - orig).abs() < 1e-6 * (1.0 + orig.abs()));
        }
    }

    /// The closed-form reconstructor agrees with a dense LU solve for
    /// arbitrary count vectors.
    #[test]
    fn gamma_reconstructor_matches_lu(
        cards in prop::collection::vec(2u32..=4, 1..=3),
        gamma in 1.5f64..50.0,
        seed in 0u64..1000,
    ) {
        let specs: Vec<(&str, u32)> = cards.iter().map(|&c| ("a", c)).collect();
        let schema = Schema::new(specs).unwrap();
        let gd = GammaDiagonal::new(&schema, gamma).unwrap();
        let n = schema.domain_size();
        let y: Vec<f64> = (0..n).map(|i| ((i as u64 * 97 + seed * 31) % 500) as f64).collect();
        let closed = GammaDiagonalReconstructor::new(&gd).reconstruct(&y);
        let dense = gd.as_uniform_diagonal().to_dense();
        let solved = lu::solve(&dense, &y).unwrap();
        for (c, s) in closed.iter().zip(&solved) {
            prop_assert!((c - s).abs() < 1e-6 * (1.0 + s.abs()), "closed {c} vs lu {s}");
        }
    }

    /// The marginalized O(1) support formula agrees with solving the
    /// dense marginal matrix, for every cell of every subset.
    #[test]
    fn marginal_support_formula_matches_dense(
        gamma in 1.5f64..50.0,
        seed in 0u64..100,
    ) {
        let schema = Schema::new(vec![("a", 3), ("b", 2), ("c", 2)]).unwrap();
        let gd = GammaDiagonal::new(&schema, gamma).unwrap();
        let attrs = [0usize, 2];
        let n_cs = schema.subdomain_size(&attrs);
        // Random support distribution summing to 1.
        let mut sup: Vec<f64> =
            (0..n_cs).map(|i| 1.0 + ((i as u64 * 131 + seed) % 17) as f64).collect();
        let total: f64 = sup.iter().sum();
        for s in &mut sup { *s /= total; }
        let dense = gd.marginal_matrix(&attrs).to_dense();
        let solved = lu::solve(&dense, &sup).unwrap();
        for (cell, &sv) in sup.iter().enumerate() {
            let fast = reconstruct_itemset_support(sv, schema.domain_size(), n_cs, gamma);
            prop_assert!((fast - solved[cell]).abs() < 1e-8, "{fast} vs {}", solved[cell]);
        }
    }

    /// LU solves random diagonally-dominant systems to high accuracy.
    #[test]
    fn lu_solves_diagonally_dominant_systems(
        n in 1usize..20,
        seed in 0u64..1000,
    ) {
        let m = Matrix::from_fn(n, n, |i, j| {
            let v = ((i * 31 + j * 17 + seed as usize) % 13) as f64 / 13.0;
            if i == j { v + n as f64 } else { v }
        });
        let x: Vec<f64> = (0..n).map(|i| (i as f64) - (n as f64) / 2.0).collect();
        let b = m.mul_vec(&x).unwrap();
        let solved = lu::solve(&m, &b).unwrap();
        for (s, orig) in solved.iter().zip(&x) {
            prop_assert!((s - orig).abs() < 1e-8);
        }
    }

    /// MASK's Kronecker-factored reconstruction inverts the forward
    /// pattern map for arbitrary p and k.
    #[test]
    fn mask_pattern_reconstruction_inverts_forward(
        p in 0.55f64..0.95,
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let schema = Schema::new(vec![("a", 2)]).unwrap();
        let mask = Mask::new(&schema, p).unwrap();
        let x: Vec<f64> =
            (0..(1usize << k)).map(|i| ((i as u64 * 37 + seed) % 100) as f64).collect();
        let forward = mask.itemset_matrix(k).mul_vec(&x).unwrap();
        let back = mask.reconstruct_patterns(&forward);
        for (b, orig) in back.iter().zip(&x) {
            prop_assert!((b - orig).abs() < 1e-6 * (1.0 + orig.abs()));
        }
    }

    /// C&P transition matrices are column-stochastic for arbitrary
    /// parameters.
    #[test]
    fn cnp_transition_matrices_are_stochastic(
        k_cutoff in 0usize..6,
        rho in 0.05f64..0.95,
        k in 1usize..6,
        m in 1usize..8,
    ) {
        let schema = Schema::new(vec![("a", 2), ("b", 2), ("c", 2)]).unwrap();
        let cnp = CutAndPaste::new(&schema, k_cutoff, rho).unwrap();
        let p = cnp.itemset_transition_matrix(k, m);
        prop_assert!(p.is_column_stochastic(1e-9), "k={k} m={m}: not stochastic");
    }

    /// Hypergeometric and binomial pmfs are distributions.
    #[test]
    fn combinatorics_pmfs_sum_to_one(
        m in 1usize..12,
        l_raw in 0usize..12,
        j_raw in 0usize..12,
        p in 0.0f64..1.0,
    ) {
        let l = l_raw % (m + 1);
        let j = j_raw % (m + 1);
        let hyp_total: f64 = (0..=j).map(|q| combinatorics::hypergeometric(q, m, l, j)).sum();
        prop_assert!((hyp_total - 1.0).abs() < 1e-9, "hyp total {hyp_total}");
        let bin_total: f64 = (0..=m).map(|s| combinatorics::binomial_pmf(s, m, p)).sum();
        prop_assert!((bin_total - 1.0).abs() < 1e-9, "bin total {bin_total}");
    }

    /// ItemSet behaves exactly like a BTreeSet<usize> model under
    /// union / intersection / difference / containment.
    #[test]
    fn itemset_matches_set_model(
        a_items in prop::collection::btree_set(0usize..64, 0..10),
        b_items in prop::collection::btree_set(0usize..64, 0..10),
    ) {
        let a = ItemSet::from_items(&a_items.iter().copied().collect::<Vec<_>>());
        let b = ItemSet::from_items(&b_items.iter().copied().collect::<Vec<_>>());
        let model_union: BTreeSet<usize> = a_items.union(&b_items).copied().collect();
        let model_inter: BTreeSet<usize> = a_items.intersection(&b_items).copied().collect();
        let model_diff: BTreeSet<usize> = a_items.difference(&b_items).copied().collect();
        prop_assert_eq!(a.union(b).to_vec(), model_union.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(a.intersect(b).to_vec(), model_inter.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(a.difference(b).to_vec(), model_diff.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(a.contains(b), b_items.is_subset(&a_items));
        prop_assert_eq!(a.len(), a_items.len());
    }

    /// Dataset count vectors always sum to N and projections marginalise
    /// correctly.
    #[test]
    fn dataset_counts_are_consistent(
        schema in schema_strategy(),
        seeds in prop::collection::vec(0usize..10_000, 1..200),
    ) {
        let records: Vec<Vec<u32>> =
            seeds.iter().map(|&s| schema.decode(s % schema.domain_size())).collect();
        let n = records.len() as f64;
        let ds = frapp::core::Dataset::new(schema.clone(), records).unwrap();
        prop_assert!((ds.count_vector().iter().sum::<f64>() - n).abs() < 1e-9);
        for j in 0..schema.num_attributes() {
            let marg = ds.projected_counts(&[j]);
            prop_assert!((marg.iter().sum::<f64>() - n).abs() < 1e-9);
        }
    }
}

proptest! {
    /// Gamma-diagonal perturbation followed by reconstruction is
    /// unbiased: the estimated support of any single-attribute itemset
    /// converges on the true support (tested at moderate N with a
    /// generous tolerance).
    #[test]
    fn gd_support_estimates_are_unbiased(
        seed in 0u64..30,
        heavy_value in 0u32..3,
    ) {
        use frapp::core::perturb::Perturber;
        use frapp::core::reconstruct::reconstruct_itemset_support;
        use rand::SeedableRng;
        let schema = Schema::new(vec![("a", 3), ("b", 2)]).unwrap();
        let records: Vec<Vec<u32>> = (0..20_000u32)
            .map(|i| if i % 5 < 3 { vec![heavy_value, 0] } else { vec![(i % 3), 1] })
            .collect();
        let ds = frapp::core::Dataset::new(schema.clone(), records).unwrap();
        let true_sup = ds.itemset_support(&[0], &[heavy_value]);
        let gd = GammaDiagonal::new(&schema, 19.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let perturbed = frapp::core::Dataset::from_trusted(
            schema.clone(),
            gd.perturb_dataset(ds.records(), &mut rng).unwrap(),
        );
        let sup_v = perturbed.itemset_support(&[0], &[heavy_value]);
        let est = reconstruct_itemset_support(sup_v, schema.domain_size(), 3, 19.0);
        prop_assert!((est - true_sup).abs() < 0.12, "est {est} vs true {true_sup}");
    }
}
