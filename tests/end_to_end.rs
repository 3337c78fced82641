//! End-to-end integration tests spanning all workspace crates: generate
//! → perturb → mine → reconstruct → score, for every method.

use frapp::baselines::{CutAndPaste, Mask};
use frapp::core::perturb::{GammaDiagonal, Perturber, RandomizedGammaDiagonal};
use frapp::core::{Dataset, PrivacyRequirement};
use frapp::mining::apriori::{apriori, AprioriParams, FrequentItemsets};
use frapp::mining::estimators::{CnpSupport, ExactSupport, GammaDiagonalSupport, MaskSupport};
use frapp::mining::metrics::compare;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn params() -> AprioriParams {
    AprioriParams {
        min_support: 0.02,
        max_length: 0,
        max_candidates: 100_000,
    }
}

fn census(n: usize) -> Dataset {
    frapp::data::census::census_like_n(n, 11)
}

fn truth_of(ds: &Dataset) -> FrequentItemsets {
    apriori(&ExactSupport::from_dataset(ds), &params())
}

#[test]
fn det_gd_pipeline_recovers_most_short_itemsets() {
    let ds = census(20_000);
    let truth = truth_of(&ds);
    let gd = GammaDiagonal::from_requirement(ds.schema(), &PrivacyRequirement::paper_default());
    let mut rng = StdRng::seed_from_u64(1);
    let perturbed = Dataset::from_trusted(
        ds.schema().clone(),
        gd.perturb_dataset(ds.records(), &mut rng).unwrap(),
    );
    let est = GammaDiagonalSupport::new(&perturbed, &gd);
    let mined = apriori(&est, &params());
    let metrics = compare(&truth, &mined);
    // Short itemsets must be recovered reasonably: at gamma = 19 on 20k
    // records the singles' identification should be mostly right.
    let l1 = metrics.of_length(1).expect("singles present");
    assert!(l1.false_negatives <= 40.0, "sigma- {l1:?}");
    // And the mining must reach at least length 4.
    assert!(
        mined.max_length() >= 4,
        "profile {:?}",
        mined.length_profile()
    );
}

#[test]
fn ran_gd_is_close_to_det_gd() {
    // The paper's headline Section-4 result: randomization costs only a
    // marginal amount of accuracy. Compare total correct
    // identifications across lengths 1-3.
    let ds = census(20_000);
    let truth = truth_of(&ds);
    let schema = ds.schema();
    let gd = GammaDiagonal::new(schema, 19.0).unwrap();
    let rgd = RandomizedGammaDiagonal::with_alpha_fraction(schema, 19.0, 0.5).unwrap();

    let correct_fraction = |mined: &FrequentItemsets| -> f64 {
        let m = compare(&truth, mined);
        let (mut correct, mut total) = (0usize, 0usize);
        for lm in m.per_length.iter().filter(|lm| lm.length <= 3) {
            correct += lm.correct_count;
            total += lm.true_count;
        }
        correct as f64 / total as f64
    };

    // One seed is one draw from a wide spread: over seeds 0–599 the
    // single-seed DET-GD fraction has mean 0.430 and sd 0.072 (range
    // 0.25–0.69), so a floor near the median fails a third of the
    // seeds. Both conditions are asserted on the mean over 64 fixed
    // seeds instead, whose standard error is 0.072/√64 = 0.009; the
    // floor sits three of those below the mean: 0.430 − 0.027 ≈ 0.40.
    // A sampler that keeps records half as often as (γ−1)x averages
    // 0.387 over 200 seeds and 0.379 over these 64, and fails it.
    const SEEDS: u64 = 64;
    let (mut det_sum, mut ran_sum) = (0.0, 0.0);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let det_perturbed = Dataset::from_trusted(
            schema.clone(),
            gd.perturb_dataset(ds.records(), &mut rng).unwrap(),
        );
        let det_mined = apriori(&GammaDiagonalSupport::new(&det_perturbed, &gd), &params());

        let ran_perturbed = Dataset::from_trusted(
            schema.clone(),
            rgd.perturb_dataset(ds.records(), &mut rng).unwrap(),
        );
        let ran_mined = apriori(
            &GammaDiagonalSupport::new(&ran_perturbed, rgd.expected()),
            &params(),
        );
        det_sum += correct_fraction(&det_mined);
        ran_sum += correct_fraction(&ran_mined);
    }
    let det_frac = det_sum / SEEDS as f64;
    let ran_frac = ran_sum / SEEDS as f64;
    assert!(det_frac > 0.40, "mean det fraction {det_frac}");
    // "Marginally lower": allow a modest gap, not a collapse.
    assert!(
        ran_frac > det_frac - 0.25,
        "mean ran {ran_frac} vs det {det_frac}"
    );
}

#[test]
fn mask_finds_singles_but_fails_on_long_itemsets() {
    let ds = census(20_000);
    let truth = truth_of(&ds);
    let mask = Mask::from_gamma(ds.schema(), 19.0).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let rows = mask.perturb_dataset(ds.records(), &mut rng).unwrap();
    let mined = apriori(&MaskSupport::new(&mask, &rows), &params());
    let metrics = compare(&truth, &mined);
    let l1 = metrics.of_length(1).expect("singles present");
    assert!(l1.false_negatives <= 25.0, "sigma- {l1:?}");
    // The paper: MASK finds nothing above length 4 on CENSUS.
    if let Some(l6) = metrics.of_length(6) {
        assert_eq!(
            l6.correct_count, 0,
            "MASK should not survive to length 6: {l6:?}"
        );
    }
}

#[test]
fn cnp_fails_beyond_length_three() {
    let ds = census(20_000);
    let truth = truth_of(&ds);
    let cnp = CutAndPaste::paper_params(ds.schema()).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let rows = cnp.perturb_dataset(ds.records(), &mut rng).unwrap();
    let mined = apriori(&CnpSupport::new(&cnp, &rows), &params());
    let metrics = compare(&truth, &mined);
    // The paper: "C&P does not work after 3-length itemsets".
    for k in 5..=6 {
        if let Some(lm) = metrics.of_length(k) {
            assert!(
                lm.correct_count <= lm.true_count / 10,
                "C&P unexpectedly accurate at length {k}: {lm:?}"
            );
        }
    }
}

#[test]
fn gd_beats_baselines_on_long_itemsets() {
    // The paper's central comparative claim, as a single assertion:
    // at lengths >= 4, DET-GD correctly identifies more itemsets than
    // MASK and C&P.
    let ds = census(30_000);
    let truth = truth_of(&ds);
    let schema = ds.schema();
    let mut rng = StdRng::seed_from_u64(5);

    let gd = GammaDiagonal::new(schema, 19.0).unwrap();
    let gd_perturbed = Dataset::from_trusted(
        schema.clone(),
        gd.perturb_dataset(ds.records(), &mut rng).unwrap(),
    );
    let gd_mined = apriori(&GammaDiagonalSupport::new(&gd_perturbed, &gd), &params());

    let mask = Mask::from_gamma(schema, 19.0).unwrap();
    let mask_rows = mask.perturb_dataset(ds.records(), &mut rng).unwrap();
    let mask_mined = apriori(&MaskSupport::new(&mask, &mask_rows), &params());

    let cnp = CutAndPaste::paper_params(schema).unwrap();
    let cnp_rows = cnp.perturb_dataset(ds.records(), &mut rng).unwrap();
    let cnp_mined = apriori(&CnpSupport::new(&cnp, &cnp_rows), &params());

    let long_correct = |mined: &FrequentItemsets| -> usize {
        compare(&truth, mined)
            .per_length
            .iter()
            .filter(|lm| lm.length >= 4)
            .map(|lm| lm.correct_count)
            .sum()
    };
    let gd_score = long_correct(&gd_mined);
    let mask_score = long_correct(&mask_mined);
    let cnp_score = long_correct(&cnp_mined);
    assert!(
        gd_score > mask_score && gd_score > cnp_score,
        "gd {gd_score}, mask {mask_score}, cnp {cnp_score}"
    );
}

#[test]
fn pipeline_is_deterministic_given_seeds() {
    let ds = census(5_000);
    let gd = GammaDiagonal::new(ds.schema(), 19.0).unwrap();
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let perturbed = Dataset::from_trusted(
            ds.schema().clone(),
            gd.perturb_dataset(ds.records(), &mut rng).unwrap(),
        );
        apriori(&GammaDiagonalSupport::new(&perturbed, &gd), &params()).length_profile()
    };
    assert_eq!(run(9), run(9));
}

#[test]
fn health_pipeline_smoke() {
    let ds = frapp::data::health::health_like_n(15_000, 13);
    let truth = truth_of(&ds);
    assert!(
        truth.max_length() >= 5,
        "profile {:?}",
        truth.length_profile()
    );
    let gd = GammaDiagonal::new(ds.schema(), 19.0).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let perturbed = Dataset::from_trusted(
        ds.schema().clone(),
        gd.perturb_dataset(ds.records(), &mut rng).unwrap(),
    );
    let mined = apriori(&GammaDiagonalSupport::new(&perturbed, &gd), &params());
    let metrics = compare(&truth, &mined);
    assert!(!metrics.per_length.is_empty());
}
