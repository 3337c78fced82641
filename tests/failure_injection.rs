//! Failure-injection and misuse tests: what happens when the pipeline
//! is driven with wrong parameters, mismatched matrices or malformed
//! inputs. A production library must fail loudly on structural misuse
//! and degrade predictably on statistical misuse.

use frapp::core::perturb::{ExplicitMatrix, GammaDiagonal, Perturber, RandomizedGammaDiagonal};
use frapp::core::reconstruct::GammaDiagonalReconstructor;
use frapp::core::{Dataset, FrappError, Schema};
use frapp::linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schema() -> Schema {
    Schema::new(vec![("a", 3), ("b", 2)]).unwrap()
}

#[test]
fn structural_misuse_is_rejected_with_typed_errors() {
    let s = schema();
    // Out-of-domain record.
    let gd = GammaDiagonal::new(&s, 19.0).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let err = gd.perturb_record(&[3, 0], &mut rng).unwrap_err();
    assert!(matches!(err, FrappError::InvalidRecord { .. }));

    // Invalid gamma values.
    for bad in [1.0, 0.0, -3.0, f64::NAN] {
        assert!(matches!(
            GammaDiagonal::new(&s, bad),
            Err(FrappError::InvalidParameter { name: "gamma", .. })
        ));
    }

    // Oversized randomization.
    assert!(RandomizedGammaDiagonal::new(&s, 19.0, 100.0).is_err());

    // Non-stochastic explicit matrix.
    let not_markov = Matrix::identity(6).scaled(0.9);
    assert!(ExplicitMatrix::new(&s, not_markov).is_err());

    // Dataset with a record violating the schema.
    assert!(Dataset::new(s, vec![vec![0, 5]]).is_err());
}

#[test]
fn reconstructing_with_wrong_gamma_biases_predictably() {
    // The miner must know the clients' true gamma; reconstructing with
    // a wrong one systematically distorts estimates. Inject the
    // mismatch and verify the direction: assuming a *smaller* gamma
    // (more perturbation than actually happened) over-corrects and
    // inflates heavy cells.
    let s = schema();
    let true_gd = GammaDiagonal::new(&s, 19.0).unwrap();
    let wrong_gd = GammaDiagonal::new(&s, 5.0).unwrap();

    let mut records = Vec::new();
    for i in 0..40_000usize {
        records.push(if i % 2 == 0 { vec![0, 0] } else { vec![2, 1] });
    }
    let ds = Dataset::new(s.clone(), records).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let perturbed =
        Dataset::from_trusted(s, true_gd.perturb_dataset(ds.records(), &mut rng).unwrap());
    let y = perturbed.count_vector();

    let right = GammaDiagonalReconstructor::new(&true_gd).reconstruct(&y);
    let wrong = GammaDiagonalReconstructor::new(&wrong_gd).reconstruct(&y);
    // Correct reconstruction lands near 20,000 for cell [0,0] (index 0).
    assert!((right[0] - 20_000.0).abs() < 2_000.0, "right {}", right[0]);
    // Wrong reconstruction inflates the heavy cell well beyond the
    // truth (analytically ~31,700 for this configuration).
    assert!(
        wrong[0] > 28_000.0,
        "expected heavy inflation, got {}",
        wrong[0]
    );
}

#[test]
fn mismatched_alpha_assumption_is_harmless_for_reconstruction() {
    // RAN-GD's reconstruction uses only the *expected* matrix, so a
    // miner who mistakes the alpha value still reconstructs correctly —
    // one of the scheme's practical virtues. Verify estimates from
    // alpha = 0.2gx and alpha = 0.8gx data agree within noise when both
    // are reconstructed with the expected matrix. (Domain must be large
    // enough that alpha = 0.8gx keeps off-diagonals nonnegative.)
    let s = Schema::new(vec![("a", 10), ("b", 10)]).unwrap();
    let mut records = Vec::new();
    for i in 0..40_000usize {
        records.push(if i % 4 == 0 { vec![1, 1] } else { vec![0, 0] });
    }
    let ds = Dataset::new(s.clone(), records).unwrap();
    let gd = GammaDiagonal::new(&s, 19.0).unwrap();
    let reconstructor = GammaDiagonalReconstructor::new(&gd);
    let mut estimates = Vec::new();
    for (fraction, seed) in [(0.2, 3u64), (0.8, 4u64)] {
        let rgd = RandomizedGammaDiagonal::with_alpha_fraction(&s, 19.0, fraction).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let perturbed = Dataset::from_trusted(
            s.clone(),
            rgd.perturb_dataset(ds.records(), &mut rng).unwrap(),
        );
        estimates.push(reconstructor.reconstruct(&perturbed.count_vector()));
    }
    let cell = s.encode(&[1, 1]).unwrap();
    for est in &estimates {
        assert!(
            (est[cell] - 10_000.0).abs() < 1_500.0,
            "cell estimate {}",
            est[cell]
        );
    }
}
