//! Small vector helpers shared across the workspace.
//!
//! FRAPP's reconstruction quality metric (paper Equation 9) is a relative
//! error between count vectors, so the workspace needs the L2 norm and
//! distance, plus the dot product and normalisation the iterative
//! eigensolvers use. They live here rather than being re-implemented in
//! every crate.

/// Euclidean (L2) norm of a vector.
pub fn norm_2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Euclidean distance between two equal-length vectors.
///
/// # Panics
/// Panics if the lengths differ.
pub fn distance_2(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "distance between vectors of different lengths"
    );
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Relative L2 error `‖a − b‖ / ‖b‖`, the paper's error measure with `b`
/// as the reference vector. Returns 0 when both vectors are zero, and
/// `f64::INFINITY` when only the reference is zero.
pub fn relative_error_2(a: &[f64], b: &[f64]) -> f64 {
    let denom = norm_2(b);
    let num = distance_2(a, b);
    if denom == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / denom
    }
}

/// Dot product of two equal-length vectors.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot product of vectors of different lengths"
    );
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Normalizes `v` to unit L2 norm in place; returns the original norm.
/// A zero vector is left untouched (returns 0).
pub fn normalize_mut(v: &mut [f64]) -> f64 {
    let n = norm_2(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_match_hand_computation() {
        let v = [3.0, -4.0];
        assert!((norm_2(&v) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert!((distance_2(&a, &b) - 5.0).abs() < 1e-12);
        assert!((distance_2(&b, &a) - distance_2(&a, &b)).abs() < 1e-15);
    }

    #[test]
    fn relative_error_reference_zero() {
        assert_eq!(relative_error_2(&[0.0], &[0.0]), 0.0);
        assert_eq!(relative_error_2(&[1.0], &[0.0]), f64::INFINITY);
    }

    #[test]
    fn relative_error_of_identical_vectors_is_zero() {
        let v = [2.0, -7.0, 0.5];
        assert_eq!(relative_error_2(&v, &v), 0.0);
    }

    #[test]
    fn dot_matches_hand_computation() {
        assert!((dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]) - 32.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_produces_unit_vector() {
        let mut v = [3.0, 4.0];
        let n = normalize_mut(&mut v);
        assert!((n - 5.0).abs() < 1e-12);
        assert!((norm_2(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = [0.0, 0.0];
        assert_eq!(normalize_mut(&mut v), 0.0);
        assert_eq!(v, [0.0, 0.0]);
    }
}
