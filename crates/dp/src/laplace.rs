//! Laplace mechanism primitives.

use rand::Rng;

/// Samples Laplace(0, scale) by inverse transform.
///
/// # Panics
/// Panics if `scale` is not strictly positive and finite.
pub(crate) fn sample_laplace<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> f64 {
    assert!(
        scale.is_finite() && scale > 0.0,
        "laplace scale must be positive, got {scale}"
    );
    // u uniform on (-1/2, 1/2]; X = -b·sgn(u)·ln(1 - 2|u|).
    let u: f64 = rng.gen::<f64>() - 0.5;
    let sign = if u >= 0.0 { 1.0 } else { -1.0 };
    let magnitude = (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE);
    -scale * sign * magnitude.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_match_laplace() {
        let mut rng = StdRng::seed_from_u64(0);
        let b = 2.0;
        let n = 60_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(b, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        // Var = 2b² = 8.
        assert!((var - 8.0).abs() < 0.4, "var={var}");
    }

    #[test]
    fn symmetric_tail_mass() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 40_000;
        let pos = (0..n)
            .filter(|_| sample_laplace(1.0, &mut rng) > 0.0)
            .count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac positive = {frac}");
    }

    #[test]
    fn smaller_scale_concentrates() {
        let mut rng = StdRng::seed_from_u64(2);
        let spread = |b: f64, rng: &mut StdRng| -> f64 {
            (0..5000).map(|_| sample_laplace(b, rng).abs()).sum::<f64>() / 5000.0
        };
        let tight = spread(0.1, &mut rng);
        let wide = spread(5.0, &mut rng);
        assert!(tight < wide / 10.0, "tight={tight}, wide={wide}");
    }

    #[test]
    #[should_panic]
    fn rejects_bad_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = sample_laplace(f64::NAN, &mut rng);
    }
}
