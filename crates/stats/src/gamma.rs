//! Gamma and Beta samplers (Marsaglia–Tsang), used by the dataset crate's
//! general-purpose Beta edge-probability model.

use rand::Rng;

/// Samples Gamma(shape, 1) via Marsaglia & Tsang's squeeze method
/// (augmented with the standard shape < 1 boost).
///
/// # Panics
/// Panics if `shape` is not strictly positive and finite.
pub(crate) fn sample_gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    assert!(
        shape.is_finite() && shape > 0.0,
        "gamma shape must be positive, got {shape}"
    );
    if shape < 1.0 {
        // Boost: X ~ Gamma(a+1), U^(1/a) correction.
        let x = sample_gamma(shape + 1.0, rng);
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return x * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller (two uniforms).
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = 1.0 + c * z;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u < 1.0 - 0.0331 * z * z * z * z {
            return d * v3;
        }
        if u.ln() < 0.5 * z * z + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// Samples Beta(alpha, beta) as `X / (X + Y)` with independent gammas.
///
/// # Panics
/// Panics if either parameter is not strictly positive and finite.
pub fn sample_beta<R: Rng + ?Sized>(alpha: f64, beta: f64, rng: &mut R) -> f64 {
    let x = sample_gamma(alpha, rng);
    let y = sample_gamma(beta, rng);
    if x + y == 0.0 {
        // Both gammas underflowed (extreme shapes); fall back to the mean.
        return alpha / (alpha + beta);
    }
    x / (x + y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn gamma_moments_large_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let samples: Vec<f64> = (0..40_000).map(|_| sample_gamma(5.0, &mut rng)).collect();
        let (mean, var) = moments(&samples);
        assert!((mean - 5.0).abs() < 0.1, "mean={mean}");
        assert!((var - 5.0).abs() < 0.25, "var={var}");
    }

    #[test]
    fn gamma_moments_small_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..40_000).map(|_| sample_gamma(0.4, &mut rng)).collect();
        let (mean, var) = moments(&samples);
        assert!((mean - 0.4).abs() < 0.03, "mean={mean}");
        assert!((var - 0.4).abs() < 0.08, "var={var}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn beta_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let (a, b) = (2.0, 5.0);
        let samples: Vec<f64> = (0..40_000).map(|_| sample_beta(a, b, &mut rng)).collect();
        let (mean, var) = moments(&samples);
        let expect_mean = a / (a + b);
        let expect_var = a * b / ((a + b) * (a + b) * (a + b + 1.0));
        assert!((mean - expect_mean).abs() < 0.01, "mean={mean}");
        assert!((var - expect_var).abs() < 0.005, "var={var}");
        assert!(samples.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn beta_uniform_special_case() {
        // Beta(1,1) = U(0,1).
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..30_000)
            .map(|_| sample_beta(1.0, 1.0, &mut rng))
            .collect();
        let (mean, var) = moments(&samples);
        assert!((mean - 0.5).abs() < 0.01);
        assert!((var - 1.0 / 12.0).abs() < 0.005);
    }

    #[test]
    fn beta_skewed_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        // Beta(0.5, 3): mass near 0.
        let samples: Vec<f64> = (0..20_000)
            .map(|_| sample_beta(0.5, 3.0, &mut rng))
            .collect();
        let below = samples.iter().filter(|&&x| x < 0.1).count();
        assert!(below as f64 > 0.4 * samples.len() as f64);
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..10).map(|_| sample_beta(2.0, 2.0, &mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..10).map(|_| sample_beta(2.0, 2.0, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = sample_gamma(0.0, &mut rng);
    }
}
