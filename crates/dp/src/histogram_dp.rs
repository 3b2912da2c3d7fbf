//! Differentially-private integer histograms: Laplace noise + consistency
//! post-processing (clamp to non-negative integers).

use crate::laplace::sample_laplace;
use rand::Rng;

/// Adds Laplace(`scale`) noise to every bin and post-processes back to
/// non-negative integers (rounding, clamping at zero). Post-processing is
/// privacy-free; the privacy guarantee comes from `scale` =
/// sensitivity / ε chosen by the caller.
pub(crate) fn dp_integer_histogram<R: Rng + ?Sized>(
    counts: &[u64],
    scale: f64,
    rng: &mut R,
) -> Vec<u64> {
    counts
        .iter()
        .map(|&c| {
            let noisy = c as f64 + sample_laplace(scale, rng);
            noisy.round().max(0.0) as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noise_is_centered() {
        let mut rng = StdRng::seed_from_u64(0);
        let counts = vec![100u64; 200];
        let noisy = dp_integer_histogram(&counts, 2.0, &mut rng);
        let mean: f64 = noisy.iter().map(|&x| x as f64).sum::<f64>() / 200.0;
        assert!((mean - 100.0).abs() < 1.5, "mean={mean}");
    }

    #[test]
    fn output_is_nonnegative_even_for_zero_bins() {
        let mut rng = StdRng::seed_from_u64(1);
        let counts = vec![0u64; 500];
        let noisy = dp_integer_histogram(&counts, 10.0, &mut rng);
        // All outputs clamp at zero; some will be positive from noise.
        assert!(noisy.iter().any(|&x| x > 0));
        // (u64 is trivially non-negative; the point is rounding didn't wrap.)
        assert!(noisy.iter().all(|&x| x < 1000));
    }

    #[test]
    fn tighter_scale_less_distortion() {
        let counts: Vec<u64> = (0..100).map(|i| i * 3).collect();
        let l1 = |scale: f64, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let noisy = dp_integer_histogram(&counts, scale, &mut rng);
            counts
                .iter()
                .zip(&noisy)
                .map(|(&a, &b)| (a as f64 - b as f64).abs())
                .sum()
        };
        assert!(l1(0.5, 2) < l1(20.0, 2));
    }

    #[test]
    fn deterministic_per_rng() {
        let counts = vec![5u64, 10, 0, 3];
        let a = dp_integer_histogram(&counts, 1.0, &mut StdRng::seed_from_u64(9));
        let b = dp_integer_histogram(&counts, 1.0, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
