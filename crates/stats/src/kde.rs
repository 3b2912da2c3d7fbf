//! Gaussian-kernel density estimation for commonness/uniqueness scores.
//!
//! Paper Definition 4 (after Boldi et al.): the θ-commonness of a property
//! value ω is `C_θ(ω) = Σ_u φ_{0,θ}(d(ω, P(u)))` — a Gaussian KDE evaluated
//! at ω over all vertices' property values — and the θ-uniqueness is
//! `U_θ(ω) = 1 / C_θ(ω)`. Chameleon sets θ = σ_G, the standard deviation of
//! the property values in the input uncertain graph (paper §V-C).

use crate::parallel;

/// A Gaussian kernel density / commonness estimator over scalar property
/// values (expected degrees in the paper).
#[derive(Debug, Clone)]
pub struct GaussianKde {
    points: Vec<f64>,
    theta: f64,
    norm: f64,
}

impl GaussianKde {
    /// Builds the estimator with explicit bandwidth `theta`.
    ///
    /// # Panics
    /// Panics if `theta` is not strictly positive and finite.
    pub fn new(points: Vec<f64>, theta: f64) -> Self {
        assert!(
            theta.is_finite() && theta > 0.0,
            "bandwidth must be positive, got {theta}"
        );
        let norm = 1.0 / (theta * (2.0 * std::f64::consts::PI).sqrt());
        Self {
            points,
            theta,
            norm,
        }
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the estimator holds no support points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// θ-commonness `C_θ(ω) = Σ_u φ_{0,θ}(ω − x_u)` (unnormalized KDE, as in
    /// the paper: the kernel values are summed, not averaged).
    pub fn commonness(&self, omega: f64) -> f64 {
        let inv2t2 = 1.0 / (2.0 * self.theta * self.theta);
        self.points
            .iter()
            .map(|&x| {
                let d = omega - x;
                self.norm * (-d * d * inv2t2).exp()
            })
            .sum()
    }

    /// θ-uniqueness `U_θ(ω) = 1 / C_θ(ω)`.
    ///
    /// A value far from all support points has commonness ≈ 0; the result is
    /// capped at `1/f64::MIN_POSITIVE`-ish via a floor on commonness so that
    /// downstream weighting stays finite.
    pub fn uniqueness(&self, omega: f64) -> f64 {
        let c = self.commonness(omega).max(1e-300);
        1.0 / c
    }

    /// Evaluates uniqueness at every support point (the per-vertex scores
    /// `U^v` of Algorithm 3 line 1) on up to `threads` threads. O(n²)
    /// kernel evaluations: each row sums over all support points in the
    /// serial order on one thread, and rows are independent, so the
    /// result is bit-identical at every thread count.
    pub fn uniqueness_at_support(&self, threads: usize) -> Vec<f64> {
        parallel::map_items(self.points.len(), threads, |i| {
            self.uniqueness(self.points[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn common_value_has_low_uniqueness() {
        // Many nodes with degree 3, one with degree 50.
        let mut pts = vec![3.0; 99];
        pts.push(50.0);
        let kde = GaussianKde::new(pts, 1.0);
        assert!(kde.uniqueness(50.0) > 10.0 * kde.uniqueness(3.0));
    }

    #[test]
    fn commonness_is_kernel_sum() {
        let kde = GaussianKde::new(vec![0.0], 1.0);
        let expected = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        assert!((kde.commonness(0.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn uniqueness_at_support_matches_pointwise() {
        let pts = vec![1.0, 2.0, 2.0, 8.0];
        let kde = GaussianKde::new(pts.clone(), 1.5);
        for threads in [1, 2, 8] {
            let scores = kde.uniqueness_at_support(threads);
            for (i, &x) in pts.iter().enumerate() {
                assert_eq!(scores[i].to_bits(), kde.uniqueness(x).to_bits());
            }
        }
    }

    #[test]
    fn empty_estimator() {
        let kde = GaussianKde::new(vec![], 1.0);
        assert!(kde.is_empty());
        assert_eq!(kde.len(), 0);
        assert_eq!(kde.commonness(0.0), 0.0);
        assert!(kde.uniqueness(0.0) > 1e100); // floor kicks in, finite
        assert!(kde.uniqueness(0.0).is_finite());
    }

    #[test]
    #[should_panic]
    fn rejects_zero_bandwidth() {
        let _ = GaussianKde::new(vec![1.0], 0.0);
    }

    proptest! {
        #[test]
        fn uniqueness_positive_and_finite(
            pts in proptest::collection::vec(0.0f64..100.0, 1..50),
            omega in 0.0f64..100.0
        ) {
            let kde = GaussianKde::new(pts, 2.0);
            let u = kde.uniqueness(omega);
            prop_assert!(u > 0.0 && u.is_finite());
        }

        #[test]
        fn farther_values_are_more_unique(
            base in 0.0f64..10.0
        ) {
            let kde = GaussianKde::new(vec![base; 20], 1.0);
            let near = kde.uniqueness(base + 0.5);
            let far = kde.uniqueness(base + 5.0);
            prop_assert!(far > near);
        }
    }
}
