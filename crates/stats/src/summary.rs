//! Streaming summary statistics (Welford's algorithm).
//!
//! Used throughout the experiment harness to aggregate Monte-Carlo samples
//! (per-world metric values, per-pair reliability deviations) without
//! storing them, and by the KDE bandwidth selection (σ_G).

/// Single-pass mean/variance/min/max accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 when fewer than 2 observations).
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population variance (0 when empty).
    pub(crate) fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub(crate) fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sample_std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn known_values() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
        assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_slice(&[3.5]);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    proptest! {
        #[test]
        fn mean_within_min_max(xs in proptest::collection::vec(-100.0f64..100.0, 1..100)) {
            let s = Summary::from_slice(&xs);
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }

        #[test]
        fn variance_nonnegative(xs in proptest::collection::vec(-100.0f64..100.0, 0..100)) {
            let s = Summary::from_slice(&xs);
            prop_assert!(s.sample_variance() >= 0.0);
            prop_assert!(s.population_variance() >= 0.0);
        }
    }
}
