//! Edge-probability models matching the marginal distributions of paper
//! Figure 3(a).

use chameleon_stats::detmath;
use rand::Rng;

/// A distribution over edge existence probabilities.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbModel {
    /// A few discrete probability levels with weights — DBLP's prediction
    /// model emits "only a few probability values distributed in \[0,1\]".
    Discrete {
        /// The probability levels.
        levels: Vec<f64>,
        /// Relative weights (normalized internally).
        weights: Vec<f64>,
    },
    /// Truncated exponential on (0, 1]: right-skewed, "generally very
    /// small" values — BRIGHTKITE's visit-prediction probabilities.
    TruncatedExponential {
        /// Rate parameter; mean of the untruncated law is 1/rate.
        rate: f64,
    },
    /// Uniform on `[lo, hi]` — PPI's "more uniform" experimental
    /// confidences.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// General Beta(α, β) — for custom datasets whose probability marginal
    /// is neither discrete, exponential nor uniform.
    Beta {
        /// Alpha shape.
        alpha: f64,
        /// Beta shape.
        beta: f64,
    },
}

impl ProbModel {
    /// The DBLP-like model: levels from a count-based collaboration
    /// predictor `p = 1 − exp(−c/μ)` for c = 1..6 collaborations, weighted
    /// by a heavy-tailed count distribution. Mean ≈ 0.46.
    pub fn dblp() -> Self {
        ProbModel::Discrete {
            levels: vec![0.18, 0.33, 0.45, 0.55, 0.70, 0.86, 0.95],
            weights: vec![0.25, 0.20, 0.16, 0.13, 0.11, 0.09, 0.06],
        }
    }

    /// The BRIGHTKITE-like model: truncated exponential, mean ≈ 0.29.
    pub fn brightkite() -> Self {
        // Mean of Exp(rate) truncated to (0,1]:
        // μ(r) = 1/r − e^{−r}/(1 − e^{−r}); r = 2.97 gives μ ≈ 0.29.
        ProbModel::TruncatedExponential { rate: 2.97 }
    }

    /// The PPI-like model: uniform confidences, mean ≈ 0.29.
    pub fn ppi() -> Self {
        ProbModel::Uniform { lo: 0.01, hi: 0.57 }
    }

    /// Draws one probability.
    // The host's libm on purpose: this generates the benchmark's and the
    // pinned tests' input graphs, and routing it through detmath would change
    // them (tests/generator_pin.rs pins its output; DESIGN.md §3).
    #[allow(clippy::disallowed_methods)]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            ProbModel::Discrete { levels, weights } => {
                let total: f64 = weights.iter().sum();
                let mut x = rng.gen::<f64>() * total;
                for (lvl, w) in levels.iter().zip(weights) {
                    if x < *w {
                        return *lvl;
                    }
                    x -= w;
                }
                *levels.last().expect("non-empty levels")
            }
            ProbModel::TruncatedExponential { rate } => {
                // Inverse CDF of Exp(rate) truncated to (0, 1]:
                // F(x) = (1 − e^{−r·x}) / (1 − e^{−r}).
                let u = rng.gen::<f64>();
                let z = 1.0 - (-rate).exp();
                let x = -(1.0 - u * z).ln() / rate;
                x.clamp(f64::MIN_POSITIVE, 1.0)
            }
            ProbModel::Uniform { lo, hi } => rng.gen_range(*lo..=*hi),
            ProbModel::Beta { alpha, beta } => {
                chameleon_stats::sample_beta(*alpha, *beta, rng).clamp(f64::MIN_POSITIVE, 1.0)
            }
        }
    }

    /// Analytic mean of the model.
    pub fn mean(&self) -> f64 {
        match self {
            ProbModel::Discrete { levels, weights } => {
                let total: f64 = weights.iter().sum();
                levels.iter().zip(weights).map(|(l, w)| l * w / total).sum()
            }
            ProbModel::TruncatedExponential { rate } => {
                let z = 1.0 - detmath::exp(-rate);
                1.0 / rate - detmath::exp(-rate) / z
            }
            ProbModel::Uniform { lo, hi } => 0.5 * (lo + hi),
            ProbModel::Beta { alpha, beta } => alpha / (alpha + beta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_mean(model: &ProbModel, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| model.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn dblp_mean_matches_table_i() {
        let m = ProbModel::dblp();
        assert!((m.mean() - 0.46).abs() < 0.02, "mean={}", m.mean());
        assert!((sample_mean(&m, 20_000, 0) - m.mean()).abs() < 0.01);
    }

    #[test]
    fn brightkite_mean_matches_table_i() {
        let m = ProbModel::brightkite();
        assert!((m.mean() - 0.29).abs() < 0.01, "mean={}", m.mean());
        assert!((sample_mean(&m, 20_000, 1) - m.mean()).abs() < 0.01);
    }

    #[test]
    fn ppi_mean_matches_table_i() {
        let m = ProbModel::ppi();
        assert!((m.mean() - 0.29).abs() < 0.01, "mean={}", m.mean());
        assert!((sample_mean(&m, 20_000, 2) - m.mean()).abs() < 0.01);
    }

    #[test]
    fn dblp_produces_only_listed_levels() {
        let m = ProbModel::dblp();
        let ProbModel::Discrete { levels, .. } = &m else {
            panic!()
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let p = m.sample(&mut rng);
            assert!(levels.iter().any(|&l| (l - p).abs() < 1e-15));
        }
    }

    #[test]
    fn brightkite_is_right_skewed() {
        // Most mass below the mean: median < mean.
        let mut rng = StdRng::seed_from_u64(4);
        let m = ProbModel::brightkite();
        let mut xs: Vec<f64> = (0..20_001).map(|_| m.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[10_000];
        assert!(median < m.mean(), "median={median}, mean={}", m.mean());
        // Small values dominate: ≥ 55% below 0.3.
        let below = xs.iter().filter(|&&x| x < 0.3).count();
        assert!(below as f64 / xs.len() as f64 > 0.55);
    }

    #[test]
    fn all_samples_are_valid_probabilities() {
        let mut rng = StdRng::seed_from_u64(5);
        for m in [ProbModel::dblp(), ProbModel::brightkite(), ProbModel::ppi()] {
            for _ in 0..5000 {
                let p = m.sample(&mut rng);
                assert!((0.0..=1.0).contains(&p) && p > 0.0, "p={p} from {m:?}");
            }
        }
    }

    #[test]
    fn beta_model_moments_and_validity() {
        let m = ProbModel::Beta {
            alpha: 2.0,
            beta: 5.0,
        };
        assert!((m.mean() - 2.0 / 7.0).abs() < 1e-12);
        assert!((sample_mean(&m, 20_000, 9) - m.mean()).abs() < 0.01);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..2000 {
            let p = m.sample(&mut rng);
            assert!(p > 0.0 && p <= 1.0);
        }
    }

    #[test]
    fn ppi_spans_its_range() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = ProbModel::ppi();
        let xs: Vec<f64> = (0..5000).map(|_| m.sample(&mut rng)).collect();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < 0.05 && max > 0.53, "min={min}, max={max}");
    }
}
