//! The truncated normal noise distribution `R(σ)` (paper §V-A).
//!
//! The obfuscation algorithms perturb edge probabilities by a stochastic
//! amount `r_e` drawn from a distribution "with density function proportional
//! to the normal distribution, with mean 0 and variance σ²", truncated to a
//! bounded interval so the perturbed probability stays meaningful. Following
//! Boldi et al. (VLDB 2012), the mass is restricted to `[0, 1]`: the noise is
//! a *magnitude* in probability space; the direction is supplied by the
//! perturbation rule (max-entropy `p + (1-2p)·r`, or a random sign for the
//! unguided variant).

use rand::Rng;

/// Density ∝ `exp(-x² / (2σ²))` on the interval `[lo, hi]`.
///
/// Sampling is via inverse-transform on the (erf-based) normal CDF, which is
/// exact up to `erf`/`erfinv` accuracy and — unlike rejection sampling —
/// consumes exactly one uniform variate per draw, which keeps common-random-
/// number experiment designs aligned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    sigma: f64,
    lo: f64,
    hi: f64,
    /// Φ₀,σ(lo), cached.
    cdf_lo: f64,
    /// Φ₀,σ(hi) − Φ₀,σ(lo), cached.
    cdf_span: f64,
}

impl TruncatedNormal {
    /// Half-normal on `[0, 1]`: the paper's `R(σ)` noise magnitude.
    ///
    /// # Panics
    /// Panics if `sigma` is not strictly positive and finite.
    pub fn half_unit(sigma: f64) -> Self {
        Self::new(sigma, 0.0, 1.0)
    }

    /// General truncation to `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `sigma <= 0`, `sigma` is non-finite, or `lo >= hi`.
    pub fn new(sigma: f64, lo: f64, hi: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be positive and finite, got {sigma}"
        );
        assert!(lo < hi, "invalid truncation interval [{lo}, {hi}]");
        let cdf = |x: f64| normal_cdf(x / sigma);
        let cdf_lo = cdf(lo);
        let cdf_span = cdf(hi) - cdf_lo;
        Self {
            sigma,
            lo,
            hi,
            cdf_lo,
            cdf_span,
        }
    }

    /// The shape parameter σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Lower truncation bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper truncation bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inverse_cdf(rng.gen::<f64>())
    }

    /// Quantile function: maps `u ∈ [0, 1]` to the sample value.
    ///
    /// Exposed so that experiments can reuse a single uniform stream across
    /// σ values (common random numbers).
    pub fn inverse_cdf(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        if self.cdf_span <= f64::EPSILON {
            // Degenerate truncation (σ ≪ interval offset); all mass at `lo`.
            return self.lo;
        }
        let target = self.cdf_lo + u * self.cdf_span;
        let x = self.sigma * normal_quantile(target);
        x.clamp(self.lo, self.hi)
    }
}

/// Standard normal CDF via `erf`.
pub(crate) fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal quantile (inverse CDF), Acklam's rational approximation
/// refined with one Halley step; |error| < 1e-13 over (0, 1).
pub(crate) fn normal_quantile(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }

    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Error function, accurate to ~1e-14: Maclaurin series for small |x|,
/// complementary continued fraction (modified Lentz) for large |x|.
pub(crate) fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    if x == 0.0 {
        return 0.0;
    }
    if x > 6.5 {
        return 1.0; // erfc < 4e-20, below f64 resolution of 1 - erfc
    }
    if x <= 2.0 {
        // erf(x) = (2/√π) Σ_{n≥0} (−1)ⁿ x^{2n+1} / (n! (2n+1))
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
        let x2 = x * x;
        let mut term = x;
        let mut sum = x;
        let mut n = 1.0;
        loop {
            term *= -x2 / n;
            let add = term / (2.0 * n + 1.0);
            sum += add;
            if add.abs() < 1e-17 * sum.abs() {
                break;
            }
            n += 1.0;
        }
        two_over_sqrt_pi * sum
    } else {
        1.0 - erfc_large(x)
    }
}

/// erfc(x) for x > 2 via the Laplace continued fraction (A&S 7.1.14):
/// √π·e^{x²}·erfc(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + 2/(x + …)))))
/// — partial numerators aₙ = (n−1)/2 for n ≥ 2 (a₁ = 1), denominators x —
/// evaluated with the modified Lentz algorithm.
fn erfc_large(x: f64) -> f64 {
    let tiny = 1e-300;
    let mut f: f64 = tiny; // b0 = 0
    let mut c: f64 = f;
    let mut d: f64 = 0.0;
    for n in 1..400 {
        let a = if n == 1 { 1.0 } else { (n as f64 - 1.0) / 2.0 };
        d = x + a * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = x + a / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x * x).exp() / std::f64::consts::PI.sqrt() * f
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-12);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let z = normal_quantile(p);
            assert!(
                (normal_cdf(z) - p).abs() < 1e-9,
                "p={p}, z={z}, cdf={}",
                normal_cdf(z)
            );
        }
    }

    #[test]
    fn quantile_median_is_zero() {
        assert!(normal_quantile(0.5).abs() < 1e-12);
    }

    #[test]
    fn samples_respect_bounds() {
        let d = TruncatedNormal::half_unit(0.3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let x = d.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x), "sample {x} out of [0,1]");
        }
    }

    #[test]
    fn small_sigma_concentrates_near_zero() {
        let d = TruncatedNormal::half_unit(0.05);
        let mut rng = StdRng::seed_from_u64(2);
        let mean: f64 = (0..4000).map(|_| d.sample(&mut rng)).sum::<f64>() / 4000.0;
        // Half-normal mean is σ·sqrt(2/π) ≈ 0.0399 for σ = 0.05.
        assert!((mean - 0.05 * (2.0 / std::f64::consts::PI).sqrt()).abs() < 0.01);
    }

    #[test]
    fn large_sigma_spreads_mass() {
        let d = TruncatedNormal::half_unit(10.0);
        let mut rng = StdRng::seed_from_u64(3);
        // With σ ≫ 1 the truncated density is nearly uniform on [0,1]:
        // mean ≈ 0.5.
        let mean: f64 = (0..4000).map(|_| d.sample(&mut rng)).sum::<f64>() / 4000.0;
        assert!((mean - 0.5).abs() < 0.03, "mean={mean}");
    }

    #[test]
    fn monotone_quantile() {
        let d = TruncatedNormal::half_unit(0.4);
        let mut prev = -1.0;
        for i in 0..=100 {
            let q = d.inverse_cdf(i as f64 / 100.0);
            assert!(q >= prev);
            prev = q;
        }
        assert!((d.inverse_cdf(0.0) - 0.0).abs() < 1e-9);
        assert!((d.inverse_cdf(1.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_sigma() {
        let _ = TruncatedNormal::half_unit(0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_interval() {
        let _ = TruncatedNormal::new(1.0, 0.5, 0.5);
    }

    #[test]
    fn accessors() {
        let d = TruncatedNormal::new(0.7, 0.1, 0.9);
        assert_eq!(d.sigma(), 0.7);
        assert_eq!(d.lo(), 0.1);
        assert_eq!(d.hi(), 0.9);
    }
}
