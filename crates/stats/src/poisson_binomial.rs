//! Poisson–binomial distribution: the law of a sum of independent, non-
//! identically distributed Bernoulli variables.
//!
//! In an uncertain graph the degree of a vertex `v` is exactly Poisson–
//! binomial over the existence probabilities of `v`'s incident edges. The
//! (k, ε)-obfuscation check (paper Definition 3) needs, for every vertex `u`
//! and every adversary property value `ω`, the probability
//! `Pr[deg(u) = ω]` — i.e. pointwise evaluations of this pmf. Lemma 6 of the
//! paper additionally uses its mean and variance.

use crate::entropy::shannon_entropy_nats;

/// Exact Poisson–binomial pmf, built by the standard O(n²) dynamic program.
///
/// The DP is numerically benign (all operations are convex combinations of
/// probabilities) and exact up to f64 rounding; a final renormalization
/// guard absorbs accumulated error of order n·ε.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonBinomial {
    pmf: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl PoissonBinomial {
    /// Builds the distribution of `X = Σ Bernoulli(p_i)`.
    ///
    /// # Panics
    /// Panics if any `p_i` is outside `[0, 1]` or non-finite.
    pub fn new(probs: &[f64]) -> Self {
        let mut pmf = vec![0.0; probs.len() + 1];
        pmf[0] = 1.0;
        let mut mean = 0.0;
        let mut variance = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "probability out of range: {p}"
            );
            mean += p;
            variance += p * (1.0 - p);
            // In-place update, scanning downward so pmf[j-1] is still the
            // value from the previous round.
            for j in (1..=i + 1).rev() {
                pmf[j] = pmf[j] * (1.0 - p) + pmf[j - 1] * p;
            }
            pmf[0] *= 1.0 - p;
        }
        // Renormalization guard.
        let total: f64 = pmf.iter().sum();
        if (total - 1.0).abs() > 1e-12 && total > 0.0 {
            for x in &mut pmf {
                *x /= total;
            }
        }
        Self {
            pmf,
            mean,
            variance,
        }
    }

    /// `Pr[X = k]`, zero outside the support.
    pub fn pmf(&self, k: usize) -> f64 {
        self.pmf.get(k).copied().unwrap_or(0.0)
    }

    /// `E[X] = Σ p_i` (exact, not read off the pmf).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// `Var[X] = Σ p_i (1 - p_i)` (exact).
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Number of Bernoulli summands.
    pub fn n(&self) -> usize {
        self.pmf.len() - 1
    }

    /// Exact Shannon entropy of the pmf, in nats.
    pub fn entropy_nats(&self) -> f64 {
        shannon_entropy_nats(&self.pmf)
    }
}

/// `Pr[X = k]` without materializing the full pmf when only the head is
/// needed: computes the DP truncated at `k_max` states. Useful for anonymity
/// checks where the adversary values of interest are bounded.
pub fn pmf_truncated(probs: &[f64], k_max: usize) -> Vec<f64> {
    let mut pmf = vec![0.0; k_max.min(probs.len()) + 1];
    pmf_truncated_into(probs, &mut pmf);
    pmf
}

/// [`pmf_truncated`] written into a caller-owned slice, whose length is the
/// number of states kept: `pmf.len() − 1` plays the role of
/// `k_max.min(probs.len())`. Every entry is overwritten, so the slice may
/// hold anything on entry.
///
/// # Panics
/// Panics if `pmf` is empty.
pub fn pmf_truncated_into(probs: &[f64], pmf: &mut [f64]) {
    let cap = pmf.len() - 1;
    pmf.fill(0.0);
    pmf[0] = 1.0;
    for (i, &p) in probs.iter().enumerate() {
        debug_assert!((0.0..=1.0).contains(&p));
        let q = 1.0 - p;
        let hi = (i + 1).min(cap);
        // pmf[j] ← pmf[j]·q + pmf[j−1]·p for j = hi..=1, written upwards
        // with the old pmf[j−1] carried: the same products and sums, so the
        // same bits, without bounds checks and in a form that vectorizes.
        let mut below = pmf[0];
        for x in &mut pmf[1..=hi] {
            let old = *x;
            *x = old * q + below * p;
            below = old;
        }
        pmf[0] *= q;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn binomial_pmf(n: usize, p: f64, k: usize) -> f64 {
        // n choose k * p^k * (1-p)^(n-k), small n only.
        let mut c = 1.0;
        for i in 0..k {
            c *= (n - i) as f64 / (i + 1) as f64;
        }
        c * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)
    }

    #[test]
    fn empty_sum_is_point_mass_at_zero() {
        let d = PoissonBinomial::new(&[]);
        assert_eq!(d.pmf(0), 1.0);
        assert_eq!(d.pmf(1), 0.0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.n(), 0);
    }

    #[test]
    fn matches_binomial_when_iid() {
        let p = 0.3;
        let n = 8;
        let d = PoissonBinomial::new(&vec![p; n]);
        for k in 0..=n {
            assert!(
                (d.pmf(k) - binomial_pmf(n, p, k)).abs() < 1e-12,
                "k={k}: {} vs {}",
                d.pmf(k),
                binomial_pmf(n, p, k)
            );
        }
    }

    #[test]
    fn deterministic_edges_shift_support() {
        let d = PoissonBinomial::new(&[1.0, 1.0, 0.0]);
        assert!((d.pmf(2) - 1.0).abs() < 1e-15);
        assert!(d.entropy_nats() < 1e-12);
    }

    #[test]
    fn two_heterogeneous_bernoullis() {
        let d = PoissonBinomial::new(&[0.5, 0.2]);
        assert!((d.pmf(0) - 0.4).abs() < 1e-15);
        assert!((d.pmf(1) - 0.5).abs() < 1e-15);
        assert!((d.pmf(2) - 0.1).abs() < 1e-15);
    }

    #[test]
    fn mean_and_variance_closed_form() {
        let probs = [0.1, 0.9, 0.5, 0.33];
        let d = PoissonBinomial::new(&probs);
        let m: f64 = probs.iter().sum();
        let v: f64 = probs.iter().map(|p| p * (1.0 - p)).sum();
        assert!((d.mean() - m).abs() < 1e-15);
        assert!((d.variance() - v).abs() < 1e-15);
        // Mean read off the pmf agrees too.
        let m2: f64 = (0..=d.n()).map(|k| k as f64 * d.pmf(k)).sum();
        assert!((m2 - m).abs() < 1e-12);
    }

    #[test]
    fn truncated_matches_full_head() {
        let probs = [0.2, 0.7, 0.4, 0.9, 0.05];
        let full = PoissonBinomial::new(&probs);
        let head = pmf_truncated(&probs, 2);
        for (k, &h) in head.iter().enumerate() {
            assert!((h - full.pmf(k)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_probability() {
        let _ = PoissonBinomial::new(&[1.5]);
    }

    proptest! {
        #[test]
        fn pmf_sums_to_one(probs in proptest::collection::vec(0.0f64..=1.0, 0..40)) {
            let d = PoissonBinomial::new(&probs);
            let total: f64 = (0..=d.n()).map(|k| d.pmf(k)).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }

        #[test]
        fn pmf_nonnegative(probs in proptest::collection::vec(0.0f64..=1.0, 0..40)) {
            let d = PoissonBinomial::new(&probs);
            prop_assert!((0..=d.n()).all(|k| d.pmf(k) >= 0.0));
        }

        #[test]
        fn mean_matches_pmf_expectation(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..30)
        ) {
            let d = PoissonBinomial::new(&probs);
            let m: f64 = (0..=d.n()).map(|k| k as f64 * d.pmf(k)).sum();
            prop_assert!((m - d.mean()).abs() < 1e-8);
        }

        #[test]
        fn entropy_bounded_by_log_support(
            probs in proptest::collection::vec(0.01f64..=0.99, 1..30)
        ) {
            let d = PoissonBinomial::new(&probs);
            let h = d.entropy_nats();
            prop_assert!(h >= 0.0);
            prop_assert!(h <= ((probs.len() + 1) as f64).ln() + 1e-9);
        }

        /// The carried upward DP equals the textbook in-place downward
        /// update bit for bit, at every cap and whatever the slice held.
        #[test]
        fn truncated_dp_matches_the_downward_update(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..60),
            k_max in 0usize..70,
            garbage in -1.0f64..2.0,
        ) {
            let cap = k_max.min(probs.len());
            let mut reference = vec![0.0; cap + 1];
            reference[0] = 1.0;
            for (i, &p) in probs.iter().enumerate() {
                for j in (1..=(i + 1).min(cap)).rev() {
                    reference[j] = reference[j] * (1.0 - p) + reference[j - 1] * p;
                }
                reference[0] *= 1.0 - p;
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut into = vec![garbage; cap + 1];
            pmf_truncated_into(&probs, &mut into);
            prop_assert_eq!(bits(&into), bits(&reference));
            prop_assert_eq!(bits(&pmf_truncated(&probs, k_max)), bits(&reference));
        }
    }
}
