//! Shannon entropy utilities.
//!
//! The (k, ε)-obfuscation criterion compares `H(Y_ω)` — the entropy, in
//! *bits*, of a distribution over vertices — against `log₂ k` (paper
//! Definition 3). The degree-entropy analysis of Lemma 4–6 works in nats.
//! Both conventions are provided; inputs need not be normalized — callers
//! may pass unnormalized non-negative weights, and normalization happens
//! internally (this is exactly what the anonymity check needs, since the
//! per-vertex weights `Pr[deg(u) = ω]` do not sum to one over `u`).

use crate::detmath;

/// Shannon entropy in bits of the normalized distribution induced by
/// non-negative weights. Returns 0 for an all-zero (or empty) input.
pub fn shannon_entropy_bits(weights: &[f64]) -> f64 {
    shannon_entropy_nats(weights) / std::f64::consts::LN_2
}

/// Shannon entropy in nats of the normalized distribution induced by
/// non-negative weights. Returns 0 for an all-zero (or empty) input.
///
/// One pass accumulates `T = Σw` and `S = Σ w·ln w` left to right (a zero
/// weight adds an exact `+0.0` to `S`), then [`entropy_nats_from_sums`]
/// gives `ln T − S/T`. The anonymity check's sweep computes the same sums
/// in the same order, so its reports are these exact bits.
pub(crate) fn shannon_entropy_nats(weights: &[f64]) -> f64 {
    let mut total = 0.0;
    let mut s = 0.0;
    for &w in weights {
        debug_assert!(w >= -1e-15, "negative weight {w}");
        total += w;
        s += weighted_ln(w, detmath::ln(w));
    }
    entropy_nats_from_sums(total, s)
}

/// The summand `w·ln w` of `S`, given `ln_w = ln w`: an exact `+0.0` for
/// a weight that is not positive (whose `ln` is −∞ or NaN).
#[inline]
pub fn weighted_ln(w: f64, ln_w: f64) -> f64 {
    if w > 0.0 {
        w * ln_w
    } else {
        0.0
    }
}

/// The entropy in nats, `ln T − S/T`, of weights whose total is
/// `T = Σw` and whose `S = Σ w·ln w`: it equals `−Σ (w/T)·ln(w/T)`. A total
/// of at most 0 gives 0, and so does a rounding error below 0 (a point
/// mass).
///
/// Against the two-pass form `−Σ p·ln p` over `p = w/T`, the difference
/// is a rounding error of the sums: with `n` weights it is at most
/// `(n + 2)·ε·(|ln T| + |S|/T)` (ε = `f64::EPSILON`), so it grows with how
/// small the weights are, not with the entropy (the
/// `one_pass_entropy_error` test holds it to that bound).
#[inline]
pub fn entropy_nats_from_sums(total: f64, s: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    (detmath::ln(total) - s / total).max(0.0)
}

/// `log₂ k` as the entropy of `k` equal weights of 1 — the threshold of
/// (k, ε)-obfuscation, computed by the same expression as
/// [`shannon_entropy_bits`], so that a posterior uniform over exactly `k`
/// certain candidates meets it exactly.
pub fn uniform_entropy_bits(k: usize) -> f64 {
    entropy_nats_from_sums(k as f64, 0.0) / std::f64::consts::LN_2
}

// The two-pass reference compares against the host's libm.
#[allow(clippy::disallowed_methods)]
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-pass form this module used before: the total, then
    /// `h −= p·ln p` per weight.
    fn two_pass_nats(weights: &[f64]) -> f64 {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &w in weights {
            if w > 0.0 {
                let p = w / total;
                h -= p * p.ln();
            }
        }
        h
    }

    /// A posterior uniform over exactly k certain candidates has entropy
    /// exactly log₂k as the threshold computes it, for every k from 2 to
    /// 1024 (such a vertex counts as obfuscated).
    #[test]
    fn uniform_posterior_meets_its_threshold_exactly() {
        for k in 2..=1024 {
            let h = shannon_entropy_bits(&vec![1.0; k]);
            assert_eq!(h.to_bits(), uniform_entropy_bits(k).to_bits(), "k={k}");
            assert!(
                (h - (k as f64).log2()).abs() <= 4.0 * f64::EPSILON * h,
                "k={k}"
            );
        }
        assert_eq!(uniform_entropy_bits(1), 0.0);
    }

    /// A single positive weight, whatever its size, has entropy 0.
    #[test]
    fn point_masses_have_zero_entropy() {
        for w in [1.0, 5.0, 0.3, 1e-300, 5e-324, 7.5e200] {
            assert_eq!(shannon_entropy_nats(&[0.0, w, 0.0]), 0.0, "w={w}");
        }
    }

    proptest! {
        /// The one-pass form stays within its stated bound of the
        /// two-pass form, on weights down to 1e-300.
        #[test]
        fn one_pass_entropy_error(
            w in proptest::collection::vec((0.001f64..1.0, 0i32..300), 1..200),
        ) {
            let w: Vec<f64> = w.into_iter().map(|(m, e)| m * 10f64.powi(-e)).collect();
            let total: f64 = w.iter().sum();
            let s: f64 = w.iter().map(|&w| weighted_ln(w, w.ln())).sum();
            let bound = (w.len() + 2) as f64
                * f64::EPSILON
                * (total.ln().abs() + s.abs() / total);
            let (one, two) = (shannon_entropy_nats(&w), two_pass_nats(&w));
            prop_assert!((one - two).abs() <= bound, "{} vs {} (bound {})", one, two, bound);
        }
    }

    #[test]
    fn uniform_distribution_maximizes() {
        let h = shannon_entropy_bits(&[1.0; 8]);
        assert!((h - 3.0).abs() < 1e-12);
    }

    #[test]
    fn point_mass_is_zero() {
        assert_eq!(shannon_entropy_bits(&[0.0, 5.0, 0.0]), 0.0);
    }

    #[test]
    fn empty_and_zero_inputs() {
        assert_eq!(shannon_entropy_bits(&[]), 0.0);
        assert_eq!(shannon_entropy_bits(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn unnormalized_weights_equal_normalized() {
        let a = shannon_entropy_bits(&[0.2, 0.3, 0.5]);
        let b = shannon_entropy_bits(&[2.0, 3.0, 5.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn bits_nats_conversion() {
        let w = [1.0, 2.0, 3.0];
        assert!(
            (shannon_entropy_bits(&w) * std::f64::consts::LN_2 - shannon_entropy_nats(&w)).abs()
                < 1e-12
        );
    }

    #[test]
    fn binary_entropy_known_value() {
        // H(0.25) = 0.811278... bits
        let h = shannon_entropy_bits(&[0.25, 0.75]);
        assert!((h - 0.8112781244591328).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn entropy_nonnegative(w in proptest::collection::vec(0.0f64..10.0, 0..64)) {
            prop_assert!(shannon_entropy_bits(&w) >= 0.0);
        }

        #[test]
        fn entropy_at_most_log_support(w in proptest::collection::vec(0.0f64..10.0, 1..64)) {
            let h = shannon_entropy_bits(&w);
            prop_assert!(h <= (w.len() as f64).log2() + 1e-9);
        }

        #[test]
        fn scale_invariance(w in proptest::collection::vec(0.001f64..10.0, 1..32), s in 0.001f64..100.0) {
            let scaled: Vec<f64> = w.iter().map(|x| x * s).collect();
            prop_assert!((shannon_entropy_bits(&w) - shannon_entropy_bits(&scaled)).abs() < 1e-9);
        }
    }
}
