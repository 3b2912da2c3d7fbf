//! Shannon entropy utilities.
//!
//! The (k, ε)-obfuscation criterion compares `H(Y_ω)` — the entropy, in
//! *bits*, of a distribution over vertices — against `log₂ k` (paper
//! Definition 3). The degree-entropy analysis of Lemma 4–6 works in nats.
//! Both conventions are provided; inputs need not be normalized — callers
//! may pass unnormalized non-negative weights, and normalization happens
//! internally (this is exactly what the anonymity check needs, since the
//! per-vertex weights `Pr[deg(u) = ω]` do not sum to one over `u`).

/// Shannon entropy in bits of the normalized distribution induced by
/// non-negative weights. Returns 0 for an all-zero (or empty) input.
pub fn shannon_entropy_bits(weights: &[f64]) -> f64 {
    shannon_entropy_nats(weights) / std::f64::consts::LN_2
}

/// Shannon entropy in nats of the normalized distribution induced by
/// non-negative weights. Returns 0 for an all-zero (or empty) input.
///
/// The arithmetic is a left-to-right `+=` total, then per-weight
/// `h -= p * p.ln()` in slice order; the anonymity check's reports are
/// pinned to these exact bits.
pub(crate) fn shannon_entropy_nats(weights: &[f64]) -> f64 {
    let mut total = 0.0;
    for &w in weights {
        debug_assert!(w >= -1e-15, "negative weight {w}");
        total += w;
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
