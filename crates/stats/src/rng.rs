//! Deterministic random-number management.
//!
//! Experiments in the reproduction fan out many independent stochastic
//! components (world sampling, candidate-edge selection, noise draws, …).
//! To keep every table reproducible from a single master seed, components
//! derive their own child seeds through a [`SeedSequence`]: a SplitMix64
//! stream keyed by the master seed and a stable label.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
///
/// This is the classic Vigna SplitMix64 generator; we use it only for seed
/// derivation (never as the experiment RNG itself, which is [`StdRng`]).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives independent child seeds/RNGs from a master seed.
///
/// Child seeds are a pure function of `(master_seed, label)`, so adding new
/// labelled components to an experiment does not disturb the randomness of
/// existing ones.
///
/// ```
/// use chameleon_stats::SeedSequence;
/// let seq = SeedSequence::new(42);
/// let a = seq.derive("world-sampling");
/// let b = seq.derive("noise");
/// assert_ne!(a, b);
/// assert_eq!(a, SeedSequence::new(42).derive("world-sampling"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a sequence keyed by `master` seed.
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// Derives a child seed for the component named `label`.
    pub fn derive(&self, label: &str) -> u64 {
        // FNV-1a over the label, mixed with the master through SplitMix64.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut state = self.master ^ h;
        // A couple of extra steps decorrelates nearby (master, label) pairs.
        splitmix64(&mut state);
        splitmix64(&mut state)
    }

    /// Derives a child seed indexed by `(label, index)`, e.g. per-trial RNGs.
    pub fn derive_indexed(&self, label: &str, index: u64) -> u64 {
        let mut state = self.derive(label) ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
        splitmix64(&mut state)
    }

    /// Derives a child seed indexed by a `(label, i, j)` pair.
    ///
    /// Each index is mixed through its own SplitMix64 step, so distinct
    /// `(i, j)` pairs never alias by construction — unlike flattening the
    /// pair into `i·K + j`, which collides as soon as `j` reaches `K`
    /// (e.g. per-call × per-trial streams with ≥ K trials).
    pub fn derive_indexed2(&self, label: &str, i: u64, j: u64) -> u64 {
        let mut state = self.derive(label) ^ i.wrapping_mul(0xA24B_AED4_963E_E407);
        splitmix64(&mut state);
        state ^= j.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        splitmix64(&mut state)
    }

    /// Builds a [`StdRng`] for the component named `label`.
    pub fn rng(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.derive(label))
    }

    /// Builds a [`StdRng`] for the `(label, index)` component.
    pub fn rng_indexed(&self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.derive_indexed(label, index))
    }

    /// Builds a [`StdRng`] for the `(label, i, j)` component.
    pub fn rng_indexed2(&self, label: &str, i: u64, j: u64) -> StdRng {
        StdRng::seed_from_u64(self.derive_indexed2(label, i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derive_is_deterministic() {
        let s1 = SeedSequence::new(7);
        let s2 = SeedSequence::new(7);
        assert_eq!(s1.derive("x"), s2.derive("x"));
        assert_eq!(s1.derive_indexed("x", 3), s2.derive_indexed("x", 3));
    }

    #[test]
    fn labels_give_distinct_streams() {
        let s = SeedSequence::new(7);
        assert_ne!(s.derive("a"), s.derive("b"));
        assert_ne!(s.derive_indexed("a", 0), s.derive_indexed("a", 1));
    }

    #[test]
    fn indexed2_pairs_never_alias_like_flattened_indices() {
        // The old call sites flattened (call, trial) into call·1000 + trial,
        // which collides e.g. (0, 1000) with (1, 0). derive_indexed2 keeps a
        // dense grid of pairs distinct.
        let s = SeedSequence::new(11);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            for j in 0..2048u64 {
                assert!(
                    seen.insert(s.derive_indexed2("t", i, j)),
                    "seed collision at ({i}, {j})"
                );
            }
        }
        // Deterministic, and sensitive to both indices.
        assert_eq!(
            s.derive_indexed2("t", 3, 5),
            SeedSequence::new(11).derive_indexed2("t", 3, 5)
        );
        assert_ne!(s.derive_indexed2("t", 3, 5), s.derive_indexed2("t", 5, 3));
    }

    #[test]
    fn different_masters_differ() {
        assert_ne!(
            SeedSequence::new(1).derive("x"),
            SeedSequence::new(2).derive("x")
        );
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut a = SeedSequence::new(99).rng("t");
        let mut b = SeedSequence::new(99).rng("t");
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference output of SplitMix64 seeded with 0 (first output).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
    }
}
