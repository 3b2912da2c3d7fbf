//! Edge-probability perturbation rules (paper §V-F).
//!
//! Given a noise magnitude `r ∈ [0, 1]` drawn from the truncated normal
//! `R_σ(e)` (or U(0,1) with white-noise probability `q`):
//!
//! * **Max-entropy** (anonymity-oriented, paper's proposal):
//!   `p̃ = p + (1 − 2p)·r`. Derived as gradient ascent on the per-vertex
//!   degree entropy (Lemma 6: ∂H/∂p ∝ 1 − 2p) — noise pushes probabilities
//!   toward ½, maximizing degree uncertainty per unit of perturbation. For
//!   deterministic inputs (p ∈ {0, 1}) this reduces exactly to the scheme
//!   of Boldi et al., which the paper notes as a special case.
//! * **Unguided** (the "naive strategy" of Fig. 7(a)): `p̃ = clamp(p ± r)`
//!   with a fair random sign — the same noise budget spent without
//!   direction control; used by the RS variant and as an ablation.
//!
//! The per-candidate arithmetic of a GenObf trial — noise budget σ(e),
//! noise transform and rule — is defined here once; trials feed it
//! uniforms recorded on a tape (DESIGN.md §6d).

use crate::candidate::CandidateEdge;
use rand::Rng;

/// A perturbation rule mapping `(p, r) → p̃`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerturbStrategy {
    /// `p̃ = p + (1 − 2p)·r` — entropy-gradient-guided.
    MaxEntropy,
    /// `p̃ = clamp(p ± r, 0, 1)` with random sign.
    Unguided,
}

impl PerturbStrategy {
    /// Applies the rule. `r` must lie in `[0, 1]`. The unguided rule draws
    /// its sign from `rng`; the max-entropy rule draws nothing.
    pub fn apply<R: Rng + ?Sized>(&self, p: f64, r: f64, rng: &mut R) -> f64 {
        self.apply_signed(p, r, self.draw_sign(rng))
    }

    /// The unguided rule's sign draw (`true` adds `r`); the max-entropy
    /// rule consumes no randomness and gets `false`.
    pub(crate) fn draw_sign<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        *self == PerturbStrategy::Unguided && rng.gen::<bool>()
    }

    /// The rule with the unguided sign already drawn: `p + d·r` clamped to
    /// `[0, 1]`, with `d` the [`PerturbStrategy::direction`].
    pub(crate) fn apply_signed(&self, p: f64, r: f64, up: bool) -> f64 {
        debug_assert!((0.0..=1.0).contains(&r), "r out of range: {r}");
        apply_direction(p, self.direction(p, up), r)
    }

    /// The factor `d` of `p̃ = p + d·r`: `1 − 2p` for the max-entropy rule,
    /// ±1 by the drawn sign for the unguided one. It does not depend on
    /// the noise, so a trial records it once.
    pub(crate) fn direction(&self, p: f64, up: bool) -> f64 {
        debug_assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
        match self {
            PerturbStrategy::MaxEntropy => 1.0 - 2.0 * p,
            PerturbStrategy::Unguided => {
                if up {
                    1.0
                } else {
                    -1.0
                }
            }
        }
    }
}

/// `p̃ = p + d·r`, clamped to `[0, 1]`: every rule, given its direction.
#[inline]
pub(crate) fn apply_direction(p: f64, d: f64, r: f64) -> f64 {
    (p + d * r).clamp(0.0, 1.0)
}

/// Draws the noise magnitude for one edge (Algorithm 3 lines 19–21): with
/// probability `white_noise` a uniform draw, otherwise a truncated normal
/// with scale `sigma_e`. Always consumes exactly two uniforms. The scalar
/// form of the trial's block noise, kept as its reference.
#[cfg(test)]
pub(crate) fn draw_noise<R: Rng + ?Sized>(sigma_e: f64, white_noise: f64, rng: &mut R) -> f64 {
    let coin = rng.gen::<f64>();
    let value = rng.gen::<f64>();
    if coin < white_noise {
        value
    } else {
        chameleon_stats::TruncatedNormal::half_unit(sigma_e.max(1e-9)).inverse_cdf(value)
    }
}

/// Per-candidate noise budgets of one trial (§V-E): σ(e) ∝ Q^e with mean
/// σ(e) = σ, where Q^e averages the endpoints' selection weights.
#[derive(Debug, Clone, Default)]
pub(crate) struct NoiseBudget {
    /// `Q^e / mean Q^e` per candidate, so that σ(e) = σ·ratio (all 1 when
    /// every weight is 0).
    ratio: Vec<f64>,
}

impl NoiseBudget {
    #[cfg(test)]
    pub(crate) fn new(candidates: &[CandidateEdge], selection: &[f64]) -> Self {
        let mut budget = Self::default();
        budget.reset(candidates, selection);
        budget
    }

    /// Re-derives the budget for `candidates`, reusing its storage.
    pub(crate) fn reset(&mut self, candidates: &[CandidateEdge], selection: &[f64]) {
        let q_edge = candidates
            .iter()
            .map(|c| 0.5 * (selection[c.u as usize] + selection[c.v as usize]));
        self.ratio.clear();
        self.ratio.extend(q_edge);
        let q_sum: f64 = self.ratio.iter().sum();
        let q_mean = q_sum / candidates.len() as f64;
        for r in &mut self.ratio {
            *r = if q_sum > 0.0 { *r / q_mean } else { 1.0 };
        }
    }

    /// σ_e/σ per candidate.
    pub(crate) fn ratios(&self) -> &[f64] {
        &self.ratio
    }

    /// σ_e of candidate `i` at noise level `sigma`.
    #[cfg(test)]
    pub(crate) fn sigma_e(&self, i: usize, sigma: f64) -> f64 {
        sigma_e_of(self.ratio[i], sigma)
    }
}

/// σ_e at noise level `sigma` for the ratio σ_e/σ `ratio`, clamped to
/// `[1e-9, 3]`.
#[inline]
pub(crate) fn sigma_e_of(ratio: f64, sigma: f64) -> f64 {
    (sigma * ratio).clamp(1e-9, 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_stats::PoissonBinomial;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn max_entropy_moves_toward_half() {
        let mut rng = StdRng::seed_from_u64(0);
        // From below ½: increases; from above: decreases.
        let up = PerturbStrategy::MaxEntropy.apply(0.2, 0.5, &mut rng);
        assert!((up - 0.5).abs() < (0.2f64 - 0.5).abs());
        assert!(up > 0.2);
        let down = PerturbStrategy::MaxEntropy.apply(0.8, 0.5, &mut rng);
        assert!(down < 0.8);
        assert!((down - 0.5).abs() < (0.8f64 - 0.5).abs());
    }

    #[test]
    fn max_entropy_full_noise_flips_to_complement() {
        let mut rng = StdRng::seed_from_u64(1);
        // r = 1: p̃ = 1 − p.
        assert!((PerturbStrategy::MaxEntropy.apply(0.7, 1.0, &mut rng) - 0.3).abs() < 1e-12);
        assert!((PerturbStrategy::MaxEntropy.apply(0.0, 1.0, &mut rng) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_entropy_boldi_special_case() {
        let mut rng = StdRng::seed_from_u64(2);
        // p = 1 (existing deterministic edge): p̃ = 1 − r.
        let r = 0.3;
        assert!((PerturbStrategy::MaxEntropy.apply(1.0, r, &mut rng) - 0.7).abs() < 1e-12);
        // p = 0 (absent edge): p̃ = r.
        assert!((PerturbStrategy::MaxEntropy.apply(0.0, r, &mut rng) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn max_entropy_fixed_point_at_half() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!((PerturbStrategy::MaxEntropy.apply(0.5, 0.8, &mut rng) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unguided_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..500 {
            let p = rng.gen::<f64>();
            let r = rng.gen::<f64>();
            let out = PerturbStrategy::Unguided.apply(p, r, &mut rng);
            assert!((0.0..=1.0).contains(&out));
        }
    }

    #[test]
    fn unguided_uses_both_directions() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ups = 0;
        let mut downs = 0;
        for _ in 0..200 {
            let out = PerturbStrategy::Unguided.apply(0.5, 0.2, &mut rng);
            if out > 0.5 {
                ups += 1;
            } else if out < 0.5 {
                downs += 1;
            }
        }
        assert!(ups > 50 && downs > 50, "ups={ups}, downs={downs}");
    }

    #[test]
    fn draw_noise_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..500 {
            let r = draw_noise(0.3, 0.05, &mut rng);
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn white_noise_level_one_is_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let mean: f64 = (0..3000)
            .map(|_| draw_noise(0.01, 1.0, &mut rng))
            .sum::<f64>()
            / 3000.0;
        // Pure U(0,1) regardless of tiny sigma.
        assert!((mean - 0.5).abs() < 0.03, "mean={mean}");
    }

    #[test]
    fn small_sigma_yields_small_noise() {
        let mut rng = StdRng::seed_from_u64(8);
        let mean: f64 = (0..3000)
            .map(|_| draw_noise(0.02, 0.0, &mut rng))
            .sum::<f64>()
            / 3000.0;
        assert!(mean < 0.05, "mean={mean}");
    }

    /// The paper's core claim for ME (Lemma 6): with equal noise budgets,
    /// the max-entropy rule yields higher expected degree entropy than the
    /// unguided rule.
    #[test]
    fn max_entropy_beats_unguided_on_degree_entropy() {
        let mut rng = StdRng::seed_from_u64(9);
        // A vertex with 8 incident edges at p = 0.9 (low entropy: degree
        // concentrated at 8).
        let probs = [0.9; 8];
        let reps = 400;
        let r_budget = 0.3;
        let mut h_me = 0.0;
        let mut h_un = 0.0;
        for _ in 0..reps {
            let me: Vec<f64> = probs
                .iter()
                .map(|&p| {
                    PerturbStrategy::MaxEntropy.apply(p, r_budget * rng.gen::<f64>(), &mut rng)
                })
                .collect();
            let un: Vec<f64> = probs
                .iter()
                .map(|&p| PerturbStrategy::Unguided.apply(p, r_budget * rng.gen::<f64>(), &mut rng))
                .collect();
            h_me += PoissonBinomial::new(&me).entropy_nats();
            h_un += PoissonBinomial::new(&un).entropy_nats();
        }
        assert!(
            h_me > h_un,
            "max-entropy {h_me} should exceed unguided {h_un}"
        );
    }
}
