//! GenObf trial bodies (paper Algorithm 3, lines 9–24): the plain trial,
//! which draws its randomness inline, and the persisted trial of the
//! incremental σ search (DESIGN.md §6d). Both run the per-candidate
//! arithmetic of [`crate::perturb`], so they agree bit for bit on the same
//! draws.
//!
//! A GenObf trial is a deterministic function of `(graph, selection, σ,
//! ρ)` where ρ is the trial's random tape: the candidate selection plus,
//! per candidate, a white-noise coin, a magnitude uniform, and (for the
//! unguided strategy) a sign bit. Crucially σ only enters *after* the tape
//! — the truncated-normal draw is inverse-CDF sampling, `r = F⁻¹_σ(u)` —
//! so one recorded tape can be re-evaluated at every σ the search probes.
//!
//! [`TrialPlan`] records the tape once (from the trial's call-0 RNG
//! stream) and re-transforms it per probe. Evaluating a probe then costs
//! the inverse CDFs plus a *cached* anonymity check: only vertices
//! incident to candidate edges recompute their degree pmf
//! ([`DegreePmfCache`]), against an incident-probability overlay instead
//! of a cloned graph. The winning trial's graph is materialized only when
//! a probe passes.
//!
//! The first GenObf call of a run consumes the tape exactly as the
//! non-incremental path would, so call 0 is bit-identical with the toggle
//! on or off; later calls reuse the tape instead of redrawing, which is
//! the documented stream divergence of §6d.

use crate::anonymity::{
    anonymity_check_cached, AdversaryKnowledge, AnonymityReport, DegreePmfCache,
};
use crate::candidate::{select_candidates, CandidateEdge, VertexSampler};
use crate::config::ChameleonConfig;
use crate::perturb::{draw_noise, noise, perturbed_clone, NoiseBudget, PerturbStrategy};
use chameleon_ugraph::{NodeId, UncertainGraph};
use rand::Rng;

/// What every GenObf trial of one anonymize run reads; fixed for the
/// whole σ search.
pub(crate) struct TrialInputs<'a> {
    pub(crate) graph: &'a UncertainGraph,
    pub(crate) knowledge: AdversaryKnowledge,
    pub(crate) cfg: &'a ChameleonConfig,
    pub(crate) strategy: PerturbStrategy,
    /// Selection weights `Q^v` (σ(e) budgets read them too).
    pub(crate) selection: Vec<f64>,
    /// Draws vertices ∝ `Q^v` over `V \ H`.
    pub(crate) sampler: VertexSampler,
}

impl TrialInputs<'_> {
    fn select<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<CandidateEdge> {
        let _s = chameleon_obs::span!("genobf.select");
        select_candidates(self.graph, &self.sampler, self.cfg.size_multiplier, rng)
    }

    /// One plain trial at `sigma` with its randomness drawn inline from
    /// `rng`: the candidates, then per candidate the noise coin and
    /// magnitude and (unguided only) the sign — the order
    /// [`TrialPlan::record`] stores. `None` when no candidate was selected.
    pub(crate) fn perturb_inline<R: Rng + ?Sized>(
        &self,
        sigma: f64,
        rng: &mut R,
    ) -> Option<UncertainGraph> {
        let candidates = self.select(rng);
        if candidates.is_empty() {
            return None;
        }
        chameleon_obs::counter!("genobf.edges_perturbed").add(candidates.len() as u64);
        let _s = chameleon_obs::span!("genobf.perturb");
        let budget = NoiseBudget::new(&candidates, &self.selection);
        let mut p_new = Vec::with_capacity(candidates.len());
        {
            let _s = chameleon_obs::span!("genobf.noise");
            for (i, cand) in candidates.iter().enumerate() {
                let r = draw_noise(budget.sigma_e(i, sigma), self.cfg.white_noise, rng);
                p_new.push(self.strategy.apply(cand.p, r, rng));
            }
        }
        Some(perturbed_clone(self.graph, &candidates, &p_new))
    }
}

/// Incident-probability overlay of one vertex touched by the trial's
/// candidates: the base adjacency probabilities (plus appended slots for
/// injected edges) and where each candidate's perturbed probability lands.
#[derive(Debug, Clone)]
struct VertexOverlay {
    v: NodeId,
    /// Base incident probabilities in adjacency order, extended by one
    /// slot per injected incident candidate (in candidate order — exactly
    /// where `add_edge` would append them).
    template: Vec<f64>,
    /// `(position in template, candidate index)` writes to apply.
    writes: Vec<(u32, u32)>,
}

/// One GenObf trial's recorded randomness, re-evaluable at any σ.
#[derive(Debug, Clone)]
pub(crate) struct TrialPlan {
    candidates: Vec<CandidateEdge>,
    budget: NoiseBudget,
    /// White-noise coin uniform per candidate.
    coin: Vec<f64>,
    /// Magnitude uniform per candidate: the white-noise value itself, or
    /// the quantile fed to the truncated normal's inverse CDF.
    value: Vec<f64>,
    /// Unguided-strategy sign per candidate (all `false` for max-entropy).
    sign_up: Vec<bool>,
    overlays: Vec<VertexOverlay>,
    /// Degree pmfs: base-graph values for untouched vertices (shared with
    /// every probe), overwritten per probe for overlay vertices.
    cache: DegreePmfCache,
    /// Perturbed probability per candidate at the most recent σ.
    p_new: Vec<f64>,
    scratch: Vec<f64>,
}

impl TrialPlan {
    /// Records one trial's tape from `rng`, consuming draws in exactly the
    /// order [`TrialInputs::perturb_inline`] does.
    pub(crate) fn record<R: Rng + ?Sized>(
        inputs: &TrialInputs<'_>,
        base_cache: &DegreePmfCache,
        rng: &mut R,
    ) -> Self {
        let graph = inputs.graph;
        let candidates = inputs.select(rng);
        let mut coin = Vec::with_capacity(candidates.len());
        let mut value = Vec::with_capacity(candidates.len());
        let mut sign_up = Vec::with_capacity(candidates.len());
        for _ in &candidates {
            coin.push(rng.gen::<f64>());
            value.push(rng.gen::<f64>());
            sign_up.push(inputs.strategy.draw_sign(rng));
        }

        // Overlay construction: one entry per touched vertex.
        let mut overlay_of: Vec<usize> = vec![usize::MAX; graph.num_nodes()];
        let mut overlays: Vec<VertexOverlay> = Vec::new();
        for (ci, cand) in candidates.iter().enumerate() {
            for w in [cand.u, cand.v] {
                let slot = &mut overlay_of[w as usize];
                if *slot == usize::MAX {
                    *slot = overlays.len();
                    overlays.push(VertexOverlay {
                        v: w,
                        template: graph.incident_probs(w),
                        writes: Vec::new(),
                    });
                }
                let overlay = &mut overlays[*slot];
                let pos = match cand.existing {
                    Some(e) => graph
                        .neighbors(w)
                        .iter()
                        .position(|&(_, id)| id == e)
                        .expect("candidate edge is incident to its endpoint"),
                    None => {
                        overlay.template.push(0.0);
                        overlay.template.len() - 1
                    }
                };
                overlay.writes.push((pos as u32, ci as u32));
            }
        }
        Self {
            budget: NoiseBudget::new(&candidates, &inputs.selection),
            p_new: vec![0.0; candidates.len()],
            candidates,
            coin,
            value,
            sign_up,
            overlays,
            cache: base_cache.clone(),
            scratch: Vec::new(),
        }
    }

    /// True when the trial selected no candidates (degenerate; the plain
    /// trial returns `None` for such a trial).
    pub(crate) fn is_degenerate(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Re-evaluates the tape at `sigma`: recomputes every candidate's
    /// perturbed probability, refreshes the touched degree pmfs, and runs
    /// the cached anonymity check. Bit-identical to perturbing a cloned
    /// graph and checking it directly.
    pub(crate) fn check_at_sigma(
        &mut self,
        sigma: f64,
        inputs: &TrialInputs<'_>,
    ) -> AnonymityReport {
        debug_assert!(!self.is_degenerate());
        {
            let _s = chameleon_obs::span!("genobf.noise");
            for (i, cand) in self.candidates.iter().enumerate() {
                let sigma_e = self.budget.sigma_e(i, sigma);
                let r = noise(self.coin[i], self.value[i], sigma_e, inputs.cfg.white_noise);
                self.p_new[i] = inputs.strategy.apply_signed(cand.p, r, self.sign_up[i]);
            }
        }
        {
            let _s = chameleon_obs::span!("genobf.overlay_pmfs");
            for overlay in &self.overlays {
                self.scratch.clear();
                self.scratch.extend_from_slice(&overlay.template);
                for &(pos, ci) in &overlay.writes {
                    self.scratch[pos as usize] = self.p_new[ci as usize];
                }
                self.cache.set_from_probs(overlay.v, &self.scratch);
            }
        }
        chameleon_obs::counter!("genobf.pmf_overlays").add(self.overlays.len() as u64);
        anonymity_check_cached(&self.cache, &inputs.knowledge, inputs.cfg.k)
    }

    /// Builds the perturbed graph for the most recent
    /// [`TrialPlan::check_at_sigma`] — the clone-and-apply step the plain
    /// trial performs up front, deferred to winners.
    pub(crate) fn materialize(&self, graph: &UncertainGraph) -> UncertainGraph {
        perturbed_clone(graph, &self.candidates, &self.p_new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymity::anonymity_check;
    use chameleon_stats::SeedSequence;
    use chameleon_ugraph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn graph() -> UncertainGraph {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = generators::gnm(30, 55, &mut rng);
        for e in 0..g.num_edges() as u32 {
            g.set_prob(e, rng.gen::<f64>()).unwrap();
        }
        g
    }

    fn inputs<'a>(
        g: &'a UncertainGraph,
        cfg: &'a ChameleonConfig,
        strategy: PerturbStrategy,
    ) -> TrialInputs<'a> {
        let selection: Vec<f64> = (0..30).map(|i| 0.05 + 0.03 * i as f64).collect();
        TrialInputs {
            graph: g,
            knowledge: AdversaryKnowledge::expected_degrees(g),
            cfg,
            strategy,
            sampler: VertexSampler::new(&selection, &HashSet::new()),
            selection,
        }
    }

    #[test]
    fn plan_replays_the_plain_trial_bit_for_bit() {
        let g = graph();
        let cfg = ChameleonConfig::builder()
            .k(3)
            .white_noise(0.05)
            .num_world_samples(10)
            .build();
        for strategy in [PerturbStrategy::MaxEntropy, PerturbStrategy::Unguided] {
            let trial = inputs(&g, &cfg, strategy);
            let base_cache = DegreePmfCache::build(&g, &trial.knowledge, 1);
            for sigma in [0.05, 0.3, 1.7] {
                let seq = SeedSequence::new(11);
                let mut rng_ref = seq.rng_indexed2("genobf-trial", 0, 0);
                let expect = trial.perturb_inline(sigma, &mut rng_ref).unwrap();
                let mut rng_plan = seq.rng_indexed2("genobf-trial", 0, 0);
                let mut plan = TrialPlan::record(&trial, &base_cache, &mut rng_plan);
                let report = plan.check_at_sigma(sigma, &trial);
                let got = plan.materialize(&g);
                // Graphs agree bit for bit (edge order, endpoints, probs).
                assert_eq!(expect.num_edges(), got.num_edges());
                for (a, b) in expect.edges().iter().zip(got.edges()) {
                    assert_eq!((a.u, a.v), (b.u, b.v));
                    assert_eq!(a.p.to_bits(), b.p.to_bits(), "({},{})", a.u, a.v);
                }
                // Both streams end at the same position.
                assert_eq!(rng_ref.gen::<u64>(), rng_plan.gen::<u64>());
                // Cached check agrees with the direct check of the
                // materialized graph bit for bit.
                let direct = anonymity_check(&expect, &trial.knowledge, cfg.k);
                assert_eq!(report.unobfuscated, direct.unobfuscated);
                assert_eq!(report.eps_hat.to_bits(), direct.eps_hat.to_bits());
                for (omega, h) in &direct.entropy_by_omega {
                    assert_eq!(h.to_bits(), report.entropy_by_omega[omega].to_bits());
                }
            }
        }
    }

    #[test]
    fn one_plan_re_evaluates_across_many_sigmas() {
        // The core incremental property: a single recorded tape checked at
        // several σ values matches freshly perturbed graphs driven by the
        // same RNG stream — in any probe order, including revisits.
        let g = graph();
        let cfg = ChameleonConfig::builder().k(2).white_noise(0.01).build();
        let trial = inputs(&g, &cfg, PerturbStrategy::MaxEntropy);
        let base_cache = DegreePmfCache::build(&g, &trial.knowledge, 1);
        let seq = SeedSequence::new(77);
        let mut plan = TrialPlan::record(
            &trial,
            &base_cache,
            &mut seq.rng_indexed2("genobf-trial", 0, 0),
        );
        for sigma in [1.0, 0.25, 2.0, 0.25, 0.7] {
            let report = plan.check_at_sigma(sigma, &trial);
            let expect = trial
                .perturb_inline(sigma, &mut seq.rng_indexed2("genobf-trial", 0, 0))
                .unwrap();
            let got = plan.materialize(&g);
            for (a, b) in expect.edges().iter().zip(got.edges()) {
                assert_eq!(a.p.to_bits(), b.p.to_bits());
            }
            let direct = anonymity_check(&expect, &trial.knowledge, cfg.k);
            assert_eq!(report.unobfuscated, direct.unobfuscated);
            assert_eq!(report.eps_hat.to_bits(), direct.eps_hat.to_bits());
        }
    }
}
