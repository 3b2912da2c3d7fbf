//! Persisted GenObf trial randomness for the incremental σ search
//! (DESIGN.md §6d).
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
use crate::perturb::PerturbStrategy;
use chameleon_stats::TruncatedNormal;
use chameleon_ugraph::{NodeId, UncertainGraph};
use rand::Rng;

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
    /// Per-candidate selection weight `Q^e` and its trial aggregates —
    /// kept separate (not pre-divided) so σ_e is computed by the exact
    /// float expression of the non-incremental path.
    q_edge: Vec<f64>,
    q_sum: f64,
    q_mean: f64,
    /// White-noise coin uniform per candidate.
    coin: Vec<f64>,
    /// Magnitude uniform per candidate: the white-noise value itself, or
    /// the quantile fed to the truncated normal's inverse CDF.
    value: Vec<f64>,
    /// Unguided-strategy sign per candidate (empty for max-entropy).
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
    /// order the non-incremental trial does: candidate selection first,
    /// then coin, value and (unguided only) sign per candidate.
    pub(crate) fn record<R: Rng + ?Sized>(
        graph: &UncertainGraph,
        sampler: &VertexSampler,
        cfg: &ChameleonConfig,
        strategy: PerturbStrategy,
        selection: &[f64],
        base_cache: &DegreePmfCache,
        rng: &mut R,
    ) -> Self {
        let candidates = select_candidates(graph, sampler, cfg.size_multiplier, rng);
        let q_edge: Vec<f64> = candidates
            .iter()
            .map(|c| 0.5 * (selection[c.u as usize] + selection[c.v as usize]))
            .collect();
        let q_sum: f64 = q_edge.iter().sum();
        let q_mean = if q_sum > 0.0 {
            q_sum / candidates.len() as f64
        } else {
            1.0
        };
        let mut coin = Vec::with_capacity(candidates.len());
        let mut value = Vec::with_capacity(candidates.len());
        let mut sign_up = Vec::new();
        for _ in &candidates {
            coin.push(rng.gen::<f64>());
            // Both draw_noise branches consume exactly one more uniform;
            // which transform applies is decided at evaluation time.
            value.push(rng.gen::<f64>());
            if strategy == PerturbStrategy::Unguided {
                sign_up.push(rng.gen::<bool>());
            }
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
        let n_cands = candidates.len();
        Self {
            candidates,
            q_edge,
            q_sum,
            q_mean,
            coin,
            value,
            sign_up,
            overlays,
            cache: base_cache.clone(),
            p_new: vec![0.0; n_cands],
            scratch: Vec::new(),
        }
    }

    /// True when the trial selected no candidates (degenerate; the
    /// non-incremental path reports `(1.0, None)` for such a trial).
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
        strategy: PerturbStrategy,
        knowledge: &AdversaryKnowledge,
        cfg: &ChameleonConfig,
    ) -> AnonymityReport {
        debug_assert!(!self.is_degenerate());
        for (i, cand) in self.candidates.iter().enumerate() {
            let sigma_e = if self.q_sum > 0.0 {
                (sigma * self.q_edge[i] / self.q_mean).clamp(1e-9, 3.0)
            } else {
                sigma.clamp(1e-9, 3.0)
            };
            let r = if self.coin[i] < cfg.white_noise {
                self.value[i]
            } else {
                TruncatedNormal::half_unit(sigma_e.max(1e-9)).inverse_cdf(self.value[i])
            };
            self.p_new[i] = match strategy {
                PerturbStrategy::MaxEntropy => (cand.p + (1.0 - 2.0 * cand.p) * r).clamp(0.0, 1.0),
                PerturbStrategy::Unguided => {
                    let sign = if self.sign_up[i] { 1.0 } else { -1.0 };
                    (cand.p + sign * r).clamp(0.0, 1.0)
                }
            };
        }
        for overlay in &self.overlays {
            self.scratch.clear();
            self.scratch.extend_from_slice(&overlay.template);
            for &(pos, ci) in &overlay.writes {
                self.scratch[pos as usize] = self.p_new[ci as usize];
            }
            self.cache.set_from_probs(overlay.v, &self.scratch);
        }
        chameleon_obs::counter!("genobf.pmf_overlays").add(self.overlays.len() as u64);
        anonymity_check_cached(&self.cache, knowledge, cfg.k)
    }

    /// Builds the perturbed graph for the most recent
    /// [`TrialPlan::check_at_sigma`] — the same clone-and-apply sequence
    /// the non-incremental trial performs up front, deferred to winners.
    pub(crate) fn materialize(&self, graph: &UncertainGraph) -> UncertainGraph {
        let mut perturbed = graph.clone();
        for (cand, &p_new) in self.candidates.iter().zip(&self.p_new) {
            match cand.existing {
                Some(e) => perturbed.set_prob(e, p_new).expect("edge exists"),
                None => {
                    perturbed
                        .add_edge(cand.u, cand.v, p_new)
                        .expect("candidate was a non-edge");
                }
            }
        }
        perturbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymity::anonymity_check;
    use crate::perturb::draw_noise;
    use chameleon_stats::SeedSequence;
    use chameleon_ugraph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn setup() -> (UncertainGraph, Vec<f64>, VertexSampler) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = generators::gnm(30, 55, &mut rng);
        for e in 0..g.num_edges() as u32 {
            g.set_prob(e, rng.gen::<f64>()).unwrap();
        }
        let selection: Vec<f64> = (0..30).map(|i| 0.05 + 0.03 * i as f64).collect();
        let sampler = VertexSampler::new(&selection, &HashSet::new());
        (g, selection, sampler)
    }

    /// The reference trial: exactly the non-incremental gen_obf body.
    fn reference_trial(
        graph: &UncertainGraph,
        sampler: &VertexSampler,
        cfg: &ChameleonConfig,
        strategy: PerturbStrategy,
        selection: &[f64],
        sigma: f64,
        rng: &mut StdRng,
    ) -> UncertainGraph {
        let candidates = select_candidates(graph, sampler, cfg.size_multiplier, rng);
        let q_edge: Vec<f64> = candidates
            .iter()
            .map(|c| 0.5 * (selection[c.u as usize] + selection[c.v as usize]))
            .collect();
        let q_sum: f64 = q_edge.iter().sum();
        let q_mean = if q_sum > 0.0 {
            q_sum / candidates.len() as f64
        } else {
            1.0
        };
        let mut perturbed = graph.clone();
        for (cand, &qe) in candidates.iter().zip(&q_edge) {
            let sigma_e = if q_sum > 0.0 {
                (sigma * qe / q_mean).clamp(1e-9, 3.0)
            } else {
                sigma.clamp(1e-9, 3.0)
            };
            let r = draw_noise(sigma_e, cfg.white_noise, rng);
            let p_new = strategy.apply(cand.p, r, rng);
            match cand.existing {
                Some(e) => perturbed.set_prob(e, p_new).unwrap(),
                None => {
                    perturbed.add_edge(cand.u, cand.v, p_new).unwrap();
                }
            }
        }
        perturbed
    }

    #[test]
    fn plan_replays_the_reference_trial_bit_for_bit() {
        let (g, selection, sampler) = setup();
        let cfg = ChameleonConfig::builder()
            .k(3)
            .white_noise(0.05)
            .num_world_samples(10)
            .build();
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let base_cache = DegreePmfCache::build(&g, &knowledge, 1);
        for strategy in [PerturbStrategy::MaxEntropy, PerturbStrategy::Unguided] {
            for sigma in [0.05, 0.3, 1.7] {
                let seq = SeedSequence::new(11);
                let mut rng_ref = seq.rng_indexed2("genobf-trial", 0, 0);
                let expect = reference_trial(
                    &g,
                    &sampler,
                    &cfg,
                    strategy,
                    &selection,
                    sigma,
                    &mut rng_ref,
                );
                let mut rng_plan = seq.rng_indexed2("genobf-trial", 0, 0);
                let mut plan = TrialPlan::record(
                    &g,
                    &sampler,
                    &cfg,
                    strategy,
                    &selection,
                    &base_cache,
                    &mut rng_plan,
                );
                let report = plan.check_at_sigma(sigma, strategy, &knowledge, &cfg);
                let got = plan.materialize(&g);
                // Graphs agree bit for bit (edge order, endpoints, probs).
                assert_eq!(expect.num_edges(), got.num_edges());
                for (a, b) in expect.edges().iter().zip(got.edges()) {
                    assert_eq!((a.u, a.v), (b.u, b.v));
                    assert_eq!(a.p.to_bits(), b.p.to_bits(), "({},{})", a.u, a.v);
                }
                // Cached check agrees with the direct check of the
                // materialized graph bit for bit.
                let direct = anonymity_check(&expect, &knowledge, cfg.k);
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
        let (g, selection, sampler) = setup();
        let cfg = ChameleonConfig::builder().k(2).white_noise(0.01).build();
        let strategy = PerturbStrategy::MaxEntropy;
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let base_cache = DegreePmfCache::build(&g, &knowledge, 1);
        let seq = SeedSequence::new(77);
        let mut plan = TrialPlan::record(
            &g,
            &sampler,
            &cfg,
            strategy,
            &selection,
            &base_cache,
            &mut seq.rng_indexed2("genobf-trial", 0, 0),
        );
        for sigma in [1.0, 0.25, 2.0, 0.25, 0.7] {
            let report = plan.check_at_sigma(sigma, strategy, &knowledge, &cfg);
            let expect = reference_trial(
                &g,
                &sampler,
                &cfg,
                strategy,
                &selection,
                sigma,
                &mut seq.rng_indexed2("genobf-trial", 0, 0),
            );
            let got = plan.materialize(&g);
            for (a, b) in expect.edges().iter().zip(got.edges()) {
                assert_eq!(a.p.to_bits(), b.p.to_bits());
            }
            let direct = anonymity_check(&expect, &knowledge, cfg.k);
            assert_eq!(report.unobfuscated, direct.unobfuscated);
            assert_eq!(report.eps_hat.to_bits(), direct.eps_hat.to_bits());
        }
    }
}
