//! GenObf trials (paper Algorithm 3, lines 9–24) as recorded plans, the
//! one trial body behind both the plain search and the incremental σ
//! search (DESIGN.md §6d).
//!
//! A GenObf trial is a deterministic function of `(graph, selection, σ,
//! ρ)` where ρ is the trial's random tape: the candidate selection plus,
//! per candidate, a white-noise coin, a magnitude uniform, and (for the
//! unguided strategy) a sign bit. Crucially σ only enters *after* the tape
//! — the truncated-normal draw is inverse-CDF sampling, `r = F⁻¹_σ(u)` —
//! so one recorded tape can be re-evaluated at every σ the search probes.
//!
//! [`TrialPlan::record`] draws the tape in the order Algorithm 3 uses it
//! (selection, then coin / value / sign per candidate) and lays out the
//! perturbed graph's incidence once: the input's incident probabilities
//! in adjacency order, with each vertex's injected edges appended in
//! candidate order — exactly where `add_edge` puts them — and each
//! candidate's two flat positions in it. [`TrialPlan::check_at_sigma`]
//! then scatters the perturbed probabilities into that array, rebuilds
//! the degree-pmf arena and sweeps it; no graph is built. A passing trial
//! keeps only its [`Perturbation`], and the σ search materializes the
//! final winner's alone into an [`UncertainGraph`].
//!
//! A plain GenObf call records fresh plans from its own streams and checks
//! each once; the incremental search records its plans on the first call
//! and re-checks them at every later σ, which is the documented stream
//! divergence of §6d.

use crate::anonymity::{trial_check, AdversaryKnowledge, AnonymityReport, DegreePmfs, Incidence};
use crate::candidate::{select_candidates, CandidateEdge, EdgeIndex, VertexSampler};
use crate::config::ChameleonConfig;
use crate::perturb::{NoiseBudget, PerturbStrategy};
use chameleon_stats::trunc_normal::{half_unit_quantiles, QUANTILE_BLOCK};
use chameleon_ugraph::UncertainGraph;
use rand::Rng;

/// What every GenObf trial of one anonymize run reads; fixed for the
/// whole σ search.
pub(crate) struct TrialInputs<'a> {
    pub(crate) graph: &'a UncertainGraph,
    knowledge: AdversaryKnowledge,
    pub(crate) cfg: &'a ChameleonConfig,
    strategy: PerturbStrategy,
    /// Selection weights `Q^v` (σ(e) budgets read them too).
    selection: Vec<f64>,
    /// Draws vertices ∝ `Q^v` over `V \ H`.
    sampler: VertexSampler,
    /// The input's edges, for the selection loop's lookups.
    edges: EdgeIndex,
    /// The input graph's incidence, which every trial's starts from.
    base: Incidence,
    /// Edge `e`'s index in the adjacency lists of `e.u` and of `e.v`.
    edge_slots: Vec<[u32; 2]>,
}

impl<'a> TrialInputs<'a> {
    pub(crate) fn new(
        graph: &'a UncertainGraph,
        cfg: &'a ChameleonConfig,
        strategy: PerturbStrategy,
        selection: Vec<f64>,
        sampler: VertexSampler,
    ) -> Self {
        let mut edge_slots = vec![[0u32; 2]; graph.num_edges()];
        for v in 0..graph.num_nodes() as u32 {
            for (i, &(_, e)) in graph.neighbors(v).iter().enumerate() {
                let end = usize::from(graph.edge(e).u != v);
                edge_slots[e as usize][end] = i as u32;
            }
        }
        Self {
            graph,
            knowledge: AdversaryKnowledge::expected_degrees(graph),
            cfg,
            strategy,
            selection,
            sampler,
            edges: EdgeIndex::new(graph),
            base: Incidence::of(graph),
            edge_slots,
        }
    }
}

/// One GenObf trial's recorded randomness and its perturbed graph's
/// incidence, re-evaluable at any σ.
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
    /// Each candidate's positions in `incidence.probs`, one per endpoint.
    slots: Vec<[usize; 2]>,
    /// The perturbed graph's incident probabilities at the most recent σ.
    incidence: Incidence,
    /// Its degree pmfs, truncated at the adversary's largest value.
    pmfs: DegreePmfs,
}

impl TrialPlan {
    /// Records one trial's tape from `rng` — the candidates, then per
    /// candidate the noise coin and magnitude and (unguided only) the sign
    /// — and lays out its perturbed incidence.
    pub(crate) fn record<R: Rng + ?Sized>(inputs: &TrialInputs<'_>, rng: &mut R) -> Self {
        let candidates = {
            let _s = chameleon_obs::span!("genobf.select");
            select_candidates(
                inputs.graph,
                &inputs.edges,
                &inputs.sampler,
                inputs.cfg.size_multiplier,
                rng,
            )
        };
        let mut coin = Vec::with_capacity(candidates.len());
        let mut value = Vec::with_capacity(candidates.len());
        let mut sign_up = Vec::with_capacity(candidates.len());
        for _ in &candidates {
            coin.push(rng.gen::<f64>());
            value.push(rng.gen::<f64>());
            sign_up.push(inputs.strategy.draw_sign(rng));
        }

        let _s = chameleon_obs::span!("genobf.layout");
        let base = &inputs.base;
        let n = inputs.graph.num_nodes();
        // `next[v]` counts v's injected edges, then becomes the flat
        // position of v's next injected slot.
        let mut next = vec![0usize; n];
        for cand in candidates.iter().filter(|c| c.existing.is_none()) {
            next[cand.u as usize] += 1;
            next[cand.v as usize] += 1;
        }
        let mut off = Vec::with_capacity(n + 1);
        let mut probs = Vec::with_capacity(base.probs.len() + next.iter().sum::<usize>());
        off.push(0);
        for (v, next) in next.iter_mut().enumerate() {
            probs.extend_from_slice(base.of_vertex(v));
            let injected = std::mem::replace(next, probs.len());
            probs.resize(probs.len() + injected, 0.0);
            off.push(probs.len());
        }
        let slots = candidates
            .iter()
            .map(|cand| {
                let (u, v) = (cand.u as usize, cand.v as usize);
                match cand.existing {
                    Some(e) => {
                        let [su, sv] = inputs.edge_slots[e as usize];
                        [off[u] + su as usize, off[v] + sv as usize]
                    }
                    None => {
                        next[u] += 1;
                        next[v] += 1;
                        [next[u] - 1, next[v] - 1]
                    }
                }
            })
            .collect();
        let incidence = Incidence { off, probs };
        Self {
            budget: NoiseBudget::new(&candidates, &inputs.selection),
            pmfs: DegreePmfs::layout(&incidence, inputs.knowledge.max_target()),
            incidence,
            slots,
            candidates,
            coin,
            value,
            sign_up,
        }
    }

    /// Evaluates the tape at `sigma`: writes every candidate's perturbed
    /// probability into the incidence and runs the anonymity check, its
    /// pmfs built on up to `threads` threads. Bit-identical to perturbing
    /// a cloned graph and checking it directly.
    ///
    /// The noise runs a stack block of candidates at a time: their σ(e),
    /// then their truncated-normal quantiles stage by stage
    /// ([`half_unit_quantiles`]), then the white-noise coin, which keeps
    /// the uniform itself, and the perturbation rule.
    pub(crate) fn check_at_sigma(
        &mut self,
        sigma: f64,
        inputs: &TrialInputs<'_>,
        threads: usize,
    ) -> AnonymityReport {
        chameleon_obs::counter!("genobf.edges_perturbed").add(self.candidates.len() as u64);
        {
            let _s = chameleon_obs::span!("genobf.noise");
            let probs = &mut self.incidence.probs;
            let mut sigma_e = [0.0; QUANTILE_BLOCK];
            let mut quantile = [0.0; QUANTILE_BLOCK];
            for start in (0..self.candidates.len()).step_by(QUANTILE_BLOCK) {
                let end = (start + QUANTILE_BLOCK).min(self.candidates.len());
                let sigma_e = &mut sigma_e[..end - start];
                let quantile = &mut quantile[..end - start];
                for (j, s) in sigma_e.iter_mut().enumerate() {
                    *s = self.budget.sigma_e(start + j, sigma).max(1e-9);
                }
                half_unit_quantiles(sigma_e, &self.value[start..end], quantile);
                for (i, &q) in (start..end).zip(quantile.iter()) {
                    let r = if self.coin[i] < inputs.cfg.white_noise {
                        self.value[i]
                    } else {
                        q
                    };
                    let p = inputs
                        .strategy
                        .apply_signed(self.candidates[i].p, r, self.sign_up[i]);
                    let [a, b] = self.slots[i];
                    probs[a] = p;
                    probs[b] = p;
                }
            }
        }
        trial_check(
            &self.incidence,
            &mut self.pmfs,
            &inputs.knowledge,
            inputs.cfg.k,
            threads,
        )
    }

    /// The candidates and perturbed probabilities of the most recent
    /// [`TrialPlan::check_at_sigma`].
    pub(crate) fn perturbation(&self) -> Perturbation {
        let probs = &self.incidence.probs;
        Perturbation {
            candidates: self.candidates.clone(),
            p_new: self.slots.iter().map(|&[a, _]| probs[a]).collect(),
        }
    }
}

/// A checked trial's candidates and perturbed probabilities: enough to
/// build its graph, which the σ search does for its final winner only.
#[derive(Debug, Clone)]
pub(crate) struct Perturbation {
    candidates: Vec<CandidateEdge>,
    p_new: Vec<f64>,
}

impl Perturbation {
    /// Clones `graph` and writes each candidate's perturbed probability
    /// (Algorithm 3 lines 22–23): existing edges are re-weighted in place
    /// and non-edges appended in candidate order, into edge storage grown
    /// once for all of them.
    pub(crate) fn materialize(&self, graph: &UncertainGraph) -> UncertainGraph {
        let mut perturbed = {
            let _s = chameleon_obs::span!("genobf.clone");
            graph.clone()
        };
        perturbed.reserve_edges(
            self.candidates
                .iter()
                .filter(|c| c.existing.is_none())
                .count(),
        );
        for (cand, &p) in self.candidates.iter().zip(&self.p_new) {
            match cand.existing {
                Some(e) => perturbed.set_prob(e, p).expect("edge exists"),
                None => {
                    perturbed
                        .add_edge(cand.u, cand.v, p)
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    /// The plain trial as Algorithm 3 writes it, kept as the reference:
    /// draw each value as it is used, then perturb a clone of the input.
    fn perturb_inline<R: Rng + ?Sized>(
        inputs: &TrialInputs<'_>,
        sigma: f64,
        rng: &mut R,
    ) -> UncertainGraph {
        let candidates = select_candidates(
            inputs.graph,
            &inputs.edges,
            &inputs.sampler,
            inputs.cfg.size_multiplier,
            rng,
        );
        let budget = NoiseBudget::new(&candidates, &inputs.selection);
        let p_new: Vec<f64> = (0..candidates.len())
            .map(|i| {
                let r = draw_noise(budget.sigma_e(i, sigma), inputs.cfg.white_noise, rng);
                inputs.strategy.apply(candidates[i].p, r, rng)
            })
            .collect();
        Perturbation { candidates, p_new }.materialize(inputs.graph)
    }

    /// A G(n, m) graph with random probabilities; with `isolated`, the
    /// last few vertices get no edges.
    fn graph(seed: u64, n: usize, m: usize, isolated: usize) -> UncertainGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let core = generators::gnm(n - isolated, m, &mut rng);
        let mut g = UncertainGraph::with_nodes(n);
        for e in core.edges() {
            g.add_edge(e.u, e.v, rng.gen::<f64>()).unwrap();
        }
        g
    }

    fn inputs<'a>(
        g: &'a UncertainGraph,
        cfg: &'a ChameleonConfig,
        strategy: PerturbStrategy,
    ) -> TrialInputs<'a> {
        let selection: Vec<f64> = (0..g.num_nodes())
            .map(|i| 0.05 + 0.03 * (i % 30) as f64)
            .collect();
        let sampler = VertexSampler::new(&selection, &HashSet::new());
        TrialInputs::new(g, cfg, strategy, selection, sampler)
    }

    fn assert_same_graph(expect: &UncertainGraph, got: &UncertainGraph) {
        assert_eq!(expect.num_edges(), got.num_edges());
        for (a, b) in expect.edges().iter().zip(got.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert_eq!(a.p.to_bits(), b.p.to_bits(), "({},{})", a.u, a.v);
        }
    }

    fn assert_same_report(expect: &AnonymityReport, got: &AnonymityReport) {
        assert_eq!(expect.unobfuscated, got.unobfuscated);
        assert_eq!(expect.eps_hat.to_bits(), got.eps_hat.to_bits());
        assert_eq!(expect.entropy_by_omega.len(), got.entropy_by_omega.len());
        for (omega, h) in &expect.entropy_by_omega {
            assert_eq!(h.to_bits(), got.entropy_by_omega[omega].to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// A plan checked at any σ sequence (revisits included) and with
        /// any pmf thread count matches the plain trial: the same draws
        /// leave both RNG streams at the same position, the materialized
        /// graph equals the inline-perturbed clone bit for bit, and the
        /// plan's report equals the direct check of that graph.
        #[test]
        fn plan_replays_the_plain_trial_bit_for_bit(
            graph_seed in any::<u64>(),
            trial_seed in any::<u64>(),
            n in 6usize..40,
            density in 0.05f64..0.4,
            isolated in 0usize..4,
            multiplier in 0usize..3,
            unguided in any::<bool>(),
            sigmas in proptest::collection::vec(0usize..4, 1..6),
            threads in 0usize..4,
        ) {
            let multiplier = [0.5, 1.0, 2.0][multiplier];
            let threads = [1, 2, 3, 8][threads];
            let live = n - isolated;
            let m = ((density * (live * (live - 1) / 2) as f64) as usize).max(1);
            let g = graph(graph_seed, n, m, isolated);
            let cfg = ChameleonConfig::builder()
                .k(3)
                .white_noise(0.05)
                .size_multiplier(multiplier)
                .num_world_samples(10)
                .build();
            let strategy = if unguided {
                PerturbStrategy::Unguided
            } else {
                PerturbStrategy::MaxEntropy
            };
            let trial = inputs(&g, &cfg, strategy);
            let seq = SeedSequence::new(trial_seed);
            let mut rng_plan = seq.rng_indexed2("genobf-trial", 0, 0);
            let mut plan = TrialPlan::record(&trial, &mut rng_plan);
            prop_assert!(!plan.candidates.is_empty());
            for sigma in sigmas.into_iter().map(|i| [0.02, 0.3, 1.0, 1.7][i]) {
                let report = plan.check_at_sigma(sigma, &trial, threads);
                let mut rng_ref = seq.rng_indexed2("genobf-trial", 0, 0);
                let expect = perturb_inline(&trial, sigma, &mut rng_ref);
                let mut rng_after = rng_plan.clone();
                prop_assert_eq!(rng_ref.gen::<u64>(), rng_after.gen::<u64>());
                let got = plan.perturbation().materialize(&g);
                assert_same_graph(&expect, &got);
                assert_same_report(&anonymity_check(&got, &trial.knowledge, cfg.k), &report);
            }
        }
    }

    #[test]
    fn injected_slots_follow_add_edge_order() {
        // A path plus a multiplier large enough to inject several edges
        // per vertex: every vertex's incidence must list its probabilities
        // exactly as the materialized graph's adjacency does.
        let g = graph(5, 12, 11, 2);
        let cfg = ChameleonConfig::builder().k(2).size_multiplier(3.0).build();
        let trial = inputs(&g, &cfg, PerturbStrategy::MaxEntropy);
        let mut plan = TrialPlan::record(&trial, &mut StdRng::seed_from_u64(9));
        let _ = plan.check_at_sigma(0.4, &trial, 1);
        let got = plan.perturbation().materialize(&g);
        assert!(got.num_edges() > g.num_edges(), "no edge was injected");
        for v in 0..g.num_nodes() {
            let bits = |ps: &[f64]| ps.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(plan.incidence.of_vertex(v)),
                bits(&got.incident_probs(v as u32)),
                "vertex {v}"
            );
        }
    }
}
