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
//! [`TrialPlan::record_into`] draws the tape in the order Algorithm 3 uses it
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
//! A plain GenObf call records fresh tapes from its own streams, into the
//! buffers of one plan per trial slot kept across calls, and checks each
//! once; the incremental search records its plans on the first call and
//! re-checks them at every later σ, which is the documented stream
//! divergence of §6d.

use crate::anonymity::{trial_check, AdversaryKnowledge, AnonymityReport, DegreePmfs, Incidence};
use crate::candidate::{
    select_candidates_into, CandidateEdge, EdgeIndex, SelectScratch, VertexSampler,
};
use crate::config::ChameleonConfig;
use crate::perturb::{apply_direction, sigma_e_of, NoiseBudget, PerturbStrategy};
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
/// incidence, re-evaluable at any σ. A plan re-records into its own
/// buffers, so a trial slot that records a fresh tape at every GenObf
/// call allocates nothing once its buffers have grown.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrialPlan {
    candidates: Vec<CandidateEdge>,
    /// The candidates' σ(e) budgets, in candidate order.
    budget: NoiseBudget,
    /// The noise order: `order[j]` is the candidate at noise position `j`
    /// (see [`noise_order`]).
    order: Vec<u32>,
    /// What the noise reads of each candidate, in the noise order.
    lanes: Vec<NoiseLane>,
    /// Each candidate's positions in `incidence.probs`, in candidate order
    /// (the layout's scratch).
    cand_slots: Vec<[usize; 2]>,
    /// Scratch of [`noise_order`]: bucket counts and each candidate's
    /// noise position.
    buckets: Vec<u32>,
    position: Vec<u32>,
    /// The perturbed graph's incident probabilities at the most recent σ.
    incidence: Incidence,
    /// Its degree pmfs, truncated at the adversary's largest value.
    pmfs: DegreePmfs,
    /// The selection loop's working sets.
    select: SelectScratch,
    /// Per vertex, the layout's injected-slot cursor.
    next: Vec<usize>,
    /// The most bytes any recording has used since [`TrialPlan::begin`].
    used_peak: usize,
}

impl TrialPlan {
    /// Records one trial's tape from `rng` into a new plan.
    #[cfg(test)]
    pub(crate) fn record<R: Rng + ?Sized>(inputs: &TrialInputs<'_>, rng: &mut R) -> Self {
        let mut plan = Self::default();
        plan.record_into(inputs, rng);
        plan
    }

    /// Starts a new σ search's use of this plan: whatever it held stays,
    /// but only what the new search's recordings use counts from here on
    /// (see [`TrialPlan::worth_keeping`]).
    pub(crate) fn begin(&mut self) {
        self.used_peak = 0;
    }

    /// Whether this plan's buffers are small enough to keep for the next
    /// search: at most twice the most its current search has used. A plan
    /// grown by a big search and then handed to a small one fails this.
    pub(crate) fn worth_keeping(&self) -> bool {
        self.footprint().held <= 2 * self.used_peak
    }

    /// The most bytes a recording has used since [`TrialPlan::begin`].
    #[cfg(test)]
    pub(crate) fn used_peak(&self) -> usize {
        self.used_peak
    }

    /// The bytes this plan's buffers hold and the bytes its most recent
    /// recording uses.
    pub(crate) fn footprint(&self) -> Footprint {
        let mut f = Footprint::default();
        f.add(&self.candidates);
        self.budget.footprint(&mut f);
        f.add(&self.order);
        f.add(&self.lanes);
        f.add(&self.cand_slots);
        f.add(&self.buckets);
        f.add(&self.position);
        f.add(&self.incidence.off);
        f.add(&self.incidence.probs);
        self.pmfs.footprint(&mut f);
        self.select.footprint(&mut f);
        f.add(&self.next);
        f
    }

    /// Records one trial's tape from `rng` — the candidates, then per
    /// candidate the noise coin and magnitude and (unguided only) the sign
    /// — and lays out its perturbed incidence, overwriting whatever this
    /// plan held in the buffers it already has.
    pub(crate) fn record_into<R: Rng + ?Sized>(&mut self, inputs: &TrialInputs<'_>, rng: &mut R) {
        {
            let _s = chameleon_obs::span!("genobf.select");
            select_candidates_into(
                inputs.graph,
                &inputs.edges,
                &inputs.sampler,
                inputs.cfg.size_multiplier,
                rng,
                &mut self.select,
                &mut self.candidates,
            );
        }
        let candidates = &self.candidates;
        {
            let _s = chameleon_obs::span!("genobf.layout");
            let base = &inputs.base;
            let n = inputs.graph.num_nodes();
            // `next[v]` counts v's injected edges, then becomes the flat
            // position of v's next injected slot.
            let next = &mut self.next;
            next.clear();
            next.resize(n, 0);
            for cand in candidates.iter().filter(|c| c.existing.is_none()) {
                next[cand.u as usize] += 1;
                next[cand.v as usize] += 1;
            }
            let Incidence { off, probs } = &mut self.incidence;
            off.clear();
            probs.clear();
            off.reserve(n + 1);
            probs.reserve(base.probs.len() + next.iter().sum::<usize>());
            off.push(0);
            for (v, next) in next.iter_mut().enumerate() {
                probs.extend_from_slice(base.of_vertex(v));
                let injected = std::mem::replace(next, probs.len());
                probs.resize(probs.len() + injected, 0.0);
                off.push(probs.len());
            }
            self.cand_slots.clear();
            self.cand_slots.extend(candidates.iter().map(|cand| {
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
            }));
            self.pmfs
                .layout_into(&self.incidence, inputs.knowledge.max_target());
            self.budget.reset(candidates, &inputs.selection);
            noise_order(
                self.budget.ratios(),
                &mut self.buckets,
                &mut self.order,
                &mut self.position,
            );
        }
        // The draws, in candidate order; each candidate's lane is written
        // once, at its noise position.
        let per_candidate = candidates
            .iter()
            .zip(self.budget.ratios())
            .zip(&self.cand_slots);
        let lanes = per_candidate.map(|((cand, &ratio), &slots)| {
            let coin = rng.gen::<f64>();
            let value = rng.gen::<f64>();
            let up = inputs.strategy.draw_sign(rng);
            NoiseLane {
                ratio,
                value,
                base: cand.p,
                dir: inputs.strategy.direction(cand.p, up),
                slots,
                white: coin < inputs.cfg.white_noise,
            }
        });
        // Every lane is overwritten (`position` is a permutation), so only
        // growth needs initializing.
        self.lanes.resize(candidates.len(), NoiseLane::default());
        for (lane, &j) in lanes.zip(&self.position) {
            self.lanes[j as usize] = lane;
        }
        self.used_peak = self.used_peak.max(self.footprint().used);
    }

    /// Evaluates the tape at `sigma`: writes every candidate's perturbed
    /// probability into the incidence and runs the anonymity check, its
    /// pmfs built on up to `threads` threads. Bit-identical to perturbing
    /// a cloned graph and checking it directly.
    ///
    /// The noise runs a stack block of candidates at a time: their σ(e),
    /// then their truncated-normal quantiles stage by stage
    /// ([`half_unit_quantiles`]), then the white-noise coin, which keeps
    /// the uniform itself, and the perturbation rule `p + d·r` with its
    /// recorded factor, and last the scatter into the incidence.
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
            let (mut sigma_e, mut u) = ([0.0; QUANTILE_BLOCK], [0.0; QUANTILE_BLOCK]);
            let mut p_new = [0.0; QUANTILE_BLOCK];
            for lanes in self.lanes.chunks(QUANTILE_BLOCK) {
                let n = lanes.len();
                let (sigma_e, u, p_new) = (&mut sigma_e[..n], &mut u[..n], &mut p_new[..n]);
                for ((s, u), lane) in sigma_e.iter_mut().zip(u.iter_mut()).zip(lanes) {
                    *s = sigma_e_of(lane.ratio, sigma);
                    *u = lane.value;
                }
                half_unit_quantiles(sigma_e, u, p_new);
                for (&q, lane) in p_new.iter().zip(lanes) {
                    let r = if lane.white { lane.value } else { q };
                    let p = apply_direction(lane.base, lane.dir, r);
                    let [a, b] = lane.slots;
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
    #[cfg(test)]
    pub(crate) fn perturbation(&self) -> Perturbation {
        let mut out = Perturbation::default();
        self.perturbation_into(&mut out);
        out
    }

    /// [`TrialPlan::perturbation`] written over `out`, into the buffers it
    /// already has.
    pub(crate) fn perturbation_into(&self, out: &mut Perturbation) {
        let probs = &self.incidence.probs;
        out.candidates.clone_from(&self.candidates);
        // Every entry is overwritten (`order` is a permutation).
        out.p_new.resize(self.candidates.len(), 0.0);
        for (&i, lane) in self.order.iter().zip(&self.lanes) {
            out.p_new[i as usize] = probs[lane.slots[0]];
        }
    }
}

/// Heap bytes of a set of buffers: what their capacity holds and what
/// their contents use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Footprint {
    pub(crate) held: usize,
    pub(crate) used: usize,
}

impl Footprint {
    /// Adds `v`'s capacity and length.
    pub(crate) fn add<T>(&mut self, v: &Vec<T>) {
        self.add_bytes(v.capacity(), v.len(), std::mem::size_of::<T>());
    }

    /// Adds `held` and `used` elements of `size` bytes each.
    pub(crate) fn add_bytes(&mut self, held: usize, used: usize, size: usize) {
        self.held += held * size;
        self.used += used * size;
    }
}

/// What the noise reads of one candidate, packed so that a plan's lanes,
/// in the noise order, are one array written once per candidate.
#[derive(Debug, Clone, Copy, Default)]
struct NoiseLane {
    /// σ(e)/σ.
    ratio: f64,
    /// Magnitude uniform: the white-noise value itself, or the quantile
    /// fed to the truncated normal's inverse CDF.
    value: f64,
    /// The candidate's input probability, and the rule's factor `d` in
    /// `p̃ = p + d·r` (which carries the unguided sign).
    base: f64,
    dir: f64,
    /// Positions in `incidence.probs`, one per endpoint.
    slots: [usize; 2],
    /// Whether the white-noise coin came up: the noise is then `value`.
    white: bool,
}

/// The order in which a trial's noise runs its candidates: ascending by
/// σ(e)/σ in buckets of a quarter octave (a counting sort on the ratio's
/// exponent and two leading mantissa bits), in candidate order within a
/// bucket. Fills `order` (noise position → candidate) and `position`
/// (candidate → noise position).
///
/// Each candidate's noise is a pure function of its own σ(e) and tape, so
/// the order changes no bit. It matters for speed: σ(e) spans a factor of
/// about 50 within a trial, and [`half_unit_quantiles`] is fastest on
/// blocks whose σ(e) all take the same `erf` branch, which runs of similar
/// σ(e) do at every σ.
fn noise_order(
    ratio: &[f64],
    buckets: &mut Vec<u32>,
    order: &mut Vec<u32>,
    position: &mut Vec<u32>,
) {
    // Ratios are finite and ≥ 0, so their bits order as they do.
    let key = |r: f64| (r.to_bits() >> 50) as usize;
    let lo = ratio.iter().map(|&r| key(r)).min().unwrap_or(0);
    let hi = ratio.iter().map(|&r| key(r)).max().unwrap_or(0);
    buckets.clear();
    buckets.resize(hi - lo + 2, 0);
    for &r in ratio {
        buckets[key(r) - lo + 1] += 1;
    }
    for b in 1..buckets.len() {
        buckets[b] += buckets[b - 1];
    }
    // Both are permutations, so every entry is overwritten below.
    order.resize(ratio.len(), 0);
    position.resize(ratio.len(), 0);
    for (i, &r) in ratio.iter().enumerate() {
        let next = &mut buckets[key(r) - lo];
        position[i] = *next;
        order[*next as usize] = i as u32;
        *next += 1;
    }
}

/// A checked trial's candidates and perturbed probabilities: enough to
/// build its graph, which the σ search does for its final winner only.
#[derive(Debug, Clone, Default)]
pub(crate) struct Perturbation {
    candidates: Vec<CandidateEdge>,
    p_new: Vec<f64>,
}

impl Perturbation {
    /// Empties this perturbation, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.candidates.clear();
        self.p_new.clear();
    }

    /// Whether its buffers hold at most twice what its contents use.
    pub(crate) fn worth_keeping(&self) -> bool {
        let f = self.footprint();
        f.held <= 2 * f.used
    }

    /// The bytes its buffers hold and its contents use.
    pub(crate) fn footprint(&self) -> Footprint {
        let mut f = Footprint::default();
        f.add(&self.candidates);
        f.add(&self.p_new);
        f
    }

    /// Builds `graph` with each candidate's perturbed probability
    /// (Algorithm 3 lines 22–23): non-edges appended in candidate order,
    /// in one pass through [`UncertainGraph::with_edges_appended`], then
    /// existing edges re-weighted in place.
    pub(crate) fn materialize(&self, graph: &UncertainGraph) -> UncertainGraph {
        let _s = chameleon_obs::span!("genobf.materialize");
        let per_candidate = || self.candidates.iter().zip(&self.p_new);
        let appended: Vec<_> = per_candidate()
            .filter(|(cand, _)| cand.existing.is_none())
            .map(|(cand, &p)| (cand.u, cand.v, p))
            .collect();
        let mut perturbed = graph
            .with_edges_appended(&appended)
            .expect("candidates are non-edges");
        for (cand, &p) in per_candidate() {
            if let Some(e) = cand.existing {
                perturbed.set_prob(e, p).expect("edge exists");
            }
        }
        perturbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymity::anonymity_check;
    use crate::candidate::select_candidates;
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
        /// A plan re-recorded over another tape and checked at any σ
        /// sequence (revisits included) and with any pmf thread count
        /// matches the plain trial: the same draws
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
            // Re-record over another tape's buffers, as a trial slot does.
            let mut plan = TrialPlan::record(&trial, &mut seq.rng_indexed2("genobf-trial", 1, 0));
            let _ = plan.check_at_sigma(0.5, &trial, 1);
            plan.record_into(&trial, &mut rng_plan);
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
