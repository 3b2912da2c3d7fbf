//! The (k, ε)-obfuscation anonymity check (paper Definition 3, after
//! Boldi et al. VLDB 2012).
//!
//! The adversary knows the *degree* of a target vertex in the original
//! graph and tries to locate it in the published uncertain graph `G̃`. For
//! a property value ω, the adversary's posterior over vertices is
//!
//! ```text
//! Y_ω(u) = Pr[deg_G̃(u) = ω] / Σ_w Pr[deg_G̃(w) = ω]
//! ```
//!
//! where `deg_G̃(u)` is Poisson–binomial over `u`'s incident edge
//! probabilities. A vertex `v` with original property ω_v is k-obfuscated
//! iff `H(Y_{ω_v}) ≥ log₂ k`; the graph is (k, ε)-obf iff at most `ε·|V|`
//! vertices fail.
//!
//! For an uncertain *original* graph, the adversary value ω_v is taken to
//! be the rounded expected degree of `v` in the original graph (DESIGN.md
//! §3); for a deterministic original it is the plain degree — both are
//! covered by [`AdversaryKnowledge`].

use chameleon_stats::detmath;
use chameleon_stats::entropy::{entropy_nats_from_sums, uniform_entropy_bits, weighted_ln};
use chameleon_stats::parallel;
use chameleon_stats::poisson_binomial::pmf_truncated_into;
use chameleon_ugraph::{NodeId, UncertainGraph};
use std::collections::HashMap;
use std::ops::Range;

/// Every vertex's incident edge probabilities in one flat array
/// (compressed sparse rows): vertex `v`'s are `probs[off[v]..off[v + 1]]`,
/// in adjacency order — the Bernoulli parameters of its degree, in the
/// order the pmf DP consumes them.
#[derive(Debug, Clone, Default)]
pub(crate) struct Incidence {
    pub(crate) off: Vec<usize>,
    pub(crate) probs: Vec<f64>,
}

impl Incidence {
    /// `graph`'s incident probabilities, in [`UncertainGraph::incident_probs`]
    /// order.
    pub(crate) fn of(graph: &UncertainGraph) -> Self {
        let mut off = Vec::with_capacity(graph.num_nodes() + 1);
        let mut probs = Vec::with_capacity(2 * graph.num_edges());
        off.push(0);
        for v in 0..graph.num_nodes() as NodeId {
            probs.extend(graph.neighbors(v).iter().map(|&(_, e)| graph.prob(e)));
            off.push(probs.len());
        }
        Self { off, probs }
    }

    /// Vertex `v`'s incident probabilities.
    pub(crate) fn of_vertex(&self, v: usize) -> &[f64] {
        &self.probs[self.off[v]..self.off[v + 1]]
    }
}

/// Every vertex's degree pmf, truncated at a cap `omega_max`, in one
/// arena: vertex `v`'s `min(deg v, omega_max) + 1` entries are
/// `vals[off[v]..off[v + 1]]`. The layout depends only on the degrees, so
/// a GenObf trial lays its arena out once and rebuilds it in place at
/// every σ. Entries `≤ ω` of the truncated DP do not depend on the cap,
/// so any cap `≥ max ω` gives the same sweep.
#[derive(Debug, Clone, Default)]
pub(crate) struct DegreePmfs {
    off: Vec<usize>,
    vals: Vec<f64>,
}

impl DegreePmfs {
    /// The arena for `incidence`'s degrees at cap `omega_max`; its values
    /// are written by [`DegreePmfs::build`].
    pub(crate) fn layout(incidence: &Incidence, omega_max: usize) -> Self {
        let mut pmfs = Self::default();
        pmfs.layout_into(incidence, omega_max);
        pmfs
    }

    /// [`DegreePmfs::layout`] into this arena's buffers.
    pub(crate) fn layout_into(&mut self, incidence: &Incidence, omega_max: usize) {
        let off = &mut self.off;
        off.clear();
        off.reserve(incidence.off.len());
        off.push(0);
        for w in incidence.off.windows(2) {
            off.push(off[off.len() - 1] + (w[1] - w[0]).min(omega_max) + 1);
        }
        // `build` overwrites every entry, so only growth needs zeroing.
        self.vals.resize(off[off.len() - 1], 0.0);
    }

    /// Number of vertices covered.
    fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Builds every vertex's pmf from `incidence` — the dominant cost of
    /// the anonymity check — splitting the vertices into ranges over up to
    /// `threads` worker threads. Each pmf is a pure function of its
    /// incident probabilities, so the arena is identical for every thread
    /// count.
    ///
    /// `incidence` must have the degrees the arena was laid out for.
    pub(crate) fn build(&mut self, incidence: &Incidence, threads: usize) {
        let _span = chameleon_obs::span!("anonymity.degree_pmfs");
        let n = self.len();
        debug_assert_eq!(
            incidence.off.len(),
            n + 1,
            "arena laid out for another graph"
        );
        chameleon_obs::counter!("anonymity.pmfs_built").add(n as u64);
        let off = &self.off;
        let fill = |vertices: Range<usize>, vals: &mut [f64]| {
            let base = off[vertices.start];
            for v in vertices {
                pmf_truncated_into(
                    incidence.of_vertex(v),
                    &mut vals[off[v] - base..off[v + 1] - base],
                );
            }
        };
        // Disjoint vertex ranges own disjoint arena slices; ~8 ranges per
        // worker keep stragglers short.
        let threads = parallel::resolve_threads(threads);
        let chunk = n.div_ceil(threads * 8).max(1);
        let mut ranges = Vec::with_capacity(n.div_ceil(chunk));
        let mut rest = self.vals.as_mut_slice();
        for start in (0..n).step_by(chunk) {
            let end = (start + chunk).min(n);
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(off[end] - off[start]);
            ranges.push((start..end, head));
            rest = tail;
        }
        parallel::map_items_mut(&mut ranges, threads, |(vertices, vals)| {
            fill(vertices.clone(), vals)
        });
    }

    /// Vertex `v`'s pmf.
    fn pmf(&self, v: usize) -> &[f64] {
        &self.vals[self.off[v]..self.off[v + 1]]
    }
}

/// The adversary's background knowledge: one property value per vertex of
/// the original graph (paper: "The popular assumption of auxiliary
/// information is node degree").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversaryKnowledge {
    /// ω_v for every vertex of the original graph.
    targets: Vec<u32>,
}

impl AdversaryKnowledge {
    /// Degree knowledge for an uncertain original graph: ω_v =
    /// round(E[deg_G(v)]).
    pub fn expected_degrees(original: &UncertainGraph) -> Self {
        Self {
            targets: original
                .expected_degrees()
                .iter()
                .map(|&d| d.round() as u32)
                .collect(),
        }
    }

    /// Degree knowledge for a deterministic original graph: ω_v = deg(v).
    pub fn structural_degrees(original: &UncertainGraph) -> Self {
        Self {
            targets: (0..original.num_nodes() as u32)
                .map(|v| original.degree(v) as u32)
                .collect(),
        }
    }

    /// Explicit property values (for tests and custom adversaries).
    pub fn from_values(targets: Vec<u32>) -> Self {
        Self { targets }
    }

    /// ω_v for vertex `v`.
    pub fn target(&self, v: NodeId) -> u32 {
        self.targets[v as usize]
    }

    /// All target values.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when no vertices are covered.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The largest ω (0 when empty): an exact check reads no degree pmf
    /// entry above it.
    pub(crate) fn max_target(&self) -> usize {
        self.targets.iter().copied().max().unwrap_or(0) as usize
    }
}

/// Outcome of the anonymity check.
#[derive(Debug, Clone, PartialEq)]
pub struct AnonymityReport {
    /// Fraction of vertices NOT k-obfuscated (the ε̃ returned by GenObf).
    pub eps_hat: f64,
    /// Vertices that failed the entropy bound, ascending.
    pub unobfuscated: Vec<NodeId>,
    /// Entropy (bits) of `Y_ω` for every distinct adversary value ω.
    pub entropy_by_omega: HashMap<u32, f64>,
    /// The k that was checked.
    pub k: usize,
}

impl AnonymityReport {
    /// True when the graph is (k, ε)-obfuscated at tolerance `epsilon`.
    pub fn satisfies(&self, epsilon: f64) -> bool {
        self.eps_hat <= epsilon
    }
}

/// Checks whether `published` k-obfuscates the vertices of the original
/// graph described by `knowledge` (paper Definition 3; the
/// `anonymityCheck` of Algorithm 3 line 24).
///
/// Complexity: O(Σ_v d_v·min(d_v, ω_max)) for the degree pmfs (truncated
/// Poisson–binomial DP) plus O(|Ω|·|V|) for the entropy sweep.
///
/// # Panics
/// Panics if `knowledge` covers a different number of vertices than
/// `published` or `k == 0`.
pub fn anonymity_check(
    published: &UncertainGraph,
    knowledge: &AdversaryKnowledge,
    k: usize,
) -> AnonymityReport {
    anonymity_check_threads(published, knowledge, k, 1)
}

/// [`anonymity_check`] with the degree-pmf construction spread over up to
/// `threads` worker threads (`0` = all hardware threads). The report is
/// identical for every thread count: the pmfs are pure per-vertex
/// computations and the entropy sweep stays serial.
///
/// # Panics
/// Same contract as [`anonymity_check`].
pub fn anonymity_check_threads(
    published: &UncertainGraph,
    knowledge: &AdversaryKnowledge,
    k: usize,
    threads: usize,
) -> AnonymityReport {
    counted_check(published, knowledge, k, 0, threads)
}

/// Variant of [`anonymity_check`] for an adversary with *approximate*
/// degree knowledge: the posterior weight of vertex `u` for target value ω
/// is `Pr[|deg_G̃(u) − ω| ≤ tolerance]` instead of an exact match.
///
/// This models the practical attacker the k-obfuscation literature calls
/// "fuzzy matching" (paper §III-C: "blend every vertex with other
/// fuzzy-matching nodes"): real auxiliary information (contact counts,
/// co-author counts) is rarely exact. `tolerance = 0` is
/// [`anonymity_check`] bit for bit.
///
/// # Panics
/// Same contract as [`anonymity_check`].
pub fn anonymity_check_tolerant(
    published: &UncertainGraph,
    knowledge: &AdversaryKnowledge,
    k: usize,
    tolerance: u32,
) -> AnonymityReport {
    counted_check(published, knowledge, k, tolerance, 1)
}

/// One anonymity check as the observability layer sees it: the
/// `anonymity.check` span and one tick of `anonymity.checks`.
fn counted_check(
    published: &UncertainGraph,
    knowledge: &AdversaryKnowledge,
    k: usize,
    tolerance: u32,
    threads: usize,
) -> AnonymityReport {
    let _span = chameleon_obs::span!("anonymity.check");
    chameleon_obs::counter!("anonymity.checks").add(1);
    sweep_graph(published, knowledge, k, tolerance, threads)
}

/// The exact check of a GenObf trial whose perturbed graph is given as its
/// incidence: rebuilds `pmfs` (laid out for `incidence` at a cap
/// `≥ max ω`) and sweeps them. Counted like [`anonymity_check`], and
/// bit-identical to it on the graph `incidence` describes.
pub(crate) fn trial_check(
    incidence: &Incidence,
    pmfs: &mut DegreePmfs,
    knowledge: &AdversaryKnowledge,
    k: usize,
    threads: usize,
) -> AnonymityReport {
    let _span = chameleon_obs::span!("anonymity.check");
    chameleon_obs::counter!("anonymity.checks").add(1);
    pmfs.build(incidence, threads);
    sweep(pmfs, knowledge, k, 0)
}

/// Builds `published`'s degree pmfs and runs [`sweep`] over them, without
/// counting a check (the privacy profile is not one).
pub(crate) fn sweep_graph(
    published: &UncertainGraph,
    knowledge: &AdversaryKnowledge,
    k: usize,
    tolerance: u32,
    threads: usize,
) -> AnonymityReport {
    // Widen to usize *before* adding: `omega + tolerance` in u32 can
    // overflow for adversary values near u32::MAX, so saturate.
    let omega_max = knowledge.max_target().saturating_add(tolerance as usize);
    let incidence = Incidence::of(published);
    let mut pmfs = DegreePmfs::layout(&incidence, omega_max);
    pmfs.build(&incidence, threads);
    sweep(&pmfs, knowledge, k, tolerance)
}

/// The one entropy sweep behind every anonymity check and the privacy
/// profile: one posterior per distinct adversary value ω, weighting each
/// vertex by its degree mass in `[ω − tolerance, ω + tolerance]`, then one
/// entropy comparison per vertex. At tolerance 0 the window is the single
/// entry `pmf[ω]`, a one-term sum equal to that entry bit for bit.
///
/// The sweep is one vertex-major pass over the pmf arena: each vertex's
/// weights for every ω it reaches are gathered (at tolerance 0 they are
/// pmf entries, read in place), their `ln`s taken as one slice, and each
/// posterior accumulates `T = Σw` and `S = Σ w·ln w`;
/// its entropy is then `ln T − S/T`. That is the arithmetic of
/// [`chameleon_stats::shannon_entropy_bits`] over the per-ω weight vector,
/// in the same per-ω order. A vertex whose support ends below ω's window
/// has weight exactly 0.0 there; it adds `+0.0` to `T` and to `S`, neither
/// of which is ever `-0.0`, so skipping it changes no bit. A vertex is
/// obfuscated when its posterior's entropy reaches
/// [`uniform_entropy_bits`]`(k)`, log₂k computed by the same expression.
fn sweep(
    pmfs: &DegreePmfs,
    knowledge: &AdversaryKnowledge,
    k: usize,
    tolerance: u32,
) -> AnonymityReport {
    assert!(k >= 1, "k must be at least 1");
    let n = pmfs.len();
    assert_eq!(
        knowledge.len(),
        n,
        "adversary knowledge must cover every vertex"
    );
    let mut omegas = knowledge.targets().to_vec();
    omegas.sort_unstable();
    omegas.dedup();
    let tol = tolerance as usize;
    let mut totals = vec![0.0f64; omegas.len()];
    let mut sums = vec![0.0f64; omegas.len()];
    // The ω_j = j prefix of `omegas`, where a pmf's entries line up with
    // the posteriors one to one.
    let dense = omegas
        .iter()
        .enumerate()
        .take_while(|&(j, &omega)| omega as usize == j)
        .count();
    let (mut weights, mut lns) = (Vec::new(), Vec::new());
    for u in 0..n {
        let pmf = pmfs.pmf(u);
        if tol == 0 {
            // Each weight is a pmf entry: take the `ln`s of the pmf's head,
            // up to the largest ω it reaches, as one slice.
            let reach = omegas.partition_point(|&omega| (omega as usize) < pmf.len());
            let head = omegas[..reach]
                .last()
                .map_or(0, |&omega| omega as usize + 1);
            lns.resize(head, 0.0);
            detmath::ln_into(&pmf[..head], &mut lns[..head]);
            let lined_up = dense.min(reach);
            let entries = pmf.iter().zip(&lns[..lined_up]);
            for ((t, s), (&w, &ln_w)) in totals.iter_mut().zip(&mut sums).zip(entries) {
                *t += w;
                *s += weighted_ln(w, ln_w);
            }
            let rest = totals.iter_mut().zip(&mut sums).zip(&omegas[..reach]);
            for ((t, s), &omega) in rest.skip(lined_up) {
                let w = pmf[omega as usize];
                *t += w;
                *s += weighted_ln(w, lns[omega as usize]);
            }
        } else {
            gather_weights(&omegas, tol, pmf, &mut weights);
            lns.resize(weights.len(), 0.0);
            detmath::ln_into(&weights, &mut lns);
            for (((t, s), &w), &ln_w) in totals.iter_mut().zip(&mut sums).zip(&weights).zip(&lns) {
                *t += w;
                *s += weighted_ln(w, ln_w);
            }
        }
    }
    // An all-zero posterior has entropy 0.
    let entropy: Vec<f64> = totals
        .iter()
        .zip(&sums)
        .map(|(&t, &s)| entropy_nats_from_sums(t, s) / std::f64::consts::LN_2)
        .collect();
    let threshold = uniform_entropy_bits(k);
    let unobfuscated: Vec<NodeId> = (0..n as u32)
        .filter(|&v| {
            let j = omegas
                .binary_search(&knowledge.target(v))
                .expect("every target is a swept ω");
            entropy[j] < threshold
        })
        .collect();
    AnonymityReport {
        // An empty graph is trivially obfuscated.
        eps_hat: unobfuscated.len() as f64 / n.max(1) as f64,
        unobfuscated,
        entropy_by_omega: omegas.into_iter().zip(entropy).collect(),
        k,
    }
}

/// Replaces `weights` with the pmf mass in the window `[ω − tol, ω + tol]`
/// of every ω_j of the ascending, distinct `omegas` whose window meets
/// `pmf`'s support: `weights[j]` belongs to ω_j, since the windows a pmf
/// reaches are a prefix of `omegas`. Entries past the support are exact
/// 0.0 summands, so clamping the window keeps the sweep
/// O(window ∩ support) even for huge ω.
fn gather_weights(omegas: &[u32], tol: usize, pmf: &[f64], weights: &mut Vec<f64>) {
    weights.clear();
    let top_entry = pmf.len() - 1;
    for &omega in omegas {
        let lo = (omega as usize).saturating_sub(tol);
        if lo > top_entry {
            break;
        }
        let top = (omega as usize).saturating_add(tol).min(top_entry);
        weights.push(pmf[lo..=top].iter().sum());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PrivacyProfile;
    use chameleon_stats::poisson_binomial::pmf_truncated;
    use chameleon_stats::shannon_entropy_bits;
    use chameleon_ugraph::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// n disconnected edges, all with probability p: every vertex is
    /// statistically identical.
    fn matching(pairs: usize, p: f64) -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(2 * pairs);
        for i in 0..pairs as u32 {
            g.add_edge(2 * i, 2 * i + 1, p).unwrap();
        }
        g
    }

    #[test]
    fn symmetric_graph_fully_obfuscated_at_n() {
        // 8 identical vertices: Y_ω is uniform over all 8 → H = 3 bits →
        // k-obf for k ≤ 8.
        let g = matching(4, 0.5);
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let rep = anonymity_check(&g, &knowledge, 8);
        assert_eq!(rep.eps_hat, 0.0);
        assert!(rep.unobfuscated.is_empty());
        assert!(rep.satisfies(0.0));
        let h = rep.entropy_by_omega[&1]; // ω = round(0.5) = 1? no: E[deg]=0.5 → round = 1? 0.5_f64.round() = 1
        assert!((h - 3.0).abs() < 1e-9, "h={h}");
    }

    #[test]
    fn symmetric_graph_fails_above_n() {
        let g = matching(4, 0.5);
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let rep = anonymity_check(&g, &knowledge, 9);
        assert_eq!(rep.eps_hat, 1.0);
        assert_eq!(rep.unobfuscated.len(), 8);
        assert!(!rep.satisfies(0.5));
    }

    #[test]
    fn unique_hub_is_exposed() {
        // Hub of deterministic degree 5 among degree-1 leaves: Y_5 is a
        // point mass on the hub → H = 0 → unobfuscated for any k ≥ 2.
        let mut g = UncertainGraph::with_nodes(6);
        for v in 1..6u32 {
            g.add_edge(0, v, 1.0).unwrap();
        }
        let knowledge = AdversaryKnowledge::structural_degrees(&g);
        let rep = anonymity_check(&g, &knowledge, 2);
        assert!(rep.unobfuscated.contains(&0));
        assert!((rep.entropy_by_omega[&5]).abs() < 1e-12);
        // Leaves hide among each other: H(Y_1) = log2(5) ≈ 2.32 ≥ 1.
        assert!(!rep.unobfuscated.contains(&1));
        assert!((rep.eps_hat - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn uncertainty_blends_degrees() {
        // Same hub topology but probabilistic edges: the hub's degree
        // spreads over 0..=5, leaves over 0..=1; with p=0.5 the posterior
        // for ω=3 (hub's expected degree) is dominated by the hub but leaves
        // contribute nothing (leaf max degree 1 < 3).
        let mut g = UncertainGraph::with_nodes(6);
        for v in 1..6u32 {
            g.add_edge(0, v, 0.5).unwrap();
        }
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        // ω_hub = round(2.5) = 3 (ties round away from zero), ω_leaf = round(0.5) = 1.
        assert_eq!(knowledge.target(0), 3);
        assert_eq!(knowledge.target(1), 1);
        let rep = anonymity_check(&g, &knowledge, 2);
        // Y_3 = point mass on hub (only vertex that can reach degree 3).
        assert!(rep.entropy_by_omega[&3].abs() < 1e-12);
        assert!(rep.unobfuscated.contains(&0));
        // Y_1: hub has Pr[deg=1] = 5·(.5)^5 = 5/32; leaves Pr = .5 each →
        // near-uniform over 5 leaves + small hub → H > log2(2).
        assert!(rep.entropy_by_omega[&1] > 1.0);
    }

    #[test]
    fn k_equal_one_is_trivially_satisfied() {
        let g = matching(2, 0.3);
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let rep = anonymity_check(&g, &knowledge, 1);
        assert_eq!(rep.eps_hat, 0.0);
    }

    #[test]
    fn empty_graph_trivially_obfuscated() {
        let g = UncertainGraph::with_nodes(0);
        let knowledge = AdversaryKnowledge::from_values(vec![]);
        let rep = anonymity_check(&g, &knowledge, 10);
        assert_eq!(rep.eps_hat, 0.0);
        assert!(knowledge.is_empty());
    }

    #[test]
    fn zero_probability_omega_gives_zero_entropy() {
        // ω that no vertex can attain → all-zero weights → H = 0 →
        // unobfuscated.
        let g = matching(2, 1.0);
        let knowledge = AdversaryKnowledge::from_values(vec![7, 1, 1, 1]);
        let rep = anonymity_check(&g, &knowledge, 2);
        assert!(rep.unobfuscated.contains(&0));
        assert_eq!(rep.entropy_by_omega[&7], 0.0);
    }

    #[test]
    fn report_counts() {
        let g = matching(3, 0.5);
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let rep = anonymity_check(&g, &knowledge, 4);
        assert_eq!(rep.eps_hat, rep.unobfuscated.len() as f64 / 6.0);
        assert_eq!(rep.k, 4);
    }

    #[test]
    #[should_panic]
    fn mismatched_knowledge_panics() {
        let g = matching(2, 0.5);
        let knowledge = AdversaryKnowledge::from_values(vec![1, 1]);
        let _ = anonymity_check(&g, &knowledge, 2);
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let g = matching(1, 0.5);
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let _ = anonymity_check(&g, &knowledge, 0);
    }

    #[test]
    fn threaded_check_is_thread_count_invariant() {
        let mut g = UncertainGraph::with_nodes(30);
        for v in 1..30u32 {
            g.add_edge(0, v, 0.4).unwrap();
            g.add_edge(v, (v % 29) + 1, 0.6).unwrap();
        }
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let serial = anonymity_check_threads(&g, &knowledge, 4, 1);
        for threads in [2, 4, 8] {
            let par = anonymity_check_threads(&g, &knowledge, 4, threads);
            assert_eq!(serial.unobfuscated, par.unobfuscated);
            assert_eq!(serial.eps_hat.to_bits(), par.eps_hat.to_bits());
            for (omega, h) in &serial.entropy_by_omega {
                assert_eq!(h.to_bits(), par.entropy_by_omega[omega].to_bits());
            }
        }
        // The plain entry points are exactly the 1-thread variants.
        let plain = anonymity_check(&g, &knowledge, 4);
        assert_eq!(plain.unobfuscated, serial.unobfuscated);
    }

    #[test]
    fn zero_tolerance_matches_exact_check() {
        let mut g = UncertainGraph::with_nodes(6);
        for v in 1..6u32 {
            g.add_edge(0, v, 0.7).unwrap();
        }
        g.add_edge(1, 2, 0.3).unwrap();
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let exact = anonymity_check(&g, &knowledge, 3);
        let tol0 = anonymity_check_tolerant(&g, &knowledge, 3, 0);
        assert_eq!(exact.unobfuscated, tol0.unobfuscated);
        assert_eq!(exact.eps_hat.to_bits(), tol0.eps_hat.to_bits());
        for (omega, h) in &exact.entropy_by_omega {
            assert_eq!(h.to_bits(), tol0.entropy_by_omega[omega].to_bits());
        }
    }

    #[test]
    fn tolerance_blends_adjacent_classes() {
        // Deterministic path 0-1-2-3: exact adversary distinguishes
        // endpoints (deg 1) from middles (deg 2): H(Y_1) = 1 bit. With
        // tolerance 1, every vertex matches both values → uniform over 4
        // → 2 bits.
        let mut g = UncertainGraph::with_nodes(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        let knowledge = AdversaryKnowledge::structural_degrees(&g);
        let exact = anonymity_check(&g, &knowledge, 2);
        let fuzzy = anonymity_check_tolerant(&g, &knowledge, 2, 1);
        assert!((exact.entropy_by_omega[&1] - 1.0).abs() < 1e-12);
        assert!((fuzzy.entropy_by_omega[&1] - 2.0).abs() < 1e-12);
        assert!((fuzzy.entropy_by_omega[&2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tolerant_adversary_is_weaker_on_smooth_graphs() {
        // A graph with a spread of expected degrees: widening the window
        // never decreases the number of obfuscated vertices here.
        let mut g = UncertainGraph::with_nodes(12);
        for v in 1..12u32 {
            g.add_edge(0, v, 0.5).unwrap();
        }
        for v in 1..11u32 {
            g.add_edge(v, v + 1, 0.5).unwrap();
        }
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let exact = anonymity_check_tolerant(&g, &knowledge, 4, 0);
        let fuzzy = anonymity_check_tolerant(&g, &knowledge, 4, 2);
        assert!(fuzzy.unobfuscated.len() <= exact.unobfuscated.len());
    }

    #[test]
    fn tolerant_check_survives_adversary_values_near_u32_max() {
        // Regression: `omega + tolerance` used to be a u32 add that
        // panicked in debug (wrapped in release) for targets near
        // u32::MAX. The window must saturate instead.
        let g = matching(2, 1.0);
        let knowledge = AdversaryKnowledge::from_values(vec![u32::MAX, u32::MAX - 1, 1, 1]);
        let rep = anonymity_check_tolerant(&g, &knowledge, 2, 5);
        // No vertex can reach a degree anywhere near u32::MAX → zero
        // entropy → exposed.
        assert!(rep.unobfuscated.contains(&0));
        assert!(rep.unobfuscated.contains(&1));
        assert_eq!(rep.entropy_by_omega[&u32::MAX], 0.0);
        // The degree-1 class is untouched by the huge targets.
        assert!(rep.entropy_by_omega[&1] > 0.9);
        // Maximal tolerance must also saturate, in both directions.
        let rep = anonymity_check_tolerant(&g, &knowledge, 2, u32::MAX);
        // Window [0, ∞) ⊇ every pmf → total mass 1 per vertex → uniform.
        assert!((rep.entropy_by_omega[&u32::MAX] - 2.0).abs() < 1e-12);
        assert_eq!(rep.eps_hat, 0.0);
    }

    #[test]
    fn window_clamping_is_bit_identical_to_padded_sums() {
        // The clamped window sum must match the unclamped definition
        // (zero-padded past the pmf support) bit for bit.
        let mut g = UncertainGraph::with_nodes(8);
        for v in 1..8u32 {
            g.add_edge(0, v, 0.3 + 0.07 * v as f64).unwrap();
        }
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        for tol in [0u32, 1, 3, 100] {
            let rep = anonymity_check_tolerant(&g, &knowledge, 3, tol);
            for (&omega, &h) in &rep.entropy_by_omega {
                let lo = (omega as usize).saturating_sub(tol as usize);
                let hi = (omega as usize).saturating_add(tol as usize);
                let omega_max =
                    knowledge.targets().iter().copied().max().unwrap() as usize + tol as usize;
                let weights: Vec<f64> = (0..8u32)
                    .map(|u| {
                        let pmf = pmf_truncated(&g.incident_probs(u), omega_max);
                        (lo..=hi).map(|w| pmf.get(w).copied().unwrap_or(0.0)).sum()
                    })
                    .collect();
                let expect = chameleon_stats::shannon_entropy_bits(&weights);
                assert_eq!(h.to_bits(), expect.to_bits(), "omega={omega} tol={tol}");
            }
        }
    }

    /// A posterior uniform over exactly k candidates is k-obfuscated: the
    /// k leaves of a certain star share degree 1, their entropy is log₂k as
    /// the threshold computes it, bit for bit, and they pass at k and fail
    /// at k + 1.
    #[test]
    fn uniform_posterior_over_exactly_k_is_obfuscated() {
        use chameleon_stats::entropy::uniform_entropy_bits;
        for k in (2..=64).chain([100, 255, 256, 512, 1000, 1023, 1024]) {
            let mut g = UncertainGraph::with_nodes(k + 1);
            for leaf in 1..=k as u32 {
                g.add_edge(0, leaf, 1.0).unwrap();
            }
            let knowledge = AdversaryKnowledge::structural_degrees(&g);
            let rep = anonymity_check(&g, &knowledge, k);
            assert_eq!(
                rep.entropy_by_omega[&1].to_bits(),
                uniform_entropy_bits(k).to_bits(),
                "k={k}"
            );
            assert_eq!(rep.unobfuscated, vec![0], "k={k}");
            let rep = anonymity_check(&g, &knowledge, k + 1);
            assert_eq!(rep.unobfuscated.len(), k + 1, "k={k}");
        }
    }

    #[test]
    fn adding_uncertainty_blends_adjacent_degrees() {
        // Path 0-1-2-3. Deterministic: Y_1 = uniform over the two endpoints
        // → H = 1 bit. With p = 0.5 everywhere, every vertex has
        // Pr[deg = 1] = 0.5 → Y_1 uniform over all four → H = 2 bits.
        let build = |p: f64| {
            let mut g = UncertainGraph::with_nodes(4);
            g.add_edge(0, 1, p).unwrap();
            g.add_edge(1, 2, p).unwrap();
            g.add_edge(2, 3, p).unwrap();
            g
        };
        let det = build(1.0);
        let fuzz = build(0.5);
        let knowledge = AdversaryKnowledge::structural_degrees(&det);
        let h_det = anonymity_check(&det, &knowledge, 2).entropy_by_omega[&1];
        let h_fuzz = anonymity_check(&fuzz, &knowledge, 2).entropy_by_omega[&1];
        assert!((h_det - 1.0).abs() < 1e-12, "h_det={h_det}");
        assert!((h_fuzz - 2.0).abs() < 1e-12, "h_fuzz={h_fuzz}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Every entry point that runs the entropy sweep — the exact check
        /// at 1 and 8 threads, the zero-tolerance fuzzy check and the
        /// privacy profile — agrees bit for bit with a naive per-vertex
        /// reading of Definition 3.
        #[test]
        fn every_sweep_entry_point_matches_the_definition(
            graph_seed in any::<u64>(),
            n in 1usize..24,
            density in 0.0f64..=0.5,
            probs in proptest::collection::vec(0.0f64..=1.0, 16),
            unreachable in proptest::collection::vec(0u8..4, 24),
            k in 1usize..12,
        ) {
            let m = (density * (n * (n - 1) / 2) as f64) as usize;
            let mut g = generators::gnm(n, m, &mut StdRng::seed_from_u64(graph_seed));
            for e in 0..g.num_edges() {
                // Snap the extremes so certain and impossible edges occur.
                let p = match probs[e % probs.len()] {
                    p if p < 0.1 => 0.0,
                    p if p > 0.9 => 1.0,
                    p => p,
                };
                g.set_prob(e as u32, p).unwrap();
            }
            // Expected degrees, with some vertices given values no vertex
            // can reach (including u32::MAX).
            let expected = AdversaryKnowledge::expected_degrees(&g);
            let knowledge = AdversaryKnowledge::from_values(
                (0..n as u32)
                    .map(|v| match unreachable[v as usize] {
                        0 => n as u32 + 3,
                        1 if v % 2 == 0 => u32::MAX,
                        _ => expected.target(v),
                    })
                    .collect(),
            );
            let omega_max = knowledge.max_target();
            let naive = |omega: u32| {
                let weights: Vec<f64> = (0..n as u32)
                    .map(|u| {
                        let pmf = pmf_truncated(&g.incident_probs(u), omega_max);
                        pmf.get(omega as usize).copied().unwrap_or(0.0)
                    })
                    .collect();
                shannon_entropy_bits(&weights)
            };
            let reference = anonymity_check_threads(&g, &knowledge, k, 1);
            for (&omega, h) in &reference.entropy_by_omega {
                prop_assert_eq!(h.to_bits(), naive(omega).to_bits(), "omega {}", omega);
            }
            let threshold = uniform_entropy_bits(k);
            let failing: Vec<NodeId> = (0..n as u32)
                .filter(|&v| naive(knowledge.target(v)) < threshold)
                .collect();
            prop_assert_eq!(&reference.unobfuscated, &failing);
            let others = [
                anonymity_check_threads(&g, &knowledge, k, 8),
                anonymity_check_tolerant(&g, &knowledge, k, 0),
            ];
            for other in &others {
                prop_assert_eq!(&reference.unobfuscated, &other.unobfuscated);
                prop_assert_eq!(reference.eps_hat.to_bits(), other.eps_hat.to_bits());
                prop_assert_eq!(reference.entropy_by_omega.len(), other.entropy_by_omega.len());
                for (omega, h) in &reference.entropy_by_omega {
                    prop_assert_eq!(h.to_bits(), other.entropy_by_omega[omega].to_bits());
                }
            }
            let profile = PrivacyProfile::compute(&g, &knowledge);
            for v in 0..n as u32 {
                let h = reference.entropy_by_omega[&knowledge.target(v)];
                prop_assert_eq!(profile.entropy_bits[v as usize].to_bits(), h.to_bits());
            }
        }
    }
}
