//! Candidate-edge selection (paper Algorithm 3, lines 9–16).
//!
//! The perturbation set `E_C` starts as the full edge set `E`. Vertices
//! `u, v ∈ V \ H` are then drawn repeatedly from the selection distribution
//! `Q`; if `(u, v)` is an existing edge it is *removed* from `E_C` with
//! probability `p(e)` (strongly-present edges are spared), otherwise the
//! absent edge is *added* (a fresh uncertain edge will be injected). The
//! loop stops when `|E_C| = c·|E|`; since random pairs in a sparse graph
//! are almost surely non-edges, the set grows quickly and retains most of
//! `E` (the paper notes exactly this).

use chameleon_ugraph::{EdgeId, NodeId, UncertainGraph};
use rand::Rng;
use std::collections::HashSet;

/// One candidate for perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEdge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// The existing edge id, or `None` for a newly injected edge.
    pub existing: Option<EdgeId>,
    /// Current probability (0 for injected edges).
    pub p: f64,
}

/// Weighted vertex sampler over `V \ H` with probabilities ∝ `Q^v`.
#[derive(Debug, Clone)]
pub struct VertexSampler {
    nodes: Vec<NodeId>,
    cumulative: Vec<f64>,
    total: f64,
}

impl VertexSampler {
    /// Builds a sampler over the vertices NOT in `excluded`, weighting
    /// vertex `v` by `weights[v]` (must be non-negative; all-zero weights
    /// fall back to uniform).
    ///
    /// # Panics
    /// Panics if every vertex is excluded or `weights` is empty.
    pub fn new(weights: &[f64], excluded: &HashSet<NodeId>) -> Self {
        let mut nodes = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0.0;
        for (v, &w) in weights.iter().enumerate() {
            let v = v as NodeId;
            if excluded.contains(&v) {
                continue;
            }
            debug_assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
            nodes.push(v);
            total += w;
            cumulative.push(total);
        }
        assert!(!nodes.is_empty(), "no candidate vertices remain");
        if total <= 0.0 {
            // Uniform fallback.
            total = nodes.len() as f64;
            for (i, c) in cumulative.iter_mut().enumerate() {
                *c = (i + 1) as f64;
            }
        }
        Self {
            nodes,
            cumulative,
            total,
        }
    }

    /// Number of sampleable vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no vertices are available (cannot occur post-construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Draws one vertex.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        let x = rng.gen::<f64>() * self.total;
        let idx = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("no NaN"))
        {
            Ok(i) | Err(i) => i.min(self.nodes.len() - 1),
        };
        self.nodes[idx]
    }
}

/// Builds the candidate set `E_C` (paper Algorithm 3 lines 9–16).
///
/// `target_size = c·|E|` rounded; the loop is capped at a generous attempt
/// budget so adversarial weight configurations cannot hang (on budget
/// exhaustion the current set is returned — the algorithm is randomized
/// anyway and GenObf copes with any candidate set).
pub fn select_candidates<R: Rng + ?Sized>(
    graph: &UncertainGraph,
    sampler: &VertexSampler,
    size_multiplier: f64,
    rng: &mut R,
) -> Vec<CandidateEdge> {
    let m = graph.num_edges();
    let n = graph.num_nodes();
    let target = ((m as f64 * size_multiplier).round() as usize)
        .min(n * n.saturating_sub(1) / 2)
        .max(1.min(m));
    // E_C ← E. Existing edges are tracked by their dense id; only the
    // injected pairs need a set. `size` is |E_C|.
    let mut present = vec![true; m];
    let mut size = m;
    let mut injected: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut added: Vec<(NodeId, NodeId)> = Vec::new();
    let attempt_budget = 200 * target + 10_000;
    let mut attempts = 0usize;
    while size != target && attempts < attempt_budget {
        attempts += 1;
        let a = sampler.sample(rng);
        let b = sampler.sample(rng);
        if a == b {
            continue;
        }
        if let Some(e) = graph.find_edge(a, b) {
            // Existing edge: drop from E_C with probability p(e).
            if present[e as usize] && rng.gen::<f64>() < graph.prob(e) {
                present[e as usize] = false;
                size -= 1;
            }
        } else if size < target {
            let key = if a < b { (a, b) } else { (b, a) };
            if injected.insert(key) {
                added.push(key);
                size += 1;
            }
        }
    }
    chameleon_obs::counter!("genobf.candidate_attempts").add(attempts as u64);
    // Deterministic output order: original edges first (by id), then added
    // pairs in insertion order.
    let mut out = Vec::with_capacity(size);
    for (id, e) in graph.edges().iter().enumerate() {
        if present[id] {
            out.push(CandidateEdge {
                u: e.u,
                v: e.v,
                existing: Some(id as EdgeId),
                p: e.p,
            });
        }
    }
    out.extend(added.into_iter().map(|(u, v)| CandidateEdge {
        u,
        v,
        existing: None,
        p: 0.0,
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_ugraph::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn sampler_uniform(n: usize) -> VertexSampler {
        VertexSampler::new(&vec![1.0; n], &HashSet::new())
    }

    /// The hash-set implementation `select_candidates` replaced, kept as
    /// the reference for its output and its RNG consumption.
    fn reference_select<R: Rng + ?Sized>(
        graph: &UncertainGraph,
        sampler: &VertexSampler,
        size_multiplier: f64,
        rng: &mut R,
    ) -> Vec<CandidateEdge> {
        let m = graph.num_edges();
        let n = graph.num_nodes();
        let target = ((m as f64 * size_multiplier).round() as usize)
            .min(n * n.saturating_sub(1) / 2)
            .max(1.min(m));
        let mut members: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(target * 2);
        let mut added: Vec<(NodeId, NodeId)> = Vec::new();
        for e in graph.edges() {
            members.insert((e.u, e.v));
        }
        let attempt_budget = 200 * target + 10_000;
        let mut attempts = 0usize;
        while members.len() != target && attempts < attempt_budget {
            attempts += 1;
            let a = sampler.sample(rng);
            let b = sampler.sample(rng);
            if a == b {
                continue;
            }
            let key = if a < b { (a, b) } else { (b, a) };
            if let Some(e) = graph.find_edge(a, b) {
                if members.contains(&key) && rng.gen::<f64>() < graph.prob(e) {
                    members.remove(&key);
                }
            } else if members.len() < target && !members.contains(&key) {
                members.insert(key);
                added.push(key);
            }
        }
        let mut out = Vec::with_capacity(members.len());
        for (id, e) in graph.edges().iter().enumerate() {
            if members.contains(&(e.u, e.v)) {
                out.push(CandidateEdge {
                    u: e.u,
                    v: e.v,
                    existing: Some(id as EdgeId),
                    p: e.p,
                });
            }
        }
        for &(u, v) in &added {
            if members.contains(&(u, v)) {
                out.push(CandidateEdge {
                    u,
                    v,
                    existing: None,
                    p: 0.0,
                });
            }
        }
        out
    }

    /// Runs both implementations from the same RNG state; asserts equal
    /// candidate lists and equal RNG positions afterwards.
    fn assert_matches_reference(
        g: &UncertainGraph,
        sampler: &VertexSampler,
        size_multiplier: f64,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng_new = StdRng::seed_from_u64(seed);
        let mut rng_ref = StdRng::seed_from_u64(seed);
        let got = select_candidates(g, sampler, size_multiplier, &mut rng_new);
        let expect = reference_select(g, sampler, size_multiplier, &mut rng_ref);
        prop_assert_eq!(got, expect);
        prop_assert_eq!(rng_new.next_u64(), rng_ref.next_u64());
        Ok(())
    }

    proptest! {
        #[test]
        fn select_candidates_matches_hash_set_reference(
            graph_seed in any::<u64>(),
            n in 2usize..30,
            density in 0.0f64..=0.9,
            probs in proptest::collection::vec(0.0f64..=1.0, 16),
            weights in proptest::collection::vec((0.0f64..5.0, any::<bool>()), 30),
            all_zero in 0u8..6,
            excluded_mask in proptest::collection::vec(0u8..4, 30),
            size_multiplier in 0.1f64..3.0,
            seed in any::<u64>(),
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
                g.set_prob(e as EdgeId, p).unwrap();
            }
            let w: Vec<f64> = weights[..n]
                .iter()
                .map(|&(w, keep)| if keep && all_zero != 0 { w } else { 0.0 })
                .collect();
            let mut excluded: HashSet<NodeId> = (0..n as NodeId)
                .filter(|&v| excluded_mask[v as usize] == 0)
                .collect();
            if excluded.len() == n {
                excluded.remove(&0);
            }
            let sampler = VertexSampler::new(&w, &excluded);
            assert_matches_reference(&g, &sampler, size_multiplier, seed)?;
        }
    }

    #[test]
    fn select_candidates_matches_reference_when_budget_runs_out() {
        // Only vertices 0 and 1 are samplable and they share no edge, so
        // one injection is possible against a target of 2·|E|: both
        // implementations must spend the whole attempt budget identically.
        let mut g = UncertainGraph::with_nodes(6);
        for (u, v) in [(2, 3), (3, 4), (4, 5), (2, 5)] {
            g.add_edge(u, v, 0.5).unwrap();
        }
        let excluded: HashSet<NodeId> = (2..6).collect();
        let sampler = VertexSampler::new(&[1.0; 6], &excluded);
        assert_matches_reference(&g, &sampler, 2.0, 3).unwrap();
        let cands = select_candidates(&g, &sampler, 2.0, &mut StdRng::seed_from_u64(3));
        assert_eq!(cands.len(), 5, "4 existing edges + the one injectable pair");
    }

    #[test]
    fn sampler_respects_weights() {
        let weights = vec![0.0, 10.0, 0.0, 0.0];
        let s = VertexSampler::new(&weights, &HashSet::new());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 1);
        }
    }

    #[test]
    fn sampler_excludes_h() {
        let weights = vec![1.0; 5];
        let excluded: HashSet<NodeId> = [0u32, 2].into_iter().collect();
        let s = VertexSampler::new(&weights, &excluded);
        assert_eq!(s.len(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = s.sample(&mut rng);
            assert!(!excluded.contains(&v));
        }
    }

    #[test]
    fn sampler_zero_weights_fall_back_to_uniform() {
        let s = VertexSampler::new(&[0.0, 0.0, 0.0], &HashSet::new());
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = HashSet::new();
        for _ in 0..200 {
            seen.insert(s.sample(&mut rng));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn sampler_weight_proportionality() {
        let s = VertexSampler::new(&[1.0, 3.0], &HashSet::new());
        let mut rng = StdRng::seed_from_u64(3);
        let n = 8000;
        let ones = (0..n).filter(|_| s.sample(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "frac={frac}");
    }

    #[test]
    #[should_panic]
    fn sampler_rejects_total_exclusion() {
        let excluded: HashSet<NodeId> = [0u32, 1].into_iter().collect();
        let _ = VertexSampler::new(&[1.0, 1.0], &excluded);
    }

    #[test]
    fn candidates_reach_target_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnm(40, 60, &mut rng);
        let s = sampler_uniform(40);
        let cands = select_candidates(&g, &s, 2.0, &mut rng);
        assert_eq!(cands.len(), 120);
    }

    #[test]
    fn candidates_mostly_retain_original_edges() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnm(60, 80, &mut rng);
        let s = sampler_uniform(60);
        let cands = select_candidates(&g, &s, 2.0, &mut rng);
        let existing = cands.iter().filter(|c| c.existing.is_some()).count();
        // "the resulting set E_c includes most of edges in E"
        assert!(existing as f64 > 0.8 * 80.0, "existing={existing}");
    }

    #[test]
    fn injected_candidates_have_zero_probability() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::gnm(30, 40, &mut rng);
        let s = sampler_uniform(30);
        let cands = select_candidates(&g, &s, 1.5, &mut rng);
        for c in cands.iter().filter(|c| c.existing.is_none()) {
            assert_eq!(c.p, 0.0);
            assert!(!g.has_edge(c.u, c.v));
            assert!(c.u < c.v);
        }
    }

    #[test]
    fn shrinking_multiplier_below_one() {
        // c < 1: E_C must shrink below |E| by removing existing edges.
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = generators::gnm(20, 40, &mut rng);
        for e in 0..g.num_edges() as u32 {
            g.set_prob(e, 0.9).unwrap(); // high p → removals frequent
        }
        let s = sampler_uniform(20);
        let cands = select_candidates(&g, &s, 0.5, &mut rng);
        assert_eq!(cands.len(), 20);
        assert!(cands.iter().all(|c| c.existing.is_some()));
    }

    #[test]
    fn candidates_have_no_duplicates() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::gnm(25, 30, &mut rng);
        let s = sampler_uniform(25);
        let cands = select_candidates(&g, &s, 3.0, &mut rng);
        let set: HashSet<(u32, u32)> = cands.iter().map(|c| (c.u, c.v)).collect();
        assert_eq!(set.len(), cands.len());
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng_g = StdRng::seed_from_u64(9);
        let g = generators::gnm(25, 30, &mut rng_g);
        let s = sampler_uniform(25);
        let a = select_candidates(&g, &s, 2.0, &mut StdRng::seed_from_u64(10));
        let b = select_candidates(&g, &s, 2.0, &mut StdRng::seed_from_u64(10));
        assert_eq!(a, b);
    }

    #[test]
    fn high_weight_vertices_attract_injections() {
        // Nodes 0 and 1 carry nearly all the weight: injected edges should
        // overwhelmingly touch them.
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::gnm(30, 20, &mut rng);
        let mut weights = vec![0.01; 30];
        weights[0] = 100.0;
        weights[1] = 100.0;
        let s = VertexSampler::new(&weights, &HashSet::new());
        let cands = select_candidates(&g, &s, 2.0, &mut rng);
        let injected: Vec<_> = cands.iter().filter(|c| c.existing.is_none()).collect();
        assert!(!injected.is_empty());
        let touching = injected.iter().filter(|c| c.u <= 1 || c.v <= 1).count();
        assert!(
            touching as f64 > 0.9 * injected.len() as f64,
            "{touching}/{}",
            injected.len()
        );
    }
}
