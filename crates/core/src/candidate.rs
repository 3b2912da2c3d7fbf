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
//!
//! Each attempt hashes nothing. Vertices come from a guide table over the
//! cumulative weights ([`VertexSampler`]), edges are looked up in a
//! sorted-neighbour CSR ([`EdgeIndex`]), and injected pairs go into an
//! open-addressing set of packed keys. The set is only a membership test:
//! the output lists injected pairs in insertion order, so no hash reaches
//! it.

use chameleon_ugraph::{EdgeId, NodeId, UncertainGraph};
use rand::Rng;
use std::collections::HashSet;

/// One candidate for perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CandidateEdge {
    /// Smaller endpoint.
    pub(crate) u: NodeId,
    /// Larger endpoint.
    pub(crate) v: NodeId,
    /// The existing edge id, or `None` for a newly injected edge.
    pub(crate) existing: Option<EdgeId>,
    /// Current probability (0 for injected edges).
    pub(crate) p: f64,
}

/// Guide-table buckets per sampleable vertex. With one, a draw's start
/// is half an entry from its answer on average and the scan's exit
/// branch mispredicts often; with four, the scan rarely moves, and a
/// DBLP-like n=4000 selection drew its vertices ~1.5× faster, for 16
/// bytes of table per vertex.
const GUIDE_BUCKETS_PER_VERTEX: usize = 4;

/// Weighted vertex sampler over `V \ H` with probabilities ∝ `Q^v`.
///
/// A draw `x ∈ [0, total)` maps to the first vertex whose cumulative
/// weight is not below `x`. A guide table (Chen & Asau, 1974) of equal
/// buckets over `[0, total)` gives each draw a starting index near that
/// answer, so a draw scans O(1) entries on average instead of
/// binary-searching.
#[derive(Debug, Clone)]
pub(crate) struct VertexSampler {
    nodes: Vec<NodeId>,
    cumulative: Vec<f64>,
    total: f64,
    /// `guide[j]` is the first index whose cumulative weight reaches the
    /// lower end of bucket `j`, `j / bucket_scale`.
    guide: Vec<u32>,
    /// `buckets / total`: a draw's bucket is `⌊x·bucket_scale⌋`.
    bucket_scale: f64,
}

impl VertexSampler {
    /// Builds a sampler over the vertices NOT in `excluded`, weighting
    /// vertex `v` by `weights[v]` (must be non-negative; all-zero weights
    /// fall back to uniform).
    ///
    /// # Panics
    /// Panics if every vertex is excluded or `weights` is empty.
    pub(crate) fn new(weights: &[f64], excluded: &HashSet<NodeId>) -> Self {
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
        let len = nodes.len();
        let buckets = GUIDE_BUCKETS_PER_VERTEX * len;
        let bucket_scale = buckets as f64 / total;
        let mut guide = Vec::with_capacity(buckets);
        let mut i = 0;
        for j in 0..buckets {
            let lower = j as f64 / bucket_scale;
            while i < len && cumulative[i] < lower {
                i += 1;
            }
            guide.push(i as u32);
        }
        Self {
            nodes,
            cumulative,
            total,
            guide,
            bucket_scale,
        }
    }

    /// Draws one vertex.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        let x = rng.gen::<f64>() * self.total;
        self.nodes[self.index_of(x)]
    }

    /// The index [`VertexSampler::search`] returns for `x`: the guide
    /// table's start for `x`'s bucket, moved entry by entry to the first
    /// cumulative weight not below `x`. The floating-point bucket may be
    /// off by one either way; the scan corrects it.
    fn index_of(&self, x: f64) -> usize {
        let c = &self.cumulative;
        let last = c.len() - 1;
        let bucket = ((x * self.bucket_scale) as usize).min(self.guide.len() - 1);
        let mut i = self.guide[bucket] as usize;
        while i > 0 && c[i - 1] >= x {
            i -= 1;
        }
        while i < last && c[i] < x {
            i += 1;
        }
        if c[i] == x {
            // Zero weights repeat a cumulative entry, and which of the
            // equal entries `binary_search_by` lands on is its own affair.
            return self.search(x);
        }
        i
    }

    /// The binary search the guide table stands in for: on an exact hit,
    /// whichever equal entry `binary_search_by` finds, otherwise the
    /// first entry above `x`, clamped to the last vertex.
    fn search(&self, x: f64) -> usize {
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("no NaN"))
        {
            Ok(i) | Err(i) => i.min(self.nodes.len() - 1),
        }
    }
}

/// The input graph's adjacency as a CSR of sorted neighbour lists, built
/// once per run. An edge lookup hashes nothing: it checks both endpoints'
/// neighbour residues mod 64, which rule out most non-edges (the common
/// case in a sparse graph) from two words, then binary-searches the
/// shorter of the two lists.
#[derive(Debug, Clone)]
pub(crate) struct EdgeIndex {
    /// `adj[offsets[v]..offsets[v + 1]]` is `v`'s `(neighbour, edge)`
    /// list, ascending by neighbour.
    offsets: Vec<usize>,
    /// Bit `w % 64` of `residues[v]` is set for each neighbour `w` of
    /// `v`: if it is clear for `(a, b)` or for `(b, a)`, no edge joins
    /// them.
    residues: Vec<u64>,
    adj: Vec<(NodeId, EdgeId)>,
}

impl EdgeIndex {
    pub(crate) fn new(graph: &UncertainGraph) -> Self {
        let mut offsets = Vec::with_capacity(graph.num_nodes() + 1);
        let mut residues = Vec::with_capacity(graph.num_nodes());
        let mut adj = Vec::with_capacity(2 * graph.num_edges());
        offsets.push(0);
        for v in 0..graph.num_nodes() as NodeId {
            let start = adj.len();
            adj.extend_from_slice(graph.neighbors(v));
            // Neighbours are distinct (no multi-edges), so the order is
            // total.
            adj[start..].sort_unstable();
            offsets.push(adj.len());
            residues.push(adj[start..].iter().fold(0, |m, &(w, _)| m | 1 << (w % 64)));
        }
        Self {
            offsets,
            residues,
            adj,
        }
    }

    /// The edge between `a` and `b`, as [`UncertainGraph::find_edge`]
    /// finds it.
    pub(crate) fn find(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        let bit = |v: NodeId, w: NodeId| self.residues[v as usize] >> (w % 64) & 1;
        if bit(a, b) & bit(b, a) == 0 {
            return None;
        }
        let list = |v: NodeId| &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]];
        let (la, lb) = (list(a), list(b));
        let (list, other) = if la.len() <= lb.len() {
            (la, b)
        } else {
            (lb, a)
        };
        list.binary_search_by_key(&other, |&(w, _)| w)
            .ok()
            .map(|i| list[i].1)
    }
}

/// An insert-only set of normalized pairs `u < v`, each packed into the
/// key `u << 32 | v`: open addressing with linear probing, a
/// multiplicative (Fibonacci) hash, and 0 as the empty-slot sentinel —
/// no pair packs to 0, since `v > u ≥ 0`. It starts empty and doubles at
/// half load, so its size follows the pairs actually injected.
#[derive(Debug, Clone, Default)]
struct PairSet {
    slots: Vec<u64>,
    len: usize,
}

impl PairSet {
    const EMPTY: u64 = 0;

    /// Empties the set, keeping its table.
    fn clear(&mut self) {
        self.slots.fill(Self::EMPTY);
        self.len = 0;
    }

    /// Inserts `(u, v)`, `u < v`; false when it was already present.
    fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        debug_assert!(u < v, "pair ({u}, {v}) is not normalized");
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = (2 * self.slots.len()).max(16);
            let old = std::mem::replace(&mut self.slots, vec![Self::EMPTY; grown]);
            for key in old.into_iter().filter(|&k| k != Self::EMPTY) {
                self.place(key);
            }
        }
        let inserted = self.place(u64::from(u) << 32 | u64::from(v));
        self.len += usize::from(inserted);
        inserted
    }

    /// Puts `key` into its probe sequence's first empty slot, unless it is
    /// already there first. The table always has an empty slot.
    fn place(&mut self, key: u64) -> bool {
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        loop {
            match self.slots[i] {
                Self::EMPTY => {
                    self.slots[i] = key;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// Builds the candidate set `E_C` (paper Algorithm 3 lines 9–16).
/// `edges` must be `graph`'s [`EdgeIndex`].
///
/// `target_size = c·|E|` rounded; the loop is capped at a generous attempt
/// budget so adversarial weight configurations cannot hang (on budget
/// exhaustion the current set is returned — the algorithm is randomized
/// anyway and GenObf copes with any candidate set).
#[cfg(test)]
pub(crate) fn select_candidates<R: Rng + ?Sized>(
    graph: &UncertainGraph,
    edges: &EdgeIndex,
    sampler: &VertexSampler,
    size_multiplier: f64,
    rng: &mut R,
) -> Vec<CandidateEdge> {
    let mut out = Vec::new();
    let mut scratch = SelectScratch::default();
    select_candidates_into(
        graph,
        edges,
        sampler,
        size_multiplier,
        rng,
        &mut scratch,
        &mut out,
    );
    out
}

/// The selection loop's working sets, kept by a caller that selects
/// repeatedly so that a selection allocates nothing once they have grown.
#[derive(Debug, Clone, Default)]
pub(crate) struct SelectScratch {
    present: Vec<bool>,
    injected: PairSet,
    added: Vec<(NodeId, NodeId)>,
}

/// [`select_candidates`] written into `out` (cleared first), with its
/// working sets in `scratch`: the same candidates and the same draws.
pub(crate) fn select_candidates_into<R: Rng + ?Sized>(
    graph: &UncertainGraph,
    edges: &EdgeIndex,
    sampler: &VertexSampler,
    size_multiplier: f64,
    rng: &mut R,
    scratch: &mut SelectScratch,
    out: &mut Vec<CandidateEdge>,
) {
    let m = graph.num_edges();
    let n = graph.num_nodes();
    let target = ((m as f64 * size_multiplier).round() as usize)
        .min(n * n.saturating_sub(1) / 2)
        .max(1.min(m));
    // E_C ← E. Existing edges are tracked by their dense id; only the
    // injected pairs need a set. `size` is |E_C|.
    let SelectScratch {
        present,
        injected,
        added,
    } = scratch;
    present.clear();
    present.resize(m, true);
    injected.clear();
    added.clear();
    let mut size = m;
    let attempt_budget = 200 * target + 10_000;
    let mut attempts = 0usize;
    while size != target && attempts < attempt_budget {
        attempts += 1;
        let a = sampler.sample(rng);
        let b = sampler.sample(rng);
        if a == b {
            continue;
        }
        if let Some(e) = edges.find(a, b) {
            // Existing edge: drop from E_C with probability p(e).
            if present[e as usize] && rng.gen::<f64>() < graph.prob(e) {
                present[e as usize] = false;
                size -= 1;
            }
        } else if size < target {
            let key = if a < b { (a, b) } else { (b, a) };
            if injected.insert(key.0, key.1) {
                added.push(key);
                size += 1;
            }
        }
    }
    chameleon_obs::counter!("genobf.candidate_attempts").add(attempts as u64);
    // Deterministic output order: original edges first (by id), then added
    // pairs in insertion order.
    out.clear();
    out.reserve(size);
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
    out.extend(added.iter().map(|&(u, v)| CandidateEdge {
        u,
        v,
        existing: None,
        p: 0.0,
    }));
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
        let got = select_candidates(
            g,
            &EdgeIndex::new(g),
            sampler,
            size_multiplier,
            &mut rng_new,
        );
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
        let cands = select_candidates(
            &g,
            &EdgeIndex::new(&g),
            &sampler,
            2.0,
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(cands.len(), 5, "4 existing edges + the one injectable pair");
    }

    /// The binary-search draw the guide table replaced.
    fn sample_reference<R: Rng + ?Sized>(s: &VertexSampler, rng: &mut R) -> NodeId {
        let x = rng.gen::<f64>() * s.total;
        let idx = match s
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("no NaN"))
        {
            Ok(i) | Err(i) => i.min(s.nodes.len() - 1),
        };
        s.nodes[idx]
    }

    /// An RNG that replays fixed words.
    struct Tape<'a>(std::slice::Iter<'a, u64>);

    impl RngCore for Tape<'_> {
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("tape ran out")
        }
    }

    /// Raw words whose draw `x = (w >> 11)·2⁻⁵³·total` lands exactly on a
    /// cumulative entry (repeated entries and `total` included), found by
    /// trying the integers around each entry's estimate.
    fn exact_hit_words(s: &VertexSampler) -> Vec<u64> {
        let scale = (1u64 << 53) as f64;
        let mut words = Vec::new();
        for &c in s.cumulative.iter().chain([&s.total]) {
            let guess = (c / s.total * scale) as u64;
            for k in guess.saturating_sub(3)..=(guess + 3).min((1 << 53) - 1) {
                if k as f64 / scale * s.total == c {
                    words.push(k << 11);
                }
            }
        }
        words
    }

    /// Draws every word through the guide table and the reference.
    fn assert_sampler_matches_reference(s: &VertexSampler, words: &[u64]) {
        let mut guide = Tape(words.iter());
        let mut reference = Tape(words.iter());
        for &w in words {
            assert_eq!(
                s.sample(&mut guide),
                sample_reference(s, &mut reference),
                "word {w:#x}"
            );
        }
    }

    proptest! {
        /// Zero-weight runs, integer weights (exact cumulative sums),
        /// arbitrary and subnormal weights, all-zero weights, one vertex
        /// and excluded vertices: the guide table returns the reference's
        /// vertex for random words and for every exact hit.
        #[test]
        fn guide_table_sample_matches_binary_search(
            kinds in proptest::collection::vec((0u8..4, 0.0f64..5.0, 1u32..4), 1..40),
            all_zero in any::<bool>(),
            excluded_mask in proptest::collection::vec(0u8..4, 40),
            words in proptest::collection::vec(any::<u64>(), 64),
        ) {
            let w: Vec<f64> = kinds
                .iter()
                .map(|&(kind, x, int)| match kind {
                    _ if all_zero => 0.0,
                    0 => 0.0,
                    1 => int as f64,
                    2 => x,
                    _ => int as f64 * 5e-324,
                })
                .collect();
            let n = w.len();
            let mut excluded: HashSet<NodeId> = (0..n as NodeId)
                .filter(|&v| excluded_mask[v as usize] == 0)
                .collect();
            if excluded.len() == n {
                excluded.remove(&0);
            }
            let s = VertexSampler::new(&w, &excluded);
            let mut all = exact_hit_words(&s);
            all.extend(&words);
            assert_sampler_matches_reference(&s, &all);
        }
    }

    #[test]
    fn guide_table_matches_on_ties_and_total() {
        // Integer weights with zero runs: every cumulative entry below the
        // total, repeats included, is an exact hit (a draw is below the
        // total of a normal-range sum).
        let s = VertexSampler::new(
            &[0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0],
            &HashSet::new(),
        );
        let words = exact_hit_words(&s);
        assert_eq!(words.len(), 6, "hits on 0, 0, 1, 1, 1 and 3");
        assert_sampler_matches_reference(&s, &words);
        // Subnormal weights: the product rounds, so a draw can equal the
        // total itself.
        let s = VertexSampler::new(&[5e-324, 0.0, 1e-323, 0.0], &HashSet::new());
        let top = ((1u64 << 53) - 1) << 11;
        assert_eq!(Tape([top].iter()).gen::<f64>() * s.total, s.total);
        let mut words = exact_hit_words(&s);
        words.push(top);
        assert_sampler_matches_reference(&s, &words);
        // All-zero weights fall back to uniform; a single vertex.
        for w in [&[0.0; 5][..], &[0.0], &[2.5]] {
            let s = VertexSampler::new(w, &HashSet::new());
            let mut words = exact_hit_words(&s);
            words.extend([0, u64::MAX, 1 << 63]);
            assert_sampler_matches_reference(&s, &words);
        }
    }

    proptest! {
        /// Every vertex pair, edge or not, in either order: the CSR finds
        /// what the graph's hash index finds.
        #[test]
        fn edge_index_matches_find_edge(
            graph_seed in any::<u64>(),
            n in 1usize..30,
            density in 0.0f64..=1.0,
        ) {
            let m = (density * (n * (n - 1) / 2) as f64) as usize;
            let g = generators::gnm(n, m, &mut StdRng::seed_from_u64(graph_seed));
            let index = EdgeIndex::new(&g);
            for a in 0..n as NodeId {
                for b in 0..n as NodeId {
                    prop_assert_eq!(index.find(a, b), g.find_edge(a, b), "({}, {})", a, b);
                }
            }
        }

        /// Inserts (repeats included, across several growths) report what
        /// a `HashSet` reports.
        #[test]
        fn pair_set_matches_hash_set(
            pairs in proptest::collection::vec((0u32..40, 0u32..40), 0..300),
            high in any::<bool>(),
        ) {
            let mut set = PairSet::default();
            let mut reference = HashSet::new();
            for (a, b) in pairs {
                if a == b {
                    continue;
                }
                // Ids near the top of the range too.
                let shift = if high { u32::MAX - 40 } else { 0 };
                let (u, v) = (a.min(b) + shift, a.max(b) + shift);
                prop_assert_eq!(set.insert(u, v), reference.insert((u, v)));
            }
            prop_assert_eq!(set.len, reference.len());
        }
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
        assert_eq!(s.nodes.len(), 3);
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
        let cands = select_candidates(&g, &EdgeIndex::new(&g), &s, 2.0, &mut rng);
        assert_eq!(cands.len(), 120);
    }

    #[test]
    fn candidates_mostly_retain_original_edges() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnm(60, 80, &mut rng);
        let s = sampler_uniform(60);
        let cands = select_candidates(&g, &EdgeIndex::new(&g), &s, 2.0, &mut rng);
        let existing = cands.iter().filter(|c| c.existing.is_some()).count();
        // "the resulting set E_c includes most of edges in E"
        assert!(existing as f64 > 0.8 * 80.0, "existing={existing}");
    }

    #[test]
    fn injected_candidates_have_zero_probability() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::gnm(30, 40, &mut rng);
        let s = sampler_uniform(30);
        let cands = select_candidates(&g, &EdgeIndex::new(&g), &s, 1.5, &mut rng);
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
        let cands = select_candidates(&g, &EdgeIndex::new(&g), &s, 0.5, &mut rng);
        assert_eq!(cands.len(), 20);
        assert!(cands.iter().all(|c| c.existing.is_some()));
    }

    #[test]
    fn candidates_have_no_duplicates() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::gnm(25, 30, &mut rng);
        let s = sampler_uniform(25);
        let cands = select_candidates(&g, &EdgeIndex::new(&g), &s, 3.0, &mut rng);
        let set: HashSet<(u32, u32)> = cands.iter().map(|c| (c.u, c.v)).collect();
        assert_eq!(set.len(), cands.len());
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng_g = StdRng::seed_from_u64(9);
        let g = generators::gnm(25, 30, &mut rng_g);
        let s = sampler_uniform(25);
        let a = select_candidates(
            &g,
            &EdgeIndex::new(&g),
            &s,
            2.0,
            &mut StdRng::seed_from_u64(10),
        );
        let b = select_candidates(
            &g,
            &EdgeIndex::new(&g),
            &s,
            2.0,
            &mut StdRng::seed_from_u64(10),
        );
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
        let cands = select_candidates(&g, &EdgeIndex::new(&g), &s, 2.0, &mut rng);
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
