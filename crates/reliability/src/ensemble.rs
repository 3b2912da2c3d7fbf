//! World ensembles: a fixed set of sampled possible worlds with cached
//! connectivity structure.
//!
//! Storage is arena-style (DESIGN.md §6c): the worlds live in one
//! contiguous [`WorldMatrix`], component labels in one world-major flat
//! `u32` matrix (stride = `num_nodes`), and per-world component sizes in
//! one offset-indexed arena. Building an N-world ensemble therefore costs
//! O(chunks) allocations, not O(N), and every query is a strided scan over
//! contiguous memory. Results are bit-identical to the historical
//! one-allocation-per-world layout: the sampling plan preserves the RNG
//! draw order and the analysis replays union–find operations in the same
//! ascending edge order.

use chameleon_stats::alloc_guard::Tracked;
use chameleon_stats::parallel;
use chameleon_stats::SeedSequence;
use chameleon_ugraph::{NodeId, SamplePlan, UncertainGraph, UnionFind, WorldMatrix, WorldRef};
use rand::Rng;

/// Fixed number of worlds per sampling/analysis chunk. Chunk boundaries
/// (and the per-chunk RNG streams of [`WorldEnsemble::sample_seeded`])
/// depend only on this constant and the world count, never on the thread
/// count — that is what makes parallel ensembles bit-identical to serial
/// ones. Changing it changes which worlds a given seed produces.
pub const WORLD_CHUNK: usize = 32;

/// Pairs per block in [`WorldEnsemble::reliability_many`]: a block of pair
/// hit-counters is kept hot in cache while the label matrix streams past
/// once per block.
pub(crate) const PAIR_BLOCK: usize = 1024;

/// A Monte-Carlo ensemble of possible worlds of one uncertain graph, with
/// per-world component labels and connected-pair counts cached.
///
/// Building the ensemble costs O(N·(|V| + |E|·log|V|)) in the worst case
/// (Rem's union–find links by index) and near-linear time in practice;
/// afterwards every two-terminal reliability query is O(N) label
/// comparisons and the expected-connected-pairs statistic is O(N). The
/// ERR estimators of the core crate fold this cache, world by world,
/// through the per-world kernel of [`crate::fold`].
#[derive(Debug, Clone)]
pub struct WorldEnsemble {
    worlds: WorldMatrix,
    /// World-major flat label matrix: world `w`'s labels are
    /// `labels[w*num_nodes .. (w+1)*num_nodes]`.
    labels: Vec<u32>,
    /// Per-world component sizes, indexed by dense label: one arena per
    /// [`WORLD_CHUNK`] worlds, kept exactly as that analysis chunk filled
    /// it (no merge copy).
    component_sizes: Vec<Vec<u32>>,
    /// Offsets into the size arenas: chunk `c` owns the `WORLD_CHUNK + 1`
    /// entries from `c·(WORLD_CHUNK + 1)` on (its last chunk fewer), a 0
    /// and then each of its worlds' end, so world `w` of chunk `c` spans
    /// `size_offsets[w + c]..size_offsets[w + c + 1]` of
    /// `component_sizes[c]`.
    size_offsets: Vec<u32>,
    connected_pairs: Vec<u64>,
    num_nodes: usize,
    /// Registration of this ensemble's arena bytes against the
    /// process-global gauge (`chameleon_stats::alloc_guard`); released on
    /// drop, re-registered on clone.
    tracked: Tracked,
}

impl WorldEnsemble {
    /// Samples `n` worlds of `graph`.
    pub fn sample<R: Rng + ?Sized>(graph: &UncertainGraph, n: usize, rng: &mut R) -> Self {
        let plan = SamplePlan::new(graph);
        Self::from_matrix_threads(graph, plan.sample_matrix(n, rng), 1)
    }

    /// Samples `n` worlds from a seed, using up to `threads` worker
    /// threads (`0` = all hardware threads).
    ///
    /// Worlds are produced in fixed blocks of [`WORLD_CHUNK`]; block `c`
    /// draws from its own RNG stream `(seed, "world-chunk", c)`. Because
    /// neither the block boundaries nor the streams depend on the thread
    /// count, the ensemble is **bit-identical** for every `threads` value
    /// — parallelism changes wall-clock time only. (The stream layout
    /// differs from feeding one sequential RNG through
    /// [`WorldEnsemble::sample`]; both are deterministic per seed.)
    pub fn sample_seeded(graph: &UncertainGraph, n: usize, seed: u64, threads: usize) -> Self {
        let _span = chameleon_obs::span!("ensemble.sample_seeded");
        chameleon_obs::counter!("ensemble.worlds_sampled").add(n as u64);
        let plan = SamplePlan::new(graph);
        let worlds = Self::sample_strip_matrix(&plan, seed, 0, n, threads);
        Self::from_matrix_threads(graph, worlds, threads)
    }

    /// Builds the ensemble caches for an already-sampled world matrix,
    /// running the per-world connectivity analysis (union–find labels,
    /// component sizes, connected-pair counts) on up to `threads` worker
    /// threads (`0` = all hardware threads). Each world's analysis is a
    /// pure function of that world, so the result is identical for every
    /// thread count. Each worker reuses one union-find across all its
    /// chunks, and each chunk writes its labels straight into its own rows
    /// of the label arena.
    ///
    /// # Panics
    /// Panics if the matrix's edge-slot count disagrees with the graph's.
    pub fn from_matrix_threads(
        graph: &UncertainGraph,
        worlds: WorldMatrix,
        threads: usize,
    ) -> Self {
        let _span = chameleon_obs::span!("ensemble.analyze_worlds");
        assert_eq!(
            worlds.num_edges(),
            graph.num_edges(),
            "world/graph edge-count mismatch"
        );
        let n = worlds.num_worlds();
        let nn = graph.num_nodes();
        let (us, vs) = graph.endpoint_soa();
        // Each chunk labels its worlds straight into its own rows of the
        // final label arena, and its size list becomes that chunk's size
        // arena as it stands.
        let mut labels = vec![0u32; n * nn];
        let analyzed = parallel::map_chunks_into(
            &mut labels,
            nn,
            n,
            WORLD_CHUNK,
            threads,
            || UnionFind::new(nn),
            |uf, _, range, rows| {
                let k = range.len();
                let mut sizes = Vec::new();
                let mut ncomps = Vec::with_capacity(k);
                let mut pairs = Vec::with_capacity(k);
                // Union–find work per world: one makeset per node plus one
                // union per present edge; counted once per chunk to keep
                // the recording cost off the per-world path.
                let mut uf_ops = 0u64;
                for (i, w) in range.enumerate() {
                    uf.reset();
                    let present = worlds.world(w).union_into(&us, &vs, uf);
                    uf_ops += nn as u64 + present as u64;
                    if i == 1 {
                        // Worlds of one graph have similar component
                        // counts: size the chunk's arena from the first
                        // world's, with 1/8 slack, instead of doubling.
                        sizes.reserve((sizes.len() + sizes.len() / 8) * (k - 1));
                    }
                    let (ncomp, cc) =
                        uf.labels_and_sizes(&mut rows[i * nn..(i + 1) * nn], &mut sizes);
                    ncomps.push(ncomp);
                    pairs.push(cc);
                }
                chameleon_obs::counter!("ensemble.union_find_ops").add(uf_ops);
                // Worlds after the first in a chunk recycle the worker's
                // union-find instead of allocating — defined per chunk, so
                // the count is thread-invariant.
                chameleon_obs::counter!("ensemble.scratch_reuses").add(k.saturating_sub(1) as u64);
                (sizes, ncomps, pairs)
            },
        );
        let mut component_sizes = Vec::with_capacity(analyzed.len());
        let mut size_offsets = Vec::with_capacity(n + analyzed.len());
        let mut connected_pairs = Vec::with_capacity(n);
        // The size arenas keep their reserve slack, so they count by
        // capacity.
        let mut size_capacity = 0;
        for (sizes, ncomps, pairs) in analyzed {
            let mut end = 0;
            size_offsets.push(0);
            for ncomp in ncomps {
                end += ncomp;
                size_offsets.push(u32::try_from(end).expect("a chunk's size arena indexes in u32"));
            }
            size_capacity += sizes.capacity();
            component_sizes.push(sizes);
            connected_pairs.extend_from_slice(&pairs);
        }
        let arena_bytes = worlds.arena_bytes()
            + labels.len() * std::mem::size_of::<u32>()
            + size_capacity * std::mem::size_of::<u32>();
        chameleon_obs::counter!("ensemble.arena_bytes").add(arena_bytes as u64);
        // Infallible gauge registration: construction paths that cannot
        // return errors still report accurate peak tracked bytes. Fallible
        // ceiling enforcement happens at the entry points (pipeline
        // precheck, `EnsembleStream`).
        let tracked = Tracked::register(arena_bytes);
        Self {
            worlds,
            labels,
            component_sizes,
            size_offsets,
            connected_pairs,
            num_nodes: nn,
            tracked,
        }
    }

    /// Bytes estimated for the arenas of an `n`-world ensemble of `graph`
    /// before building it: the world matrix plus the flat label matrix
    /// plus a component-sizes lower bound. Used for fail-fast ceiling
    /// prechecks ahead of the actual allocation.
    pub fn estimate_arena_bytes(graph: &UncertainGraph, n: usize) -> usize {
        let wpw = graph.num_edges().div_ceil(64);
        n * (wpw * std::mem::size_of::<u64>() + graph.num_nodes() * std::mem::size_of::<u32>())
    }

    /// Samples the worlds `[world_offset, world_offset + len)` of the
    /// ensemble that [`WorldEnsemble::sample_seeded`] with the same
    /// `(graph, seed)` would produce — bit-identical rows, because chunk
    /// `c` of the strip draws from the global RNG stream
    /// `(seed, "world-chunk", world_offset / WORLD_CHUNK + c)`.
    ///
    /// # Panics
    /// Panics unless `world_offset` is a multiple of [`WORLD_CHUNK`]
    /// (strip boundaries must coincide with global chunk boundaries, or
    /// the per-chunk streams would desynchronize).
    pub(crate) fn sample_strip_matrix(
        plan: &SamplePlan,
        seed: u64,
        world_offset: usize,
        len: usize,
        threads: usize,
    ) -> WorldMatrix {
        assert!(
            world_offset.is_multiple_of(WORLD_CHUNK),
            "strip offset {world_offset} not aligned to WORLD_CHUNK ({WORLD_CHUNK})"
        );
        let seq = SeedSequence::new(seed);
        let chunk_base = world_offset / WORLD_CHUNK;
        let wpw = plan.words_per_world();
        let row_chunks = parallel::map_chunks(len, WORLD_CHUNK, threads, |c, range| {
            let mut rng = seq.rng_indexed("world-chunk", (chunk_base + c) as u64);
            let mut rows = vec![0u64; range.len() * wpw];
            if wpw > 0 {
                for row in rows.chunks_exact_mut(wpw) {
                    plan.sample_into(row, &mut rng);
                }
            }
            rows
        });
        let mut worlds = WorldMatrix::new(plan.num_edges());
        worlds.reserve(len);
        for (c, rows) in row_chunks.iter().enumerate() {
            if wpw > 0 {
                worlds.extend_from_words(rows);
            } else {
                worlds.grow(parallel::chunk_range(c, WORLD_CHUNK, len).len());
            }
        }
        worlds
    }

    /// Builds an ensemble from worlds sampled with *common random numbers*:
    /// row `w` of `uniforms` drives world `w` — edge `i` is present iff
    /// `uniforms.row(w)[i] < p(e_i)`. Two graphs whose edge arrays agree on
    /// shared edges can be compared with the same matrix, eliminating
    /// independent-sampling noise from discrepancy estimates.
    ///
    /// # Panics
    /// Panics if the matrix stride is smaller than the graph's edge count.
    pub fn from_uniform_matrix(graph: &UncertainGraph, uniforms: &UniformMatrix) -> Self {
        let m = graph.num_edges();
        assert!(
            uniforms.stride() >= m,
            "need {m} uniforms per world, stride is {}",
            uniforms.stride()
        );
        let n = uniforms.num_worlds();
        let mut matrix = WorldMatrix::zeroed(n, m);
        let probs: Vec<f64> = graph.edges().iter().map(|e| e.p).collect();
        for w in 0..n {
            let u = uniforms.row(w);
            let row = matrix.row_mut(w);
            for (i, &p) in probs.iter().enumerate() {
                if u[i] < p {
                    row[i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        Self::from_matrix_threads(graph, matrix, 1)
    }

    /// Number of worlds.
    pub fn len(&self) -> usize {
        self.worlds.num_worlds()
    }

    /// True when the ensemble holds no worlds.
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The arena holding every sampled world.
    pub fn matrix(&self) -> &WorldMatrix {
        &self.worlds
    }

    /// World `w` as a borrowed bitset.
    pub fn world(&self, w: usize) -> WorldRef<'_> {
        self.worlds.world(w)
    }

    /// Component labels of world `w`.
    pub fn labels(&self, w: usize) -> &[u32] {
        &self.labels[w * self.num_nodes..(w + 1) * self.num_nodes]
    }

    /// Component sizes of world `w`, indexed by the dense labels of
    /// [`WorldEnsemble::labels`].
    pub fn component_sizes(&self, w: usize) -> &[u32] {
        let c = w / WORLD_CHUNK;
        let (start, end) = (self.size_offsets[w + c], self.size_offsets[w + c + 1]);
        &self.component_sizes[c][start as usize..end as usize]
    }

    /// Connected-pair count `cc(G_w)` of world `w`.
    pub fn connected_pairs(&self, w: usize) -> u64 {
        self.connected_pairs[w]
    }

    /// All per-world connected-pair counts.
    pub fn connected_pairs_all(&self) -> &[u64] {
        &self.connected_pairs
    }

    /// Bytes this ensemble's arenas have registered against the
    /// process-global ensemble gauge (`chameleon_stats::alloc_guard`).
    pub fn tracked_bytes(&self) -> usize {
        self.tracked.bytes()
    }

    /// Estimated two-terminal reliability `R_{u,v}` (paper Definition 1):
    /// the fraction of worlds in which `u` and `v` share a component.
    pub fn two_terminal_reliability(&self, u: NodeId, v: NodeId) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let (u, v) = (u as usize, v as usize);
        let hits = self
            .labels
            .chunks_exact(self.num_nodes)
            .filter(|l| l[u] == l[v])
            .count();
        hits as f64 / n as f64
    }

    /// Reliability for many pairs in one pass over the label cache,
    /// blocked so a [`PAIR_BLOCK`]-wide window of hit counters stays hot
    /// while the flat label matrix streams through.
    pub fn reliability_many(&self, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
        let n = self.len();
        if n == 0 {
            return vec![0.0; pairs.len()];
        }
        let mut hits = vec![0u32; pairs.len()];
        for (block, counters) in pairs.chunks(PAIR_BLOCK).zip(hits.chunks_mut(PAIR_BLOCK)) {
            for l in self.labels.chunks_exact(self.num_nodes) {
                for (c, &(u, v)) in counters.iter_mut().zip(block) {
                    if l[u as usize] == l[v as usize] {
                        *c += 1;
                    }
                }
            }
        }
        hits.into_iter().map(|h| h as f64 / n as f64).collect()
    }

    /// Estimated expected number of connected pairs
    /// `E[cc(G)] = Σ_{u<v} R_{u,v}` — the aggregate the ERR estimator
    /// differentiates (paper §V-D). The counts are summed as exact
    /// integers and divided once (`crate::fold` on why that equals any
    /// ordered f64 sum below 2⁵³).
    ///
    /// # Panics
    /// Panics if the sum overflows a `u64`, which cannot happen while
    /// N·n(n−1)/2 fits one (DESIGN.md §12.1).
    pub fn expected_connected_pairs(&self) -> f64 {
        let sum = self
            .connected_pairs
            .iter()
            .try_fold(0u64, |s, &c| s.checked_add(c))
            .expect("connected-pair sums stay below u64::MAX");
        crate::fold::exact_mean(sum, self.connected_pairs.len() as u64)
    }
}

/// A flat row-stride matrix of CRN uniforms: `num_worlds` rows of `stride`
/// variates in one contiguous allocation. Row `w` is the "randomness" of
/// world `w`, reusable across graph variants whose edge arrays align (the
/// stride must cover the larger edge count).
#[derive(Debug, Clone, PartialEq)]
pub struct UniformMatrix {
    values: Vec<f64>,
    stride: usize,
    num_worlds: usize,
}

impl UniformMatrix {
    /// An all-zero matrix (every edge present under `u < p` for `p > 0`).
    pub fn zeroed(num_worlds: usize, stride: usize) -> Self {
        Self {
            values: vec![0.0; num_worlds * stride],
            stride,
            num_worlds,
        }
    }

    /// Number of worlds (rows).
    pub fn num_worlds(&self) -> usize {
        self.num_worlds
    }

    /// Uniforms per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `w`.
    ///
    /// # Panics
    /// Panics if `w >= num_worlds`.
    pub fn row(&self, w: usize) -> &[f64] {
        assert!(w < self.num_worlds, "world {w} out of {}", self.num_worlds);
        &self.values[w * self.stride..(w + 1) * self.stride]
    }
}

/// Generates a flat CRN uniforms matrix: `n_worlds` rows of `n_edges`
/// variates, drawn row-major.
pub fn crn_uniform_matrix<R: Rng + ?Sized>(
    n_worlds: usize,
    n_edges: usize,
    rng: &mut R,
) -> UniformMatrix {
    let mut m = UniformMatrix::zeroed(n_worlds, n_edges);
    for x in &mut m.values {
        *x = rng.gen::<f64>();
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bridge_graph() -> UncertainGraph {
        // Two triangles joined by a bridge of probability 0.5:
        //   0-1-2 (p=0.9 each, triangle)   3-4-5 (p=0.9 each, triangle)
        //   bridge 2-3 (p=0.5)
        let mut g = UncertainGraph::with_nodes(6);
        for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(u, v, 0.9).unwrap();
        }
        g.add_edge(2, 3, 0.5).unwrap();
        g
    }

    #[test]
    fn deterministic_graph_reliability_is_binary() {
        let mut g = UncertainGraph::with_nodes(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let ens = WorldEnsemble::sample(&g, 50, &mut rng);
        assert_eq!(ens.two_terminal_reliability(0, 1), 1.0);
        assert_eq!(ens.two_terminal_reliability(0, 2), 0.0);
        assert_eq!(ens.two_terminal_reliability(2, 3), 1.0);
    }

    #[test]
    fn single_edge_reliability_matches_probability() {
        let mut g = UncertainGraph::with_nodes(2);
        g.add_edge(0, 1, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let ens = WorldEnsemble::sample(&g, 5000, &mut rng);
        let r = ens.two_terminal_reliability(0, 1);
        assert!((r - 0.3).abs() < 0.03, "r={r}");
    }

    #[test]
    fn series_edges_multiply() {
        // 0 -0.6- 1 -0.5- 2: R(0,2) = 0.3 (independent series).
        let mut g = UncertainGraph::with_nodes(3);
        g.add_edge(0, 1, 0.6).unwrap();
        g.add_edge(1, 2, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let ens = WorldEnsemble::sample(&g, 8000, &mut rng);
        let r = ens.two_terminal_reliability(0, 2);
        assert!((r - 0.3).abs() < 0.025, "r={r}");
    }

    #[test]
    fn parallel_edges_via_triangle() {
        // R(0,1) in a two-path structure 0-1 (0.5) plus 0-2-1 (1.0, 1.0):
        // 1 - (1-0.5)(1-1.0) = 1.0.
        let mut g = UncertainGraph::with_nodes(3);
        g.add_edge(0, 1, 0.5).unwrap();
        g.add_edge(0, 2, 1.0).unwrap();
        g.add_edge(2, 1, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let ens = WorldEnsemble::sample(&g, 100, &mut rng);
        assert_eq!(ens.two_terminal_reliability(0, 1), 1.0);
    }

    #[test]
    fn reliability_many_matches_single() {
        let g = bridge_graph();
        let mut rng = StdRng::seed_from_u64(4);
        let ens = WorldEnsemble::sample(&g, 500, &mut rng);
        let pairs = vec![(0u32, 1u32), (0, 5), (2, 3)];
        let many = ens.reliability_many(&pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert!((many[i] - ens.two_terminal_reliability(u, v)).abs() < 1e-12);
        }
    }

    #[test]
    fn reliability_many_blocked_matches_single_past_block_boundary() {
        let g = bridge_graph();
        let mut rng = StdRng::seed_from_u64(14);
        let ens = WorldEnsemble::sample(&g, 60, &mut rng);
        // More pairs than one PAIR_BLOCK so at least two blocks run.
        let pairs: Vec<(u32, u32)> = (0..(super::PAIR_BLOCK + 37))
            .map(|i| ((i % 6) as u32, ((i + 1 + i / 6) % 6) as u32))
            .map(|(u, v)| if u == v { (u, (v + 1) % 6) } else { (u, v) })
            .collect();
        let many = ens.reliability_many(&pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(many[i], ens.two_terminal_reliability(u, v), "pair {i}");
        }
    }

    #[test]
    fn expected_connected_pairs_sums_reliabilities() {
        let g = bridge_graph();
        let mut rng = StdRng::seed_from_u64(5);
        let ens = WorldEnsemble::sample(&g, 400, &mut rng);
        let mut total = 0.0;
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                total += ens.two_terminal_reliability(u, v);
            }
        }
        assert!(
            (ens.expected_connected_pairs() - total).abs() < 1e-9,
            "{} vs {total}",
            ens.expected_connected_pairs()
        );
    }

    #[test]
    fn empty_ensemble_degenerates() {
        let g = bridge_graph();
        let ens = WorldEnsemble::sample_seeded(&g, 0, 0, 1);
        assert!(ens.is_empty());
        assert_eq!(ens.two_terminal_reliability(0, 1), 0.0);
        assert_eq!(ens.expected_connected_pairs(), 0.0);
        assert_eq!(ens.reliability_many(&[(0, 1)]), vec![0.0]);
    }

    #[test]
    fn sample_seeded_is_thread_count_invariant() {
        let g = bridge_graph();
        // A world count that is not a multiple of WORLD_CHUNK, so the last
        // chunk is ragged.
        let n = 3 * WORLD_CHUNK + 7;
        let serial = WorldEnsemble::sample_seeded(&g, n, 42, 1);
        for threads in [2, 4, 8] {
            let par = WorldEnsemble::sample_seeded(&g, n, 42, threads);
            assert_eq!(serial.matrix(), par.matrix());
            assert_eq!(serial.connected_pairs_all(), par.connected_pairs_all());
            for w in 0..n {
                assert_eq!(serial.labels(w), par.labels(w));
                assert_eq!(serial.component_sizes(w), par.component_sizes(w));
            }
        }
        // Different seeds still give different ensembles.
        let other = WorldEnsemble::sample_seeded(&g, n, 43, 2);
        assert_ne!(serial.matrix(), other.matrix());
    }

    #[test]
    fn crn_identical_graphs_give_identical_ensembles() {
        let g = bridge_graph();
        let mut rng = StdRng::seed_from_u64(6);
        let uniforms = crn_uniform_matrix(100, g.num_edges(), &mut rng);
        let a = WorldEnsemble::from_uniform_matrix(&g, &uniforms);
        let b = WorldEnsemble::from_uniform_matrix(&g, &uniforms);
        assert_eq!(a.matrix(), b.matrix());
        assert_eq!(
            a.two_terminal_reliability(0, 5),
            b.two_terminal_reliability(0, 5)
        );
    }

    #[test]
    fn uniform_matrix_sampling_matches_per_world_sampler() {
        let g = bridge_graph();
        let uniforms = crn_uniform_matrix(30, g.num_edges(), &mut StdRng::seed_from_u64(13));
        let ens = WorldEnsemble::from_uniform_matrix(&g, &uniforms);
        for w in 0..30 {
            let world = chameleon_ugraph::WorldSampler::sample_with_uniforms(&g, uniforms.row(w));
            assert_eq!(ens.world(w), world.as_world_ref());
        }
    }

    #[test]
    fn crn_uniform_matrix_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        let u = crn_uniform_matrix(3, 5, &mut rng);
        assert_eq!(u.num_worlds(), 3);
        assert_eq!(u.stride(), 5);
        for w in 0..3 {
            assert_eq!(u.row(w).len(), 5);
            assert!(u.row(w).iter().all(|&x| (0.0..1.0).contains(&x)));
        }
    }

    #[test]
    fn higher_bridge_probability_increases_cross_reliability() {
        let mut g = bridge_graph();
        let mut rng = StdRng::seed_from_u64(8);
        let uniforms = crn_uniform_matrix(2000, g.num_edges(), &mut rng);
        let low = WorldEnsemble::from_uniform_matrix(&g, &uniforms);
        let bridge = g.find_edge(2, 3).unwrap();
        g.set_prob(bridge, 0.95).unwrap();
        let high = WorldEnsemble::from_uniform_matrix(&g, &uniforms);
        assert!(high.two_terminal_reliability(0, 5) > low.two_terminal_reliability(0, 5));
    }

    #[test]
    fn edgeless_graph_ensemble() {
        let g = UncertainGraph::with_nodes(3);
        let ens = WorldEnsemble::sample_seeded(&g, WORLD_CHUNK + 5, 1, 2);
        assert_eq!(ens.len(), WORLD_CHUNK + 5);
        assert_eq!(ens.two_terminal_reliability(0, 2), 0.0);
        assert_eq!(ens.labels(0), &[0, 1, 2]);
        assert_eq!(ens.component_sizes(0), &[1, 1, 1]);
    }
}
