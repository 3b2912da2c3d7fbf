//! Arena storage for possible-world ensembles.
//!
//! [`WorldMatrix`] packs N sampled worlds into one contiguous `Vec<u64>`
//! (N × ceil(m/64) words) instead of N separately allocated bitsets, and
//! [`SamplePlan`] precomputes everything that is constant across draws of
//! the same graph: a template row with the deterministic (p ≥ 1) edges
//! already set, plus the ascending list of uncertain (0 < p < 1) edges —
//! the only ones that consume a uniform variate.
//!
//! The plan's draw sequence is *identical* to
//! [`WorldSampler::sample`](crate::sample::WorldSampler::sample), which
//! skips deterministic edges and calls `rng.gen::<f64>()` once per
//! uncertain edge in ascending edge order. That makes arena-sampled
//! ensembles bit-identical to the historical per-`World` path for any RNG
//! stream.

use crate::graph::UncertainGraph;
use crate::world::WorldRef;
use rand::Rng;

/// A dense ensemble of possible worlds: `num_worlds` rows of
/// `words_per_world = ceil(num_edges / 64)` little-endian bit words in one
/// contiguous allocation.
///
/// Invariant: bits at positions `>= num_edges` within each row are always
/// clear, so word-level scans (`!word` walks over absent edges) only need a
/// tail mask at the final word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldMatrix {
    words: Vec<u64>,
    words_per_world: usize,
    num_worlds: usize,
    num_edges: usize,
}

impl WorldMatrix {
    /// An empty matrix (zero worlds) over `num_edges` edge slots.
    pub fn new(num_edges: usize) -> Self {
        Self {
            words: Vec::new(),
            words_per_world: num_edges.div_ceil(64),
            num_worlds: 0,
            num_edges,
        }
    }

    /// A matrix of `num_worlds` all-absent worlds.
    pub fn zeroed(num_worlds: usize, num_edges: usize) -> Self {
        let words_per_world = num_edges.div_ceil(64);
        Self {
            words: vec![0; num_worlds * words_per_world],
            words_per_world,
            num_worlds,
            num_edges,
        }
    }

    /// Number of worlds (rows).
    pub fn num_worlds(&self) -> usize {
        self.num_worlds
    }

    /// True when the matrix holds no worlds.
    pub fn is_empty(&self) -> bool {
        self.num_worlds == 0
    }

    /// Number of edge slots per world.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Words per row.
    pub fn words_per_world(&self) -> usize {
        self.words_per_world
    }

    /// Size of the backing word arena in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// The words of row `w`.
    ///
    /// # Panics
    /// Panics if `w >= num_worlds`.
    #[inline]
    pub fn row(&self, w: usize) -> &[u64] {
        assert!(w < self.num_worlds, "world {w} out of {}", self.num_worlds);
        &self.words[w * self.words_per_world..(w + 1) * self.words_per_world]
    }

    /// Mutable words of row `w`.
    ///
    /// # Panics
    /// Panics if `w >= num_worlds`.
    #[inline]
    pub fn row_mut(&mut self, w: usize) -> &mut [u64] {
        assert!(w < self.num_worlds, "world {w} out of {}", self.num_worlds);
        &mut self.words[w * self.words_per_world..(w + 1) * self.words_per_world]
    }

    /// Row `w` as a borrowed world.
    #[inline]
    pub fn world(&self, w: usize) -> WorldRef<'_> {
        WorldRef::from_words(self.row(w), self.num_edges)
    }

    /// Appends pre-built rows (a multiple of `words_per_world` words).
    ///
    /// # Panics
    /// Panics if `words.len()` is not a whole number of rows. For an
    /// edgeless graph (`words_per_world == 0`) rows carry no words, so use
    /// [`WorldMatrix::grow`] instead.
    pub fn extend_from_words(&mut self, words: &[u64]) {
        assert!(
            self.words_per_world > 0,
            "edgeless rows carry no words; use grow()"
        );
        assert_eq!(
            words.len() % self.words_per_world,
            0,
            "partial row: {} words, {} per world",
            words.len(),
            self.words_per_world
        );
        self.num_worlds += words.len() / self.words_per_world;
        self.words.extend_from_slice(words);
    }

    /// Appends `n` all-absent worlds.
    pub fn grow(&mut self, n: usize) {
        self.num_worlds += n;
        self.words.resize(self.num_worlds * self.words_per_world, 0);
    }

    /// Reserves room for `n` more worlds.
    pub fn reserve(&mut self, n: usize) {
        self.words.reserve(n * self.words_per_world);
    }
}

/// Precomputed sampling plan for one uncertain graph: deterministic-edge
/// template plus the ascending uncertain-edge list (see module docs for the
/// draw-order contract).
#[derive(Debug, Clone)]
pub struct SamplePlan {
    template: Vec<u64>,
    /// `(edge_id, p)` for edges with `0 < p < 1`, ascending by id.
    uncertain: Vec<(u32, f64)>,
    num_edges: usize,
    words_per_world: usize,
}

impl SamplePlan {
    /// Builds the plan for `graph`.
    pub fn new(graph: &UncertainGraph) -> Self {
        let num_edges = graph.num_edges();
        let words_per_world = num_edges.div_ceil(64);
        let mut template = vec![0u64; words_per_world];
        let mut uncertain = Vec::new();
        for (i, edge) in graph.edges().iter().enumerate() {
            if edge.p >= 1.0 {
                template[i / 64] |= 1u64 << (i % 64);
            } else if edge.p > 0.0 {
                uncertain.push((i as u32, edge.p));
            }
        }
        Self {
            template,
            uncertain,
            num_edges,
            words_per_world,
        }
    }

    /// Number of edge slots per sampled world.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Words per sampled row.
    pub fn words_per_world(&self) -> usize {
        self.words_per_world
    }

    /// Samples one world into `row`: copies the deterministic template,
    /// then draws `rng.gen::<f64>() < p` for each uncertain edge ascending
    /// — the exact call sequence of `WorldSampler::sample`.
    ///
    /// # Panics
    /// Panics if `row.len() != words_per_world`.
    pub fn sample_into<R: Rng + ?Sized>(&self, row: &mut [u64], rng: &mut R) {
        assert_eq!(row.len(), self.words_per_world, "row width mismatch");
        row.copy_from_slice(&self.template);
        for &(e, p) in &self.uncertain {
            if rng.gen::<f64>() < p {
                row[e as usize / 64] |= 1u64 << (e % 64);
            }
        }
    }

    /// Samples `n` worlds into a fresh matrix (one allocation).
    pub fn sample_matrix<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> WorldMatrix {
        let mut m = WorldMatrix::zeroed(n, self.num_edges);
        for w in 0..n {
            self.sample_into(m.row_mut(w), rng);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::WorldSampler;
    use crate::world::World;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_graph() -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(6);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 0.0).unwrap();
        g.add_edge(2, 3, 0.5).unwrap();
        g.add_edge(3, 4, 1.0).unwrap();
        g.add_edge(4, 5, 0.25).unwrap();
        g
    }

    fn row_equals_world(row: &[u64], world: &World) -> bool {
        WorldRef::from_words(row, world.num_edge_slots()) == world.as_world_ref()
    }

    #[test]
    fn plan_draws_match_sampler_draw_for_draw() {
        let g = mixed_graph();
        let plan = SamplePlan::new(&g);
        // One shared RNG across many sequential draws: any extra or missing
        // gen::<f64>() call would desynchronize all subsequent worlds.
        let mut rng_old = StdRng::seed_from_u64(99);
        let mut rng_new = StdRng::seed_from_u64(99);
        let mut row = vec![0u64; plan.words_per_world()];
        for _ in 0..200 {
            let world = WorldSampler::sample(&g, &mut rng_old);
            plan.sample_into(&mut row, &mut rng_new);
            assert!(row_equals_world(&row, &world));
        }
    }

    #[test]
    fn sample_matrix_matches_sample_many() {
        let g = mixed_graph();
        let plan = SamplePlan::new(&g);
        let worlds = WorldSampler::sample_many(&g, 37, &mut StdRng::seed_from_u64(5));
        let matrix = plan.sample_matrix(37, &mut StdRng::seed_from_u64(5));
        assert_eq!(matrix.num_worlds(), 37);
        for (w, world) in worlds.iter().enumerate() {
            assert_eq!(matrix.world(w), world.as_world_ref());
        }
    }

    #[test]
    fn matrix_roundtrip_and_accessors() {
        let mut m = WorldMatrix::new(130);
        assert!(m.is_empty());
        assert_eq!(m.words_per_world(), 3);
        m.grow(2);
        m.row_mut(1)[2] = 0b10; // edge 129
        assert!(m.world(1).contains(129));
        assert!(!m.world(0).contains(129));
        assert_eq!(m.arena_bytes(), 2 * 3 * 8);
        let rows: Vec<u64> = m.row(0).iter().chain(m.row(1)).copied().collect();
        let mut m2 = WorldMatrix::new(130);
        m2.reserve(2);
        m2.extend_from_words(&rows);
        assert_eq!(m, m2);
    }

    #[test]
    fn edgeless_graph_matrix() {
        let g = UncertainGraph::with_nodes(4);
        let plan = SamplePlan::new(&g);
        let m = plan.sample_matrix(8, &mut StdRng::seed_from_u64(0));
        assert_eq!(m.num_worlds(), 8);
        assert_eq!(m.words_per_world(), 0);
        assert_eq!(m.world(7).num_present(), 0);
        assert_eq!(m.arena_bytes(), 0);
    }

    #[test]
    #[should_panic]
    fn extend_partial_row_panics() {
        let mut m = WorldMatrix::new(100);
        m.extend_from_words(&[0u64; 3]); // 2 words per world
    }

    #[test]
    #[should_panic]
    fn row_out_of_range_panics() {
        let m = WorldMatrix::zeroed(2, 10);
        let _ = m.row(2);
    }

    proptest! {
        #[test]
        fn plan_equivalent_to_sampler_on_random_graphs(
            edges in proptest::collection::vec((0u32..12, 0u32..12, 0.0f64..=1.0), 0..40),
            seed in any::<u64>(),
        ) {
            let mut g = UncertainGraph::with_nodes(12);
            for (u, v, p) in edges {
                let _ = g.add_edge(u, v, p);
            }
            let plan = SamplePlan::new(&g);
            let worlds = WorldSampler::sample_many(&g, 5, &mut StdRng::seed_from_u64(seed));
            let matrix = plan.sample_matrix(5, &mut StdRng::seed_from_u64(seed));
            for (w, world) in worlds.iter().enumerate() {
                prop_assert_eq!(matrix.world(w), world.as_world_ref());
            }
            // Tail bits stay clear.
            if matrix.words_per_world() > 0 {
                let m_edges = g.num_edges();
                let tail = matrix.row(0)[matrix.words_per_world() - 1];
                if !m_edges.is_multiple_of(64) {
                    prop_assert_eq!(tail >> (m_edges % 64), 0);
                }
            }
        }
    }
}
