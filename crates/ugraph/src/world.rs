//! Sampled possible worlds and world-restricted graph views.

use crate::bitset::BitSet;
use crate::graph::{EdgeId, NodeId, UncertainGraph};
use crate::union_find::UnionFind;

/// A possible world of an uncertain graph: one bit per edge, set when the
/// edge is present in this world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct World {
    present: BitSet,
}

impl World {
    /// An all-absent world over `num_edges` edges.
    pub fn empty(num_edges: usize) -> Self {
        Self {
            present: BitSet::new(num_edges),
        }
    }

    /// Builds a world from an explicit bitset.
    pub(crate) fn from_bitset(present: BitSet) -> Self {
        Self { present }
    }

    /// Number of edge slots (present or not).
    pub(crate) fn num_edge_slots(&self) -> usize {
        self.present.len()
    }

    /// True when edge `e` exists in this world.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        self.present.get(e as usize)
    }

    /// Marks edge `e` present/absent.
    pub fn set(&mut self, e: EdgeId, present: bool) {
        self.present.set(e as usize, present);
    }

    /// Iterator over the ids of present edges.
    pub(crate) fn present_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.present.iter_ones().map(|i| i as EdgeId)
    }

    /// Connected components of the world under `graph`'s topology, as a
    /// populated union-find.
    ///
    /// # Panics
    /// Panics if this world's edge-slot count disagrees with the graph's.
    pub fn components(&self, graph: &UncertainGraph) -> UnionFind {
        assert_eq!(
            self.num_edge_slots(),
            graph.num_edges(),
            "world/graph edge-count mismatch"
        );
        let mut uf = UnionFind::new(graph.num_nodes());
        for e in self.present_edges() {
            let edge = graph.edge(e);
            uf.union(edge.u, edge.v);
        }
        uf
    }

    /// Number of connected vertex pairs in this world (the `cc(G)` statistic
    /// of paper Algorithm 2).
    pub fn connected_pairs(&self, graph: &UncertainGraph) -> u64 {
        self.components(graph).connected_pairs()
    }

    /// A borrowed word-level view of this world.
    pub fn as_world_ref(&self) -> WorldRef<'_> {
        WorldRef {
            words: self.present.words(),
            len: self.present.len(),
        }
    }
}

/// A borrowed possible world: one bit per edge over a `u64` word slice.
///
/// This is the common currency between [`World`] (one owned bitset per
/// world) and the arena-backed `WorldMatrix` (all worlds in one contiguous
/// allocation): both lend out `WorldRef`s, so downstream metrics written
/// against [`WorldView`] work with either storage. Bits at positions
/// `>= num_edge_slots()` are always clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldRef<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> WorldRef<'a> {
    /// Wraps an explicit word slice of `len` bits.
    ///
    /// # Panics
    /// Panics if `words` is not exactly `ceil(len / 64)` words long.
    pub(crate) fn from_words(words: &'a [u64], len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "word slice length disagrees with bit length {len}"
        );
        Self { words, len }
    }

    /// Number of edge slots (present or not).
    pub(crate) fn num_edge_slots(&self) -> usize {
        self.len
    }

    /// True when edge `e` exists in this world.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        let i = e as usize;
        assert!(i < self.len, "edge index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of edges present.
    pub(crate) fn num_present(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing `u64` words, least-significant bit first.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Unions the endpoints of every present edge into `uf`, in ascending
    /// edge order, using SoA endpoint arrays (`us[e]`, `vs[e]`). Returns
    /// the number of present edges.
    ///
    /// # Panics
    /// Panics if the endpoint arrays are shorter than the edge-slot count.
    pub fn union_into(&self, us: &[u32], vs: &[u32], uf: &mut UnionFind) -> usize {
        assert!(us.len() >= self.len && vs.len() >= self.len);
        let mut present = 0usize;
        let (mut wi, mut w) = (0usize, 0u64);
        uf.union_all(std::iter::from_fn(|| {
            while w == 0 {
                w = *self.words.get(wi)?;
                wi += 1;
            }
            let e = (wi - 1) * 64 + w.trailing_zeros() as usize;
            w &= w - 1;
            present += 1;
            Some((us[e], vs[e]))
        }));
        present
    }
}

impl<'a> From<&'a World> for WorldRef<'a> {
    fn from(world: &'a World) -> Self {
        world.as_world_ref()
    }
}

/// A zero-copy adjacency view of `graph` restricted to the edges present in
/// `world` — the deterministic instance on which per-world metrics (BFS
/// distances, triangles, …) are computed.
#[derive(Debug, Clone, Copy)]
pub struct WorldView<'a> {
    graph: &'a UncertainGraph,
    world: WorldRef<'a>,
}

impl<'a> WorldView<'a> {
    /// Creates the view from an owned [`World`] reference or a [`WorldRef`].
    ///
    /// # Panics
    /// Panics if world and graph disagree on edge count.
    pub fn new(graph: &'a UncertainGraph, world: impl Into<WorldRef<'a>>) -> Self {
        let world = world.into();
        assert_eq!(
            world.num_edge_slots(),
            graph.num_edges(),
            "world/graph edge-count mismatch"
        );
        Self { graph, world }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of edges present in the world.
    pub fn num_edges(&self) -> usize {
        self.world.num_present()
    }

    /// The underlying uncertain graph.
    pub fn graph(&self) -> &'a UncertainGraph {
        self.graph
    }

    /// The underlying world.
    pub fn world(&self) -> WorldRef<'a> {
        self.world
    }

    /// Neighbors of `v` in this world.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        let world = self.world;
        self.graph
            .neighbors(v)
            .iter()
            .filter(move |&&(_, e)| world.contains(e))
            .map(|&(n, _)| n)
    }

    /// Degree of `v` in this world.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).count()
    }

    /// True when `(u, v)` is an edge present in this world.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.graph
            .find_edge(u, v)
            .map(|e| self.world.contains(e))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> UncertainGraph {
        // 0 - 1 - 2 - 3, all probability 0.5
        let mut g = UncertainGraph::with_nodes(4);
        g.add_edge(0, 1, 0.5).unwrap();
        g.add_edge(1, 2, 0.5).unwrap();
        g.add_edge(2, 3, 0.5).unwrap();
        g
    }

    #[test]
    fn empty_world_has_no_edges() {
        let g = path_graph();
        let w = World::empty(g.num_edges());
        assert_eq!(w.present_edges().count(), 0);
        assert_eq!(w.connected_pairs(&g), 0);
        let view = WorldView::new(&g, &w);
        assert_eq!(view.num_edges(), 0);
        assert_eq!(view.degree(1), 0);
    }

    #[test]
    fn full_world_matches_structure() {
        let g = path_graph();
        let mut w = World::empty(g.num_edges());
        for e in 0..g.num_edges() as u32 {
            w.set(e, true);
        }
        assert_eq!(w.present_edges().count(), 3);
        assert_eq!(w.connected_pairs(&g), 6); // C(4,2)
        let view = WorldView::new(&g, &w);
        assert_eq!(view.degree(1), 2);
        assert!(view.has_edge(0, 1));
        assert!(!view.has_edge(0, 3));
        let nbrs: Vec<NodeId> = view.neighbors(2).collect();
        assert_eq!(nbrs, vec![1, 3]);
    }

    #[test]
    fn partial_world_components() {
        let g = path_graph();
        let mut w = World::empty(g.num_edges());
        w.set(0, true); // only 0-1
        let mut uf = w.components(&g);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(1, 2));
        assert_eq!(uf.num_components(), 3);
        assert_eq!(w.connected_pairs(&g), 1);
    }

    #[test]
    fn present_edges_iterator() {
        let g = path_graph();
        let mut w = World::empty(g.num_edges());
        w.set(0, true);
        w.set(2, true);
        let ids: Vec<EdgeId> = w.present_edges().collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn set_and_unset() {
        let mut w = World::empty(5);
        w.set(3, true);
        assert!(w.contains(3));
        w.set(3, false);
        assert!(!w.contains(3));
    }

    #[test]
    #[should_panic]
    fn mismatched_world_panics() {
        let g = path_graph();
        let w = World::empty(99);
        let _ = WorldView::new(&g, &w);
    }

    #[test]
    fn world_ref_matches_world() {
        let mut w = World::empty(130);
        for e in [0u32, 63, 64, 129] {
            w.set(e, true);
        }
        let r = w.as_world_ref();
        assert_eq!(r.num_edge_slots(), 130);
        assert_eq!(r.num_present(), w.present_edges().count());
        assert!(r.contains(64) && !r.contains(65));
        assert_eq!(r.words(), WorldRef::from(&w).words());
        assert_eq!(WorldRef::from_words(r.words(), 130), r);
    }

    #[test]
    fn world_ref_union_into_matches_components() {
        let g = path_graph();
        let mut w = World::empty(g.num_edges());
        w.set(0, true);
        w.set(2, true);
        let (us, vs) = g.endpoint_soa();
        let mut uf = UnionFind::new(g.num_nodes());
        let present = w.as_world_ref().union_into(&us, &vs, &mut uf);
        assert_eq!(present, 2);
        let mut expect = w.components(&g);
        for a in 0..g.num_nodes() as u32 {
            for b in 0..g.num_nodes() as u32 {
                assert_eq!(uf.connected(a, b), expect.connected(a, b));
            }
        }
    }

    #[test]
    #[should_panic]
    fn world_ref_from_words_length_mismatch_panics() {
        let words = [0u64; 1];
        let _ = WorldRef::from_words(&words, 65);
    }

    #[test]
    fn world_view_accessors() {
        let g = path_graph();
        let w = World::empty(g.num_edges());
        let view = WorldView::new(&g, &w);
        assert_eq!(view.num_nodes(), 4);
        assert_eq!(view.graph().num_edges(), 3);
        assert_eq!(view.world().num_present(), 0);
    }
}
