//! The [`UncertainGraph`] structure.

use crate::error::GraphError;
use index::{EndpointIndex, Probe};

mod index;

#[cfg(test)]
pub(crate) use index::probe_count;

/// Node identifier: a dense index in `0..num_nodes`.
pub type NodeId = u32;

/// Edge identifier: a dense index in `0..num_edges`.
pub type EdgeId = u32;

/// An undirected uncertain edge `(u, v)` with existence probability `p`.
///
/// Invariant: `u < v` (endpoints are normalized at insertion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// Existence probability in `[0, 1]`.
    pub p: f64,
}

/// An undirected uncertain graph `G = (V, E, p)` without self-loops or
/// multi-edges (paper §III-A).
///
/// Nodes are dense `u32` indices. Edges live in a flat array (their index is
/// the [`EdgeId`]); adjacency lists store `(neighbor, edge_id)` pairs; an
/// open-addressing table of edge ids over normalized endpoint pairs, whose
/// keys are read back from the edge array, supports O(1) membership queries
/// and rejects duplicate edges on insertion.
#[derive(Debug, Clone, Default)]
pub struct UncertainGraph {
    edges: Vec<Edge>,
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    index: EndpointIndex,
}

impl UncertainGraph {
    /// Creates a graph with `n` isolated nodes.
    ///
    /// # Panics
    /// Panics if `n > u32::MAX`: node ids are dense `u32` indices, and a
    /// count beyond that would silently wrap every downstream
    /// `num_nodes() as u32` cast (the anonymity sweep iterates
    /// `0..n as u32`).
    pub fn with_nodes(n: usize) -> Self {
        assert!(
            n <= u32::MAX as usize,
            "node count {n} exceeds the u32 id space"
        );
        Self {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
            index: EndpointIndex::default(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges (including any with probability 0).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge array.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with index `e`.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e as usize]
    }

    /// Existence probability of edge `e`.
    pub fn prob(&self, e: EdgeId) -> f64 {
        self.edges[e as usize].p
    }

    /// Overwrites the probability of edge `e`.
    ///
    /// # Errors
    /// Fails if `p` is outside `[0, 1]` or `e` is out of range.
    pub fn set_prob(&mut self, e: EdgeId, p: f64) -> Result<(), GraphError> {
        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
            return Err(GraphError::InvalidProbability(p));
        }
        let idx = e as usize;
        if idx >= self.edges.len() {
            return Err(GraphError::EdgeOutOfRange {
                edge: idx,
                num_edges: self.edges.len(),
            });
        }
        self.edges[idx].p = p;
        Ok(())
    }

    /// Looks up the edge between `u` and `v`.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (u, v) = normalize(u, v);
        match self.index.probe(&self.edges, u, v) {
            Probe::Found(id) => Some(id),
            Probe::Vacant { .. } => None,
        }
    }

    /// True when `(u, v)` is an edge of the graph.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Inserts the edge `(u, v)` with probability `p` and returns its id.
    ///
    /// # Errors
    /// Fails on out-of-range endpoints, self-loops, duplicate edges, or an
    /// invalid probability.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, p: f64) -> Result<EdgeId, GraphError> {
        let n = self.adj.len() as u32;
        for w in [u, v] {
            if w >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: w,
                    num_nodes: n,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
            return Err(GraphError::InvalidProbability(p));
        }
        let (a, b) = normalize(u, v);
        match self.find_or_append_unlinked(a, b, p)? {
            (id, true) => {
                self.adj[u as usize].push((v, id));
                self.adj[v as usize].push((u, id));
                Ok(id)
            }
            (_, false) => Err(GraphError::DuplicateEdge(a, b)),
        }
    }

    /// The edge `(u, v)`, `u < v`, if the graph has it; otherwise a new
    /// edge `(u, v, p)` appended to the edge array and the index, but not
    /// to the adjacency lists, which [`UncertainGraph::link_adjacency`]
    /// builds. One probe both finds a duplicate and names the slot a new
    /// id goes into. Returns the id and whether it is new.
    ///
    /// # Errors
    /// Fails when the edge is new and the edge array already holds
    /// `u32::MAX` edges.
    pub(crate) fn find_or_append_unlinked(
        &mut self,
        u: NodeId,
        v: NodeId,
        p: f64,
    ) -> Result<(EdgeId, bool), GraphError> {
        debug_assert!(u < v, "pair ({u}, {v}) is not normalized");
        let vacant = match self.index.probe(&self.edges, u, v) {
            Probe::Found(id) => return Ok((id, false)),
            Probe::Vacant { slot, tag } => (slot, tag),
        };
        // Edge ids are dense u32 indices; past this point `len as EdgeId`
        // would wrap and corrupt the adjacency/index invariants.
        if self.edges.len() >= u32::MAX as usize {
            return Err(GraphError::CapacityExceeded {
                what: "edges",
                limit: u32::MAX as u64,
            });
        }
        let id = self.edges.len() as EdgeId;
        self.index.insert(&self.edges, u, v, id, vacant);
        self.edges.push(Edge { u, v, p });
        Ok((id, true))
    }

    /// Replaces the adjacency with `n` lists, each sized exactly, that
    /// link every edge in id order, as `add_edge` would have linked them.
    ///
    /// # Panics
    /// Panics if an endpoint is not below `n`.
    pub(crate) fn link_adjacency(&mut self, n: usize) {
        let mut degree = vec![0usize; n];
        for e in &self.edges {
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }
        self.adj = degree.into_iter().map(Vec::with_capacity).collect();
        for (id, e) in self.edges.iter().enumerate() {
            self.adj[e.u as usize].push((e.v, id as EdgeId));
            self.adj[e.v as usize].push((e.u, id as EdgeId));
        }
    }

    /// Bytes this graph holds on the heap: the edge array and the
    /// adjacency lists by capacity, and the endpoint index.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.edges.capacity() * size_of::<Edge>()
            + self.adj.capacity() * size_of::<Vec<(NodeId, EdgeId)>>()
            + (self.adj.iter())
                .map(|list| list.capacity() * size_of::<(NodeId, EdgeId)>())
                .sum::<usize>()
            + self.index.heap_bytes()
    }

    /// This graph with the `appended` edges `(u, v, p)` added after its
    /// own: a copy whose every adjacency list, edge array and endpoint
    /// index is sized for the result at once, followed by one
    /// [`UncertainGraph::add_edge`] per pair in order. It equals a clone
    /// plus those `add_edge` calls (the same edges, adjacency and
    /// lookups; the index's slot layout may differ), without regrowing a
    /// buffer.
    ///
    /// # Errors
    /// The error `add_edge` gives for the first pair it would reject:
    /// out-of-range endpoints, a self-loop, an invalid probability, an
    /// edge already in the graph or earlier in `appended`, or too many
    /// edges.
    pub fn with_edges_appended(
        &self,
        appended: &[(NodeId, NodeId, f64)],
    ) -> Result<UncertainGraph, GraphError> {
        let n = self.adj.len();
        let mut extra = vec![0usize; n];
        for &(u, v, _) in appended {
            // Out-of-range endpoints are left for `add_edge` to reject.
            for w in [u as usize, v as usize].into_iter().filter(|&w| w < n) {
                extra[w] += 1;
            }
        }
        let total = self.edges.len() + appended.len();
        let mut edges = Vec::with_capacity(total);
        edges.extend_from_slice(&self.edges);
        let index = self.index.clone_with_room(&self.edges, appended.len());
        let adj = (self.adj.iter().zip(extra))
            .map(|(own, extra)| {
                let mut list = Vec::with_capacity(own.len() + extra);
                list.extend_from_slice(own);
                list
            })
            .collect();
        let mut out = Self { edges, adj, index };
        for &(u, v, p) in appended {
            out.add_edge(u, v, p)?;
        }
        Ok(out)
    }

    /// Neighbors of `v` as `(neighbor, edge_id)` pairs (includes edges whose
    /// current probability is 0).
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[v as usize]
    }

    /// Structural degree of `v`: number of incident edges regardless of
    /// probability.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v as usize].len()
    }

    /// Expected degree of `v`: `Σ_{e ∋ v} p(e)`.
    pub fn expected_degree(&self, v: NodeId) -> f64 {
        self.adj[v as usize]
            .iter()
            .map(|&(_, e)| self.edges[e as usize].p)
            .sum()
    }

    /// Expected degrees of all nodes.
    pub fn expected_degrees(&self) -> Vec<f64> {
        (0..self.num_nodes() as u32)
            .map(|v| self.expected_degree(v))
            .collect()
    }

    /// Incident edge probabilities of `v`, in adjacency order — the
    /// Bernoulli parameters of `v`'s degree distribution.
    pub fn incident_probs(&self, v: NodeId) -> Vec<f64> {
        self.adj[v as usize]
            .iter()
            .map(|&(_, e)| self.edges[e as usize].p)
            .collect()
    }

    /// Total probability mass `Σ_e p(e)` (= expected number of edges).
    pub(crate) fn total_prob_mass(&self) -> f64 {
        self.edges.iter().map(|e| e.p).sum()
    }

    /// Expected average degree `2·Σ p(e) / |V|` — the one metric with a
    /// closed form (paper §VI-A "Computation").
    pub fn expected_average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.total_prob_mass() / self.num_nodes() as f64
        }
    }

    /// Edge endpoints in structure-of-arrays form: `(us, vs)` with
    /// `us[e] < vs[e]`, indexed by [`EdgeId`]. The flat Monte-Carlo kernels
    /// scan these instead of the `Edge` array so the probability field does
    /// not pollute cache lines during word-level bitset walks.
    pub fn endpoint_soa(&self) -> (Vec<u32>, Vec<u32>) {
        let mut us = Vec::with_capacity(self.edges.len());
        let mut vs = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            us.push(e.u);
            vs.push(e.v);
        }
        (us, vs)
    }

    /// Mean edge probability (0 for an edgeless graph) — the "Edge Prob"
    /// column of paper Table I.
    pub fn mean_edge_prob(&self) -> f64 {
        if self.edges.is_empty() {
            0.0
        } else {
            self.total_prob_mass() / self.edges.len() as f64
        }
    }
}

#[inline]
fn normalize(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Key sets that defeat an unkeyed multiplicative hash, and bounds on how
/// long the endpoint index's probes may run on them, shared by the graph,
/// builder and io tests.
#[cfg(test)]
pub(crate) mod hostile {
    use super::{probe_count, NodeId};

    /// Key sets that defeat an unkeyed multiplicative hash, at scale `k`:
    /// each as its normalized pairs and as pairs of the same shape that it
    /// lacks.
    pub(crate) fn hostile_shapes(k: u32) -> Vec<HostileShape> {
        let pairs = |f: &dyn Fn(u32) -> (NodeId, NodeId), len: u32| (0..len).map(f).collect();
        let multiples = |lo: u32, hi: u32| {
            (lo..hi)
                .flat_map(|a| (a + 1..hi).map(move |b| (a << 16, b << 16)))
                .collect()
        };
        vec![
            HostileShape {
                name: "every endpoint a multiple of 2^16",
                present: multiples(0, k),
                absent: multiples(k, 2 * k),
            },
            HostileShape {
                name: "complete bipartite block",
                present: pairs(&|i| (i / k, k + i % k), k * k),
                absent: pairs(&|i| (i / k, k + k + i % k), k * k),
            },
            HostileShape {
                name: "star",
                present: pairs(&|i| (0, i + 1), k * k),
                absent: pairs(&|i| (i + 1, i + 2), k * k),
            },
            HostileShape {
                name: "path",
                present: pairs(&|i| (i, i + 1), k * k),
                absent: pairs(&|i| (i, i + 2), k * k),
            },
        ]
    }

    /// One hostile key set.
    pub(crate) struct HostileShape {
        pub(crate) name: &'static str,
        pub(crate) present: Vec<(NodeId, NodeId)>,
        pub(crate) absent: Vec<(NodeId, NodeId)>,
    }

    impl HostileShape {
        /// Nodes a graph needs to hold the shape's present pairs.
        pub(crate) fn nodes(&self) -> usize {
            self.present
                .iter()
                .map(|&(_, v)| v as usize + 1)
                .max()
                .unwrap_or(0)
        }
    }

    /// Bounds on the probes of `take()`'s last window: at most `mean`
    /// slots a probe on average and `longest` in one.
    pub(crate) fn assert_probes(what: &str, ops: usize, mean: f64, longest: u64) {
        let (probes, slots, max) = probe_count::take();
        assert_eq!(probes, ops as u64, "{what}: probes counted");
        let avg = slots as f64 / probes.max(1) as f64;
        assert!(avg <= mean, "{what}: {avg:.2} slots a probe");
        assert!(max <= longest, "{what}: a probe visited {max} slots");
    }

    /// Mean and longest probe bounds for inserts, hits and misses. With a
    /// well-spread hash, linear probing at load α visits ½(1 + 1/(1−α))
    /// slots a hit and ½(1 + 1/(1−α)²) a miss, which an insert is: at most
    /// 4.5 and 32.5 at 7/8, and about 7.6 a miss averaged over a table's
    /// growth from 7/16 to 7/8. The longest runs are long at 7/8: 65,536
    /// random keys inserted into a table that ends at 2^17 slots met runs
    /// of 400 to 600 slots. Keys piled into a few probe runs average
    /// thousands.
    pub(crate) const INSERT_BOUND: (f64, u64) = (12.0, 2048);
    pub(crate) const HIT_BOUND: (f64, u64) = (6.0, 256);
    pub(crate) const MISS_BOUND: (f64, u64) = (40.0, 2048);
}

#[cfg(test)]
mod tests {
    use super::hostile::*;
    use super::*;
    use proptest::prelude::*;

    fn triangle() -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(3);
        g.add_edge(0, 1, 0.5).unwrap();
        g.add_edge(1, 2, 0.25).unwrap();
        g.add_edge(2, 0, 1.0).unwrap();
        g
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 id space")]
    fn node_count_beyond_u32_panics() {
        // The guard fires before the adjacency vector is allocated, so
        // this is cheap despite the huge request.
        let _ = UncertainGraph::with_nodes(u32::MAX as usize + 1);
    }

    #[test]
    fn construction_basics() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert!((g.expected_degree(0) - 1.5).abs() < 1e-12);
        assert!((g.total_prob_mass() - 1.75).abs() < 1e-12);
        assert!((g.expected_average_degree() - 3.5 / 3.0).abs() < 1e-12);
        assert!((g.mean_edge_prob() - 1.75 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn endpoints_normalized() {
        let mut g = UncertainGraph::with_nodes(4);
        let e = g.add_edge(3, 1, 0.7).unwrap();
        let edge = g.edge(e);
        assert_eq!((edge.u, edge.v), (1, 3));
        assert_eq!(g.find_edge(1, 3), Some(e));
        assert_eq!(g.find_edge(3, 1), Some(e));
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = UncertainGraph::with_nodes(2);
        assert_eq!(g.add_edge(1, 1, 0.5), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn rejects_duplicate() {
        let mut g = UncertainGraph::with_nodes(3);
        g.add_edge(0, 1, 0.5).unwrap();
        assert_eq!(g.add_edge(1, 0, 0.9), Err(GraphError::DuplicateEdge(0, 1)));
    }

    #[test]
    fn rejects_bad_probability() {
        let mut g = UncertainGraph::with_nodes(3);
        assert!(matches!(
            g.add_edge(0, 1, -0.1),
            Err(GraphError::InvalidProbability(_))
        ));
        assert!(matches!(
            g.add_edge(0, 1, f64::NAN),
            Err(GraphError::InvalidProbability(_))
        ));
        let e = g.add_edge(0, 1, 0.5).unwrap();
        assert!(matches!(
            g.set_prob(e, 2.0),
            Err(GraphError::InvalidProbability(_))
        ));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = UncertainGraph::with_nodes(2);
        assert!(matches!(
            g.add_edge(0, 5, 0.5),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
        assert!(matches!(
            g.set_prob(0, 0.5),
            Err(GraphError::EdgeOutOfRange { .. })
        ));
    }

    #[test]
    fn set_prob_updates_expectations() {
        let mut g = triangle();
        let e = g.find_edge(0, 1).unwrap();
        g.set_prob(e, 1.0).unwrap();
        assert!((g.expected_degree(0) - 2.0).abs() < 1e-12);
        assert!((g.prob(e) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn neighbors_and_incident_probs() {
        let g = triangle();
        let nbrs: Vec<NodeId> = g.neighbors(1).iter().map(|&(n, _)| n).collect();
        assert_eq!(nbrs, vec![0, 2]);
        let probs = g.incident_probs(1);
        assert_eq!(probs, vec![0.5, 0.25]);
    }

    #[test]
    fn empty_graph_degenerate_metrics() {
        let g = UncertainGraph::with_nodes(0);
        assert_eq!(g.expected_average_degree(), 0.0);
        assert_eq!(g.mean_edge_prob(), 0.0);
        assert!(g.expected_degrees().is_empty());
    }

    #[test]
    fn endpoint_soa_matches_edges() {
        let g = triangle();
        let (us, vs) = g.endpoint_soa();
        assert_eq!(us.len(), g.num_edges());
        assert_eq!(vs.len(), g.num_edges());
        for e in 0..g.num_edges() {
            let edge = g.edge(e as EdgeId);
            assert_eq!((us[e], vs[e]), (edge.u, edge.v));
            assert!(us[e] < vs[e]);
        }
    }

    #[test]
    fn expected_degrees_vector() {
        let g = triangle();
        let d = g.expected_degrees();
        assert_eq!(d.len(), 3);
        assert!((d[0] - 1.5).abs() < 1e-12);
        assert!((d[1] - 0.75).abs() < 1e-12);
        assert!((d[2] - 1.25).abs() < 1e-12);
        // Handshake: sum of expected degrees = 2 × mass.
        assert!((d.iter().sum::<f64>() - 2.0 * g.total_prob_mass()).abs() < 1e-12);
    }

    /// Both ways of adding `appended` to `g`: a clone plus `add_edge` per
    /// pair, stopping at the first error, and the one-pass build.
    fn append_both_ways(
        g: &UncertainGraph,
        appended: &[(NodeId, NodeId, f64)],
    ) -> (
        Result<UncertainGraph, GraphError>,
        Result<UncertainGraph, GraphError>,
    ) {
        let mut by_add = g.clone();
        let by_add = appended
            .iter()
            .try_for_each(|&(u, v, p)| by_add.add_edge(u, v, p).map(|_| ()))
            .map(|()| by_add);
        (by_add, g.with_edges_appended(appended))
    }

    /// Equal edges and adjacency, and indexes that answer alike: their
    /// slot layouts may differ (a table grown by `add_edge` against one
    /// sized once), so the indexes are compared by lookups. Every edge is
    /// found from both endpoint orders, sampled non-edges are absent, and
    /// both index every edge.
    fn assert_same_fields(a: &UncertainGraph, b: &UncertainGraph) {
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.adj, b.adj);
        assert_eq!(a.index.len(), a.edges.len());
        assert_eq!(b.index.len(), b.edges.len());
        for (id, e) in a.edges.iter().enumerate() {
            for g in [a, b] {
                assert_eq!(g.find_edge(e.u, e.v), Some(id as EdgeId));
                assert_eq!(g.find_edge(e.v, e.u), Some(id as EdgeId));
            }
        }
        let n = a.num_nodes() as NodeId;
        for u in 0..n.min(64) {
            for v in (u + 1..n).step_by(7) {
                let absent = a.find_edge(u, v).is_none();
                assert_eq!(absent, !a.adj[u as usize].iter().any(|&(w, _)| w == v));
                assert_eq!(absent, b.find_edge(u, v).is_none());
            }
        }
    }

    #[test]
    fn appending_matches_add_edge_and_its_errors() {
        let g = triangle();
        let mut g4 = UncertainGraph::with_nodes(5);
        g4.add_edge(3, 1, 0.5).unwrap();
        for (graph, appended, err) in [
            (&g, vec![], None),
            (&g4, vec![(4, 0, 0.25), (2, 3, 1.0), (0, 2, 0.0)], None),
            (
                &g4,
                vec![(0, 9, 0.5)],
                Some(GraphError::NodeOutOfRange {
                    node: 9,
                    num_nodes: 5,
                }),
            ),
            (
                &g4,
                vec![(7, 9, 0.5)],
                Some(GraphError::NodeOutOfRange {
                    node: 7,
                    num_nodes: 5,
                }),
            ),
            (
                &g4,
                vec![(0, 2, 0.5), (2, 2, 0.5)],
                Some(GraphError::SelfLoop(2)),
            ),
            (
                &g4,
                vec![(0, 2, 1.5)],
                Some(GraphError::InvalidProbability(1.5)),
            ),
            (
                &g4,
                vec![(1, 3, 0.5)],
                Some(GraphError::DuplicateEdge(1, 3)),
            ),
            (
                &g4,
                vec![(4, 0, 0.5), (0, 4, 0.5)],
                Some(GraphError::DuplicateEdge(0, 4)),
            ),
        ] {
            let (by_add, by_append) = append_both_ways(graph, &appended);
            match err {
                None => {
                    let by_append = by_append.unwrap();
                    assert_same_fields(&by_add.unwrap(), &by_append);
                    // Every adjacency list was sized once, exactly.
                    assert!(by_append.adj.iter().all(|l| l.capacity() == l.len()));
                    assert_eq!(by_append.edges.capacity(), by_append.edges.len());
                }
                Some(err) => {
                    assert_eq!(by_add.unwrap_err(), err);
                    assert_eq!(by_append.unwrap_err(), err);
                }
            }
        }
    }

    #[test]
    fn hostile_keys_probe_briefly() {
        for shape in hostile_shapes(256) {
            // No adjacency: the multiples of 2^16 reach node 2^24.
            let mut g = UncertainGraph::with_nodes(0);
            probe_count::take();
            for &(u, v) in &shape.present {
                assert!(g.find_or_append_unlinked(u, v, 0.5).unwrap().1);
            }
            let (mean, longest) = INSERT_BOUND;
            assert_probes(shape.name, shape.present.len(), mean, longest);
            for (id, &(u, v)) in shape.present.iter().enumerate() {
                assert_eq!(g.find_edge(v, u), Some(id as EdgeId), "{}", shape.name);
            }
            let (mean, longest) = HIT_BOUND;
            assert_probes(shape.name, shape.present.len(), mean, longest);
            for &(u, v) in &shape.absent {
                assert_eq!(g.find_edge(u, v), None, "{}", shape.name);
            }
            let (mean, longest) = MISS_BOUND;
            assert_probes(shape.name, shape.absent.len(), mean, longest);
        }
    }

    #[test]
    fn hostile_keys_append_like_add_edge() {
        // The multiples of 2^16 would need 4·10^6 adjacency lists a graph
        // here; the builder and io tests build them at a smaller scale.
        for shape in hostile_shapes(64).into_iter().skip(1) {
            let g = UncertainGraph::with_nodes(shape.nodes());
            let all: Vec<_> = (shape.present.iter()).map(|&(u, v)| (v, u, 0.5)).collect();
            let (by_add, by_append) = append_both_ways(&g, &all);
            assert_same_fields(&by_add.unwrap(), &by_append.unwrap());
            let (head, tail) = all.split_at(all.len() / 3);
            let (g, _) = append_both_ways(&g, head);
            let (by_add, by_append) = append_both_ways(&g.unwrap(), tail);
            let by_add = by_add.unwrap();
            assert_same_fields(&by_add, &by_append.unwrap());
            // Every duplicate is rejected, from either endpoint order.
            for &(u, v, _) in all.iter().step_by(97) {
                let mut g = by_add.clone();
                let (a, b) = normalize(u, v);
                assert_eq!(g.add_edge(u, v, 0.5), Err(GraphError::DuplicateEdge(a, b)));
                assert_eq!(g.add_edge(v, u, 0.5), Err(GraphError::DuplicateEdge(a, b)));
            }
        }
    }

    #[test]
    fn index_holds_at_most_12_bytes_an_edge_at_every_size() {
        let mut g = UncertainGraph::with_nodes(0);
        let (mut bytes, mut growths) = (0, 0);
        for i in 0..(1 << 17) {
            g.find_or_append_unlinked(i, i + 1, 0.5).unwrap();
            // Checked at every size; the bound is closest right after a
            // growth, when 7/16 of the slots are used.
            growths += usize::from(g.index.heap_bytes() != bytes);
            bytes = g.index.heap_bytes();
            assert!(bytes <= 12 * g.num_edges(), "{bytes} B for {} edges", i + 1);
        }
        assert_eq!(growths, 18, "2, 4, …, 2^18 slots");
        assert_eq!(g.heap_bytes(), g.edges.capacity() * 16 + bytes);
    }

    proptest! {
        #[test]
        fn handshake_lemma_expected(
            edges in proptest::collection::vec((0u32..20, 0u32..20, 0.0f64..=1.0), 0..60)
        ) {
            let mut g = UncertainGraph::with_nodes(20);
            for (u, v, p) in edges {
                let _ = g.add_edge(u, v, p); // dups/self-loops rejected
            }
            let sum: f64 = g.expected_degrees().iter().sum();
            prop_assert!((sum - 2.0 * g.total_prob_mass()).abs() < 1e-9);
        }

        #[test]
        fn find_edge_consistent_with_adjacency(
            edges in proptest::collection::vec((0u32..15, 0u32..15, 0.0f64..=1.0), 0..40)
        ) {
            let mut g = UncertainGraph::with_nodes(15);
            for (u, v, p) in edges {
                let _ = g.add_edge(u, v, p);
            }
            for v in 0..15u32 {
                for &(nbr, e) in g.neighbors(v) {
                    prop_assert_eq!(g.find_edge(v, nbr), Some(e));
                    let edge = g.edge(e);
                    prop_assert!(edge.u == v || edge.v == v);
                }
            }
        }
    }
}
