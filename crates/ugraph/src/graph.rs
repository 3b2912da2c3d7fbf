//! The [`UncertainGraph`] structure.

use crate::error::GraphError;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

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
/// the [`EdgeId`]); adjacency lists store `(neighbor, edge_id)` pairs; a hash
/// map over normalized endpoint pairs supports O(1) membership queries and
/// rejects duplicate edges on insertion.
#[derive(Debug, Clone, Default)]
pub struct UncertainGraph {
    edges: Vec<Edge>,
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    index: HashMap<(NodeId, NodeId), EdgeId>,
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
            index: HashMap::new(),
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
        self.index.get(&normalize(u, v)).copied()
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
        let key = normalize(u, v);
        // One hash per call: the entry both detects a duplicate and holds
        // the slot the new id goes into.
        let slot = match self.index.entry(key) {
            Entry::Occupied(_) => return Err(GraphError::DuplicateEdge(key.0, key.1)),
            Entry::Vacant(slot) => slot,
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
        slot.insert(id);
        self.edges.push(Edge {
            u: key.0,
            v: key.1,
            p,
        });
        self.adj[u as usize].push((v, id));
        self.adj[v as usize].push((u, id));
        Ok(id)
    }

    /// This graph with the `appended` edges `(u, v, p)` added after its
    /// own: a copy whose every adjacency list, edge array and endpoint
    /// index is sized for the result at once, followed by one
    /// [`UncertainGraph::add_edge`] per pair in order. It equals a clone
    /// plus those `add_edge` calls field for field, without regrowing a
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
        // A clone copies the table as it is, without re-hashing its keys.
        let mut index = self.index.clone();
        index.reserve(appended.len());
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

#[cfg(test)]
mod tests {
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

    fn assert_same_fields(a: &UncertainGraph, b: &UncertainGraph) {
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.adj, b.adj);
        assert_eq!(a.index, b.index);
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
