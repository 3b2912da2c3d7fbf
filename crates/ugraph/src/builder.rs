//! Convenience builder for assembling graphs from edge streams that may
//! contain duplicates (e.g. raw dataset files listing both `(u,v)` and
//! `(v,u)`).

use crate::error::GraphError;
use crate::graph::{NodeId, UncertainGraph};
use std::collections::HashMap;

/// Policy for resolving duplicate edge records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupPolicy {
    /// Keep the first probability seen.
    #[default]
    KeepFirst,
    /// Keep the last probability seen.
    KeepLast,
    /// Keep the maximum probability.
    KeepMax,
    /// Combine as independent evidence: `1 − Π (1 − p_i)`.
    NoisyOr,
    /// Treat duplicates as an error.
    Reject,
}

/// Accumulates edges then produces a validated [`UncertainGraph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    policy: DedupPolicy,
    edges: HashMap<(NodeId, NodeId), f64>,
    order: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` nodes and the default
    /// ([`DedupPolicy::KeepFirst`]) duplicate policy.
    pub fn new(n: usize) -> Self {
        Self {
            num_nodes: n,
            policy: DedupPolicy::default(),
            edges: HashMap::new(),
            order: Vec::new(),
        }
    }

    /// Sets the duplicate-resolution policy.
    pub(crate) fn dedup_policy(mut self, policy: DedupPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Grows the node count if `n` exceeds the current one.
    pub(crate) fn ensure_nodes(&mut self, n: usize) {
        self.num_nodes = self.num_nodes.max(n);
    }

    /// Records an edge observation.
    ///
    /// # Errors
    /// Fails on self-loops, invalid probabilities, or duplicates under
    /// [`DedupPolicy::Reject`]. Node ids beyond the current count enlarge
    /// the graph.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, p: f64) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
            return Err(GraphError::InvalidProbability(p));
        }
        // Endpoint u32::MAX would need u32::MAX + 1 nodes, one past the
        // dense-u32 id space [`UncertainGraph`] enforces.
        if u.max(v) == u32::MAX {
            return Err(GraphError::CapacityExceeded {
                what: "nodes",
                limit: u32::MAX as u64,
            });
        }
        self.ensure_nodes(u.max(v) as usize + 1);
        let key = if u < v { (u, v) } else { (v, u) };
        match self.edges.entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(p);
                self.order.push(key);
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => match self.policy {
                DedupPolicy::KeepFirst => {}
                DedupPolicy::KeepLast => {
                    *slot.get_mut() = p;
                }
                DedupPolicy::KeepMax => {
                    let cur = *slot.get();
                    *slot.get_mut() = cur.max(p);
                }
                DedupPolicy::NoisyOr => {
                    let cur = *slot.get();
                    *slot.get_mut() = 1.0 - (1.0 - cur) * (1.0 - p);
                }
                DedupPolicy::Reject => {
                    return Err(GraphError::DuplicateEdge(key.0, key.1));
                }
            },
        }
        Ok(())
    }

    /// Number of distinct edges recorded so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes into an [`UncertainGraph`]; edges appear in first-seen
    /// order, making builds reproducible.
    pub fn build(self) -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(self.num_nodes);
        for key in &self.order {
            let p = self.edges[key];
            g.add_edge(key.0, key.1, p)
                .expect("builder enforces validity");
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_build() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(4, 2, 0.25).unwrap();
        let g = b.build();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(2, 4));
    }

    #[test]
    fn keep_first_policy() {
        let mut b = GraphBuilder::new(3).dedup_policy(DedupPolicy::KeepFirst);
        b.add_edge(0, 1, 0.3).unwrap();
        b.add_edge(1, 0, 0.9).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!((g.prob(0) - 0.3).abs() < 1e-15);
    }

    #[test]
    fn keep_last_policy() {
        let mut b = GraphBuilder::new(3).dedup_policy(DedupPolicy::KeepLast);
        b.add_edge(0, 1, 0.3).unwrap();
        b.add_edge(1, 0, 0.9).unwrap();
        assert!((b.build().prob(0) - 0.9).abs() < 1e-15);
    }

    #[test]
    fn keep_max_policy() {
        let mut b = GraphBuilder::new(3).dedup_policy(DedupPolicy::KeepMax);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(1, 0, 0.3).unwrap();
        assert!((b.build().prob(0) - 0.9).abs() < 1e-15);
    }

    #[test]
    fn noisy_or_policy() {
        let mut b = GraphBuilder::new(3).dedup_policy(DedupPolicy::NoisyOr);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 0, 0.5).unwrap();
        assert!((b.build().prob(0) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn reject_policy() {
        let mut b = GraphBuilder::new(3).dedup_policy(DedupPolicy::Reject);
        b.add_edge(0, 1, 0.5).unwrap();
        assert_eq!(b.add_edge(1, 0, 0.5), Err(GraphError::DuplicateEdge(0, 1)));
    }

    #[test]
    fn rejects_invalid_input() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(1, 1, 0.5),
            Err(GraphError::SelfLoop(1))
        ));
        assert!(matches!(
            b.add_edge(0, 1, 7.0),
            Err(GraphError::InvalidProbability(_))
        ));
    }

    #[test]
    fn deterministic_edge_order() {
        let mut b1 = GraphBuilder::new(5);
        let mut b2 = GraphBuilder::new(5);
        for (u, v) in [(0, 1), (3, 2), (1, 4)] {
            b1.add_edge(u, v, 0.5).unwrap();
            b2.add_edge(u, v, 0.5).unwrap();
        }
        let g1 = b1.build();
        let g2 = b2.build();
        assert_eq!(g1.edges().len(), g2.edges().len());
        for (a, b) in g1.edges().iter().zip(g2.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
        }
    }

    #[test]
    fn endpoint_at_id_space_limit_rejected() {
        let mut b = GraphBuilder::new(0);
        assert!(matches!(
            b.add_edge(u32::MAX, 0, 0.5),
            Err(GraphError::CapacityExceeded { what: "nodes", .. })
        ));
        // One below the limit is fine structurally (id space still fits).
        assert!(b.add_edge(u32::MAX - 1, 0, 0.5).is_ok());
        assert_eq!(b.num_edges(), 1);
    }

    #[test]
    fn ensure_nodes_grows_only() {
        let mut b = GraphBuilder::new(10);
        b.ensure_nodes(5);
        assert_eq!(b.build().num_nodes(), 10);
    }
}
