//! Convenience builder for assembling graphs from edge streams that may
//! contain duplicates (e.g. raw dataset files listing both `(u,v)` and
//! `(v,u)`).

use crate::error::GraphError;
use crate::graph::{NodeId, UncertainGraph};

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
///
/// Records go straight into the graph being built, whose endpoint index
/// finds a duplicate with the same probe that would place a new edge;
/// the adjacency lists are linked once, by [`GraphBuilder::build`], since
/// the node count may still grow until then.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    policy: DedupPolicy,
    graph: UncertainGraph,
}

impl GraphBuilder {
    /// A builder for a graph with `n` nodes and the default
    /// ([`DedupPolicy::KeepFirst`]) duplicate policy.
    pub fn new(n: usize) -> Self {
        Self {
            num_nodes: n,
            policy: DedupPolicy::default(),
            graph: UncertainGraph::with_nodes(0),
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
    /// Fails on self-loops, invalid probabilities, duplicates under
    /// [`DedupPolicy::Reject`], or a new edge beyond the `u32` edge id
    /// space. Node ids beyond the current count enlarge the graph.
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
        let (u, v) = if u < v { (u, v) } else { (v, u) };
        let (e, new) = self.graph.find_or_append_unlinked(u, v, p)?;
        if new {
            return Ok(());
        }
        // A duplicate: fold `p` into the edge's probability, in record
        // order.
        let cur = self.graph.prob(e);
        let p = match self.policy {
            DedupPolicy::KeepFirst => return Ok(()),
            DedupPolicy::KeepLast => p,
            DedupPolicy::KeepMax => cur.max(p),
            DedupPolicy::NoisyOr => 1.0 - (1.0 - cur) * (1.0 - p),
            DedupPolicy::Reject => return Err(GraphError::DuplicateEdge(u, v)),
        };
        self.graph.set_prob(e, p)
    }

    /// Number of distinct edges recorded so far.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Finalizes into an [`UncertainGraph`]; edges appear in first-seen
    /// order, making builds reproducible.
    pub fn build(self) -> UncertainGraph {
        let mut g = self.graph;
        g.link_adjacency(self.num_nodes);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::hostile::*;
    use crate::graph::probe_count;

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

    /// Every policy on keys that defeat an unkeyed multiplicative hash:
    /// each edge's first record builds what `add_edge` builds, its
    /// duplicate (the reversed record) folds in as the policy says or,
    /// under `Reject`, is `add_edge`'s error, and probes stay short.
    #[test]
    fn hostile_keys_under_every_policy() {
        let first = |i: usize| (i % 9) as f64 / 8.0;
        let second = |i: usize| (i % 5) as f64 / 4.0;
        for shape in hostile_shapes(16) {
            let mut by_add = UncertainGraph::with_nodes(shape.nodes());
            for (i, &(u, v)) in shape.present.iter().enumerate() {
                by_add.add_edge(v, u, first(i)).unwrap();
            }
            for policy in [
                DedupPolicy::KeepFirst,
                DedupPolicy::KeepLast,
                DedupPolicy::KeepMax,
                DedupPolicy::NoisyOr,
                DedupPolicy::Reject,
            ] {
                let mut b = GraphBuilder::new(0).dedup_policy(policy);
                probe_count::take();
                for (i, &(u, v)) in shape.present.iter().enumerate() {
                    b.add_edge(v, u, first(i)).unwrap();
                }
                let (mean, longest) = INSERT_BOUND;
                assert_probes(shape.name, shape.present.len(), mean, longest);
                let records: Vec<_> = (shape.present.iter().enumerate())
                    .map(|(i, &(u, v))| b.add_edge(u, v, second(i)))
                    .collect();
                let (mean, longest) = HIT_BOUND;
                assert_probes(shape.name, shape.present.len(), mean, longest);
                for (i, (&(u, v), record)) in shape.present.iter().zip(records).enumerate() {
                    if policy == DedupPolicy::Reject {
                        assert_eq!(record, by_add.add_edge(u, v, second(i)).map(|_| ()));
                    } else {
                        record.unwrap();
                    }
                }
                let g = b.build();
                assert_eq!(g.num_nodes(), by_add.num_nodes());
                for (i, (a, b)) in g.edges().iter().zip(by_add.edges()).enumerate() {
                    let (p, q) = (first(i), second(i));
                    let want = match policy {
                        DedupPolicy::KeepFirst | DedupPolicy::Reject => p,
                        DedupPolicy::KeepLast => q,
                        DedupPolicy::KeepMax => p.max(q),
                        DedupPolicy::NoisyOr => 1.0 - (1.0 - p) * (1.0 - q),
                    };
                    assert_eq!((a.u, a.v), (b.u, b.v));
                    assert_eq!(a.p.to_bits(), want.to_bits(), "{policy:?}");
                }
                assert_eq!(g.num_edges(), by_add.num_edges());
                for v in 0..g.num_nodes() as NodeId {
                    assert_eq!(g.neighbors(v), by_add.neighbors(v));
                }
            }
        }
    }

    #[test]
    fn ensure_nodes_grows_only() {
        let mut b = GraphBuilder::new(10);
        b.ensure_nodes(5);
        assert_eq!(b.build().num_nodes(), 10);
    }
}
