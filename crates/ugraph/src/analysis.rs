//! Structural analysis of uncertain graphs: summary statistics used by
//! dataset validation and the experiment harness.

use crate::graph::UncertainGraph;
use crate::union_find::UnionFind;

/// Summary statistics of an uncertain graph, for dataset tables and logs.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Node count.
    pub nodes: usize,
    /// Edge count (support).
    pub edges: usize,
    /// Mean edge probability.
    pub mean_edge_prob: f64,
    /// Expected average degree `2·Σp/|V|`.
    pub expected_avg_degree: f64,
    /// Largest structural degree.
    pub max_degree: usize,
    /// Number of support components (p > 0 edges).
    pub support_components: usize,
    /// Size of the largest support component.
    pub largest_component: usize,
    /// Number of isolated vertices in the support graph.
    pub isolated: usize,
}

impl GraphSummary {
    /// Computes the summary.
    pub fn of(graph: &UncertainGraph) -> Self {
        let n = graph.num_nodes();
        let mut uf = UnionFind::new(n);
        for e in graph.edges() {
            if e.p > 0.0 {
                uf.union(e.u, e.v);
            }
        }
        let mut sizes = Vec::new();
        uf.labels_and_sizes(&mut vec![0u32; n], &mut sizes);
        let largest = sizes.iter().max().map_or(0, |&s| s as usize);
        let isolated = (0..n as u32).filter(|&v| graph.degree(v) == 0).count();
        Self {
            nodes: n,
            edges: graph.num_edges(),
            mean_edge_prob: graph.mean_edge_prob(),
            expected_avg_degree: graph.expected_average_degree(),
            max_degree: (0..n as u32).map(|v| graph.degree(v)).max().unwrap_or(0),
            support_components: uf.num_components(),
            largest_component: largest,
            isolated,
        }
    }
}

impl std::fmt::Display for GraphSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} mean_p={:.3} E[deg]={:.2} max_deg={} components={} \
             largest={} isolated={}",
            self.nodes,
            self.edges,
            self.mean_edge_prob,
            self.expected_avg_degree,
            self.max_degree,
            self.support_components,
            self.largest_component,
            self.isolated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles and an isolated vertex.
    fn two_triangles() -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(7);
        for &(u, v) in &[(0, 1), (1, 2), (0, 2)] {
            g.add_edge(u, v, 0.9).unwrap();
        }
        for &(u, v) in &[(3, 4), (4, 5), (3, 5)] {
            g.add_edge(u, v, 0.2).unwrap();
        }
        g
    }

    #[test]
    fn summary_values() {
        let g = two_triangles();
        let s = GraphSummary::of(&g);
        assert_eq!(s.nodes, 7);
        assert_eq!(s.edges, 6);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.support_components, 3);
        assert_eq!(s.largest_component, 3);
        assert_eq!(s.isolated, 1);
        assert!((s.mean_edge_prob - 0.55).abs() < 1e-12);
        let rendered = format!("{s}");
        assert!(rendered.contains("n=7"));
        assert!(rendered.contains("isolated=1"));
    }

    #[test]
    fn summary_of_empty_graph() {
        let s = GraphSummary::of(&UncertainGraph::with_nodes(0));
        assert_eq!(s.nodes, 0);
        assert_eq!(s.largest_component, 0);
    }
}
