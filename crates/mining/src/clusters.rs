//! Reliable-cluster detection (protein-complex style, after the paper's
//! refs [4] and [38]).
//!
//! A *reliable cluster* is a maximal set of nodes that stay mutually
//! connected in at least a `threshold` fraction of possible worlds. We
//! compute them by thresholding per-world co-membership: build the graph
//! whose edges are node pairs with estimated pairwise reliability ≥
//! `threshold` — restricted to the support edges of the uncertain graph to
//! stay O(N·|E|) — and take its connected components. This is the standard
//! sampled-reliability clustering used for protein-complex detection on
//! probabilistic PPI networks.

use chameleon_reliability::WorldEnsemble;
use chameleon_ugraph::{NodeId, UncertainGraph, UnionFind};

/// Clusters of nodes pairwise-reliably connected at the given threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSet {
    /// Clusters with ≥ `min_size` members, each sorted ascending; the list
    /// is sorted by (size desc, first member asc) for determinism.
    pub clusters: Vec<Vec<NodeId>>,
    /// The reliability threshold used.
    pub threshold: f64,
}

impl ClusterSet {
    /// Number of clusters found.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when no cluster met the size bar.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }
}

/// Detects reliable clusters: edges of the *support graph* whose endpoint
/// reliability is at least `threshold` are kept, and connected components
/// of the kept graph with at least `min_size` nodes are reported.
///
/// # Panics
/// Panics if `threshold` is outside `[0, 1]` or the ensemble does not
/// match the graph's node count.
pub fn reliable_clusters(
    graph: &UncertainGraph,
    ensemble: &WorldEnsemble,
    threshold: f64,
    min_size: usize,
) -> ClusterSet {
    assert!((0.0..=1.0).contains(&threshold), "invalid threshold");
    assert_eq!(
        graph.num_nodes(),
        ensemble.num_nodes(),
        "graph/ensemble mismatch"
    );
    let n = graph.num_nodes();
    let n_worlds = ensemble.len();
    let mut uf = UnionFind::new(n);
    if n_worlds > 0 {
        // Count co-membership per support edge in one pass.
        let mut hits = vec![0u32; graph.num_edges()];
        for w in 0..n_worlds {
            let labels = ensemble.labels(w);
            for (idx, e) in graph.edges().iter().enumerate() {
                if labels[e.u as usize] == labels[e.v as usize] {
                    hits[idx] += 1;
                }
            }
        }
        for (idx, e) in graph.edges().iter().enumerate() {
            if hits[idx] as f64 / n_worlds as f64 >= threshold {
                uf.union(e.u, e.v);
            }
        }
    }
    let labels = uf.component_labels();
    let num = uf.num_components();
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num];
    for v in 0..n as u32 {
        members[labels[v as usize] as usize].push(v);
    }
    let mut clusters: Vec<Vec<NodeId>> = members
        .into_iter()
        .filter(|c| c.len() >= min_size.max(1))
        .collect();
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
    ClusterSet {
        clusters,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two strong triangles joined by a weak bridge.
    fn dumbbell() -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(7);
        for &(u, v) in &[(0, 1), (1, 2), (0, 2)] {
            g.add_edge(u, v, 0.95).unwrap();
        }
        for &(u, v) in &[(3, 4), (4, 5), (3, 5)] {
            g.add_edge(u, v, 0.95).unwrap();
        }
        g.add_edge(2, 3, 0.15).unwrap(); // weak bridge; node 6 isolated
        g
    }

    #[test]
    fn high_threshold_separates_weakly_bridged_clusters() {
        let g = dumbbell();
        let mut rng = StdRng::seed_from_u64(0);
        let ens = WorldEnsemble::sample(&g, 2000, &mut rng);
        let cs = reliable_clusters(&g, &ens, 0.8, 2);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs.clusters[0], vec![0, 1, 2]);
        assert_eq!(cs.clusters[1], vec![3, 4, 5]);
    }

    #[test]
    fn low_threshold_merges_via_bridge() {
        let g = dumbbell();
        let mut rng = StdRng::seed_from_u64(1);
        let ens = WorldEnsemble::sample(&g, 2000, &mut rng);
        let cs = reliable_clusters(&g, &ens, 0.05, 2);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.clusters[0], vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn min_size_filters_singletons() {
        let g = dumbbell();
        let mut rng = StdRng::seed_from_u64(2);
        let ens = WorldEnsemble::sample(&g, 500, &mut rng);
        let cs = reliable_clusters(&g, &ens, 0.8, 1);
        // Singletons included at min_size = 1: node 6 and both triangles.
        assert!(cs.clusters.iter().any(|c| c == &vec![6]));
        let cs2 = reliable_clusters(&g, &ens, 0.8, 4);
        assert!(cs2.is_empty());
    }

    #[test]
    fn threshold_one_requires_certain_connection() {
        let mut g = UncertainGraph::with_nodes(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(2, 3, 0.99).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let ens = WorldEnsemble::sample(&g, 800, &mut rng);
        let cs = reliable_clusters(&g, &ens, 1.0, 2);
        // 0-1 is certain; 2-3 will miss in ~8 of 800 worlds.
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.clusters[0], vec![0, 1]);
    }

    #[test]
    fn empty_ensemble_yields_singletons_only() {
        let g = dumbbell();
        let ens = WorldEnsemble::sample_seeded(&g, 0, 0, 1);
        let cs = reliable_clusters(&g, &ens, 0.5, 2);
        assert!(cs.is_empty());
    }

    #[test]
    #[should_panic]
    fn invalid_threshold_panics() {
        let g = dumbbell();
        let ens = WorldEnsemble::sample_seeded(&g, 0, 0, 1);
        let _ = reliable_clusters(&g, &ens, 1.5, 2);
    }

    #[test]
    fn deterministic_output_order() {
        let g = dumbbell();
        let mut rng = StdRng::seed_from_u64(4);
        let ens = WorldEnsemble::sample(&g, 300, &mut rng);
        let a = reliable_clusters(&g, &ens, 0.5, 2);
        let b = reliable_clusters(&g, &ens, 0.5, 2);
        assert_eq!(a, b);
    }
}
