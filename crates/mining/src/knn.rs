//! Reliability-based k-nearest neighbors (after Potamias et al., VLDB
//! 2010 — the paper's ref [30]).
//!
//! The "distance" from a source `s` to a node `v` in an uncertain graph is
//! taken to be the (negated) two-terminal reliability `R_{s,v}`: the most
//! reliable nodes are the nearest. Queries run off a shared
//! [`WorldEnsemble`], so a batch of kNN queries costs one sampling pass.

use chameleon_reliability::WorldEnsemble;
use chameleon_ugraph::NodeId;

/// One kNN answer: a neighbor and its estimated reliability from the
/// query source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The neighbor node.
    pub node: NodeId,
    /// Estimated two-terminal reliability from the query source.
    pub reliability: f64,
}

/// Returns the `k` nodes most reliably connected to `source`, descending
/// by reliability; ties break by node id for determinism. The source
/// itself is excluded. Nodes with zero estimated reliability are omitted,
/// so fewer than `k` answers may be returned on fragmented graphs.
///
/// # Panics
/// Panics if `source` is out of range for the ensemble's node count.
pub fn reliability_knn(ensemble: &WorldEnsemble, source: NodeId, k: usize) -> Vec<Neighbor> {
    let n = ensemble.num_nodes();
    assert!((source as usize) < n, "source {source} out of range");
    if k == 0 || ensemble.is_empty() {
        return Vec::new();
    }
    // One pass over the label cache: count co-membership per node.
    let mut hits = vec![0u32; n];
    for w in 0..ensemble.len() {
        let labels = ensemble.labels(w);
        let ls = labels[source as usize];
        for (v, &l) in labels.iter().enumerate() {
            if l == ls {
                hits[v] += 1;
            }
        }
    }
    let total = ensemble.len() as f64;
    let mut scored: Vec<Neighbor> = hits
        .iter()
        .enumerate()
        .filter(|&(v, &h)| v as NodeId != source && h > 0)
        .map(|(v, &h)| Neighbor {
            node: v as NodeId,
            reliability: h as f64 / total,
        })
        .collect();
    scored.sort_by(|a, b| {
        b.reliability
            .partial_cmp(&a.reliability)
            .unwrap()
            .then(a.node.cmp(&b.node))
    });
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_ugraph::UncertainGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_with_strong_and_weak() -> UncertainGraph {
        // 0 -0.95- 1 -0.95- 2   and   0 -0.2- 3
        let mut g = UncertainGraph::with_nodes(5);
        g.add_edge(0, 1, 0.95).unwrap();
        g.add_edge(1, 2, 0.95).unwrap();
        g.add_edge(0, 3, 0.2).unwrap();
        g
    }

    #[test]
    fn orders_by_reliability() {
        let g = chain_with_strong_and_weak();
        let mut rng = StdRng::seed_from_u64(0);
        let ens = WorldEnsemble::sample(&g, 3000, &mut rng);
        let knn = reliability_knn(&ens, 0, 3);
        assert_eq!(knn.len(), 3);
        assert_eq!(knn[0].node, 1); // R ≈ 0.95
        assert_eq!(knn[1].node, 2); // R ≈ 0.90
        assert_eq!(knn[2].node, 3); // R ≈ 0.20
        assert!(knn[0].reliability > knn[1].reliability);
        assert!(knn[1].reliability > knn[2].reliability);
        assert!((knn[0].reliability - 0.95).abs() < 0.03);
        assert!((knn[1].reliability - 0.9025).abs() < 0.03);
    }

    #[test]
    fn excludes_source_and_unreachable() {
        let g = chain_with_strong_and_weak(); // node 4 isolated
        let mut rng = StdRng::seed_from_u64(1);
        let ens = WorldEnsemble::sample(&g, 500, &mut rng);
        let knn = reliability_knn(&ens, 0, 10);
        assert!(knn.iter().all(|nb| nb.node != 0));
        assert!(knn.iter().all(|nb| nb.node != 4));
        assert_eq!(knn.len(), 3);
    }

    #[test]
    fn k_zero_and_empty_ensemble() {
        let g = chain_with_strong_and_weak();
        let mut rng = StdRng::seed_from_u64(2);
        let ens = WorldEnsemble::sample(&g, 50, &mut rng);
        assert!(reliability_knn(&ens, 0, 0).is_empty());
        let empty = WorldEnsemble::sample_seeded(&g, 0, 0, 1);
        assert!(reliability_knn(&empty, 0, 5).is_empty());
    }

    #[test]
    fn matches_pairwise_reliability_queries() {
        let g = chain_with_strong_and_weak();
        let mut rng = StdRng::seed_from_u64(3);
        let ens = WorldEnsemble::sample(&g, 1000, &mut rng);
        let knn = reliability_knn(&ens, 2, 4);
        for nb in &knn {
            let direct = ens.two_terminal_reliability(2, nb.node);
            assert!((nb.reliability - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_tie_break() {
        // Symmetric star: all leaves have identical reliability from the
        // center; ordering must be by node id.
        let mut g = UncertainGraph::with_nodes(4);
        for v in 1..4u32 {
            g.add_edge(0, v, 1.0).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(4);
        let ens = WorldEnsemble::sample(&g, 50, &mut rng);
        let knn = reliability_knn(&ens, 0, 3);
        let ids: Vec<NodeId> = knn.iter().map(|nb| nb.node).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_source_panics() {
        let g = chain_with_strong_and_weak();
        let ens = WorldEnsemble::sample_seeded(&g, 0, 0, 1);
        let _ = reliability_knn(&ens, 99, 1);
    }
}
