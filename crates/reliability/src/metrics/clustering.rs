//! Clustering-coefficient metrics (paper Fig. 11 and the third metric
//! group of §VI-A): the expected global clustering coefficient over
//! possible worlds.

use crate::ensemble::WorldEnsemble;
use chameleon_stats::Summary;
use chameleon_ugraph::traversal::triangles_and_wedges;
use chameleon_ugraph::{UncertainGraph, WorldView};

/// Expected clustering statistics over an ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpectedClustering {
    /// Mean over worlds of the per-world global clustering coefficient
    /// `3·triangles / wedges`.
    pub clustering_coefficient: f64,
    /// Mean triangles per world.
    pub avg_triangles: f64,
    /// Mean wedges (connected triples) per world.
    pub avg_wedges: f64,
    /// Number of worlds evaluated.
    pub worlds: usize,
}

/// Estimates the expected global clustering coefficient by averaging the
/// per-world coefficient (the paper's Monte-Carlo recipe).
pub fn expected_clustering(graph: &UncertainGraph, ensemble: &WorldEnsemble) -> ExpectedClustering {
    let mut cc = Summary::new();
    let mut tri = Summary::new();
    let mut wed = Summary::new();
    for w in 0..ensemble.len() {
        let view = WorldView::new(graph, ensemble.world(w));
        let (t, wd) = triangles_and_wedges(&view);
        tri.push(t as f64);
        wed.push(wd as f64);
        cc.push(if wd == 0 {
            0.0
        } else {
            3.0 * t as f64 / wd as f64
        });
    }
    ExpectedClustering {
        clustering_coefficient: cc.mean(),
        avg_triangles: tri.mean(),
        avg_wedges: wed.mean(),
        worlds: ensemble.len(),
    }
}

/// Exact expected triangle count: `Σ_{triangles (a,b,c)} p(ab)·p(bc)·p(ca)`
/// by linearity of expectation — a cheap closed-form cross-check for the
/// sampled estimate (enumerates structural triangles of the uncertain
/// graph).
pub fn exact_expected_triangles(graph: &UncertainGraph) -> f64 {
    // Build full world view to enumerate structural triangles.
    let mut total = 0.0;
    let n = graph.num_nodes();
    // Sorted neighbor lists with probabilities.
    let mut nbrs: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
    for v in 0..n as u32 {
        let mut l: Vec<(u32, f64)> = graph
            .neighbors(v)
            .iter()
            .map(|&(u, e)| (u, graph.prob(e)))
            .collect();
        l.sort_unstable_by_key(|&(u, _)| u);
        nbrs.push(l);
    }
    for u in 0..n as u32 {
        for &(v, p_uv) in nbrs[u as usize].iter().filter(|&&(v, _)| v > u) {
            // Intersect neighbor lists of u and v for w > v.
            let (lu, lv) = (&nbrs[u as usize], &nbrs[v as usize]);
            let (mut i, mut j) = (0usize, 0usize);
            while i < lu.len() && j < lv.len() {
                match lu[i].0.cmp(&lv[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = lu[i].0;
                        if w > v {
                            total += p_uv * lu[i].1 * lv[j].1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn triangle(p: f64) -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(3);
        g.add_edge(0, 1, p).unwrap();
        g.add_edge(1, 2, p).unwrap();
        g.add_edge(0, 2, p).unwrap();
        g
    }

    #[test]
    fn deterministic_triangle_coefficient_is_one() {
        let g = triangle(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let ens = WorldEnsemble::sample(&g, 20, &mut rng);
        let c = expected_clustering(&g, &ens);
        assert_eq!(c.clustering_coefficient, 1.0);
        assert_eq!(c.avg_triangles, 1.0);
        assert_eq!(c.avg_wedges, 3.0);
        assert_eq!(c.worlds, 20);
    }

    #[test]
    fn exact_expected_triangles_closed_form() {
        let g = triangle(0.5);
        assert!((exact_expected_triangles(&g) - 0.125).abs() < 1e-12);
        let g2 = triangle(1.0);
        assert!((exact_expected_triangles(&g2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_triangles_converge_to_exact() {
        let g = triangle(0.6);
        let mut rng = StdRng::seed_from_u64(1);
        let ens = WorldEnsemble::sample(&g, 6000, &mut rng);
        let c = expected_clustering(&g, &ens);
        let exact = exact_expected_triangles(&g);
        assert!(
            (c.avg_triangles - exact).abs() < 0.03,
            "sampled={}, exact={exact}",
            c.avg_triangles
        );
    }

    #[test]
    fn path_has_zero_clustering() {
        let mut g = UncertainGraph::with_nodes(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let ens = WorldEnsemble::sample(&g, 10, &mut rng);
        let c = expected_clustering(&g, &ens);
        assert_eq!(c.clustering_coefficient, 0.0);
        assert_eq!(exact_expected_triangles(&g), 0.0);
    }

    #[test]
    fn larger_graph_exact_matches_enumeration() {
        // Two triangles sharing edge 1-2 with heterogeneous probabilities.
        let mut g = UncertainGraph::with_nodes(4);
        g.add_edge(0, 1, 0.5).unwrap();
        g.add_edge(1, 2, 0.8).unwrap();
        g.add_edge(0, 2, 0.25).unwrap();
        g.add_edge(1, 3, 0.4).unwrap();
        g.add_edge(2, 3, 0.9).unwrap();
        // triangles: (0,1,2): .5*.8*.25 = .1 ; (1,2,3): .8*.4*.9 = .288
        assert!((exact_expected_triangles(&g) - 0.388).abs() < 1e-12);
    }

    #[test]
    fn empty_ensemble_is_degenerate() {
        let g = triangle(0.5);
        let ens = WorldEnsemble::sample_seeded(&g, 0, 0, 1);
        let c = expected_clustering(&g, &ens);
        assert_eq!(c.clustering_coefficient, 0.0);
        assert_eq!(c.worlds, 0);
    }
}
