//! Node-separation metrics (paper Fig. 10 and the second metric group of
//! §VI-A): average distance and graph diameter, as expectations over
//! possible worlds of per-world BFS statistics.

use crate::ensemble::WorldEnsemble;
use chameleon_stats::Summary;
use chameleon_ugraph::traversal::distance_stats;
use chameleon_ugraph::{NodeId, UncertainGraph, WorldView};
use rand::seq::SliceRandom;
use rand::Rng;

/// Expected distance statistics over an ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpectedDistances {
    /// Mean over worlds of the per-world average finite distance.
    pub avg_distance: f64,
    /// Mean over worlds of the per-world maximum observed distance (a
    /// BFS-source-limited diameter estimate; exact per world when all nodes
    /// are sources).
    pub diameter: f64,
    /// Mean number of reachable (ordered) pairs per world observed from the
    /// BFS sources.
    pub avg_reachable_pairs: f64,
    /// Number of worlds evaluated.
    pub worlds: usize,
    /// Number of BFS sources per world.
    pub sources: usize,
}

/// Estimates expected average distance / diameter via BFS from
/// `num_sources` nodes (sampled once, shared across worlds) in each of the
/// ensemble's worlds. With `num_sources >= |V|`, per-world statistics are
/// exact.
pub fn expected_distances<R: Rng + ?Sized>(
    graph: &UncertainGraph,
    ensemble: &WorldEnsemble,
    num_sources: usize,
    rng: &mut R,
) -> ExpectedDistances {
    let n = graph.num_nodes();
    let mut sources: Vec<NodeId> = (0..n as u32).collect();
    if num_sources < n {
        sources.shuffle(rng);
        sources.truncate(num_sources);
    }
    let mut avg = Summary::new();
    let mut diam = Summary::new();
    let mut reach = Summary::new();
    for w in 0..ensemble.len() {
        let view = WorldView::new(graph, ensemble.world(w));
        let stats = distance_stats(&view, &sources);
        if stats.reachable_pairs > 0 {
            avg.push(stats.mean_distance);
            diam.push(stats.max_distance as f64);
        }
        reach.push(stats.reachable_pairs as f64);
    }
    ExpectedDistances {
        avg_distance: avg.mean(),
        diameter: diam.mean(),
        avg_reachable_pairs: reach.mean(),
        worlds: ensemble.len(),
        sources: sources.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path(n: usize, p: f64) -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(n);
        for v in 0..(n - 1) as u32 {
            g.add_edge(v, v + 1, p).unwrap();
        }
        g
    }

    #[test]
    fn deterministic_path_exact() {
        let g = path(4, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let ens = WorldEnsemble::sample(&g, 5, &mut rng);
        let d = expected_distances(&g, &ens, 10, &mut rng);
        assert!((d.avg_distance - 20.0 / 12.0).abs() < 1e-12);
        assert!((d.diameter - 3.0).abs() < 1e-12);
        assert_eq!(d.sources, 4);
        assert_eq!(d.worlds, 5);
        assert!((d.avg_reachable_pairs - 12.0).abs() < 1e-12);
    }

    #[test]
    fn lower_probability_shrinks_reachability() {
        let g_hi = path(8, 0.9);
        let g_lo = path(8, 0.3);
        let mut rng = StdRng::seed_from_u64(1);
        let e_hi = WorldEnsemble::sample(&g_hi, 300, &mut rng);
        let e_lo = WorldEnsemble::sample(&g_lo, 300, &mut rng);
        let d_hi = expected_distances(&g_hi, &e_hi, 8, &mut rng);
        let d_lo = expected_distances(&g_lo, &e_lo, 8, &mut rng);
        assert!(d_hi.avg_reachable_pairs > d_lo.avg_reachable_pairs);
        assert!(d_hi.diameter > d_lo.diameter);
    }

    #[test]
    fn source_subsampling_runs() {
        let g = path(20, 0.8);
        let mut rng = StdRng::seed_from_u64(2);
        let ens = WorldEnsemble::sample(&g, 50, &mut rng);
        let d = expected_distances(&g, &ens, 5, &mut rng);
        assert_eq!(d.sources, 5);
        assert!(d.avg_distance > 0.0);
    }

    #[test]
    fn empty_worlds_yield_zero() {
        let g = path(4, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let ens = WorldEnsemble::sample(&g, 10, &mut rng);
        let d = expected_distances(&g, &ens, 4, &mut rng);
        assert_eq!(d.avg_distance, 0.0);
        assert_eq!(d.diameter, 0.0);
        assert_eq!(d.avg_reachable_pairs, 0.0);
    }

    #[test]
    fn distance_estimate_is_reproducible() {
        let g = path(10, 0.6);
        let build = || {
            let mut rng = StdRng::seed_from_u64(4);
            let ens = WorldEnsemble::sample(&g, 100, &mut rng);
            expected_distances(&g, &ens, 6, &mut rng)
        };
        assert_eq!(build(), build());
    }
}
