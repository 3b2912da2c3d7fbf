//! BFS traversal over world views: distances, components, reachability.
//!
//! The node-separation metrics of the paper's evaluation (average distance,
//! graph diameter, Fig. 10) are expected values over possible worlds of
//! per-world shortest-path statistics, and those per-world statistics come
//! from the exact BFS routines here.

use crate::graph::NodeId;
use crate::world::WorldView;
use std::collections::VecDeque;

/// Distance value used for unreachable pairs.
pub(crate) const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances in a world; unreachable nodes get
/// [`UNREACHABLE`].
pub(crate) fn bfs_distances(view: &WorldView<'_>, source: NodeId) -> Vec<u32> {
    let n = view.num_nodes();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(x) = queue.pop_front() {
        let dx = dist[x as usize];
        for y in view.neighbors(x) {
            if dist[y as usize] == UNREACHABLE {
                dist[y as usize] = dx + 1;
                queue.push_back(y);
            }
        }
    }
    dist
}

/// Per-world statistics from a set of BFS sources: mean finite distance and
/// eccentricity-based diameter estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceStats {
    /// Mean distance over reachable (source, target ≠ source) pairs.
    pub mean_distance: f64,
    /// Number of reachable pairs observed.
    pub reachable_pairs: u64,
    /// Largest finite distance observed (lower bound on the diameter;
    /// exact when all nodes are used as sources).
    pub max_distance: u32,
}

/// Runs BFS from each source and aggregates distance statistics.
pub fn distance_stats(view: &WorldView<'_>, sources: &[NodeId]) -> DistanceStats {
    let mut sum = 0f64;
    let mut count = 0u64;
    let mut max = 0u32;
    for &s in sources {
        let dist = bfs_distances(view, s);
        for (t, &d) in dist.iter().enumerate() {
            if d != UNREACHABLE && t as u32 != s {
                sum += d as f64;
                count += 1;
                if d > max {
                    max = d;
                }
            }
        }
    }
    DistanceStats {
        mean_distance: if count == 0 { 0.0 } else { sum / count as f64 },
        reachable_pairs: count,
        max_distance: max,
    }
}

/// Counts triangles and connected (wedge) triples in a world; returns
/// `(triangles, wedges)`. The global clustering coefficient is
/// `3·triangles / wedges` (0 when there are no wedges).
///
/// Uses the standard neighbor-intersection method over ordered edges:
/// O(Σ_v deg(v)²) worst case, fine at experiment scales.
pub fn triangles_and_wedges(view: &WorldView<'_>) -> (u64, u64) {
    let n = view.num_nodes();
    let mut neighbor_sets: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    for v in 0..n as u32 {
        let mut nbrs: Vec<NodeId> = view.neighbors(v).collect();
        nbrs.sort_unstable();
        neighbor_sets.push(nbrs);
    }
    let mut triangles = 0u64;
    let mut wedges = 0u64;
    for nbrs in &neighbor_sets {
        let d = nbrs.len() as u64;
        wedges += d * d.saturating_sub(1) / 2;
    }
    // Count each triangle once via ordered triples u < v < w.
    for u in 0..n as u32 {
        let nu = &neighbor_sets[u as usize];
        for &v in nu.iter().filter(|&&v| v > u) {
            let nv = &neighbor_sets[v as usize];
            // Intersect nu ∩ nv restricted to w > v.
            let (mut i, mut j) = (0usize, 0usize);
            while i < nu.len() && j < nv.len() {
                let (a, b) = (nu[i], nv[j]);
                match a.cmp(&b) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if a > v {
                            triangles += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    (triangles, wedges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UncertainGraph;
    use crate::world::World;

    /// All-edges-present world over the given deterministic topology.
    fn full_world(g: &UncertainGraph) -> World {
        let mut w = World::empty(g.num_edges());
        for e in 0..g.num_edges() as u32 {
            w.set(e, true);
        }
        w
    }

    fn path4() -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        g
    }

    #[test]
    fn path_distances() {
        let g = path4();
        let w = full_world(&g);
        let view = WorldView::new(&g, &w);
        assert_eq!(bfs_distances(&view, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn disconnected_distance() {
        let g = path4();
        let mut w = full_world(&g);
        w.set(1, false); // cut 1-2
        let view = WorldView::new(&g, &w);
        let d = bfs_distances(&view, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn distance_stats_path() {
        let g = path4();
        let w = full_world(&g);
        let view = WorldView::new(&g, &w);
        let stats = distance_stats(&view, &[0, 1, 2, 3]);
        // all ordered pairs: distances 1,2,3 (×2 each direction) + 1,2 ...
        // sum over ordered pairs = 2*(1+2+3 + 1+2 + 1) = 20, pairs = 12
        assert_eq!(stats.reachable_pairs, 12);
        assert!((stats.mean_distance - 20.0 / 12.0).abs() < 1e-12);
        assert_eq!(stats.max_distance, 3);
    }

    #[test]
    fn distance_stats_empty_world() {
        let g = path4();
        let w = World::empty(g.num_edges());
        let view = WorldView::new(&g, &w);
        let stats = distance_stats(&view, &[0, 1]);
        assert_eq!(stats.reachable_pairs, 0);
        assert_eq!(stats.mean_distance, 0.0);
    }

    #[test]
    fn triangle_counting() {
        // K4 has 4 triangles, each vertex degree 3 → wedges 4*3 = 12,
        // clustering = 3*4/12 = 1.
        let mut g = UncertainGraph::with_nodes(4);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                g.add_edge(u, v, 1.0).unwrap();
            }
        }
        let w = full_world(&g);
        let view = WorldView::new(&g, &w);
        let (t, wd) = triangles_and_wedges(&view);
        assert_eq!(t, 4);
        assert_eq!(wd, 12);
    }

    #[test]
    fn path_has_no_triangles() {
        let g = path4();
        let w = full_world(&g);
        let view = WorldView::new(&g, &w);
        let (t, wd) = triangles_and_wedges(&view);
        assert_eq!(t, 0);
        assert_eq!(wd, 2); // two internal wedges at nodes 1 and 2
    }

    #[test]
    fn single_triangle_with_pendant() {
        // Triangle 0-1-2 plus pendant 2-3.
        let mut g = UncertainGraph::with_nodes(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(0, 2, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        let w = full_world(&g);
        let view = WorldView::new(&g, &w);
        let (t, wd) = triangles_and_wedges(&view);
        assert_eq!(t, 1);
        // degrees: 2,2,3,1 → wedges 1+1+3+0 = 5
        assert_eq!(wd, 5);
    }

    #[test]
    fn world_membership_affects_triangles() {
        let mut g = UncertainGraph::with_nodes(3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(0, 2, 1.0).unwrap();
        let mut w = full_world(&g);
        w.set(2, false); // remove 0-2
        let view = WorldView::new(&g, &w);
        let (t, _) = triangles_and_wedges(&view);
        assert_eq!(t, 0);
    }
}
