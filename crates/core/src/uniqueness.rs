//! Uniqueness scores (paper §V-C, Definition 4, after Boldi et al.).
//!
//! The θ-commonness of a property value ω is a Gaussian-kernel density
//! estimate over all vertices' property values; uniqueness is its
//! reciprocal. A vertex with a rare (expected) degree is highly unique,
//! hard to hide, and therefore needs more noise — GenObf samples its edges
//! with higher probability.
//!
//! For uncertain graphs the property is the **expected degree**
//! `E[deg(v)] = Σ_{e ∋ v} p(e)`, and the paper sets the bandwidth
//! θ = σ_G, the standard deviation of the property values in the input
//! graph (rather than Boldi's θ = σ of the noise distribution).

use chameleon_stats::GaussianKde;
use chameleon_ugraph::UncertainGraph;

/// Per-vertex uniqueness scores `U^v` of the uncertain graph, computed on
/// expected degrees with the paper's θ = σ_G bandwidth, on one thread.
pub fn uniqueness_scores(graph: &UncertainGraph) -> Vec<f64> {
    uniqueness_scores_scaled(graph, 1.0, 1)
}

/// Uniqueness scores with bandwidth θ = `scale`·σ_G — the ablation knob
/// over the paper's bandwidth choice (§V-C sets scale = 1) — with the
/// O(n²) kernel rows spread over up to `threads` threads (bit-identical
/// at every thread count; see [`GaussianKde::uniqueness_at_support`]).
///
/// # Panics
/// Panics if `scale` is not strictly positive and finite.
pub fn uniqueness_scores_scaled(graph: &UncertainGraph, scale: f64, threads: usize) -> Vec<f64> {
    assert!(
        scale.is_finite() && scale > 0.0,
        "invalid bandwidth scale {scale}"
    );
    let values = graph.expected_degrees();
    if values.is_empty() {
        return Vec::new();
    }
    let sd = chameleon_stats::Summary::from_slice(&values).population_std_dev();
    let theta = if sd > 1e-12 { sd * scale } else { scale };
    GaussianKde::new(values, theta).uniqueness_at_support(threads)
}

/// Uniqueness scores with an explicit bandwidth θ (exposed for ablations
/// over the paper's bandwidth choice).
pub fn uniqueness_with_bandwidth(values: &[f64], theta: f64) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    GaussianKde::new(values.to_vec(), theta).uniqueness_at_support(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_plus_matching() -> UncertainGraph {
        // Node 0 is a hub (degree 6); nodes 7..=12 form a matching with
        // expected degree 0.5 each; hub's leaves have expected degree ~0.9.
        let mut g = UncertainGraph::with_nodes(13);
        for v in 1..7u32 {
            g.add_edge(0, v, 0.9).unwrap();
        }
        for i in 0..3u32 {
            g.add_edge(7 + 2 * i, 8 + 2 * i, 0.5).unwrap();
        }
        g
    }

    #[test]
    fn hub_is_most_unique() {
        let g = star_plus_matching();
        let u = uniqueness_scores(&g);
        let hub = u[0];
        for (v, &score) in u.iter().enumerate().skip(1) {
            assert!(hub > score, "hub {hub} should exceed node {v}'s {score}");
        }
    }

    #[test]
    fn identical_vertices_share_scores() {
        let g = star_plus_matching();
        let u = uniqueness_scores(&g);
        for v in 8..13 {
            assert!(
                (u[7] - u[v]).abs() < 1e-9,
                "matching nodes should have equal uniqueness"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = UncertainGraph::with_nodes(0);
        assert!(uniqueness_scores(&g).is_empty());
        assert!(uniqueness_with_bandwidth(&[], 1.0).is_empty());
    }

    #[test]
    fn all_scores_positive_finite() {
        let g = star_plus_matching();
        for s in uniqueness_scores(&g) {
            assert!(s > 0.0 && s.is_finite());
        }
    }

    #[test]
    fn explicit_bandwidth_changes_scale() {
        let vals = [1.0, 1.0, 1.0, 10.0];
        let narrow = uniqueness_with_bandwidth(&vals, 0.5);
        let wide = uniqueness_with_bandwidth(&vals, 100.0);
        // Narrow bandwidth: outlier dramatically more unique; wide: scores
        // nearly equal.
        assert!(narrow[3] / narrow[0] > 2.0);
        assert!((wide[3] / wide[0] - 1.0).abs() < 0.1);
    }

    #[test]
    fn matches_paper_property_choice() {
        // The scores must be a function of expected degrees only: rewiring
        // that preserves expected degrees preserves scores.
        let mut g1 = UncertainGraph::with_nodes(4);
        g1.add_edge(0, 1, 1.0).unwrap();
        g1.add_edge(2, 3, 1.0).unwrap();
        let mut g2 = UncertainGraph::with_nodes(4);
        g2.add_edge(0, 2, 1.0).unwrap();
        g2.add_edge(1, 3, 1.0).unwrap();
        assert_eq!(uniqueness_scores(&g1), uniqueness_scores(&g2));
    }
}
