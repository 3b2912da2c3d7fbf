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
/// expected degrees with the paper's θ = σ_G bandwidth.
pub fn uniqueness_scores(graph: &UncertainGraph) -> Vec<f64> {
    uniqueness_scores_scaled(graph, 1.0)
}

/// Uniqueness scores with bandwidth θ = `scale`·σ_G — the ablation knob
/// over the paper's bandwidth choice (§V-C sets scale = 1). The KDE is
/// evaluated by linear binning (see [`GaussianKde::uniqueness_at_support`]).
///
/// # Panics
/// Panics if `scale` is not strictly positive and finite.
pub(crate) fn uniqueness_scores_scaled(graph: &UncertainGraph, scale: f64) -> Vec<f64> {
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
    GaussianKde::new(values, theta).uniqueness_at_support()
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
            assert_eq!(
                u[7].to_bits(),
                u[v].to_bits(),
                "matching nodes should have equal uniqueness"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = UncertainGraph::with_nodes(0);
        assert!(uniqueness_scores(&g).is_empty());
    }

    #[test]
    fn all_scores_positive_finite() {
        let g = star_plus_matching();
        for s in uniqueness_scores(&g) {
            assert!(s > 0.0 && s.is_finite());
        }
    }

    #[test]
    fn bandwidth_scale_changes_scale() {
        // A star centre of expected degree 3 among seven degree-1 vertices.
        let mut g = UncertainGraph::with_nodes(8);
        for (u, v) in [(0, 1), (0, 2), (0, 3), (4, 5), (6, 7)] {
            g.add_edge(u, v, 1.0).unwrap();
        }
        let narrow = uniqueness_scores_scaled(&g, 0.25);
        let wide = uniqueness_scores_scaled(&g, 100.0);
        // Narrow bandwidth: outlier dramatically more unique; wide: scores
        // nearly equal.
        assert!(narrow[0] / narrow[1] > 2.0);
        assert!((wide[0] / wide[1] - 1.0).abs() < 0.1);
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
