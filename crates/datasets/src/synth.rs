//! Synthetic dataset generation: heavy-tailed Chung–Lu topology + per-
//! dataset probability model.

use crate::prob_models::ProbModel;
use crate::spec::{DatasetKind, DatasetSpec};
use chameleon_stats::SeedSequence;
use chameleon_ugraph::{generators, UncertainGraph};
use rand::Rng;

/// Generates a synthetic uncertain graph realizing `spec`.
///
/// Topology: Chung–Lu with power-law expected-degree weights (exponent
/// `spec.power_law_gamma`, maximum weight ≈ √(mean·n) — the standard
/// structural cut-off), rescaled to hit `spec.edges`. Probabilities: the
/// dataset's [`ProbModel`].
pub fn generate(spec: &DatasetSpec, seed: u64) -> UncertainGraph {
    let seq = SeedSequence::new(seed);
    let mut topo_rng = seq.rng("topology");
    let mean_degree = spec.mean_degree().max(0.1);
    let max_weight = (mean_degree * spec.nodes as f64)
        .sqrt()
        .max(mean_degree + 1.0);
    let weights =
        generators::power_law_weights(spec.nodes, spec.power_law_gamma, mean_degree, max_weight);
    let mut graph = generators::chung_lu(&weights, &mut topo_rng);
    let model = match spec.kind {
        DatasetKind::Dblp => ProbModel::dblp(),
        DatasetKind::Brightkite => ProbModel::brightkite(),
        DatasetKind::Ppi => ProbModel::ppi(),
    };
    let mut prob_rng = seq.rng("probabilities");
    assign_probs(&mut graph, &model, &mut prob_rng);
    graph
}

/// Overwrites every edge probability with a draw from `model`.
pub(crate) fn assign_probs<R: Rng + ?Sized>(
    graph: &mut UncertainGraph,
    model: &ProbModel,
    rng: &mut R,
) {
    for e in 0..graph.num_edges() as u32 {
        let p = model.sample(rng);
        graph
            .set_prob(e, p)
            .expect("model yields valid probabilities");
    }
}

/// DBLP-like graph with ~`nodes` vertices.
pub fn dblp_like(nodes: usize, seed: u64) -> UncertainGraph {
    generate(&DatasetKind::Dblp.scaled_spec(nodes), seed)
}

/// BRIGHTKITE-like graph with ~`nodes` vertices.
pub fn brightkite_like(nodes: usize, seed: u64) -> UncertainGraph {
    generate(&DatasetKind::Brightkite.scaled_spec(nodes), seed)
}

/// PPI-like graph with ~`nodes` vertices.
pub fn ppi_like(nodes: usize, seed: u64) -> UncertainGraph {
    generate(&DatasetKind::Ppi.scaled_spec(nodes), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_stats::Summary;

    #[test]
    fn dblp_like_matches_spec() {
        let g = dblp_like(1200, 0);
        assert_eq!(g.num_nodes(), 1200);
        let spec = DatasetKind::Dblp.scaled_spec(1200);
        let got = g.num_edges() as f64;
        let want = spec.edges as f64;
        assert!((got - want).abs() / want < 0.1, "edges {got} vs {want}");
        assert!((g.mean_edge_prob() - 0.46).abs() < 0.05);
    }

    #[test]
    fn brightkite_like_small_probs() {
        let g = brightkite_like(1000, 1);
        assert!((g.mean_edge_prob() - 0.29).abs() < 0.04);
        // Right-skew: plenty of very low probability edges.
        let low = g.edges().iter().filter(|e| e.p < 0.15).count();
        assert!(low as f64 > 0.25 * g.num_edges() as f64);
    }

    #[test]
    fn ppi_like_is_denser() {
        let ppi = ppi_like(600, 2);
        let bk = brightkite_like(600, 2);
        assert!(
            ppi.expected_average_degree() > 2.0 * bk.expected_average_degree(),
            "ppi {} vs bk {}",
            ppi.expected_average_degree(),
            bk.expected_average_degree()
        );
    }

    #[test]
    fn heavy_tail_present() {
        let g = dblp_like(1500, 3);
        let degrees: Vec<f64> = (0..g.num_nodes() as u32)
            .map(|v| g.degree(v) as f64)
            .collect();
        let s = Summary::from_slice(&degrees);
        assert!(
            s.max() > 4.0 * s.mean(),
            "max {} vs mean {} — expected a heavy tail",
            s.max(),
            s.mean()
        );
    }

    #[test]
    fn generation_is_reproducible() {
        let a = dblp_like(400, 9);
        let b = dblp_like(400, 9);
        assert_eq!(a.num_edges(), b.num_edges());
        for (x, y) in a.edges().iter().zip(b.edges()) {
            assert_eq!((x.u, x.v), (y.u, y.v));
            assert!((x.p - y.p).abs() < 1e-15);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = dblp_like(400, 10);
        let b = dblp_like(400, 11);
        let identical = a.num_edges() == b.num_edges()
            && a.edges()
                .iter()
                .zip(b.edges())
                .all(|(x, y)| (x.u, x.v) == (y.u, y.v));
        assert!(!identical);
    }

    #[test]
    fn all_probabilities_valid() {
        for g in [dblp_like(300, 4), brightkite_like(300, 5), ppi_like(300, 6)] {
            assert!(g.edges().iter().all(|e| e.p > 0.0 && e.p <= 1.0));
        }
    }

    #[test]
    fn assign_probs_overwrites_all() {
        let mut g = UncertainGraph::with_nodes(5);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        let mut rng = chameleon_stats::SeedSequence::new(7).rng("t");
        assign_probs(&mut g, &ProbModel::Uniform { lo: 0.2, hi: 0.4 }, &mut rng);
        for e in g.edges() {
            assert!((0.2..=0.4).contains(&e.p));
        }
    }
}
