//! The Rep-An pipeline (paper Section IV, Figure 2): representative
//! extraction followed by deterministic-graph obfuscation.

use crate::representative::{extract_representative, RepresentativeStrategy};
use chameleon_core::{Chameleon, ChameleonConfig, ChameleonError, Method, ObfuscationResult};
use chameleon_ugraph::UncertainGraph;

/// The Rep-An baseline anonymizer.
#[derive(Debug, Clone)]
pub struct RepAn {
    config: ChameleonConfig,
}

/// Output of the Rep-An pipeline.
#[derive(Debug, Clone)]
pub struct RepAnResult {
    /// The deterministic representative instance (stage-1 output).
    pub representative: UncertainGraph,
    /// The published obfuscated uncertain graph (stage-2 output).
    pub graph: UncertainGraph,
    /// Final noise parameter of the obfuscation stage.
    pub sigma: f64,
    /// Achieved unobfuscated fraction.
    pub eps_hat: f64,
    /// Stage-2 details.
    pub obfuscation: ObfuscationResult,
}

impl RepAn {
    /// Creates the baseline with the obfuscation parameters shared with
    /// Chameleon (so comparisons hold k, ε, c, q, t fixed) and the default
    /// expected-degree representative.
    pub fn new(config: ChameleonConfig) -> Self {
        Self { config }
    }

    /// Runs the two-stage pipeline.
    ///
    /// Stage 2 is Boldi et al.'s deterministic-graph obfuscation, realized
    /// as the core crate's ME variant on the representative (max-entropy
    /// perturbation with p ∈ {0, 1} *is* Boldi's scheme; on a deterministic
    /// graph the adversary's expected-degree knowledge equals plain
    /// degrees).
    ///
    /// # Errors
    /// Propagates stage-2 failures ([`ChameleonError`]); additionally fails
    /// with [`ChameleonError::DegenerateInput`] when the representative
    /// came out edgeless (e.g. all probabilities so low that the
    /// expected-degree repair keeps no edge).
    pub fn anonymize(
        &self,
        graph: &UncertainGraph,
        seed: u64,
    ) -> Result<RepAnResult, ChameleonError> {
        let representative = extract_representative(graph, RepresentativeStrategy::default());
        if representative.num_edges() == 0 {
            return Err(ChameleonError::DegenerateInput(
                "representative instance has no edges".into(),
            ));
        }
        let obfuscation =
            Chameleon::new(self.config.clone()).anonymize(&representative, Method::Me, seed)?;
        Ok(RepAnResult {
            representative,
            graph: obfuscation.graph.clone(),
            sigma: obfuscation.sigma,
            eps_hat: obfuscation.eps_hat,
            obfuscation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_core::anonymity::{anonymity_check, AdversaryKnowledge};
    use chameleon_ugraph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_graph(seed: u64) -> UncertainGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generators::gnm(70, 180, &mut rng);
        for e in 0..g.num_edges() as u32 {
            g.set_prob(e, 0.25 + 0.6 * ((e % 4) as f64 / 4.0)).unwrap();
        }
        g
    }

    fn quick_config(k: usize) -> ChameleonConfig {
        ChameleonConfig::builder()
            .k(k)
            .epsilon(0.1)
            .trials(3)
            .num_world_samples(100)
            .sigma_tolerance(0.2)
            .build()
    }

    #[test]
    fn pipeline_achieves_privacy_on_representative() {
        let g = test_graph(1);
        let repan = RepAn::new(quick_config(6));
        let res = repan.anonymize(&g, 17).unwrap();
        assert!(res.eps_hat <= 0.1);
        // Privacy must hold against degree knowledge of the representative.
        let knowledge = AdversaryKnowledge::structural_degrees(&res.representative);
        let rep = anonymity_check(&res.graph, &knowledge, 6);
        assert!((rep.eps_hat - res.eps_hat).abs() < 1e-12);
        // Output is genuinely uncertain (obfuscation injects probabilities).
        let fuzzy = res
            .graph
            .edges()
            .iter()
            .filter(|e| e.p > 0.0 && e.p < 1.0)
            .count();
        assert!(fuzzy > 0, "obfuscated output should carry uncertainty");
    }

    #[test]
    fn representative_is_deterministic_stage() {
        let g = test_graph(2);
        let repan = RepAn::new(quick_config(5));
        let res = repan.anonymize(&g, 3).unwrap();
        assert!(res.representative.edges().iter().all(|e| e.p == 1.0));
        assert_eq!(res.representative.num_nodes(), g.num_nodes());
    }

    #[test]
    fn edgeless_representative_is_an_error() {
        // All probabilities 0.2 → the expected-degree repair keeps no edge.
        let mut g = UncertainGraph::with_nodes(10);
        for v in 0..9u32 {
            g.add_edge(v, v + 1, 0.2).unwrap();
        }
        let repan = RepAn::new(quick_config(2));
        assert!(matches!(
            repan.anonymize(&g, 0),
            Err(ChameleonError::DegenerateInput(_))
        ));
    }

    #[test]
    fn reproducible_pipeline() {
        let g = test_graph(3);
        let repan = RepAn::new(quick_config(5));
        let a = repan.anonymize(&g, 7).unwrap();
        let b = repan.anonymize(&g, 7).unwrap();
        assert_eq!(a.sigma, b.sigma);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        for (x, y) in a.graph.edges().iter().zip(b.graph.edges()) {
            assert!((x.p - y.p).abs() < 1e-15);
        }
    }

    #[test]
    fn representative_detaches_probabilities() {
        // The paper's criticism: stage 1 discards the input probabilities.
        // Two graphs with the same most-probable world but different
        // probabilities yield the same representative.
        let mut g1 = UncertainGraph::with_nodes(4);
        g1.add_edge(0, 1, 0.9).unwrap();
        g1.add_edge(1, 2, 0.7).unwrap();
        g1.add_edge(2, 3, 0.3).unwrap();
        let mut g2 = UncertainGraph::with_nodes(4);
        g2.add_edge(0, 1, 0.6).unwrap();
        g2.add_edge(1, 2, 0.99).unwrap();
        g2.add_edge(2, 3, 0.1).unwrap();
        let r1 = extract_representative(&g1, RepresentativeStrategy::MostProbable);
        let r2 = extract_representative(&g2, RepresentativeStrategy::MostProbable);
        assert_eq!(r1.num_edges(), r2.num_edges());
        for (a, b) in r1.edges().iter().zip(r2.edges()) {
            assert_eq!((a.u, a.v, a.p), (b.u, b.v, b.p));
        }
    }
}
