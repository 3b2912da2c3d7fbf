//! Identity-disclosure attack simulation (paper §III-C).
//!
//! The paper motivates (k, ε)-obfuscation with the *identity disclosure
//! problem*: "given a published graph G̃, if an adversary can locate the
//! target entity t as a vertex v of G̃ with high probability via auxiliary
//! information, the identity of t is disclosed". This module makes that
//! operational: it simulates the strongest degree-informed Bayesian
//! adversary and measures how often it wins, turning the entropy-based
//! guarantee into an empirically checkable success rate.
//!
//! For a target v with known property ω (its degree in the original
//! graph), the adversary's posterior over candidate vertices u is
//! `Y_ω(u) ∝ Pr[deg_G̃(u) = ω]`. Attack strategies:
//!
//! * **Top-1**: name the maximum-posterior vertex. Success = it is v.
//! * **Top-c**: output a candidate set of size c. Success = v ∈ set.
//!
//! A (k, ε)-obfuscated release caps the Top-1 success probability of this
//! adversary near 1/k for obfuscated vertices (entropy ≥ log₂k means the
//! posterior is "as spread as" k equally likely candidates; for the
//! max-posterior the bound is not exact, which is precisely why measuring
//! helps).

use crate::anonymity::AdversaryKnowledge;
use chameleon_stats::poisson_binomial::pmf_truncated;
use chameleon_ugraph::{NodeId, UncertainGraph};

/// Result of simulating the degree-informed adversary against every
/// vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackReport {
    /// Fraction of vertices uniquely re-identified (top-1 hit, with the
    /// probability mass split uniformly among posterior ties).
    pub top1_success_rate: f64,
    /// Fraction of vertices contained in the adversary's top-`c` candidate
    /// set (same tie handling), for the `c` this report was run with.
    pub topc_success_rate: f64,
    /// The candidate-set size used for `topc_success_rate`.
    pub candidate_set_size: usize,
    /// Per-vertex adversary posterior mass on the true vertex.
    pub posterior_on_target: Vec<f64>,
}

impl AttackReport {
    /// Mean posterior probability assigned to the true identity — the
    /// "average confidence" of the adversary.
    pub fn mean_posterior(&self) -> f64 {
        if self.posterior_on_target.is_empty() {
            0.0
        } else {
            self.posterior_on_target.iter().sum::<f64>() / self.posterior_on_target.len() as f64
        }
    }

    /// Vertices whose posterior exceeds `threshold` — the "practically
    /// disclosed" set.
    pub fn disclosed(&self, threshold: f64) -> Vec<NodeId> {
        self.posterior_on_target
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > threshold)
            .map(|(v, _)| v as NodeId)
            .collect()
    }
}

/// Simulates the degree-informed Bayesian adversary against `published`,
/// one attack per vertex of the original graph (whose property values are
/// `knowledge`).
///
/// `candidate_set_size` is the adversary's output size for the top-c rate
/// (e.g. 1 for exact re-identification, k for "k-anonymity broken").
///
/// # Panics
/// Panics if `knowledge` does not cover `published`'s vertices or
/// `candidate_set_size == 0`.
pub fn simulate_degree_attack(
    published: &UncertainGraph,
    knowledge: &AdversaryKnowledge,
    candidate_set_size: usize,
) -> AttackReport {
    assert!(candidate_set_size >= 1, "candidate set must be non-empty");
    let n = published.num_nodes();
    assert_eq!(knowledge.len(), n, "knowledge must cover every vertex");
    if n == 0 {
        return AttackReport {
            top1_success_rate: 0.0,
            topc_success_rate: 0.0,
            candidate_set_size,
            posterior_on_target: Vec::new(),
        };
    }
    let omega_max = knowledge.max_target();
    let pmfs: Vec<Vec<f64>> = (0..n as u32)
        .map(|v| pmf_truncated(&published.incident_probs(v), omega_max))
        .collect();

    // Group targets by ω so each posterior is computed once.
    let mut by_omega: std::collections::HashMap<u32, Vec<NodeId>> =
        std::collections::HashMap::new();
    for v in 0..n as u32 {
        by_omega.entry(knowledge.target(v)).or_default().push(v);
    }

    let mut top1 = 0.0f64;
    let mut topc = 0.0f64;
    let mut posterior_on_target = vec![0.0; n];
    for (&omega, targets) in &by_omega {
        let w = omega as usize;
        let weights: Vec<f64> = pmfs
            .iter()
            .map(|pmf| pmf.get(w).copied().unwrap_or(0.0))
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            // The adversary's value is unattainable in the release: the
            // posterior is undefined; the rational adversary falls back to
            // uniform guessing over all vertices.
            for &v in targets {
                posterior_on_target[v as usize] = 1.0 / n as f64;
                top1 += 1.0 / n as f64;
                topc += (candidate_set_size as f64 / n as f64).min(1.0);
            }
            continue;
        }
        // Posterior mass on each vertex.
        let posterior: Vec<f64> = weights.iter().map(|&x| x / total).collect();
        // Rank order for top-c (ties share uniformly).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| posterior[b].partial_cmp(&posterior[a]).unwrap());
        let top_value = posterior[order[0]];
        let num_top_ties = posterior
            .iter()
            .filter(|&&p| p >= top_value - 1e-15)
            .count();
        // Value at the c-th rank — members above are certainly in the top-c
        // set, members equal to it share the remaining slots.
        let c = candidate_set_size.min(n);
        let cth_value = posterior[order[c - 1]];
        let strictly_above = posterior.iter().filter(|&&p| p > cth_value + 1e-15).count();
        let at_boundary = posterior
            .iter()
            .filter(|&&p| (p - cth_value).abs() <= 1e-15)
            .count();
        let boundary_share = (c - strictly_above) as f64 / at_boundary as f64;
        for &v in targets {
            let pv = posterior[v as usize];
            posterior_on_target[v as usize] = pv;
            // Top-1: v wins iff it is (one of) the argmax, sharing ties.
            if pv >= top_value - 1e-15 {
                top1 += 1.0 / num_top_ties as f64;
            }
            // Top-c membership probability.
            if pv > cth_value + 1e-15 {
                topc += 1.0;
            } else if (pv - cth_value).abs() <= 1e-15 {
                topc += boundary_share;
            }
        }
    }
    AttackReport {
        top1_success_rate: top1 / n as f64,
        topc_success_rate: topc / n as f64,
        candidate_set_size,
        posterior_on_target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n_leaves: usize, p: f64) -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(n_leaves + 1);
        for v in 1..=n_leaves as u32 {
            g.add_edge(0, v, p).unwrap();
        }
        g
    }

    #[test]
    fn deterministic_star_hub_fully_disclosed() {
        let g = star(5, 1.0);
        let knowledge = AdversaryKnowledge::structural_degrees(&g);
        let report = simulate_degree_attack(&g, &knowledge, 1);
        // Hub: posterior 1 on itself. Leaves: uniform over 5.
        assert!((report.posterior_on_target[0] - 1.0).abs() < 1e-12);
        for v in 1..=5 {
            assert!((report.posterior_on_target[v] - 0.2).abs() < 1e-12);
        }
        // top1: hub always + each leaf with 1/5 tie-share → (1 + 5·(1/5))/6.
        assert!((report.top1_success_rate - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(report.disclosed(0.9), vec![0]);
    }

    #[test]
    fn topc_grows_with_candidate_set() {
        let g = star(5, 1.0);
        let knowledge = AdversaryKnowledge::structural_degrees(&g);
        let top1 = simulate_degree_attack(&g, &knowledge, 1);
        let top3 = simulate_degree_attack(&g, &knowledge, 3);
        let top6 = simulate_degree_attack(&g, &knowledge, 6);
        assert!(top3.topc_success_rate >= top1.topc_success_rate);
        // With c = n the adversary always "wins".
        assert!((top6.topc_success_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_graph_caps_success_at_uniform() {
        // Perfect matching: every vertex identical → posterior uniform →
        // top-1 success = 1/n.
        let mut g = UncertainGraph::with_nodes(8);
        for i in 0..4u32 {
            g.add_edge(2 * i, 2 * i + 1, 0.5).unwrap();
        }
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let report = simulate_degree_attack(&g, &knowledge, 1);
        assert!((report.top1_success_rate - 1.0 / 8.0).abs() < 1e-12);
        assert!((report.mean_posterior() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn unattainable_omega_falls_back_to_uniform() {
        let g = star(3, 1.0);
        let knowledge = AdversaryKnowledge::from_values(vec![9, 1, 1, 1]);
        let report = simulate_degree_attack(&g, &knowledge, 1);
        assert!((report.posterior_on_target[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn uncertainty_lowers_adversary_confidence() {
        let det = star(6, 1.0);
        let fuzzy = star(6, 0.6);
        let knowledge = AdversaryKnowledge::structural_degrees(&det);
        let conf_det = simulate_degree_attack(&det, &knowledge, 1).posterior_on_target[0];
        let conf_fuzzy = simulate_degree_attack(&fuzzy, &knowledge, 1).posterior_on_target[0];
        assert!(conf_fuzzy <= conf_det + 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = UncertainGraph::with_nodes(0);
        let knowledge = AdversaryKnowledge::from_values(vec![]);
        let report = simulate_degree_attack(&g, &knowledge, 2);
        assert_eq!(report.top1_success_rate, 0.0);
        assert_eq!(report.mean_posterior(), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_candidate_set_rejected() {
        let g = star(2, 1.0);
        let knowledge = AdversaryKnowledge::structural_degrees(&g);
        let _ = simulate_degree_attack(&g, &knowledge, 0);
    }

    #[test]
    #[should_panic]
    fn mismatched_knowledge_rejected() {
        let g = star(2, 1.0);
        let knowledge = AdversaryKnowledge::from_values(vec![1]);
        let _ = simulate_degree_attack(&g, &knowledge, 1);
    }

    #[test]
    fn obfuscation_reduces_attack_success() {
        use crate::{Chameleon, ChameleonConfig, Method};
        use chameleon_ugraph::generators;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // A graph with distinctive hubs.
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = generators::barabasi_albert(120, 3, &mut rng);
        for e in 0..g.num_edges() as u32 {
            g.set_prob(e, 0.4 + 0.5 * ((e % 3) as f64 / 3.0)).unwrap();
        }
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let raw = simulate_degree_attack(&g, &knowledge, 1);
        let cfg = ChameleonConfig::builder()
            .k(10)
            .epsilon(0.05)
            .trials(2)
            .num_world_samples(100)
            .sigma_tolerance(0.2)
            .build();
        let result = Chameleon::new(cfg).anonymize(&g, Method::Rsme, 3).unwrap();
        let after = simulate_degree_attack(&result.graph, &knowledge, 1);
        assert!(
            after.top1_success_rate <= raw.top1_success_rate + 1e-9,
            "attack got easier: {} -> {}",
            raw.top1_success_rate,
            after.top1_success_rate
        );
    }
}
