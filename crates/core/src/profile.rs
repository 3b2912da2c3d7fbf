//! Privacy profile of a (candidate) release: per-vertex obfuscation
//! entropies and the largest k the release supports at each tolerance —
//! a release-auditing companion to the binary pass/fail
//! [`crate::anonymity_check`].

use crate::anonymity::{sweep_graph, AdversaryKnowledge};
use chameleon_stats::detmath;
use chameleon_stats::entropy::uniform_entropy_bits;
use chameleon_ugraph::{NodeId, UncertainGraph};

/// Per-vertex privacy diagnostics for one published graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyProfile {
    /// Entropy (bits) of the adversary posterior for each vertex's
    /// property value.
    pub entropy_bits: Vec<f64>,
}

impl PrivacyProfile {
    /// Computes the profile of `published` against degree knowledge of the
    /// original graph.
    ///
    /// # Panics
    /// Panics if `knowledge` does not cover `published`'s vertex set.
    pub fn compute(published: &UncertainGraph, knowledge: &AdversaryKnowledge) -> Self {
        // The exact check's sweep at k = 1, where no vertex can fail.
        let report = sweep_graph(published, knowledge, 1, 0, 1);
        let entropy_bits = knowledge
            .targets()
            .iter()
            .map(|omega| report.entropy_by_omega[omega])
            .collect();
        Self { entropy_bits }
    }

    /// The largest integer k such that the release is (k, ε)-obf at
    /// tolerance `epsilon` (0 when even k = 1 fails, which cannot happen
    /// since H ≥ 0 = log₂ 1).
    pub fn max_k_at(&self, epsilon: f64) -> usize {
        assert!((0.0..=1.0).contains(&epsilon), "invalid tolerance");
        let n = self.entropy_bits.len();
        if n == 0 {
            return 1;
        }
        let allowed = (epsilon * n as f64).floor() as usize;
        // The binding entropy is the (allowed+1)-th smallest.
        let mut sorted = self.entropy_bits.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let binding = sorted[allowed.min(n - 1)];
        // Largest k whose threshold the binding entropy meets: start from
        // floor(2^binding) and settle the last step with the check's own
        // threshold, so the two never disagree at the boundary.
        let mut k = (detmath::exp(binding * std::f64::consts::LN_2).floor() as usize).max(1);
        while k > 1 && uniform_entropy_bits(k) > binding {
            k -= 1;
        }
        while uniform_entropy_bits(k + 1) <= binding {
            k += 1;
        }
        k
    }

    /// The `count` least-protected vertices, ascending by entropy.
    pub fn weakest(&self, count: usize) -> Vec<(NodeId, f64)> {
        let mut order: Vec<(NodeId, f64)> = self
            .entropy_bits
            .iter()
            .enumerate()
            .map(|(v, &h)| (v as NodeId, h))
            .collect();
        order.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        order.truncate(count);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymity::anonymity_check;

    fn matching(pairs: usize, p: f64) -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(2 * pairs);
        for i in 0..pairs as u32 {
            g.add_edge(2 * i, 2 * i + 1, p).unwrap();
        }
        g
    }

    #[test]
    fn symmetric_graph_uniform_profile() {
        let g = matching(4, 0.5);
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let profile = PrivacyProfile::compute(&g, &knowledge);
        for &h in &profile.entropy_bits {
            assert!((h - 3.0).abs() < 1e-9); // log2(8)
        }
        assert_eq!(profile.max_k_at(0.0), 8);
    }

    #[test]
    fn profile_consistent_with_anonymity_check() {
        let mut g = UncertainGraph::with_nodes(7);
        for v in 1..7u32 {
            g.add_edge(0, v, 0.6).unwrap();
        }
        g.add_edge(1, 2, 0.4).unwrap();
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let profile = PrivacyProfile::compute(&g, &knowledge);
        for k in [2usize, 3, 5, 8] {
            let report = anonymity_check(&g, &knowledge, k);
            let t = uniform_entropy_bits(k);
            let obfuscated = profile.entropy_bits.iter().filter(|&&h| h >= t).count();
            assert_eq!(obfuscated, 7 - report.unobfuscated.len(), "k={k}");
        }
    }

    #[test]
    fn max_k_respects_tolerance() {
        // Hub exposed (entropy 0), leaves share entropy log2(5).
        let mut g = UncertainGraph::with_nodes(6);
        for v in 1..6u32 {
            g.add_edge(0, v, 1.0).unwrap();
        }
        let knowledge = AdversaryKnowledge::structural_degrees(&g);
        let profile = PrivacyProfile::compute(&g, &knowledge);
        // With no tolerance, the hub's H = 0 binds → k = 1.
        assert_eq!(profile.max_k_at(0.0), 1);
        // Allowing one skipped vertex (1/6 < 0.17): the leaves' H = log2 5.
        assert_eq!(profile.max_k_at(0.17), 5);
    }

    #[test]
    fn weakest_orders_by_entropy() {
        let mut g = UncertainGraph::with_nodes(5);
        for v in 1..5u32 {
            g.add_edge(0, v, 1.0).unwrap();
        }
        let knowledge = AdversaryKnowledge::structural_degrees(&g);
        let profile = PrivacyProfile::compute(&g, &knowledge);
        let weakest = profile.weakest(2);
        assert_eq!(weakest[0].0, 0); // the hub
        assert!(weakest[0].1 <= weakest[1].1);
        assert_eq!(profile.weakest(100).len(), 5);
    }

    #[test]
    fn empty_graph_profile() {
        let g = UncertainGraph::with_nodes(0);
        let knowledge = AdversaryKnowledge::from_values(vec![]);
        let profile = PrivacyProfile::compute(&g, &knowledge);
        assert!(profile.entropy_bits.is_empty());
        assert_eq!(profile.max_k_at(0.5), 1);
    }
}
