//! Reliability discrepancy — the paper's utility-loss metric
//! (Definition 2): `Δ(G̃) = Σ_{(u,v)} |R_{u,v}(G) − R_{u,v}(G̃)|`.
//!
//! Estimated over a sampled pair set; the headline number reported by the
//! paper's Fig. 4 and Fig. 8 is the *average* per-pair discrepancy.

use crate::ensemble::WorldEnsemble;
use chameleon_stats::Summary;
use chameleon_ugraph::NodeId;

/// Estimated reliability discrepancy between two graphs over a pair set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscrepancyReport {
    /// Mean per-pair |ΔR| — the quantity plotted in paper Fig. 4 / Fig. 8.
    pub avg: f64,
    /// Sum over the sampled pairs (scale with `n·(n−1)/2 / pairs` for a
    /// whole-graph Δ estimate).
    pub sum: f64,
    /// Largest per-pair discrepancy observed.
    pub max: f64,
    /// Number of pairs evaluated.
    pub pairs: usize,
    /// Standard error of the mean.
    pub std_error: f64,
}

/// Estimates the reliability discrepancy between two uncertain graphs from
/// pre-built world ensembles.
///
/// The graphs may have entirely different edge sets (the Rep-An baseline
/// produces graphs that share no edge indexing with the original); each
/// ensemble is built on its own graph. When the edge arrays *do* align,
/// build both ensembles from one CRN uniforms matrix
/// ([`crate::ensemble::crn_uniform_matrix`]) for a large variance
/// reduction.
///
/// # Panics
/// Panics if the ensembles disagree on node count or a pair indexes out of
/// range.
pub fn avg_reliability_discrepancy(
    original: &WorldEnsemble,
    anonymized: &WorldEnsemble,
    pairs: &[(NodeId, NodeId)],
) -> DiscrepancyReport {
    assert_eq!(
        original.num_nodes(),
        anonymized.num_nodes(),
        "graphs must share the node set"
    );
    let r_orig = original.reliability_many(pairs);
    let r_anon = anonymized.reliability_many(pairs);
    let mut summary = Summary::new();
    for (a, b) in r_orig.iter().zip(&r_anon) {
        summary.push((a - b).abs());
    }
    DiscrepancyReport {
        avg: summary.mean(),
        sum: summary.sum(),
        max: if summary.count() == 0 {
            0.0
        } else {
            summary.max()
        },
        pairs: pairs.len(),
        std_error: summary.std_error(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::crn_uniform_matrix;
    use chameleon_ugraph::UncertainGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line(p: f64) -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(3);
        g.add_edge(0, 1, p).unwrap();
        g.add_edge(1, 2, p).unwrap();
        g
    }

    #[test]
    fn identical_graphs_have_zero_discrepancy_under_crn() {
        let g = line(0.5);
        let mut rng = StdRng::seed_from_u64(0);
        let uniforms = crn_uniform_matrix(300, g.num_edges(), &mut rng);
        let a = WorldEnsemble::from_uniform_matrix(&g, &uniforms);
        let b = WorldEnsemble::from_uniform_matrix(&g, &uniforms);
        let rep = avg_reliability_discrepancy(&a, &b, &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(rep.avg, 0.0);
        assert_eq!(rep.sum, 0.0);
        assert_eq!(rep.max, 0.0);
        assert_eq!(rep.pairs, 3);
    }

    #[test]
    fn known_probability_shift() {
        // p: 0.5 → 1.0 on both edges. R(0,1): 0.5 → 1.0 (Δ 0.5);
        // R(0,2): 0.25 → 1.0 (Δ 0.75); R(1,2): Δ 0.5.
        let g1 = line(0.5);
        let g2 = line(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let a = WorldEnsemble::sample(&g1, 8000, &mut rng);
        let b = WorldEnsemble::sample(&g2, 10, &mut rng);
        let rep = avg_reliability_discrepancy(&a, &b, &[(0, 1), (0, 2), (1, 2)]);
        let expect = (0.5 + 0.75 + 0.5) / 3.0;
        assert!((rep.avg - expect).abs() < 0.02, "avg={}", rep.avg);
        assert!(rep.max > 0.7 && rep.max < 0.8);
        assert!(rep.std_error > 0.0);
    }

    #[test]
    fn empty_pair_set() {
        let g = line(0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let a = WorldEnsemble::sample(&g, 10, &mut rng);
        let b = WorldEnsemble::sample(&g, 10, &mut rng);
        let rep = avg_reliability_discrepancy(&a, &b, &[]);
        assert_eq!(rep.avg, 0.0);
        assert_eq!(rep.pairs, 0);
        assert_eq!(rep.max, 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_node_counts_panic() {
        let g1 = line(0.5);
        let mut g2 = UncertainGraph::with_nodes(5);
        g2.add_edge(0, 1, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let a = WorldEnsemble::sample(&g1, 5, &mut rng);
        let b = WorldEnsemble::sample(&g2, 5, &mut rng);
        let _ = avg_reliability_discrepancy(&a, &b, &[(0, 1)]);
    }

    #[test]
    fn crn_reduces_variance_versus_independent() {
        // Measure the discrepancy of a graph against a slightly perturbed
        // copy multiple times; CRN estimates should fluctuate less.
        let g1 = line(0.5);
        let mut g2 = g1.clone();
        g2.set_prob(0, 0.55).unwrap();
        let pairs = [(0u32, 2u32)];
        let reps = 12;
        let worlds = 250;
        let mut crn_vals = Vec::new();
        let mut ind_vals = Vec::new();
        for i in 0..reps {
            let mut rng = StdRng::seed_from_u64(100 + i);
            let uniforms = crn_uniform_matrix(worlds, 2, &mut rng);
            let a = WorldEnsemble::from_uniform_matrix(&g1, &uniforms);
            let b = WorldEnsemble::from_uniform_matrix(&g2, &uniforms);
            crn_vals.push(avg_reliability_discrepancy(&a, &b, &pairs).avg);

            let mut rng_a = StdRng::seed_from_u64(500 + i);
            let mut rng_b = StdRng::seed_from_u64(900 + i);
            let a = WorldEnsemble::sample(&g1, worlds, &mut rng_a);
            let b = WorldEnsemble::sample(&g2, worlds, &mut rng_b);
            ind_vals.push(avg_reliability_discrepancy(&a, &b, &pairs).avg);
        }
        let var = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
        };
        assert!(
            var(&crn_vals) < var(&ind_vals),
            "crn var {} should beat independent var {}",
            var(&crn_vals),
            var(&ind_vals)
        );
    }
}
