//! Differentially-private synthetic publication of uncertain graphs — the
//! *other* privacy avenue the paper's Related Work surveys ("most research
//! in this direction projects an input graph to dK-series and ensures
//! differential privacy on dK-series statistics; these private statistics
//! are then fed into generators"), included so the reproduction can test
//! the paper's claim that "current techniques are still inadequate to
//! provide desirable data utility for many graph mining tasks".
//!
//! The publisher implements the standard dK-1 pipeline for uncertain
//! graphs under edge-level ε-differential privacy:
//!
//! 1. **Private degree sequence** — the sorted *structural* degree
//!    sequence of the support graph (the probability marginal is captured
//!    separately; expected degrees would double-count the probability
//!    shrinkage), Laplace(2/ε)-noised with isotonic-regression constrained
//!    inference (Hay et al., VLDB 2009) — the state-of-practice dK-1
//!    release, free of the phantom-hub artifacts of naive histogram
//!    noising.
//! 2. **Private probability histogram** — histogram of edge probabilities
//!    over \[0, 1\] bins, Laplace-noised (sensitivity 1 per count, plus the
//!    total edge count, sensitivity 1).
//! 3. **Regeneration** — a Chung–Lu graph with weights drawn from the
//!    noised degree histogram and probabilities drawn from the noised
//!    probability histogram.
//!
//! The published graph has NO node correspondence with the input (the
//! synthetic generator relabels everything), so per-pair reliability is
//! undefined; compare aggregates (degree distribution, expected connected
//! pairs, distances, clustering) — exactly the limitation the paper's
//! §II holds against this line of work.
//!
//! # Example
//!
//! ```
//! use chameleon_dp::DpPublisher;
//! use chameleon_datasets::brightkite_like;
//!
//! let graph = brightkite_like(300, 7);
//! let publisher = DpPublisher::new(1.0); // total epsilon
//! let release = publisher.publish(&graph, 42);
//! assert_eq!(release.num_nodes(), graph.num_nodes());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod degree_sequence;
mod histogram_dp;
mod laplace;

use chameleon_stats::SeedSequence;
use chameleon_ugraph::{generators, UncertainGraph};
use degree_sequence::dp_degree_sequence;
use histogram_dp::dp_integer_histogram;
use rand::Rng;

/// ε-DP synthetic-graph publisher (dK-1 style; see crate docs).
#[derive(Debug, Clone, Copy)]
pub struct DpPublisher {
    /// Total privacy budget, split evenly between the degree histogram and
    /// the probability histogram.
    pub epsilon: f64,
    /// Number of probability bins over \[0, 1\].
    pub prob_bins: usize,
    /// Number of expected-degree bins (degree values above are clamped).
    pub max_degree_bin: usize,
}

impl DpPublisher {
    /// Publisher with the given total ε and default binning.
    ///
    /// # Panics
    /// Panics if `epsilon` is not strictly positive and finite.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be positive, got {epsilon}"
        );
        Self {
            epsilon,
            prob_bins: 10,
            max_degree_bin: 256,
        }
    }

    /// Publishes an ε-DP synthetic stand-in for `graph`.
    pub fn publish(&self, graph: &UncertainGraph, seed: u64) -> UncertainGraph {
        let seq = SeedSequence::new(seed);
        let eps_half = self.epsilon / 2.0;

        // ---- 1. Private degree sequence with constrained inference.
        let degrees: Vec<usize> = (0..graph.num_nodes() as u32)
            .map(|v| graph.degree(v))
            .collect();
        let mut rng = seq.rng("dp-degree");
        let noisy_sequence = dp_degree_sequence(&degrees, eps_half, self.max_degree_bin, &mut rng);

        // ---- 2. Private probability histogram (sensitivity 1) + count.
        let mut prob_hist = vec![0u64; self.prob_bins];
        for e in graph.edges() {
            let bin = ((e.p * self.prob_bins as f64) as usize).min(self.prob_bins - 1);
            prob_hist[bin] += 1;
        }
        let mut rng = seq.rng("dp-prob");
        let noisy_probs = dp_integer_histogram(&prob_hist, 1.0 / eps_half, &mut rng);

        // ---- 3. Regenerate. The noisy degree sequence has exactly one
        // entry per node (node count is public), so it is the Chung-Lu
        // weight sequence directly.
        let weights: Vec<f64> = noisy_sequence.iter().map(|&d| d as f64).collect();
        let mut rng = seq.rng("dp-topology");
        let mut synthetic = generators::chung_lu(&weights, &mut rng);

        // Probabilities from the noisy histogram (uniform within a bin).
        let total: u64 = noisy_probs.iter().sum();
        let mut rng = seq.rng("dp-probs-assign");
        for e in 0..synthetic.num_edges() as u32 {
            let p = if total == 0 {
                rng.gen::<f64>().clamp(1e-9, 1.0)
            } else {
                let mut x = rng.gen_range(0..total);
                let mut bin = 0usize;
                for (i, &c) in noisy_probs.iter().enumerate() {
                    if x < c {
                        bin = i;
                        break;
                    }
                    x -= c;
                }
                let lo = bin as f64 / self.prob_bins as f64;
                let hi = (bin + 1) as f64 / self.prob_bins as f64;
                (lo + (hi - lo) * rng.gen::<f64>()).clamp(1e-9, 1.0)
            };
            synthetic.set_prob(e, p).expect("valid probability");
        }
        synthetic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_datasets::brightkite_like;

    #[test]
    fn publish_preserves_node_count_and_validity() {
        let g = brightkite_like(200, 1);
        let release = DpPublisher::new(2.0).publish(&g, 7);
        assert_eq!(release.num_nodes(), 200);
        assert!(release.num_edges() > 0);
        assert!(release.edges().iter().all(|e| e.p > 0.0 && e.p <= 1.0));
    }

    #[test]
    fn high_epsilon_tracks_aggregates() {
        let g = brightkite_like(400, 2);
        let release = DpPublisher::new(100.0).publish(&g, 3);
        let d0 = g.expected_average_degree();
        let d1 = release.expected_average_degree();
        assert!(
            (d1 - d0).abs() / d0 < 0.35,
            "avg degree {d0} vs {d1} at eps=100"
        );
        let p0 = g.mean_edge_prob();
        let p1 = release.mean_edge_prob();
        assert!((p1 - p0).abs() < 0.1, "mean prob {p0} vs {p1}");
    }

    #[test]
    fn low_epsilon_distorts_more_than_high() {
        let g = brightkite_like(300, 4);
        let err = |eps: f64| {
            let mut worst = 0.0f64;
            // Average over a few seeds to damp generator luck.
            for seed in 0..3 {
                let release = DpPublisher::new(eps).publish(&g, seed);
                let e = (release.expected_average_degree() - g.expected_average_degree()).abs();
                worst += e;
            }
            worst / 3.0
        };
        let low = err(0.05);
        let high = err(50.0);
        assert!(
            low > high,
            "eps=0.05 error {low} should exceed eps=50 error {high}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = brightkite_like(150, 5);
        let a = DpPublisher::new(1.0).publish(&g, 11);
        let b = DpPublisher::new(1.0).publish(&g, 11);
        assert_eq!(a.num_edges(), b.num_edges());
        for (x, y) in a.edges().iter().zip(b.edges()) {
            assert_eq!((x.u, x.v), (y.u, y.v));
            assert!((x.p - y.p).abs() < 1e-15);
        }
    }

    #[test]
    fn no_node_correspondence_is_documented_behaviour() {
        // The synthetic graph generally shares no edges with the original —
        // it is a fresh draw from private statistics.
        let g = brightkite_like(200, 6);
        let release = DpPublisher::new(1.0).publish(&g, 8);
        let shared = release
            .edges()
            .iter()
            .filter(|e| g.has_edge(e.u, e.v))
            .count();
        // Some coincidental overlap is expected, but not identity.
        assert!(shared < release.num_edges());
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_epsilon() {
        let _ = DpPublisher::new(0.0);
    }
}
