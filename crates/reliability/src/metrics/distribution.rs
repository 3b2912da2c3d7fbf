//! Distribution-level comparison metrics.
//!
//! The paper's Fig. 9 reports the scalar average-degree error; reviewers
//! of anonymization systems usually also want *distributional* fidelity.
//! This module provides the standard distances between degree (or any
//! integer-valued) distributions — total variation / L1, earth mover's
//! (1-Wasserstein), and Kolmogorov–Smirnov — plus helpers to extract
//! sampled degree distributions from world ensembles.

use crate::ensemble::WorldEnsemble;
use chameleon_stats::histogram::IntHistogram;
use chameleon_ugraph::{UncertainGraph, WorldView};

/// Builds the pooled sampled-degree histogram of a graph over an ensemble
/// (each node of each world contributes one observation).
pub(crate) fn sampled_degree_distribution(
    graph: &UncertainGraph,
    ensemble: &WorldEnsemble,
) -> IntHistogram {
    let mut h = IntHistogram::new();
    for w in 0..ensemble.len() {
        let view = WorldView::new(graph, ensemble.world(w));
        for v in 0..graph.num_nodes() as u32 {
            h.push(view.degree(v) as u64);
        }
    }
    h
}

/// Normalizes an integer histogram into a dense probability vector over
/// `0..=max` (max taken across both inputs by the distance functions).
fn dense_pmf(h: &IntHistogram, max: u64) -> Vec<f64> {
    let total = h.total().max(1) as f64;
    (0..=max).map(|v| h.count(v) as f64 / total).collect()
}

/// Total-variation distance `½·Σ|p_i − q_i|` between two integer
/// histograms (0 = identical, 1 = disjoint).
pub fn total_variation(a: &IntHistogram, b: &IntHistogram) -> f64 {
    let max = a.max_value().unwrap_or(0).max(b.max_value().unwrap_or(0));
    let (pa, pb) = (dense_pmf(a, max), dense_pmf(b, max));
    0.5 * pa.iter().zip(&pb).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

/// Earth mover's distance (1-Wasserstein) between two integer histograms,
/// in units of the integer support: `Σ_i |CDF_a(i) − CDF_b(i)|`.
pub fn earth_movers(a: &IntHistogram, b: &IntHistogram) -> f64 {
    let max = a.max_value().unwrap_or(0).max(b.max_value().unwrap_or(0));
    let (pa, pb) = (dense_pmf(a, max), dense_pmf(b, max));
    let mut cum = 0.0;
    let mut dist = 0.0;
    for (x, y) in pa.iter().zip(&pb) {
        cum += x - y;
        dist += cum.abs();
    }
    dist
}

/// Kolmogorov–Smirnov statistic `max_i |CDF_a(i) − CDF_b(i)|`.
pub(crate) fn kolmogorov_smirnov(a: &IntHistogram, b: &IntHistogram) -> f64 {
    let max = a.max_value().unwrap_or(0).max(b.max_value().unwrap_or(0));
    let (pa, pb) = (dense_pmf(a, max), dense_pmf(b, max));
    let mut cum = 0.0;
    let mut worst: f64 = 0.0;
    for (x, y) in pa.iter().zip(&pb) {
        cum += x - y;
        worst = worst.max(cum.abs());
    }
    worst
}

/// All three distances between the sampled degree distributions of two
/// graphs under their ensembles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeDistributionDistances {
    /// Total variation in `[0, 1]`.
    pub total_variation: f64,
    /// Earth mover's distance in degree units.
    pub earth_movers: f64,
    /// Kolmogorov–Smirnov statistic in `[0, 1]`.
    pub kolmogorov_smirnov: f64,
}

/// Convenience: compare two graphs' sampled degree distributions.
pub fn degree_distribution_distances(
    a: &UncertainGraph,
    ens_a: &WorldEnsemble,
    b: &UncertainGraph,
    ens_b: &WorldEnsemble,
) -> DegreeDistributionDistances {
    let ha = sampled_degree_distribution(a, ens_a);
    let hb = sampled_degree_distribution(b, ens_b);
    DegreeDistributionDistances {
        total_variation: total_variation(&ha, &hb),
        earth_movers: earth_movers(&ha, &hb),
        kolmogorov_smirnov: kolmogorov_smirnov(&ha, &hb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hist(values: &[u64]) -> IntHistogram {
        let mut h = IntHistogram::new();
        for &v in values {
            h.push(v);
        }
        h
    }

    #[test]
    fn identical_histograms_have_zero_distance() {
        let a = hist(&[1, 2, 2, 3]);
        let b = hist(&[1, 2, 2, 3]);
        assert_eq!(total_variation(&a, &b), 0.0);
        assert_eq!(earth_movers(&a, &b), 0.0);
        assert_eq!(kolmogorov_smirnov(&a, &b), 0.0);
    }

    #[test]
    fn disjoint_histograms_max_tv() {
        let a = hist(&[0, 0, 0]);
        let b = hist(&[5, 5, 5]);
        assert!((total_variation(&a, &b) - 1.0).abs() < 1e-12);
        assert!((kolmogorov_smirnov(&a, &b) - 1.0).abs() < 1e-12);
        // EMD = shift of 5 units.
        assert!((earth_movers(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn emd_is_mean_shift_for_point_masses() {
        let a = hist(&[2]);
        let b = hist(&[7]);
        assert!((earth_movers(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tv_known_value() {
        // p = (.5, .5), q = (.75, .25) → TV = .25
        let a = hist(&[0, 1]);
        let b = hist(&[0, 0, 0, 1]);
        assert!((total_variation(&a, &b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn distances_symmetric() {
        let a = hist(&[0, 1, 1, 4]);
        let b = hist(&[2, 2, 3]);
        assert!((total_variation(&a, &b) - total_variation(&b, &a)).abs() < 1e-12);
        assert!((earth_movers(&a, &b) - earth_movers(&b, &a)).abs() < 1e-12);
        assert!((kolmogorov_smirnov(&a, &b) - kolmogorov_smirnov(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn ks_bounded_by_tv_times_two_relation() {
        // KS ≤ 2·TV always (KS ≤ TV·... actually KS ≤ TV is false in
        // general for CDF-vs-pmf distances; but KS ≤ 2·TV holds since each
        // CDF gap is a sum of pmf gaps). Sanity check on random data.
        let a = hist(&[0, 1, 2, 3, 3, 3, 9]);
        let b = hist(&[1, 1, 2, 5, 8]);
        assert!(kolmogorov_smirnov(&a, &b) <= 2.0 * total_variation(&a, &b) + 1e-12);
    }

    #[test]
    fn graph_level_distances_detect_perturbation() {
        let mut g = UncertainGraph::with_nodes(30);
        for v in 0..29u32 {
            g.add_edge(v, v + 1, 0.8).unwrap();
        }
        let mut h = g.clone();
        for e in 0..h.num_edges() as u32 {
            h.set_prob(e, 0.2).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(0);
        let ea = WorldEnsemble::sample(&g, 200, &mut rng);
        let eb = WorldEnsemble::sample(&h, 200, &mut rng);
        let same = degree_distribution_distances(&g, &ea, &g, &ea);
        let diff = degree_distribution_distances(&g, &ea, &h, &eb);
        assert_eq!(same.total_variation, 0.0);
        assert!(diff.total_variation > 0.2, "tv={}", diff.total_variation);
        assert!(diff.earth_movers > 0.5);
        assert!(diff.kolmogorov_smirnov > 0.2);
    }

    #[test]
    fn empty_histograms() {
        let a = IntHistogram::new();
        let b = IntHistogram::new();
        assert_eq!(total_variation(&a, &b), 0.0);
        assert_eq!(earth_movers(&a, &b), 0.0);
    }
}
