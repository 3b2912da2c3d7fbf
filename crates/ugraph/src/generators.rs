//! Random graph topology generators.
//!
//! The paper evaluates on three real uncertain graphs (DBLP, BRIGHTKITE,
//! PPI) that are not redistributable; the dataset crate substitutes
//! synthetic graphs with matched degree/probability marginals (see
//! DESIGN.md §4). The topology half of those substitutes comes from the
//! generators here. All generators assign a placeholder probability of 1.0;
//! dataset code overwrites probabilities with its per-dataset models.

use crate::graph::{NodeId, UncertainGraph};
use rand::Rng;

/// Erdős–Rényi G(n, m): exactly `m` distinct edges drawn uniformly.
///
/// # Panics
/// Panics if `m` exceeds the number of possible edges `n·(n−1)/2`.
pub fn gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> UncertainGraph {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max_edges,
        "m={m} exceeds max edges {max_edges} for n={n}"
    );
    let mut g = UncertainGraph::with_nodes(n);
    // Rejection sampling; fine for m well below max_edges, and still
    // terminating (slowly) close to it thanks to the density guard below.
    if m > max_edges / 2 {
        // Dense: sample edges to EXCLUDE instead, then add the complement.
        let exclude = max_edges - m;
        let mut excluded = std::collections::HashSet::new();
        while excluded.len() < exclude {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                let key = if u < v { (u, v) } else { (v, u) };
                excluded.insert(key);
            }
        }
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if !excluded.contains(&(u, v)) {
                    g.add_edge(u, v, 1.0).expect("valid by construction");
                }
            }
        }
    } else {
        while g.num_edges() < m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v, 1.0).expect("valid by construction");
            }
        }
    }
    g
}

/// Barabási–Albert preferential attachment: starts from a clique of
/// `m0 = m_attach` nodes, each new node attaches to `m_attach` existing
/// nodes chosen with probability proportional to degree. Produces
/// heavy-tailed degree distributions.
///
/// # Panics
/// Panics if `n < m_attach + 1` or `m_attach == 0`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m_attach: usize, rng: &mut R) -> UncertainGraph {
    assert!(m_attach >= 1, "attachment count must be positive");
    assert!(n > m_attach, "need n > m_attach");
    let mut g = UncertainGraph::with_nodes(n);
    // Repeated-endpoints list: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m_attach);
    // Seed clique over the first m_attach + 1 nodes.
    for u in 0..=(m_attach as u32) {
        for v in (u + 1)..=(m_attach as u32) {
            g.add_edge(u, v, 1.0).unwrap();
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for new in (m_attach as u32 + 1)..(n as u32) {
        let mut targets = std::collections::BTreeSet::new();
        while targets.len() < m_attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != new {
                targets.insert(t);
            }
        }
        for &t in &targets {
            g.add_edge(new, t, 1.0).unwrap();
            endpoints.push(new);
            endpoints.push(t);
        }
    }
    g
}

/// Chung–Lu style fixed-size random graph with a target expected-degree
/// ("weight") sequence: `m = Σw/2` edges are drawn with endpoints sampled
/// proportional to weight, rejecting self-loops and duplicates. The
/// resulting degree distribution follows the weight distribution's shape
/// (exactly enough for our matched-marginal substitutes; see DESIGN.md).
pub fn chung_lu<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> UncertainGraph {
    assert!(!weights.is_empty(), "need at least one node");
    assert!(
        weights.iter().all(|&w| w.is_finite() && w >= 0.0),
        "weights must be non-negative"
    );
    let n = weights.len();
    let total: f64 = weights.iter().sum();
    let m = (total / 2.0).round() as usize;
    let mut g = UncertainGraph::with_nodes(n);
    if m == 0 || n < 2 {
        return g;
    }
    // Cumulative table for O(log n) weighted sampling.
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &w in weights {
        acc += w;
        cum.push(acc);
    }
    let sample_node = |rng: &mut R| -> NodeId {
        let x = rng.gen::<f64>() * acc;
        match cum.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
            Ok(i) | Err(i) => (i.min(n - 1)) as NodeId,
        }
    };
    let max_edges = n * (n - 1) / 2;
    let target = m.min(max_edges);
    let mut attempts = 0usize;
    let attempt_budget = 50 * target + 1000;
    while g.num_edges() < target && attempts < attempt_budget {
        attempts += 1;
        let u = sample_node(rng);
        let v = sample_node(rng);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v, 1.0).expect("valid");
        }
    }
    g
}

/// Power-law weight sequence for [`chung_lu`]: `w_i ∝ (i + i0)^(−1/(γ−1))`
/// rescaled so the mean weight equals `mean_degree`, and clamped to
/// `max_weight`. Standard construction for scale-free expected degrees with
/// exponent γ.
///
/// # Panics
/// Panics if `gamma <= 1`, `mean_degree <= 0`, or `n == 0`.
// The host's libm on purpose: this generates the benchmark's and the
// pinned tests' input graphs, and routing it through detmath would change
// them (tests/generator_pin.rs pins its output; DESIGN.md §3).
#[allow(clippy::disallowed_methods)]
pub fn power_law_weights(n: usize, gamma: f64, mean_degree: f64, max_weight: f64) -> Vec<f64> {
    assert!(n > 0, "need at least one node");
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    assert!(mean_degree > 0.0, "mean degree must be positive");
    let alpha = 1.0 / (gamma - 1.0);
    // i0 shifts the head so the maximum weight is bounded.
    let i0 = n as f64 * (mean_degree / max_weight).powf(1.0 / alpha);
    let mut w: Vec<f64> = (0..n)
        .map(|i| (n as f64 / (i as f64 + i0)).powf(alpha))
        .collect();
    let mean: f64 = w.iter().sum::<f64>() / n as f64;
    let scale = mean_degree / mean;
    for x in &mut w {
        *x = (*x * scale).min(max_weight);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnm_exact_edge_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gnm(30, 50, &mut rng);
        assert_eq!(g.num_nodes(), 30);
        assert_eq!(g.num_edges(), 50);
    }

    #[test]
    fn gnm_dense_regime() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 12;
        let max = n * (n - 1) / 2;
        let g = gnm(n, max - 3, &mut rng);
        assert_eq!(g.num_edges(), max - 3);
    }

    #[test]
    fn gnm_complete_graph() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gnm(6, 15, &mut rng);
        assert_eq!(g.num_edges(), 15);
    }

    #[test]
    #[should_panic]
    fn gnm_rejects_impossible() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = gnm(4, 100, &mut rng);
    }

    #[test]
    fn ba_structure() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200;
        let m = 3;
        let g = barabasi_albert(n, m, &mut rng);
        assert_eq!(g.num_nodes(), n);
        // clique edges + m per new node
        let expect = m * (m + 1) / 2 + (n - m - 1) * m;
        assert_eq!(g.num_edges(), expect);
        // Heavy tail: max degree far above the mean.
        let degrees: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
        let max = *degrees.iter().max().unwrap();
        let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
        assert!(max as f64 > 3.0 * mean, "max={max}, mean={mean}");
    }

    #[test]
    fn chung_lu_respects_weight_shape() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut weights = vec![2.0; 200];
        // Ten hubs with weight 40.
        for w in weights.iter_mut().take(10) {
            *w = 40.0;
        }
        let g = chung_lu(&weights, &mut rng);
        assert!(g.num_edges() > 0);
        let hub_mean: f64 = (0..10u32).map(|v| g.degree(v) as f64).sum::<f64>() / 10.0;
        let tail_mean: f64 = (10..200u32).map(|v| g.degree(v) as f64).sum::<f64>() / 190.0;
        assert!(
            hub_mean > 4.0 * tail_mean,
            "hub_mean={hub_mean}, tail_mean={tail_mean}"
        );
    }

    #[test]
    fn chung_lu_zero_weights() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = chung_lu(&[0.0, 0.0, 0.0], &mut rng);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn power_law_weights_properties() {
        let w = power_law_weights(1000, 2.5, 8.0, 300.0);
        assert_eq!(w.len(), 1000);
        let mean: f64 = w.iter().sum::<f64>() / 1000.0;
        assert!((mean - 8.0).abs() < 1.0, "mean={mean}");
        assert!(w.iter().all(|&x| x <= 300.0 + 1e-9));
        // Monotone decreasing (head is heaviest).
        for win in w.windows(2) {
            assert!(win[0] >= win[1] - 1e-12);
        }
        // Heavy tail: max ≫ mean.
        assert!(w[0] > 4.0 * mean);
    }

    #[test]
    fn generators_are_reproducible() {
        let g1 = barabasi_albert(50, 2, &mut StdRng::seed_from_u64(11));
        let g2 = barabasi_albert(50, 2, &mut StdRng::seed_from_u64(11));
        assert_eq!(g1.num_edges(), g2.num_edges());
        for (a, b) in g1.edges().iter().zip(g2.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
        }
    }
}
