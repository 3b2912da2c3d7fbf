//! Representative-instance extraction (after Parchas et al., SIGMOD 2014:
//! "The pursuit of a good possible world").
//!
//! A representative is a *deterministic* graph standing in for the
//! uncertain one. The reference point is the most-probable world (keep
//! edges with p ≥ ½); the expected-degree strategy then greedily repairs
//! per-vertex discrepancies `deg_rep(v) − E[deg_G(v)]` by adding omitted
//! high-probability edges and removing included low-probability ones while
//! the total absolute discrepancy improves — the core idea of Parchas's
//! greedy algorithms (ADR/ABM), which aim to preserve expected degrees.

use chameleon_ugraph::UncertainGraph;

/// Extraction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepresentativeStrategy {
    /// Most-probable world: keep every edge with `p ≥ 0.5`.
    MostProbable,
    /// Most-probable world followed by greedy expected-degree repair
    /// (the default; closest to Parchas et al.).
    #[default]
    ExpectedDegree,
}

/// Extracts a deterministic representative. The returned graph has the
/// same node set; every retained edge carries probability 1.
pub fn extract_representative(
    graph: &UncertainGraph,
    strategy: RepresentativeStrategy,
) -> UncertainGraph {
    match strategy {
        RepresentativeStrategy::MostProbable => threshold_world(graph, 0.5),
        RepresentativeStrategy::ExpectedDegree => expected_degree_repair(graph),
    }
}

/// Keeps every edge with `p >= threshold` at probability 1.
fn threshold_world(graph: &UncertainGraph, threshold: f64) -> UncertainGraph {
    let mut rep = UncertainGraph::with_nodes(graph.num_nodes());
    for e in graph.edges() {
        if e.p >= threshold {
            rep.add_edge(e.u, e.v, 1.0).expect("valid edge");
        }
    }
    rep
}

/// Greedy expected-degree repair (see module docs).
fn expected_degree_repair(graph: &UncertainGraph) -> UncertainGraph {
    let n = graph.num_nodes();
    let expected = graph.expected_degrees();
    // Membership flags over the original edge array.
    let mut included: Vec<bool> = graph.edges().iter().map(|e| e.p >= 0.5).collect();
    // Current discrepancy per vertex.
    let mut disc: Vec<f64> = vec![0.0; n];
    for (idx, e) in graph.edges().iter().enumerate() {
        if included[idx] {
            disc[e.u as usize] += 1.0;
            disc[e.v as usize] += 1.0;
        }
    }
    for v in 0..n {
        disc[v] -= expected[v];
    }
    // Candidate moves: add omitted edges (desc p), remove included edges
    // (asc p). Two alternating passes suffice in practice; we iterate until
    // a pass makes no change (bounded by |E| flips total per pass, and the
    // objective strictly decreases, so termination is guaranteed).
    let improves = |disc: &[f64], u: usize, v: usize, delta: f64| -> bool {
        let before = disc[u].abs() + disc[v].abs();
        let after = (disc[u] + delta).abs() + (disc[v] + delta).abs();
        after + 1e-12 < before
    };
    let mut add_order: Vec<usize> = (0..graph.num_edges()).filter(|&i| !included[i]).collect();
    add_order.sort_by(|&a, &b| {
        graph.edges()[b]
            .p
            .partial_cmp(&graph.edges()[a].p)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut remove_order: Vec<usize> = (0..graph.num_edges()).filter(|&i| included[i]).collect();
    remove_order.sort_by(|&a, &b| {
        graph.edges()[a]
            .p
            .partial_cmp(&graph.edges()[b].p)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    loop {
        let mut changed = false;
        for &idx in &add_order {
            if included[idx] {
                continue;
            }
            let e = graph.edges()[idx];
            if improves(&disc, e.u as usize, e.v as usize, 1.0) {
                included[idx] = true;
                disc[e.u as usize] += 1.0;
                disc[e.v as usize] += 1.0;
                changed = true;
            }
        }
        for &idx in &remove_order {
            if !included[idx] {
                continue;
            }
            let e = graph.edges()[idx];
            if improves(&disc, e.u as usize, e.v as usize, -1.0) {
                included[idx] = false;
                disc[e.u as usize] -= 1.0;
                disc[e.v as usize] -= 1.0;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut rep = UncertainGraph::with_nodes(n);
    for (idx, e) in graph.edges().iter().enumerate() {
        if included[idx] {
            rep.add_edge(e.u, e.v, 1.0).expect("valid edge");
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_ugraph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Total absolute expected-degree discrepancy
    /// `Σ_v |deg_rep(v) − E[deg_G(v)]|`: the objective the repair minimizes.
    fn degree_discrepancy(graph: &UncertainGraph, rep: &UncertainGraph) -> f64 {
        let expected = graph.expected_degrees();
        (0..graph.num_nodes())
            .map(|v| (rep.degree(v as u32) as f64 - expected[v]).abs())
            .sum()
    }

    fn uncertain_test_graph(seed: u64) -> UncertainGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generators::gnm(60, 150, &mut rng);
        for e in 0..g.num_edges() as u32 {
            g.set_prob(e, ((e % 10) as f64 + 0.5) / 10.5).unwrap();
        }
        g
    }

    #[test]
    fn deterministic_graph_is_its_own_representative() {
        let mut g = UncertainGraph::with_nodes(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        for strategy in [
            RepresentativeStrategy::MostProbable,
            RepresentativeStrategy::ExpectedDegree,
        ] {
            let rep = extract_representative(&g, strategy);
            assert_eq!(rep.num_edges(), 2);
            assert!(rep.has_edge(0, 1) && rep.has_edge(2, 3));
            assert_eq!(degree_discrepancy(&g, &rep), 0.0);
        }
    }

    #[test]
    fn threshold_keeps_majority_edges_only() {
        let mut g = UncertainGraph::with_nodes(3);
        g.add_edge(0, 1, 0.8).unwrap();
        g.add_edge(1, 2, 0.2).unwrap();
        let rep = extract_representative(&g, RepresentativeStrategy::MostProbable);
        assert!(rep.has_edge(0, 1));
        assert!(!rep.has_edge(1, 2));
        assert!(rep.edges().iter().all(|e| e.p == 1.0));
    }

    #[test]
    fn repair_no_worse_than_threshold() {
        let g = uncertain_test_graph(1);
        let thresh = extract_representative(&g, RepresentativeStrategy::MostProbable);
        let repaired = extract_representative(&g, RepresentativeStrategy::ExpectedDegree);
        assert!(
            degree_discrepancy(&g, &repaired) <= degree_discrepancy(&g, &thresh) + 1e-9,
            "repair must not increase discrepancy: {} vs {}",
            degree_discrepancy(&g, &repaired),
            degree_discrepancy(&g, &thresh)
        );
    }

    #[test]
    fn repair_improves_skewed_graph() {
        // Star with all p = 0.4: threshold world is empty (discrepancy =
        // sum of expected degrees); repair should add edges back.
        let mut g = UncertainGraph::with_nodes(6);
        for v in 1..6u32 {
            g.add_edge(0, v, 0.4).unwrap();
        }
        let thresh = extract_representative(&g, RepresentativeStrategy::MostProbable);
        assert_eq!(thresh.num_edges(), 0);
        let repaired = extract_representative(&g, RepresentativeStrategy::ExpectedDegree);
        assert!(repaired.num_edges() > 0);
        assert!(degree_discrepancy(&g, &repaired) < degree_discrepancy(&g, &thresh));
    }

    #[test]
    fn representative_total_degree_tracks_expected() {
        let g = uncertain_test_graph(2);
        let rep = extract_representative(&g, RepresentativeStrategy::ExpectedDegree);
        let expected_total: f64 = g.expected_degrees().iter().sum();
        let rep_total: f64 = (0..g.num_nodes() as u32)
            .map(|v| rep.degree(v) as f64)
            .sum();
        assert!(
            (rep_total - expected_total).abs() / expected_total < 0.15,
            "rep_total={rep_total}, expected_total={expected_total}"
        );
    }

    #[test]
    fn representative_only_uses_original_edges() {
        let g = uncertain_test_graph(3);
        let rep = extract_representative(&g, RepresentativeStrategy::ExpectedDegree);
        for e in rep.edges() {
            assert!(
                g.has_edge(e.u, e.v),
                "edge ({},{}) not in original",
                e.u,
                e.v
            );
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let g = uncertain_test_graph(4);
        let a = extract_representative(&g, RepresentativeStrategy::ExpectedDegree);
        let b = extract_representative(&g, RepresentativeStrategy::ExpectedDegree);
        assert_eq!(a.num_edges(), b.num_edges());
        for (x, y) in a.edges().iter().zip(b.edges()) {
            assert_eq!((x.u, x.v), (y.u, y.v));
        }
    }
}
