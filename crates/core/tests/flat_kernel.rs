//! ERR word-scan equivalence: both estimators now walk present/absent
//! edges by bitset word, and the result must be bit-for-bit identical to
//! the historical per-edge `contains` skip loops. The reference loops are
//! reproduced here against the public ensemble accessors.

use chameleon_core::relevance::{
    edge_reliability_relevance_alg2_threads, edge_reliability_relevance_threads,
};
use chameleon_reliability::WorldEnsemble;
use chameleon_ugraph::UncertainGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Worlds per accumulation chunk of the historical ERR folds, whose
/// partials were folded in chunk order. The estimators now sum exact
/// integers, which equal this chunked f64 regrouping bit for bit while
/// the sums stay below 2⁵³ (DESIGN.md §12.1).
const ERR_WORLD_CHUNK: usize = 64;

fn chunk_ranges(n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..n.div_ceil(ERR_WORLD_CHUNK))
        .map(move |c| (c * ERR_WORLD_CHUNK)..(((c + 1) * ERR_WORLD_CHUNK).min(n)))
}

/// Pre-rewrite Algorithm 2 inner loop: per-edge `contains` over every
/// edge, chunked accumulation folded in chunk order.
fn alg2_reference(graph: &UncertainGraph, ensemble: &WorldEnsemble) -> Vec<f64> {
    let m = graph.num_edges();
    let n_worlds = ensemble.len();
    let mut cc_with = vec![0.0f64; m];
    let mut count_with = vec![0u32; m];
    let mut cc_total = 0.0f64;
    for range in chunk_ranges(n_worlds) {
        let mut part_cc_with = vec![0.0f64; m];
        let mut part_count = vec![0u32; m];
        let mut part_total = 0.0f64;
        for w in range {
            let world = ensemble.world(w);
            let cc = ensemble.connected_pairs(w) as f64;
            part_total += cc;
            for e in 0..m as u32 {
                if world.contains(e) {
                    part_cc_with[e as usize] += cc;
                    part_count[e as usize] += 1;
                }
            }
        }
        for e in 0..m {
            cc_with[e] += part_cc_with[e];
            count_with[e] += part_count[e];
        }
        cc_total += part_total;
    }
    (0..m)
        .map(|e| {
            let n_e = count_with[e];
            let n_not = n_worlds as u32 - n_e;
            if n_e == 0 || n_not == 0 {
                return 0.0;
            }
            let mean_with = cc_with[e] / n_e as f64;
            let mean_without = (cc_total - cc_with[e]) / n_not as f64;
            (mean_with - mean_without).max(0.0)
        })
        .collect()
}

/// Pre-rewrite coupled estimator inner loop: per-edge `contains` skip loop
/// over the `Edge` array, chunked accumulation folded in chunk order.
fn coupled_reference(graph: &UncertainGraph, ensemble: &WorldEnsemble) -> Vec<f64> {
    let m = graph.num_edges();
    let edges = graph.edges();
    let mut sum = vec![0.0f64; m];
    let mut count = vec![0u32; m];
    for range in chunk_ranges(ensemble.len()) {
        let mut part_sum = vec![0.0f64; m];
        let mut part_count = vec![0u32; m];
        for w in range {
            let world = ensemble.world(w);
            let labels = ensemble.labels(w);
            let sizes = ensemble.component_sizes(w);
            for (e, edge) in edges.iter().enumerate() {
                if world.contains(e as u32) {
                    continue;
                }
                part_count[e] += 1;
                let (lu, lv) = (labels[edge.u as usize], labels[edge.v as usize]);
                if lu != lv {
                    part_sum[e] += sizes[lu as usize] as f64 * sizes[lv as usize] as f64;
                }
            }
        }
        for e in 0..m {
            sum[e] += part_sum[e];
            count[e] += part_count[e];
        }
    }
    (0..m)
        .map(|e| {
            if count[e] == 0 {
                0.0
            } else {
                sum[e] / count[e] as f64
            }
        })
        .collect()
}

fn to_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check(graph: &UncertainGraph, n_worlds: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ens = WorldEnsemble::sample(graph, n_worlds, &mut rng);
    let ref_alg2 = alg2_reference(graph, &ens);
    let ref_coupled = coupled_reference(graph, &ens);
    for threads in [1, 2, 4] {
        prop_assert_bits(
            &edge_reliability_relevance_alg2_threads(graph, &ens, threads),
            &ref_alg2,
            "alg2",
        );
        prop_assert_bits(
            &edge_reliability_relevance_threads(graph, &ens, threads),
            &ref_coupled,
            "coupled",
        );
    }
}

fn prop_assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(to_bits(got), to_bits(want), "{what} drifted from reference");
}

fn two_clusters() -> UncertainGraph {
    let mut g = UncertainGraph::with_nodes(8);
    for &(u, v) in &[(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)] {
        g.add_edge(u, v, 0.9).unwrap();
    }
    for &(u, v) in &[(4, 5), (5, 6), (6, 7), (4, 6), (5, 7), (4, 7)] {
        g.add_edge(u, v, 0.9).unwrap();
    }
    g.add_edge(3, 4, 0.5).unwrap();
    g
}

#[test]
fn word_scan_matches_reference_on_clusters() {
    // Ragged accumulation tail: not a multiple of ERR_WORLD_CHUNK.
    check(&two_clusters(), 2 * ERR_WORLD_CHUNK + 17, 1);
}

#[test]
fn word_scan_matches_reference_with_deterministic_edges() {
    let mut g = UncertainGraph::with_nodes(5);
    g.add_edge(0, 1, 1.0).unwrap();
    g.add_edge(1, 2, 0.0).unwrap();
    g.add_edge(2, 3, 0.5).unwrap();
    g.add_edge(3, 4, 0.7).unwrap();
    check(&g, ERR_WORLD_CHUNK + 5, 2);
}

#[test]
fn word_scan_matches_reference_on_empty_graph() {
    let g = UncertainGraph::with_nodes(4);
    check(&g, 10, 3);
}

#[test]
fn word_scan_matches_reference_past_a_word_boundary() {
    // More than 64 edges: the absent-edge scan must mask the tail word
    // correctly (edges ≥ m never counted) and the present-edge scan must
    // index across word boundaries.
    let n = 30u32;
    let mut g = UncertainGraph::with_nodes(n as usize);
    let mut p = 0.05f64;
    for u in 0..n {
        for v in (u + 1)..n {
            if (u * 3 + v) % 7 < 2 {
                g.add_edge(u, v, p).unwrap();
                p = (p + 0.17) % 1.0;
            }
        }
    }
    assert!(
        g.num_edges() > 64,
        "need multi-word worlds, got {}",
        g.num_edges()
    );
    check(&g, ERR_WORLD_CHUNK + 9, 4);
}

fn arb_graph() -> impl Strategy<Value = UncertainGraph> {
    (
        2usize..10,
        proptest::collection::vec((0u8..4, 0.0f64..1.0), 0..20),
    )
        .prop_map(|(n, edge_specs)| {
            let mut g = UncertainGraph::with_nodes(n);
            for (i, (kind, p)) in edge_specs.into_iter().enumerate() {
                let u = (i % n) as u32;
                let v = ((i * 5 + 1 + kind as usize) % n) as u32;
                if u == v || g.has_edge(u, v) {
                    continue;
                }
                let prob = match kind {
                    0 => 0.0,
                    1 => 1.0,
                    _ => p,
                };
                g.add_edge(u, v, prob).unwrap();
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn word_scan_matches_reference_on_random_graphs(
        g in arb_graph(),
        seed in 0u64..1000,
        n_worlds in 1usize..(ERR_WORLD_CHUNK + 40),
    ) {
        check(&g, n_worlds, seed);
    }
}
