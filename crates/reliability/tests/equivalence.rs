//! Kernel-equivalence suite: the flat arena ensemble must be bit-identical
//! to the pre-rewrite reference path (one `World` allocation per world,
//! `World::components` union–find, `component_labels()` + naive size
//! counting). The reference implementation is reproduced here, against the
//! stable public API, so any drift in the optimized kernel — RNG draw
//! order, union order, label numbering, size indexing, pair counting —
//! fails loudly.

use chameleon_reliability::{WorldEnsemble, WORLD_CHUNK};
use chameleon_stats::SeedSequence;
use chameleon_ugraph::{NodeId, UncertainGraph, World, WorldSampler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-world analysis results of the historical layout.
struct RefWorld {
    world: World,
    labels: Vec<u32>,
    sizes: Vec<u32>,
    connected_pairs: u64,
}

/// The pre-rewrite analysis: one union–find per world via
/// `World::components`, dense labels via `component_labels`, sizes by
/// counting label occurrences.
fn analyze_reference(graph: &UncertainGraph, world: World) -> RefWorld {
    let mut uf = world.components(graph);
    let labels = uf.component_labels();
    let ncomp = uf.num_components();
    let mut sizes = vec![0u32; ncomp];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let connected_pairs = uf.connected_pairs();
    RefWorld {
        world,
        labels,
        sizes,
        connected_pairs,
    }
}

/// The pre-rewrite `sample_seeded` draw schedule: fixed chunks of
/// [`WORLD_CHUNK`] worlds, chunk `c` drawing from the RNG stream
/// `(seed, "world-chunk", c)`, one `WorldSampler::sample` call per world.
fn sample_seeded_reference(graph: &UncertainGraph, n: usize, seed: u64) -> Vec<RefWorld> {
    let seq = SeedSequence::new(seed);
    let mut out = Vec::with_capacity(n);
    let mut c = 0u64;
    while out.len() < n {
        let mut rng = seq.rng_indexed("world-chunk", c);
        let take = WORLD_CHUNK.min(n - out.len());
        for _ in 0..take {
            out.push(analyze_reference(
                graph,
                WorldSampler::sample(graph, &mut rng),
            ));
        }
        c += 1;
    }
    out
}

fn assert_matches_reference(graph: &UncertainGraph, ens: &WorldEnsemble, reference: &[RefWorld]) {
    assert_eq!(ens.len(), reference.len());
    assert_eq!(ens.num_nodes(), graph.num_nodes());
    for (w, r) in reference.iter().enumerate() {
        assert_eq!(ens.world(w), r.world.as_world_ref(), "world {w} bits");
        assert_eq!(ens.labels(w), r.labels.as_slice(), "world {w} labels");
        assert_eq!(
            ens.component_sizes(w),
            r.sizes.as_slice(),
            "world {w} sizes"
        );
        assert_eq!(ens.connected_pairs(w), r.connected_pairs, "world {w} pairs");
    }
}

/// Reference `reliability_many`: the plain per-pair/per-world double loop,
/// no blocking.
fn reliability_many_reference(reference: &[RefWorld], pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    pairs
        .iter()
        .map(|&(u, v)| {
            if reference.is_empty() {
                return 0.0;
            }
            let hits = reference
                .iter()
                .filter(|r| r.labels[u as usize] == r.labels[v as usize])
                .count();
            hits as f64 / reference.len() as f64
        })
        .collect()
}

/// A deterministic pair list covering all node pairs (capped), in a mixed
/// order so blocking bugs that only show off the diagonal get exercised.
fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v {
                pairs.push((u, v));
            }
        }
    }
    pairs
}

fn check_graph(graph: &UncertainGraph, n_worlds: usize, seed: u64) {
    let reference = sample_seeded_reference(graph, n_worlds, seed);
    for threads in [1, 2, 4] {
        let ens = WorldEnsemble::sample_seeded(graph, n_worlds, seed, threads);
        assert_matches_reference(graph, &ens, &reference);
        let pairs = all_pairs(graph.num_nodes());
        let flat = ens.reliability_many(&pairs);
        let refr = reliability_many_reference(&reference, &pairs);
        for (i, (f, r)) in flat.iter().zip(&refr).enumerate() {
            assert_eq!(f.to_bits(), r.to_bits(), "pair {i}");
        }
    }
}

fn bridge_graph() -> UncertainGraph {
    let mut g = UncertainGraph::with_nodes(6);
    for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
        g.add_edge(u, v, 0.9).unwrap();
    }
    g.add_edge(2, 3, 0.5).unwrap();
    g
}

#[test]
fn flat_ensemble_matches_reference_on_bridge_graph() {
    // Ragged tail: not a multiple of WORLD_CHUNK.
    check_graph(&bridge_graph(), 2 * WORLD_CHUNK + 13, 42);
}

#[test]
fn flat_ensemble_matches_reference_on_exact_chunk_multiple() {
    check_graph(&bridge_graph(), 2 * WORLD_CHUNK, 7);
}

#[test]
fn flat_ensemble_matches_reference_below_one_chunk() {
    check_graph(&bridge_graph(), WORLD_CHUNK - 5, 3);
}

#[test]
fn flat_ensemble_matches_reference_on_empty_graph() {
    let g = UncertainGraph::with_nodes(5);
    check_graph(&g, WORLD_CHUNK + 9, 17);
}

#[test]
fn flat_ensemble_matches_reference_on_all_deterministic_graph() {
    // Every edge has p ∈ {0, 1}: the sampling plan draws zero uniforms and
    // the template carries all present bits.
    let mut g = UncertainGraph::with_nodes(7);
    g.add_edge(0, 1, 1.0).unwrap();
    g.add_edge(1, 2, 1.0).unwrap();
    g.add_edge(2, 3, 0.0).unwrap();
    g.add_edge(4, 5, 1.0).unwrap();
    g.add_edge(5, 6, 0.0).unwrap();
    check_graph(&g, WORLD_CHUNK + 1, 23);
}

#[test]
fn flat_ensemble_matches_reference_past_a_word_boundary() {
    // More than 64 edges so worlds span multiple bitset words.
    let n = 40u32;
    let mut g = UncertainGraph::with_nodes(n as usize);
    let mut p = 0.1f64;
    for u in 0..n {
        for v in (u + 1)..n {
            if (u + v) % 5 == 0 {
                g.add_edge(u, v, p).unwrap();
                p = (p + 0.13) % 1.0;
            }
        }
    }
    assert!(g.num_edges() > 64, "need multi-word worlds");
    check_graph(&g, WORLD_CHUNK + 3, 29);
}

/// Random uncertain graph: up to 12 nodes, edge probabilities mixing
/// deterministic (0/1) and uncertain values.
fn arb_graph() -> impl Strategy<Value = UncertainGraph> {
    (
        2usize..12,
        proptest::collection::vec((0u8..4, 0.0f64..1.0), 0..24),
    )
        .prop_map(|(n, edge_specs)| {
            let mut g = UncertainGraph::with_nodes(n);
            for (i, (kind, p)) in edge_specs.into_iter().enumerate() {
                let u = (i % n) as u32;
                let v = ((i * 7 + 1 + kind as usize) % n) as u32;
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flat_ensemble_matches_reference_on_random_graphs(
        g in arb_graph(),
        seed in 0u64..1000,
        n_worlds in 1usize..(2 * WORLD_CHUNK + 9),
    ) {
        check_graph(&g, n_worlds, seed);
    }

    #[test]
    fn sequential_sampler_matches_reference_on_random_graphs(
        g in arb_graph(),
        seed in 0u64..1000,
        n_worlds in 1usize..40,
    ) {
        // `WorldEnsemble::sample` must consume the RNG exactly like the
        // per-world sampler: same draws, same worlds, same analysis.
        let mut rng_a = StdRng::seed_from_u64(seed);
        let ens = WorldEnsemble::sample(&g, n_worlds, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let reference: Vec<RefWorld> = (0..n_worlds)
            .map(|_| analyze_reference(&g, WorldSampler::sample(&g, &mut rng_b)))
            .collect();
        assert_matches_reference(&g, &ens, &reference);
        // Both paths must leave the RNG in the same state.
        use rand::Rng;
        prop_assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }
}
