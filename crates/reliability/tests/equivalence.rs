//! Kernel-equivalence suite: the flat arena ensemble must be bit-identical
//! to a reference path built on an independent oracle: one `World`
//! allocation per world and a breadth-first search over its `WorldView`,
//! with components numbered by first appearance over vertex ids. The
//! reference never touches `UnionFind`, so any drift in the optimized
//! kernel — RNG draw order, union–find linking, label numbering, size
//! indexing, pair counting — fails loudly. The `union_find` proptest pins
//! the union–find itself against the same search.

use chameleon_reliability::{WorldEnsemble, WORLD_CHUNK};
use chameleon_stats::SeedSequence;
use chameleon_ugraph::{NodeId, UncertainGraph, UnionFind, World, WorldSampler, WorldView};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-world analysis results of the reference path.
struct RefWorld {
    world: World,
    labels: Vec<u32>,
    sizes: Vec<u32>,
    connected_pairs: u64,
}

/// Connected components by breadth-first search over the world's
/// adjacency: dense labels in order of first appearance over vertex ids,
/// and each label's size.
fn bfs_components(view: &WorldView<'_>) -> (Vec<u32>, Vec<u32>) {
    let n = view.num_nodes();
    let mut labels = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n {
        if labels[s] != u32::MAX {
            continue;
        }
        let label = sizes.len() as u32;
        labels[s] = label;
        queue.push_back(s as NodeId);
        let mut size = 0u32;
        while let Some(x) = queue.pop_front() {
            size += 1;
            for y in view.neighbors(x) {
                if labels[y as usize] == u32::MAX {
                    labels[y as usize] = label;
                    queue.push_back(y);
                }
            }
        }
        sizes.push(size);
    }
    (labels, sizes)
}

fn pairs_of(sizes: &[u32]) -> u64 {
    sizes.iter().map(|&s| s as u64 * (s as u64 - 1) / 2).sum()
}

/// The reference analysis of one world: a BFS over its view.
fn analyze_reference(graph: &UncertainGraph, world: World) -> RefWorld {
    let (labels, sizes) = bfs_components(&WorldView::new(graph, &world));
    let connected_pairs = pairs_of(&sizes);
    RefWorld {
        world,
        labels,
        sizes,
        connected_pairs,
    }
}

/// The historical `sample_seeded` draw schedule: fixed chunks of
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

/// Unions `pairs` in order on `n` singletons, checking each return value
/// against the BFS partition of the pairs before it, then checks labels,
/// sizes, `num_components` and `connected_pairs` against the BFS partition
/// of all of them. Self pairs and repeats reach `union` unchanged; the
/// graph behind the BFS holds each distinct non-self pair once.
fn check_union_find(n: usize, pairs: &[(u32, u32)]) {
    let mut g = UncertainGraph::with_nodes(n);
    for &(a, b) in pairs {
        if a != b && !g.has_edge(a, b) {
            g.add_edge(a, b, 0.5).unwrap();
        }
    }
    let mut world = World::empty(g.num_edges());
    let mut uf = UnionFind::new(n);
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let (before, _) = bfs_components(&WorldView::new(&g, &world));
        let distinct = before[a as usize] != before[b as usize];
        assert_eq!(uf.union(a, b), distinct, "union #{i} ({a}, {b})");
        if let Some(e) = g.find_edge(a, b) {
            world.set(e, true);
        }
    }
    let (labels, sizes) = bfs_components(&WorldView::new(&g, &world));
    assert_eq!(uf.num_components(), sizes.len());
    assert_eq!(uf.connected_pairs(), pairs_of(&sizes));
    assert_eq!(uf.component_labels(), labels);
    let mut out = vec![0u32; n];
    let mut out_sizes = Vec::new();
    assert_eq!(
        uf.labels_and_sizes(&mut out, &mut out_sizes),
        (sizes.len(), pairs_of(&sizes))
    );
    assert_eq!(out, labels);
    assert_eq!(out_sizes, sizes);
    for a in 0..n as u32 {
        assert!(uf.find(a) <= a, "a set's root is its smallest member");
        for b in 0..n as u32 {
            assert_eq!(uf.connected(a, b), labels[a as usize] == labels[b as usize]);
        }
    }
}

#[test]
fn union_find_matches_bfs_on_adversarial_orders() {
    check_union_find(0, &[]);
    check_union_find(1, &[]);
    check_union_find(1, &[(0, 0), (0, 0)]);
    let n = 64u32;
    // A path whose edges arrive in descending order, so every union hangs
    // a fresh root on a growing chain; and the same path ascending.
    let desc: Vec<(u32, u32)> = (0..n - 1).rev().map(|i| (i + 1, i)).collect();
    check_union_find(n as usize, &desc);
    let asc: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    check_union_find(n as usize, &asc);
    // Stars centred on the largest and on the smallest vertex.
    let star_hi: Vec<(u32, u32)> = (0..n - 1).map(|v| (n - 1, v)).collect();
    check_union_find(n as usize, &star_hi);
    let star_lo: Vec<(u32, u32)> = (1..n).rev().map(|v| (v, 0)).collect();
    check_union_find(n as usize, &star_lo);
    // Repeated and self unions, interleaved.
    let repeats = [
        (3, 3),
        (5, 9),
        (9, 5),
        (5, 9),
        (9, 9),
        (2, 5),
        (5, 2),
        (2, 2),
    ];
    check_union_find(12, &repeats);
}

proptest! {
    #[test]
    fn union_find(
        n in 0usize..40,
        raw in proptest::collection::vec((0u32..40, 0u32..40), 0..80),
    ) {
        let pairs: Vec<(u32, u32)> = if n == 0 {
            Vec::new()
        } else {
            raw.iter().map(|&(a, b)| (a % n as u32, b % n as u32)).collect()
        };
        check_union_find(n, &pairs);
    }
}
