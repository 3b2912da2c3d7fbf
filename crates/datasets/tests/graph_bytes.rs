//! Bytes an `UncertainGraph` holds per edge (`heap_bytes`: the edge
//! array, the adjacency lists by capacity and the endpoint index), pinned
//! on a DBLP-like input and on a release of it built the way GenObf builds
//! one: `with_edges_appended` with as many absent pairs as the input has
//! edges (c = 2).

use chameleon_datasets::dblp_like;
use chameleon_ugraph::{NodeId, UncertainGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// `graph` with `count` absent pairs appended, drawn uniformly.
fn release(graph: &UncertainGraph, count: usize, seed: u64) -> UncertainGraph {
    let n = graph.num_nodes() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut appended = Vec::with_capacity(count);
    while appended.len() < count {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v && !graph.has_edge(u, v) && seen.insert((u.min(v), u.max(v))) {
            appended.push((u, v, 0.25));
        }
    }
    graph.with_edges_appended(&appended).unwrap()
}

#[test]
fn graph_bytes_per_edge_are_pinned() {
    let input = dblp_like(4000, 41);
    let out = release(&input, input.num_edges(), 7);
    let per_edge = |g: &UncertainGraph| g.heap_bytes() as f64 / g.num_edges() as f64;
    // Per edge: 16 B of `Edge` and 16 B of adjacency entries, with the
    // slack of arrays grown by doubling in the generated input and none in
    // the release, which sizes each once; 24 B of list header per vertex;
    // and the endpoint index's 5 B a slot, 65,536 slots for the release
    // and 32,768 for the input (6.07 B an edge in both). Input: 19.42 B
    // of edge array, 25.99 of adjacency, 6.07 of index. Release: 16.00,
    // 17.78 and 6.07. The SipHash map the index replaced held 13 B a
    // bucket, 15.78 B an edge in both: 61.20 and 49.56 B an edge in all.
    assert_eq!(
        (input.num_edges(), input.heap_bytes()),
        (26_995, 1_389_856),
        "input: {:.2} B an edge",
        per_edge(&input)
    );
    assert_eq!(
        (out.num_edges(), out.heap_bytes()),
        (53_990, 2_151_360),
        "release: {:.2} B an edge",
        per_edge(&out)
    );
}
