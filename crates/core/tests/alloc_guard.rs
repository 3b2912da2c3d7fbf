//! Allocation guard for the Monte-Carlo kernel: building an N-world
//! ensemble and scanning it with the coupled ERR estimator must allocate
//! O(chunks), not O(worlds). The counting `#[global_allocator]` from
//! `chameleon_stats::alloc_guard` measures the exact heap-allocation count
//! of the serial (threads = 1) path; the historical one-`Vec`-per-world
//! layout allocated ≥ 4·N and would trip the bound immediately.
//!
//! One `#[test]` only: the counters are process-global, so concurrent
//! tests in this binary would pollute the deltas.

use chameleon_core::relevance::{
    edge_reliability_relevance_streamed, edge_reliability_relevance_threads,
};
use chameleon_reliability::{EnsembleStream, WorldEnsemble, WORLD_CHUNK};
use chameleon_stats::alloc_guard::{self, CountingAlloc};
use chameleon_ugraph::UncertainGraph;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    alloc_guard::alloc_calls()
}

fn test_graph() -> UncertainGraph {
    // ~90 edges on 30 nodes so worlds span multiple bitset words and the
    // per-world label/size buffers are non-trivial.
    let n = 30u32;
    let mut g = UncertainGraph::with_nodes(n as usize);
    let mut p = 0.15f64;
    for u in 0..n {
        for v in (u + 1)..n {
            if (u * 3 + v) % 7 < 2 {
                g.add_edge(u, v, p).unwrap();
                p = (p + 0.11) % 1.0;
            }
        }
    }
    g
}

#[test]
fn kernel_allocations_scale_with_chunks_not_worlds() {
    let g = test_graph();
    let n_worlds = 16 * WORLD_CHUNK; // 512 worlds, 16 sampling chunks
    let chunks = n_worlds / WORLD_CHUNK;

    // Warm-up: registers obs sites, faults in allocator metadata, and
    // gives growable arenas (component-size arena, label matrix) their
    // worst-case first-build growth outside the measured window.
    let warm = WorldEnsemble::sample_seeded(&g, n_worlds, 7, 1);
    let _ = edge_reliability_relevance_threads(&g, &warm, 1);
    drop(warm);

    let before_build = allocs();
    let ens = WorldEnsemble::sample_seeded(&g, n_worlds, 7, 1);
    let build_allocs = allocs() - before_build;

    let before_err = allocs();
    let err = edge_reliability_relevance_threads(&g, &ens, 1);
    let err_allocs = allocs() - before_err;

    assert_eq!(err.len(), g.num_edges());

    // O(chunks) + constant, with headroom for Vec growth doublings of the
    // chunk-concatenated arenas. The old layout allocated ≥ 4 per world
    // (world bitset + labels + sizes + adjacency scratch) — over 2048 here.
    let build_budget = 12 * chunks + 64;
    assert!(
        build_allocs <= build_budget,
        "ensemble build made {build_allocs} allocations \
         (budget {build_budget} for {chunks} chunks); kernel regressed to per-world allocation?"
    );
    assert!(
        build_allocs < n_worlds,
        "ensemble build made {build_allocs} allocations for {n_worlds} worlds"
    );

    // The ERR fold allocates per worker (its scratch and accumulator) and
    // per call, never per world; the bound is the one the earlier
    // 64-world-chunk fold was held to: 8 chunks' worth here.
    let err_chunks = n_worlds.div_ceil(64);
    let err_budget = 12 * err_chunks + 32;
    assert!(
        err_allocs <= err_budget,
        "coupled ERR made {err_allocs} allocations \
         (budget {err_budget} for {err_chunks} chunks)"
    );
    assert!(
        err_allocs < n_worlds,
        "coupled ERR made {err_allocs} allocations for {n_worlds} worlds"
    );

    // Out-of-core path (DESIGN.md §12): the ensemble gauge must show the
    // streamed analysis peaking far below the dense footprint while
    // producing the bit-identical ERR vector.
    drop(ens);
    alloc_guard::reset_ensemble_peak();
    let dense = WorldEnsemble::sample_seeded(&g, n_worlds, 7, 1);
    let dense_peak = alloc_guard::ensemble_peak_bytes();
    let dense_err = edge_reliability_relevance_threads(&g, &dense, 1);
    drop(dense);
    alloc_guard::reset_ensemble_peak();
    let stream = EnsembleStream::sample(&g, n_worlds, 7, 1, 64).expect("no ceiling configured");
    let streamed_err = edge_reliability_relevance_streamed(&g, &stream, 1).expect("no ceiling");
    let stream_peak = alloc_guard::ensemble_peak_bytes();
    assert!(
        stream_peak < dense_peak / 2,
        "streamed peak {stream_peak} bytes should undercut half the dense \
         peak {dense_peak} bytes at 512 worlds / 64-world strips"
    );
    for (a, b) in dense_err.iter().zip(&streamed_err) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
