//! Micro-benchmarks for the computational kernels of the reproduction,
//! including the paper's Lemma 2 vs Lemma 3 comparison: the naive per-edge
//! ERR estimator against Algorithm 2's reused-sampling estimator.

use chameleon_core::anonymity::{anonymity_check, AdversaryKnowledge};
use chameleon_core::relevance::{
    edge_reliability_relevance_alg2_threads, edge_reliability_relevance_naive,
    edge_reliability_relevance_streamed, edge_reliability_relevance_threads,
    vertex_reliability_relevance,
};
use chameleon_core::uniqueness::uniqueness_scores;
use chameleon_datasets::brightkite_like;
use chameleon_reliability::{sample_distinct_pairs, EnsembleStream, WorldEnsemble};
use chameleon_stats::detmath;
use chameleon_stats::poisson_binomial::pmf_truncated;
use chameleon_stats::trunc_normal::half_unit_quantiles;
use chameleon_stats::{PoissonBinomial, TruncatedNormal};
use chameleon_ugraph::{UncertainGraph, WorldSampler};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn graph(n: usize) -> UncertainGraph {
    brightkite_like(n, 1234)
}

fn bench_world_sampling(c: &mut Criterion) {
    let g = graph(500);
    let mut group = c.benchmark_group("world_sampling");
    group.bench_function("sample_one_world", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| black_box(WorldSampler::sample(&g, &mut rng)))
    });
    group.bench_function("connected_pairs_per_world", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let w = WorldSampler::sample(&g, &mut rng);
        b.iter(|| black_box(w.connected_pairs(&g)))
    });
    group.finish();
}

fn bench_ensemble(c: &mut Criterion) {
    let g = graph(500);
    let mut group = c.benchmark_group("ensemble");
    group.sample_size(20);
    group.bench_function("build_200_worlds", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            black_box(WorldEnsemble::sample(&g, 200, &mut rng))
        })
    });
    let mut rng = StdRng::seed_from_u64(3);
    let ens = WorldEnsemble::sample(&g, 200, &mut rng);
    let pairs = sample_distinct_pairs(g.num_nodes(), 500, &mut rng);
    group.bench_function("reliability_500_pairs", |b| {
        b.iter(|| black_box(ens.reliability_many(&pairs)))
    });
    group.finish();
}

/// One 64-world strip — the strip size of the `population` benchmark —
/// at n = 10⁴, where the strip's label arena (2.5 MB) outgrows a core's
/// L2 as it does at population scale (the `ensemble` group's n = 500
/// stays in L1): the labeled strip ensemble `for_each_strip` builds, at
/// 1 and 2 threads, and the coupled ERR fold over the strip's worlds at 2
/// threads.
fn bench_strip(c: &mut Criterion) {
    let g = graph(10_000);
    let strip = WorldEnsemble::sample_seeded(&g, 64, 8, 2);
    let mut group = c.benchmark_group("strip_64_worlds_n10k");
    group.sample_size(10);
    for threads in [1usize, 2] {
        group.bench_function(BenchmarkId::new("analyze", threads), |b| {
            b.iter(|| {
                black_box(WorldEnsemble::from_matrix_threads(
                    &g,
                    strip.matrix().clone(),
                    threads,
                ))
            })
        });
    }
    group.bench_function(BenchmarkId::new("err_coupled_fold", 2), |b| {
        b.iter(|| black_box(edge_reliability_relevance_threads(&g, &strip, 2)))
    });
    group.finish();
}

/// The per-world kernel (`reliability::fold`) over the same 64 worlds,
/// stored as one strip: pair hits straight from each world's union-find,
/// and the connected-pair and coupled-ERR folds that label each world into
/// per-worker scratch, at 1 and 2 threads.
fn bench_world_fold(c: &mut Criterion) {
    let g = graph(10_000);
    let pairs = sample_distinct_pairs(g.num_nodes(), 64, &mut StdRng::seed_from_u64(9));
    let mut group = c.benchmark_group("world_fold_64_worlds_n10k");
    group.sample_size(10);
    for threads in [1usize, 2] {
        let stream = EnsembleStream::sample(&g, 64, 8, threads, 64).expect("no ceiling is set");
        group.bench_function(BenchmarkId::new("pair_hits_64", threads), |b| {
            b.iter(|| black_box(stream.reliability_many(&pairs)))
        });
        group.bench_function(BenchmarkId::new("connected_pairs", threads), |b| {
            b.iter(|| black_box(stream.expected_connected_pairs()))
        });
        group.bench_function(BenchmarkId::new("err_coupled", threads), |b| {
            b.iter(|| black_box(edge_reliability_relevance_streamed(&g, &stream, threads)))
        });
    }
    group.finish();
}

/// Paper Lemma 2 vs Lemma 3: the reused-sampling ERR estimator
/// (Algorithm 2) against the naive per-edge baseline. The asymptotic gap
/// is a factor of |E|; keep the instance small so the naive side finishes.
fn bench_err_estimators(c: &mut Criterion) {
    let g = graph(120);
    let mut group = c.benchmark_group("err_lemma2_vs_lemma3");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("algorithm2_reused", g.num_edges()), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            let ens = WorldEnsemble::sample(&g, 100, &mut rng);
            black_box(edge_reliability_relevance_alg2_threads(&g, &ens, 1))
        })
    });
    group.bench_function(BenchmarkId::new("coupled_default", g.num_edges()), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            let ens = WorldEnsemble::sample(&g, 100, &mut rng);
            black_box(edge_reliability_relevance_threads(&g, &ens, 1))
        })
    });
    group.bench_function(BenchmarkId::new("naive_per_edge", g.num_edges()), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            black_box(edge_reliability_relevance_naive(&g, 100, &mut rng))
        })
    });
    group.finish();
}

fn bench_anonymity_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("anonymity_check");
    for n in [200usize, 500, 1000] {
        let g = graph(n);
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(anonymity_check(&g, &knowledge, 20)))
        });
    }
    group.finish();
}

fn bench_scores(c: &mut Criterion) {
    let g = graph(500);
    let mut group = c.benchmark_group("scores");
    group.bench_function("uniqueness_500", |b| {
        b.iter(|| black_box(uniqueness_scores(&g)))
    });
    let mut rng = StdRng::seed_from_u64(6);
    let ens = WorldEnsemble::sample(&g, 150, &mut rng);
    let err = edge_reliability_relevance_threads(&g, &ens, 1);
    group.bench_function("vrr_aggregate", |b| {
        b.iter(|| black_box(vertex_reliability_relevance(&g, &err)))
    });
    group.finish();
}

fn bench_stats_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats");
    let probs: Vec<f64> = (0..64).map(|i| 0.1 + 0.8 * (i as f64 / 64.0)).collect();
    group.bench_function("poisson_binomial_64", |b| {
        b.iter(|| black_box(PoissonBinomial::new(&probs)))
    });
    // The entropy sweep's `ln` over pmf weights: the degree pmfs of 64
    // vertices of degree 1 to 64, tails included, as one slice.
    let weights: Vec<f64> = (1..=probs.len())
        .flat_map(|d| pmf_truncated(&probs[..d], d))
        .collect();
    let mut lns = vec![0.0; weights.len()];
    group.bench_function("detmath_ln_into", |b| {
        b.iter(|| {
            detmath::ln_into(black_box(&weights), &mut lns);
            lns.iter().sum::<f64>()
        })
    });
    let tn = TruncatedNormal::half_unit(0.3);
    group.bench_function("trunc_normal_sample", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(tn.sample(&mut rng)))
    });
    // GenObf's per-candidate noise transform, construction included, over
    // 256 quantiles. `erf`'s argument runs up to 1/(σ√2) ≈ 7.1, 2.4, 0.71
    // and 0.24, so between them the four σ reach every `erf` branch.
    let quantiles: Vec<f64> = (0..256).map(|i| (i as f64 + 0.5) / 256.0).collect();
    // The same quantiles through the stage-wise block form GenObf runs.
    let mut out = vec![0.0; quantiles.len()];
    for sigma in [0.1, 0.3, 1.0, 3.0] {
        group.bench_function(format!("trunc_normal_inverse_cdf/{sigma}"), |b| {
            b.iter(|| {
                quantiles.iter().fold(0.0, |acc, &u| {
                    acc + TruncatedNormal::half_unit(black_box(sigma)).inverse_cdf(u)
                })
            })
        });
        let sigmas = vec![sigma; quantiles.len()];
        group.bench_function(format!("trunc_normal_half_unit_quantiles/{sigma}"), |b| {
            b.iter(|| {
                half_unit_quantiles(black_box(&sigmas), &quantiles, &mut out);
                out.iter().sum::<f64>()
            })
        });
    }
    group.finish();
}

/// The graph's endpoint index at n = 10⁵ (BRIGHTKITE-like, 367,655
/// edges): inserting every edge through `add_edge` into a graph of
/// isolated nodes, looking every edge up from its other endpoint, and
/// looking up as many absent pairs.
fn bench_endpoint_index(c: &mut Criterion) {
    let g = graph(100_000);
    let n = g.num_nodes() as u32;
    let edges: Vec<_> = g.edges().iter().map(|e| (e.v, e.u, e.p)).collect();
    let absent: Vec<_> = (g.edges().iter())
        .map(|e| (e.u, (e.v + 7) % n))
        .filter(|&(u, v)| u != v && !g.has_edge(u, v))
        .collect();
    let mut group = c.benchmark_group("ugraph/endpoint_index");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("build", edges.len()), |b| {
        b.iter(|| {
            let mut built = UncertainGraph::with_nodes(g.num_nodes());
            for &(u, v, p) in &edges {
                built.add_edge(u, v, p).unwrap();
            }
            built
        })
    });
    group.bench_function(BenchmarkId::new("hits", edges.len()), |b| {
        b.iter(|| {
            (edges.iter())
                .filter(|&&(u, v, _)| g.find_edge(u, v).is_some())
                .count()
        })
    });
    group.bench_function(BenchmarkId::new("misses", absent.len()), |b| {
        b.iter(|| {
            (absent.iter())
                .filter(|&&(u, v)| g.find_edge(u, v).is_none())
                .count()
        })
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_world_sampling,
    bench_ensemble,
    bench_strip,
    bench_world_fold,
    bench_err_estimators,
    bench_anonymity_check,
    bench_scores,
    bench_stats_kernels,
    bench_endpoint_index
);
criterion_main!(kernels);
