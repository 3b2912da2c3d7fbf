//! Reliability relevance (paper §V-D): the sensitivity of the graph's
//! reliability to perturbation of a single edge.
//!
//! By the factorization lemma (Lemma 1),
//! `R_{u,v}(G) = p(e)·[R_{u,v}(G_e) − R_{u,v}(G_ē)] + R_{u,v}(G_ē)` —
//! reliability is *linear* in each individual edge probability — so the
//! edge reliability relevance is
//!
//! ```text
//! ERR^e(G) = Σ_{u,v} |∂R_{u,v}/∂p(e)| = E[cc | e present] − E[cc | e absent]
//! ```
//!
//! the gap in expected connected-pair count between the worlds containing
//! `e` and those missing it. Algorithm 2 estimates ERR for *all* edges from
//! one shared ensemble of N sampled worlds by conditioning on each edge's
//! membership — O(N·α(|V|)·|E|) total instead of the naive O(|E|·N·α·|E|)
//! (Lemma 3 vs Lemma 2).
//!
//! The vertex-level aggregate is `VRR^u = Σ_{e ∋ u} p(e)·ERR^e` — the
//! expected reliability impact of perturbing around `u`.

use chameleon_reliability::{EnsembleStream, WorldEnsemble};
use chameleon_stats::alloc_guard::BudgetExceeded;
use chameleon_stats::parallel;
use chameleon_ugraph::UncertainGraph;
use rand::Rng;
use std::ops::Range;

/// Worlds per accumulation chunk for the parallel ERR estimators. Partial
/// sums are computed per chunk and folded in chunk order, so results are
/// bit-identical at any thread count; changing this constant regroups the
/// floating-point accumulation and may shift results by ulps.
///
/// `reliability::STRIP_ALIGN` is the lcm of this and the sampling chunk:
/// strip-streamed folds then replay the same chunk partial sequence as
/// the in-RAM estimators, keeping the streamed ERR vectors bit-identical.
const ERR_WORLD_CHUNK: usize = 64;

/// Estimates `ERR^e` for every edge via the paper-faithful reused-sampling
/// estimator (paper Algorithm 2) over a pre-built ensemble, on up to
/// `threads` worker threads (`0` = all hardware threads).
///
/// For edge `e` with probability `p`, worlds are partitioned by membership
/// of `e`:
///
/// ```text
/// ERR^e ≈ mean cc over worlds containing e − mean cc over worlds missing e
///       = CC_e / (N·p̂)  −  CC_ē / (N·(1−p̂))           (with p̂ = n_e / N)
/// ```
///
/// Deterministic edges (p ∈ {0, 1}) appear in all or none of the worlds; a
/// conditional mean over an empty stratum is undefined, and we return 0 —
/// perturbing the edge by an infinitesimal amount is impossible in one
/// direction and the algorithm never needs the value (such edges carry no
/// uncertainty budget).
///
/// Note: this estimator differences two conditional means of `cc`, whose
/// world-to-world variance is large on shattered graphs; prefer the
/// coupled [`edge_reliability_relevance_threads`] (same expectation, same
/// cost, far lower variance) outside of Lemma 2/3 benchmarking.
///
/// Worlds are accumulated in fixed chunks of worlds whose partial sums are
/// folded in chunk order, so the result is bit-identical for every
/// `threads` value.
pub fn edge_reliability_relevance_alg2_threads(
    graph: &UncertainGraph,
    ensemble: &WorldEnsemble,
    threads: usize,
) -> Vec<f64> {
    let _span = chameleon_obs::span!("relevance.err_alg2");
    let mut accum = ErrAlg2Accum::new(graph);
    accum.fold(ensemble, threads);
    accum.finish()
}

/// Streaming accumulator behind [`edge_reliability_relevance_alg2_threads`]:
/// folds worlds strip by strip, replaying the exact per-chunk partial
/// sequence of the in-RAM estimator.
///
/// Bit-identity contract: strips must arrive in ascending world order and
/// every strip boundary must fall on an [`ERR_WORLD_CHUNK`] multiple
/// (`reliability::STRIP_ALIGN` guarantees this — a ragged *final* strip is
/// fine). Then each chunk's partial sums cover exactly the same worlds as
/// in the in-RAM pass, and the fold adds them in the same order, so
/// [`ErrAlg2Accum::finish`] is bit-for-bit equal to
/// [`edge_reliability_relevance_alg2_threads`].
pub(crate) struct ErrAlg2Accum {
    /// Per edge: summed `cc` and count of the worlds containing it.
    with: Vec<EdgeTally>,
    cc_total: f64,
    worlds: usize,
}

impl ErrAlg2Accum {
    /// Empty accumulator for `graph`'s edge set.
    pub fn new(graph: &UncertainGraph) -> Self {
        Self {
            with: vec![EdgeTally::default(); graph.num_edges()],
            cc_total: 0.0,
            worlds: 0,
        }
    }

    /// Folds one strip of worlds into the running conditional sums.
    pub fn fold(&mut self, strip: &WorldEnsemble, threads: usize) {
        chameleon_obs::counter!("relevance.worlds_scanned").add(strip.len() as u64);
        for start in (0..strip.len()).step_by(ERR_WORLD_CHUNK) {
            let mut chunk_total = 0.0f64;
            for w in start..(start + ERR_WORLD_CHUNK).min(strip.len()) {
                chunk_total += strip.connected_pairs(w) as f64;
            }
            self.cc_total += chunk_total;
        }
        fold_edge_split(
            &mut self.with,
            strip,
            threads,
            |w, edges, partial, counts| {
                let cc = strip.connected_pairs(w) as f64;
                // Walk present edges word-by-word: iterate the set bits of
                // each 64-edge block, in ascending edge order.
                let words = &strip.world(w).words()[edges.start / 64..edges.end.div_ceil(64)];
                for (i, &word) in words.iter().enumerate() {
                    let base = i * 64;
                    let mut x = word;
                    while x != 0 {
                        let e = base + x.trailing_zeros() as usize;
                        x &= x - 1;
                        partial[e] += cc;
                        counts[e] += 1;
                    }
                }
            },
        );
        self.worlds += strip.len();
    }

    /// Finishes the estimate: per-edge conditional-mean gap, clamped at 0.
    pub fn finish(&self) -> Vec<f64> {
        let mut err = Vec::with_capacity(self.with.len());
        for with in &self.with {
            let n_e = with.count;
            let n_not = self.worlds as u32 - n_e;
            if n_e == 0 || n_not == 0 {
                err.push(0.0);
                continue;
            }
            let mean_with = with.sum / n_e as f64;
            let mean_without = (self.cc_total - with.sum) / n_not as f64;
            // Connectivity is monotone in edge presence, so the true gap is
            // ≥ 0; clamp away sampling noise.
            err.push((mean_with - mean_without).max(0.0));
        }
        err
    }
}

/// Coupled (variance-reduced) ERR estimator — the pipeline default — on up
/// to `threads` worker threads (`0` = all hardware threads).
///
/// By independence of the edges, coupling `G_e` and `G_ē` on all *other*
/// edges gives the exact identity
///
/// ```text
/// ERR^e = E[cc(G_e)] − E[cc(G_ē)]
///       = E_{w ~ other edges}[ s_u(w)·s_v(w)·1{u,v in different comps} ]
/// ```
///
/// where `s_x(w)` is the size of `x`'s component in `w` without `e`. A
/// sampled world of `G` that happens to lack `e` is distributed exactly as
/// a sample of the other-edge marginal, so the ensemble is reused the same
/// way as in Algorithm 2 — same O(N·|E|) cost — but each term is a
/// *within-world* difference: the huge world-to-world variance of `cc`
/// cancels instead of entering the estimate. Empirically (see the
/// `ablation errsamples` study) the cc-differencing form of Algorithm 2
/// needs orders of magnitude more worlds to rank edges stably; this
/// estimator is unbiased for the same quantity (DESIGN.md §3).
///
/// Edges present in every sampled world (e.g. p = 1) have no usable
/// samples and return 0, matching the convention of
/// [`edge_reliability_relevance_alg2_threads`] for deterministic edges.
///
/// Per-edge sums and sample counts are accumulated per fixed chunk of
/// worlds and the partials folded in chunk order, so the result is
/// bit-identical for every `threads` value.
pub fn edge_reliability_relevance_threads(
    graph: &UncertainGraph,
    ensemble: &WorldEnsemble,
    threads: usize,
) -> Vec<f64> {
    let _span = chameleon_obs::span!("relevance.err_coupled");
    let mut accum = ErrCoupledAccum::new(graph);
    accum.fold(ensemble, threads);
    accum.finish()
}

/// Streaming accumulator behind [`edge_reliability_relevance_threads`]:
/// same strip-fold contract as [`ErrAlg2Accum`] (ascending, 64-aligned
/// strips replay the in-RAM chunk partial sequence bit-for-bit).
pub(crate) struct ErrCoupledAccum {
    // SoA endpoints: the scan only touches endpoints, never probabilities,
    // so cache lines carry twice the useful data of the `Edge` array.
    us: Vec<u32>,
    vs: Vec<u32>,
    /// Per edge: summed `s_u·s_v` terms and count of the worlds lacking it.
    absent: Vec<EdgeTally>,
}

impl ErrCoupledAccum {
    /// Empty accumulator for `graph`'s edge set.
    pub fn new(graph: &UncertainGraph) -> Self {
        let (us, vs) = graph.endpoint_soa();
        Self {
            us,
            vs,
            absent: vec![EdgeTally::default(); graph.num_edges()],
        }
    }

    /// Folds one strip of worlds into the running per-edge sums.
    pub fn fold(&mut self, strip: &WorldEnsemble, threads: usize) {
        let m = self.absent.len();
        let (us, vs) = (&self.us[..], &self.vs[..]);
        chameleon_obs::counter!("relevance.worlds_scanned").add(strip.len() as u64);
        fold_edge_split(
            &mut self.absent,
            strip,
            threads,
            |w, edges, partial, counts| {
                let (us, vs) = (&us[edges.clone()], &vs[edges.clone()]);
                let labels = strip.labels(w);
                let sizes = strip.component_sizes(w);
                // Walk *absent* edges word-by-word: the set bits of `!word`,
                // masked to the valid tail in the final 64-edge block, in
                // ascending edge order.
                let words = &strip.world(w).words()[edges.start / 64..edges.end.div_ceil(64)];
                for (i, &word) in words.iter().enumerate() {
                    let base = i * 64;
                    let width = (m - edges.start - base).min(64);
                    let mut x = !word;
                    if width < 64 {
                        x &= (1u64 << width) - 1;
                    }
                    while x != 0 {
                        let e = base + x.trailing_zeros() as usize;
                        x &= x - 1;
                        counts[e] += 1;
                        let (lu, lv) = (labels[us[e] as usize], labels[vs[e] as usize]);
                        if lu != lv {
                            partial[e] += sizes[lu as usize] as f64 * sizes[lv as usize] as f64;
                        }
                    }
                }
            },
        );
    }

    /// Finishes the estimate: per-edge conditional mean (0 with no samples).
    pub fn finish(&self) -> Vec<f64> {
        self.absent
            .iter()
            .map(|t| {
                if t.count == 0 {
                    0.0
                } else {
                    t.sum / t.count as f64
                }
            })
            .collect()
    }
}

/// One edge's running total in an ERR accumulator: a sum of per-world
/// terms, folded chunk partial by chunk partial, and a world count.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeTally {
    sum: f64,
    count: u32,
}

/// Folds `strip` into `tallies`, split over edges: the edges are cut into
/// 64-aligned ranges, one per thread, and each range walks every
/// [`ERR_WORLD_CHUNK`]-world chunk of the strip in chunk order.
///
/// `scan(w, edges, partial, counts)` adds world `w`'s terms and world
/// counts for the edge range `edges` into the chunk's `partial` sums and
/// `counts`; both are indexed from `edges.start`, and the world's words
/// for the range start at word `edges.start / 64`. Every chunk partial
/// starts at 0.0, sums its worlds in ascending order and is added
/// to the running total in chunk order, so each edge sees exactly the
/// additions of a serial world-major pass: the split changes which thread
/// does an edge's arithmetic, never the arithmetic, and the result is
/// bit-identical at every thread count.
fn fold_edge_split<F>(tallies: &mut [EdgeTally], strip: &WorldEnsemble, threads: usize, scan: F)
where
    F: Fn(usize, Range<usize>, &mut [f64], &mut [u32]) + Sync,
{
    let m = tallies.len();
    let threads = parallel::resolve_threads(threads);
    let block = m.div_ceil(64).div_ceil(threads).max(1) * 64;
    parallel::map_chunks_into(
        tallies,
        1,
        m,
        block,
        threads,
        || (Vec::<f64>::new(), Vec::<u32>::new()),
        |(partial, counts), _, edges, tallies| {
            for start in (0..strip.len()).step_by(ERR_WORLD_CHUNK) {
                partial.clear();
                partial.resize(edges.len(), 0.0);
                counts.clear();
                counts.resize(edges.len(), 0);
                for w in start..(start + ERR_WORLD_CHUNK).min(strip.len()) {
                    scan(w, edges.clone(), partial, counts);
                }
                for ((t, &p), &c) in tallies.iter_mut().zip(partial.iter()).zip(counts.iter()) {
                    t.sum += p;
                    t.count += c;
                }
            }
        },
    );
}

/// Strip-streamed [`edge_reliability_relevance_threads`]: folds the
/// world strips of an [`EnsembleStream`] one by one, never
/// materializing more than one strip of labeled worlds, and returns the
/// *bit-identical* ERR vector the in-RAM estimator would produce on the
/// same `(n, seed)` ensemble.
///
/// # Errors
///
/// Fails if analyzing a strip would breach the configured ensemble byte
/// ceiling (`alloc_guard::set_ensemble_limit`).
pub fn edge_reliability_relevance_streamed(
    graph: &UncertainGraph,
    stream: &EnsembleStream<'_>,
    threads: usize,
) -> Result<Vec<f64>, BudgetExceeded> {
    let _span = chameleon_obs::span!("relevance.err_coupled_streamed");
    let mut accum = ErrCoupledAccum::new(graph);
    stream.for_each_strip(|_, strip| accum.fold(strip, threads))?;
    Ok(accum.finish())
}

/// Naive ERR estimator (paper's "baseline algorithm", Lemma 2): for each
/// edge, sample two fresh conditioned ensembles (e forced present / forced
/// absent) and difference their expected connected-pair counts. Quadratic
/// in |E|; retained for testing and for the Lemma 2-vs-3 benchmark.
pub fn edge_reliability_relevance_naive<R: Rng + ?Sized>(
    graph: &UncertainGraph,
    num_worlds: usize,
    rng: &mut R,
) -> Vec<f64> {
    let m = graph.num_edges();
    let mut err = Vec::with_capacity(m);
    let mut g = graph.clone();
    for e in 0..m as u32 {
        let p = graph.prob(e);
        g.set_prob(e, 1.0).expect("in range");
        let with = WorldEnsemble::sample(&g, num_worlds, rng).expected_connected_pairs();
        g.set_prob(e, 0.0).expect("in range");
        let without = WorldEnsemble::sample(&g, num_worlds, rng).expected_connected_pairs();
        g.set_prob(e, p).expect("in range");
        err.push((with - without).max(0.0));
    }
    err
}

/// Vertex reliability relevance `VRR^u = Σ_{e ∋ u} p(e)·ERR^e`
/// (paper §V-D).
pub fn vertex_reliability_relevance(graph: &UncertainGraph, err: &[f64]) -> Vec<f64> {
    assert_eq!(err.len(), graph.num_edges(), "ERR vector length mismatch");
    let mut vrr = vec![0.0; graph.num_nodes()];
    for (idx, edge) in graph.edges().iter().enumerate() {
        let contribution = edge.p * err[idx];
        vrr[edge.u as usize] += contribution;
        vrr[edge.v as usize] += contribution;
    }
    vrr
}

/// Min–max normalizes a score vector to `[0, 1]` (used by GenObf line 5 to
/// normalize VRR before combining with uniqueness). Constant vectors map to
/// all-zeros.
pub fn min_max_normalize(scores: &[f64]) -> Vec<f64> {
    if scores.is_empty() {
        return Vec::new();
    }
    let lo = scores.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    if span <= 0.0 {
        return vec![0.0; scores.len()];
    }
    scores.iter().map(|&s| (s - lo) / span).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's Fig. 5(a) scenario: two reliable clusters joined by a
    /// single bridge; the bridge must dominate ERR.
    fn two_clusters() -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(8);
        // cluster A: 0,1,2,3 near-clique
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)] {
            g.add_edge(u, v, 0.9).unwrap();
        }
        // cluster B: 4,5,6,7 near-clique
        for &(u, v) in &[(4, 5), (5, 6), (6, 7), (4, 6), (5, 7), (4, 7)] {
            g.add_edge(u, v, 0.9).unwrap();
        }
        // bridge
        g.add_edge(3, 4, 0.5).unwrap();
        g
    }

    #[test]
    fn bridge_edge_has_highest_relevance() {
        let g = two_clusters();
        let mut rng = StdRng::seed_from_u64(0);
        let ens = WorldEnsemble::sample(&g, 2000, &mut rng);
        let err = edge_reliability_relevance_threads(&g, &ens, 1);
        let bridge = g.find_edge(3, 4).unwrap() as usize;
        for (e, &score) in err.iter().enumerate() {
            if e != bridge {
                assert!(
                    err[bridge] > score,
                    "bridge ERR {} must dominate edge {e}'s {score}",
                    err[bridge]
                );
            }
        }
        // Analytically: making the bridge present connects ~4×4 = 16 extra
        // pairs (both clusters are internally connected w.h.p.).
        assert!(err[bridge] > 10.0, "bridge ERR = {}", err[bridge]);
    }

    #[test]
    fn single_edge_graph_exact_value() {
        // One edge on 2 nodes: cc = 1 when present, 0 when absent → ERR = 1.
        let mut g = UncertainGraph::with_nodes(2);
        g.add_edge(0, 1, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let ens = WorldEnsemble::sample(&g, 3000, &mut rng);
        let err = edge_reliability_relevance_threads(&g, &ens, 1);
        assert!((err[0] - 1.0).abs() < 0.05, "err={}", err[0]);
    }

    #[test]
    fn deterministic_edges_coupled_semantics() {
        let mut g = UncertainGraph::with_nodes(3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let ens = WorldEnsemble::sample(&g, 100, &mut rng);
        let err = edge_reliability_relevance_threads(&g, &ens, 1);
        // p = 1: never absent from a world → no usable samples → 0.
        assert_eq!(err[0], 0.0);
        // p = 0: the coupled estimator still knows its marginal impact —
        // adding 1-2 would connect pairs (1,2) and (0,2).
        assert!((err[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn alg2_deterministic_edges_get_zero() {
        let mut g = UncertainGraph::with_nodes(3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let ens = WorldEnsemble::sample(&g, 100, &mut rng);
        // Algorithm 2 cannot condition on an empty stratum: both are 0.
        assert_eq!(
            edge_reliability_relevance_alg2_threads(&g, &ens, 1),
            vec![0.0, 0.0]
        );
    }

    #[test]
    fn coupled_matches_alg2_in_expectation() {
        let g = two_clusters();
        let mut rng = StdRng::seed_from_u64(12);
        let ens = WorldEnsemble::sample(&g, 6000, &mut rng);
        let coupled = edge_reliability_relevance_threads(&g, &ens, 1);
        let alg2 = edge_reliability_relevance_alg2_threads(&g, &ens, 1);
        // Same target quantity; Algorithm 2 is noisier, so compare loosely.
        for (e, (c, a)) in coupled.iter().zip(&alg2).enumerate() {
            assert!((c - a).abs() < 1.5, "edge {e}: coupled={c}, alg2={a}");
        }
    }

    #[test]
    fn coupled_single_edge_exact() {
        // One p = 0.5 edge on 2 nodes: every e-absent world has two
        // singletons → s_u·s_v = 1 exactly, no Monte-Carlo noise at all.
        let mut g = UncertainGraph::with_nodes(2);
        g.add_edge(0, 1, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let ens = WorldEnsemble::sample(&g, 50, &mut rng);
        let err = edge_reliability_relevance_threads(&g, &ens, 1);
        assert_eq!(err[0], 1.0);
    }

    #[test]
    fn reused_matches_naive() {
        let g = two_clusters();
        let mut rng = StdRng::seed_from_u64(3);
        let ens = WorldEnsemble::sample(&g, 4000, &mut rng);
        let fast = edge_reliability_relevance_threads(&g, &ens, 1);
        let naive = edge_reliability_relevance_naive(&g, 1500, &mut rng);
        for (e, (f, n)) in fast.iter().zip(&naive).enumerate() {
            assert!((f - n).abs() < 1.2, "edge {e}: fast={f}, naive={n}");
        }
    }

    #[test]
    fn parallel_paths_reduce_relevance() {
        // Edge 0-1 alone vs edge 0-1 with a strong parallel path 0-2-1:
        // the parallel path makes 0-1 less critical.
        let mut lone = UncertainGraph::with_nodes(2);
        lone.add_edge(0, 1, 0.5).unwrap();
        let mut redundant = UncertainGraph::with_nodes(3);
        redundant.add_edge(0, 1, 0.5).unwrap();
        redundant.add_edge(0, 2, 0.95).unwrap();
        redundant.add_edge(2, 1, 0.95).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let ens = WorldEnsemble::sample(&lone, 3000, &mut rng);
        let e_lone = edge_reliability_relevance_threads(&lone, &ens, 1)[0];
        let ens = WorldEnsemble::sample(&redundant, 3000, &mut rng);
        let e_red = edge_reliability_relevance_threads(&redundant, &ens, 1)[0];
        assert!(
            e_red < e_lone,
            "redundant {e_red} should be below lone {e_lone}"
        );
    }

    #[test]
    fn vrr_aggregates_incident_edges() {
        let mut g = UncertainGraph::with_nodes(3);
        g.add_edge(0, 1, 0.5).unwrap();
        g.add_edge(1, 2, 0.25).unwrap();
        let err = vec![2.0, 4.0];
        let vrr = vertex_reliability_relevance(&g, &err);
        assert!((vrr[0] - 0.5 * 2.0).abs() < 1e-12);
        assert!((vrr[1] - (0.5 * 2.0 + 0.25 * 4.0)).abs() < 1e-12);
        assert!((vrr[2] - 0.25 * 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn vrr_rejects_wrong_length() {
        let mut g = UncertainGraph::with_nodes(2);
        g.add_edge(0, 1, 0.5).unwrap();
        let _ = vertex_reliability_relevance(&g, &[1.0, 2.0]);
    }

    #[test]
    fn min_max_normalize_behaviour() {
        assert_eq!(min_max_normalize(&[]), Vec::<f64>::new());
        assert_eq!(min_max_normalize(&[3.0, 3.0]), vec![0.0, 0.0]);
        let n = min_max_normalize(&[1.0, 2.0, 3.0]);
        assert!((n[0] - 0.0).abs() < 1e-15);
        assert!((n[1] - 0.5).abs() < 1e-15);
        assert!((n[2] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn threaded_estimators_are_bitwise_thread_count_invariant() {
        let g = two_clusters();
        let mut rng = StdRng::seed_from_u64(20);
        // A world count straddling several accumulation chunks, with a
        // ragged tail.
        let ens = WorldEnsemble::sample(&g, 3 * super::ERR_WORLD_CHUNK + 11, &mut rng);
        let coupled_1 = edge_reliability_relevance_threads(&g, &ens, 1);
        let alg2_1 = edge_reliability_relevance_alg2_threads(&g, &ens, 1);
        for threads in [2, 4, 8] {
            let coupled_n = edge_reliability_relevance_threads(&g, &ens, threads);
            let alg2_n = edge_reliability_relevance_alg2_threads(&g, &ens, threads);
            for e in 0..g.num_edges() {
                assert_eq!(coupled_1[e].to_bits(), coupled_n[e].to_bits());
                assert_eq!(alg2_1[e].to_bits(), alg2_n[e].to_bits());
            }
        }
    }

    #[test]
    fn streamed_estimators_are_bit_identical_to_in_ram() {
        let g = two_clusters();
        // Several strips plus a ragged tail, exercising carried partials.
        let n = 3 * super::ERR_WORLD_CHUNK + 11;
        let ens = WorldEnsemble::sample_seeded(&g, n, 99, 1);
        let dense_coupled = edge_reliability_relevance_threads(&g, &ens, 1);
        let dense_alg2 = edge_reliability_relevance_alg2_threads(&g, &ens, 1);
        for strip in [1usize, 64, 100, n, 4 * n] {
            for threads in [1usize, 8] {
                let stream = EnsembleStream::sample(&g, n, 99, threads, strip).unwrap();
                let coupled = edge_reliability_relevance_streamed(&g, &stream, threads).unwrap();
                let mut accum = ErrAlg2Accum::new(&g);
                stream
                    .for_each_strip(|_, strip| accum.fold(strip, threads))
                    .unwrap();
                let alg2 = accum.finish();
                for e in 0..g.num_edges() {
                    assert_eq!(
                        dense_coupled[e].to_bits(),
                        coupled[e].to_bits(),
                        "coupled edge {e}, strip {strip}, {threads} threads"
                    );
                    assert_eq!(
                        dense_alg2[e].to_bits(),
                        alg2[e].to_bits(),
                        "alg2 edge {e}, strip {strip}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn err_nonnegative_everywhere() {
        let g = two_clusters();
        let mut rng = StdRng::seed_from_u64(5);
        let ens = WorldEnsemble::sample(&g, 200, &mut rng);
        let err = edge_reliability_relevance_threads(&g, &ens, 1);
        assert!(err.iter().all(|&e| e >= 0.0));
    }

    #[test]
    fn empty_graph() {
        let g = UncertainGraph::with_nodes(4);
        let mut rng = StdRng::seed_from_u64(6);
        let ens = WorldEnsemble::sample(&g, 10, &mut rng);
        let err = edge_reliability_relevance_threads(&g, &ens, 1);
        assert!(err.is_empty());
        let vrr = vertex_reliability_relevance(&g, &err);
        assert_eq!(vrr, vec![0.0; 4]);
    }
}
