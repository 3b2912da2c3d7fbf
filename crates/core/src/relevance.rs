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
//!
//! Both estimators are exact integer folds: each world adds integer terms
//! (`cc(G_w)` or `s_u·s_v`) and a world count to per-edge `u64`/`u32`
//! accumulators through the per-world kernel of
//! [`chameleon_reliability::fold`], and each mean is taken once at the end.
//! Integer sums do not depend on which worker folded which world, so the
//! ERR vector is bit-identical at every thread count, for every strip size
//! and between the in-RAM and strip-streamed paths. Below 2⁵³ it also
//! equals the ordered f64 folds (chunk partials in world order, folded in
//! chunk order) these estimators used before, bit for bit; the `tests`
//! module keeps that reference and proptests the equality.

use chameleon_reliability::fold::{exact_mean, fold_ensemble, AnalyzedWorld, WorldFold};
use chameleon_reliability::{EnsembleStream, WorldEnsemble};
use chameleon_stats::alloc_guard::BudgetExceeded;
use chameleon_ugraph::UncertainGraph;
use rand::Rng;

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
/// The sums are exact integers (module docs), so the result is
/// bit-identical for every `threads` value.
pub fn edge_reliability_relevance_alg2_threads(
    graph: &UncertainGraph,
    ensemble: &WorldEnsemble,
    threads: usize,
) -> Vec<f64> {
    let _span = chameleon_obs::span!("relevance.err_alg2");
    chameleon_obs::counter!("relevance.worlds_scanned").add(ensemble.len() as u64);
    let fold = Alg2Err::new(graph);
    fold.finish(fold_ensemble(graph, ensemble, threads, &fold))
}

/// Per edge: an exact sum of per-world terms and the number of worlds
/// that contributed one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EdgeSums {
    sums: Vec<u64>,
    counts: Vec<u32>,
}

impl EdgeSums {
    fn zero(m: usize) -> Self {
        Self {
            sums: vec![0; m],
            counts: vec![0; m],
        }
    }

    const BYTES_PER_EDGE: usize = std::mem::size_of::<u64>() + std::mem::size_of::<u32>();

    fn merge(&mut self, other: Self) {
        for (s, o) in self.sums.iter_mut().zip(other.sums) {
            *s += o;
        }
        for (c, o) in self.counts.iter_mut().zip(other.counts) {
            *c += o;
        }
    }
}

/// Algorithm 2 as a per-world fold: per edge, the summed `cc` and count of
/// the worlds containing it, plus the summed `cc` of all worlds.
pub(crate) struct Alg2Err {
    m: usize,
}

impl Alg2Err {
    pub(crate) fn new(graph: &UncertainGraph) -> Self {
        Self {
            m: graph.num_edges(),
        }
    }

    /// Per-edge conditional-mean gap, clamped at 0.
    pub(crate) fn finish(&self, (with, cc_total, worlds): (EdgeSums, u64, u32)) -> Vec<f64> {
        let strata = with.sums.iter().zip(&with.counts);
        strata
            .map(|(&sum, &n_e)| {
                let n_not = worlds - n_e;
                if n_e == 0 || n_not == 0 {
                    return 0.0;
                }
                let mean_with = exact_mean(sum, n_e.into());
                let mean_without = exact_mean(cc_total - sum, n_not.into());
                // Connectivity is monotone in edge presence, so the true
                // gap is ≥ 0; clamp away sampling noise.
                (mean_with - mean_without).max(0.0)
            })
            .collect()
    }
}

impl WorldFold for Alg2Err {
    /// Per-edge sums over the worlds containing the edge, the summed `cc`
    /// of all worlds, and the world count.
    type Acc = (EdgeSums, u64, u32);
    const LABELS: bool = true;

    fn zero(&self) -> Self::Acc {
        (EdgeSums::zero(self.m), 0, 0)
    }

    fn acc_bytes(&self) -> usize {
        self.m * EdgeSums::BYTES_PER_EDGE
    }

    fn fold(&self, (with, cc_total, worlds): &mut Self::Acc, world: &mut AnalyzedWorld<'_>) {
        let cc = world.connected_pairs();
        *cc_total += cc;
        *worlds += 1;
        // Walk present edges word by word: the set bits of each 64-edge
        // block, in ascending edge order.
        for (i, &word) in world.world().words().iter().enumerate() {
            let mut x = word;
            while x != 0 {
                let e = i * 64 + x.trailing_zeros() as usize;
                x &= x - 1;
                with.sums[e] += cc;
                with.counts[e] += 1;
            }
        }
    }

    fn merge(&self, acc: &mut Self::Acc, (with, cc_total, worlds): Self::Acc) {
        acc.0.merge(with);
        acc.1 += cc_total;
        acc.2 += worlds;
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
/// The worlds are folded with the ensemble's cached labels and sizes, and
/// the sums are exact integers (module docs), so the result is
/// bit-identical for every `threads` value and equal to
/// [`edge_reliability_relevance_streamed`] on the same worlds.
pub fn edge_reliability_relevance_threads(
    graph: &UncertainGraph,
    ensemble: &WorldEnsemble,
    threads: usize,
) -> Vec<f64> {
    let _span = chameleon_obs::span!("relevance.err_coupled");
    chameleon_obs::counter!("relevance.worlds_scanned").add(ensemble.len() as u64);
    let fold = CoupledErr::new(graph);
    CoupledErr::finish(fold_ensemble(graph, ensemble, threads, &fold))
}

/// The coupled estimator as a per-world fold: per edge, the summed
/// `s_u·s_v` terms and count of the worlds lacking it.
pub(crate) struct CoupledErr {
    m: usize,
}

impl CoupledErr {
    pub(crate) fn new(graph: &UncertainGraph) -> Self {
        Self {
            m: graph.num_edges(),
        }
    }

    /// Per-edge conditional mean (0 with no samples).
    pub(crate) fn finish(absent: EdgeSums) -> Vec<f64> {
        let strata = absent.sums.iter().zip(&absent.counts);
        strata.map(|(&s, &c)| exact_mean(s, c.into())).collect()
    }
}

impl WorldFold for CoupledErr {
    type Acc = EdgeSums;
    const LABELS: bool = true;

    fn zero(&self) -> EdgeSums {
        EdgeSums::zero(self.m)
    }

    fn acc_bytes(&self) -> usize {
        self.m * EdgeSums::BYTES_PER_EDGE
    }

    fn fold(&self, absent: &mut EdgeSums, world: &mut AnalyzedWorld<'_>) {
        // SoA endpoints: the scan only touches endpoints, never
        // probabilities, so cache lines carry twice the useful data of the
        // `Edge` array.
        let (us, vs) = world.endpoints();
        let (labels, sizes) = (world.labels(), world.component_sizes());
        // Walk *absent* edges word by word: the set bits of `!word`,
        // masked to the valid tail in the final 64-edge block, in
        // ascending edge order.
        for (i, &word) in world.world().words().iter().enumerate() {
            let base = i * 64;
            let width = (self.m - base).min(64);
            let mut x = !word;
            if width < 64 {
                x &= (1u64 << width) - 1;
            }
            while x != 0 {
                let e = base + x.trailing_zeros() as usize;
                x &= x - 1;
                absent.counts[e] += 1;
                // Branch-free: whether an absent edge crosses components
                // is a coin flip on shattered worlds, so the term is
                // weighted by the crossing bit instead of branched on.
                let (lu, lv) = (labels[us[e] as usize], labels[vs[e] as usize]);
                let product = u64::from(sizes[lu as usize]) * u64::from(sizes[lv as usize]);
                absent.sums[e] += u64::from(lu != lv) * product;
            }
        }
    }

    fn merge(&self, absent: &mut EdgeSums, other: EdgeSums) {
        absent.merge(other);
    }
}

/// Strip-streamed [`edge_reliability_relevance_threads`]: folds the
/// stored worlds of an [`EnsembleStream`] one at a time, never labeling
/// more than one world per worker, and returns the *bit-identical* ERR
/// vector the in-RAM estimator produces on the same `(n, seed)`
/// ensemble.
///
/// # Errors
///
/// Fails if not even one worker's scratch and accumulators fit under the
/// configured ensemble byte ceiling (`alloc_guard::set_ensemble_limit`).
pub fn edge_reliability_relevance_streamed(
    graph: &UncertainGraph,
    stream: &EnsembleStream<'_>,
    threads: usize,
) -> Result<Vec<f64>, BudgetExceeded> {
    let _span = chameleon_obs::span!("relevance.err_coupled_streamed");
    chameleon_obs::counter!("relevance.worlds_scanned").add(stream.len() as u64);
    let absent = stream.fold_worlds(threads, &CoupledErr::new(graph))?;
    Ok(CoupledErr::finish(absent))
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
        // A world count straddling several 64-world chunks of the old
        // ordered fold, with a ragged tail.
        let ens = WorldEnsemble::sample(&g, 3 * 64 + 11, &mut rng);
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

    /// Algorithm 2 over a stream: the fold the in-RAM estimator runs, over
    /// the stored strips.
    fn alg2_streamed(g: &UncertainGraph, stream: &EnsembleStream<'_>, threads: usize) -> Vec<f64> {
        let fold = Alg2Err::new(g);
        fold.finish(stream.fold_worlds(threads, &fold).unwrap())
    }

    #[test]
    fn streamed_estimators_are_bit_identical_to_in_ram() {
        let g = two_clusters();
        // Several strips plus a ragged tail.
        let n = 3 * 64 + 11;
        let ens = WorldEnsemble::sample_seeded(&g, n, 99, 1);
        let dense_coupled = edge_reliability_relevance_threads(&g, &ens, 1);
        let dense_alg2 = edge_reliability_relevance_alg2_threads(&g, &ens, 1);
        for strip in [1usize, 64, 100, n, 4 * n] {
            for threads in [1usize, 8] {
                let stream = EnsembleStream::sample(&g, n, 99, threads, strip).unwrap();
                let coupled = edge_reliability_relevance_streamed(&g, &stream, threads).unwrap();
                let alg2 = alg2_streamed(&g, &stream, threads);
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

    /// The ordered f64 folds the integer folds replaced, kept as the
    /// reference they must match bit for bit below 2⁵³: each 64-world
    /// chunk's partial sums its worlds in ascending order from 0.0, and
    /// the partials are added to the running totals in chunk order. ECP
    /// was one left-to-right sum over the worlds.
    mod ordered_reference {
        use super::*;

        const CHUNK: usize = 64;

        /// Per edge: the chunk-ordered f64 sum of `term(w, e)` over the
        /// worlds where it is `Some`, and the count of those worlds.
        fn chunked_fold(
            ens: &WorldEnsemble,
            m: usize,
            term: impl Fn(usize, usize) -> Option<f64>,
        ) -> (Vec<f64>, Vec<u32>) {
            let (mut sums, mut counts) = (vec![0.0f64; m], vec![0u32; m]);
            for start in (0..ens.len()).step_by(CHUNK) {
                let mut partial = vec![0.0f64; m];
                let mut part_counts = vec![0u32; m];
                for w in start..(start + CHUNK).min(ens.len()) {
                    for e in 0..m {
                        if let Some(t) = term(w, e) {
                            partial[e] += t;
                            part_counts[e] += 1;
                        }
                    }
                }
                for e in 0..m {
                    sums[e] += partial[e];
                    counts[e] += part_counts[e];
                }
            }
            (sums, counts)
        }

        pub(super) fn coupled(g: &UncertainGraph, ens: &WorldEnsemble) -> Vec<f64> {
            let (sums, counts) = chunked_fold(ens, g.num_edges(), |w, e| {
                if ens.world(w).contains(e as u32) {
                    return None;
                }
                let edge = g.edges()[e];
                let (labels, sizes) = (ens.labels(w), ens.component_sizes(w));
                let (lu, lv) = (labels[edge.u as usize], labels[edge.v as usize]);
                Some(if lu != lv {
                    sizes[lu as usize] as f64 * sizes[lv as usize] as f64
                } else {
                    0.0
                })
            });
            let strata = sums.iter().zip(&counts);
            strata
                .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                .collect()
        }

        pub(super) fn alg2(g: &UncertainGraph, ens: &WorldEnsemble) -> Vec<f64> {
            let cc = |w: usize| ens.connected_pairs(w) as f64;
            let (with, counts) = chunked_fold(ens, g.num_edges(), |w, e| {
                ens.world(w).contains(e as u32).then(|| cc(w))
            });
            let mut cc_total = 0.0f64;
            for start in (0..ens.len()).step_by(CHUNK) {
                let mut partial = 0.0f64;
                for w in start..(start + CHUNK).min(ens.len()) {
                    partial += cc(w);
                }
                cc_total += partial;
            }
            let strata = with.iter().zip(&counts);
            strata
                .map(|(&sum, &n_e)| {
                    let n_not = ens.len() as u32 - n_e;
                    if n_e == 0 || n_not == 0 {
                        return 0.0;
                    }
                    let gap = sum / n_e as f64 - (cc_total - sum) / n_not as f64;
                    gap.max(0.0)
                })
                .collect()
        }

        pub(super) fn ecp(ens: &WorldEnsemble) -> f64 {
            let all = ens.connected_pairs_all();
            if all.is_empty() {
                return 0.0;
            }
            all.iter().map(|&c| c as f64).sum::<f64>() / all.len() as f64
        }
    }

    fn random_graph(nodes: usize, edges: usize, seed: u64) -> UncertainGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = UncertainGraph::with_nodes(nodes);
        let max_edges = nodes * (nodes - 1) / 2;
        while g.num_edges() < edges.min(max_edges) {
            let (u, v) = (
                rng.gen_range(0..nodes as u32),
                rng.gen_range(0..nodes as u32),
            );
            if u == v || g.has_edge(u, v) {
                continue;
            }
            let p = match rng.gen_range(0..5) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen::<f64>(),
            };
            g.add_edge(u, v, p).unwrap();
        }
        g
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// The integer folds equal the ordered f64 reference bit for bit,
        /// in RAM and streamed, for ECP, coupled ERR and Algorithm 2: world
        /// counts that are multiples of neither 32 nor 64, strips of 1 to
        /// 200 worlds, 1 and 8 threads.
        #[test]
        fn integer_folds_match_the_ordered_f64_reference(
            nodes in 2usize..40,
            edges in 0usize..120,
            seed in proptest::prelude::any::<u64>(),
            chunks in 0usize..5,
            tail in 1usize..32,
            strip in 1usize..=200,
            eight_threads in proptest::prelude::any::<bool>(),
        ) {
            let threads = if eight_threads { 8 } else { 1 };
            let n = 32 * chunks + tail;
            let g = random_graph(nodes, edges, seed);
            let ens = WorldEnsemble::sample_seeded(&g, n, seed ^ 0x5eed, threads);
            let coupled = bits(&ordered_reference::coupled(&g, &ens));
            let alg2 = bits(&ordered_reference::alg2(&g, &ens));
            let ecp = ordered_reference::ecp(&ens).to_bits();
            proptest::prop_assert_eq!(
                &bits(&edge_reliability_relevance_threads(&g, &ens, threads)),
                &coupled
            );
            proptest::prop_assert_eq!(
                &bits(&edge_reliability_relevance_alg2_threads(&g, &ens, threads)),
                &alg2
            );
            proptest::prop_assert_eq!(ens.expected_connected_pairs().to_bits(), ecp);
            let stream = EnsembleStream::sample(&g, n, seed ^ 0x5eed, threads, strip).unwrap();
            proptest::prop_assert_eq!(
                &bits(&edge_reliability_relevance_streamed(&g, &stream, threads).unwrap()),
                &coupled
            );
            proptest::prop_assert_eq!(&bits(&alg2_streamed(&g, &stream, threads)), &alg2);
            proptest::prop_assert_eq!(stream.expected_connected_pairs().unwrap().to_bits(), ecp);
        }
    }

    fn fnv1a(v: &[f64]) -> u64 {
        v.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// A golden pin of both ERR estimators' bits, in RAM and streamed, at
    /// 1 and 2 threads. 257 worlds, so the world count of a p = 0 or
    /// p = 1 edge reaches 257 and carries past 2⁸; 96-world strips, so
    /// the last of three is ragged; 700 edges, so the last 64-edge word
    /// is too.
    #[test]
    fn err_bits_are_pinned() {
        const WORLDS: usize = 257;
        const COUPLED: u64 = 7257663463726297461;
        const ALG2: u64 = 11899611467184490670;
        let g = random_graph(300, 700, 26);
        let ens = WorldEnsemble::sample_seeded(&g, WORLDS, 2026, 1);
        for threads in [1, 2] {
            let coupled = edge_reliability_relevance_threads(&g, &ens, threads);
            assert_eq!(fnv1a(&coupled), COUPLED, "coupled, {threads} threads");
            let alg2 = edge_reliability_relevance_alg2_threads(&g, &ens, threads);
            assert_eq!(fnv1a(&alg2), ALG2, "alg2, {threads} threads");
            let stream = EnsembleStream::sample(&g, WORLDS, 2026, threads, 96).unwrap();
            assert_eq!(stream.strip_worlds(), 96);
            let coupled = edge_reliability_relevance_streamed(&g, &stream, threads).unwrap();
            assert_eq!(
                fnv1a(&coupled),
                COUPLED,
                "streamed coupled, {threads} threads"
            );
            let alg2 = alg2_streamed(&g, &stream, threads);
            assert_eq!(fnv1a(&alg2), ALG2, "streamed alg2, {threads} threads");
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
