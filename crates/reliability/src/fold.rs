//! Exact per-world folds over sampled worlds (DESIGN.md §12.1).
//!
//! Every ensemble statistic — pair reliability, expected connected pairs
//! and the ERR estimators of the core crate — averages integer per-world
//! counts: pair hits, connected pairs `cc(G_w)`, component-size products
//! `s_u·s_v`. [`EnsembleStream::fold_worlds`] and [`fold_ensemble`] run
//! one kernel for all of them. A worker claims a few worlds at a time,
//! unions each into its own union-find, labels it into per-worker scratch
//! only when the statistic reads labels ([`WorldFold::LABELS`]), and
//! folds it into its own integer accumulator while the world is still
//! hot; an in-RAM [`WorldEnsemble`] lends its cached labels instead.
//! Accumulators merge by addition, so the totals are the same whichever
//! worker folded which world: at every thread count and strip size, and
//! between the strip-streamed and in-RAM paths.
//!
//! **Exactness.** Every per-world term is at most `n(n−1)/2`, so every
//! running sum is at most `sum_bound = N·n(n−1)/2` (about 1.3·10¹² at
//! n = 10⁵ and N = 256). The kernel refuses to start when that bound does
//! not fit a `u64`, so an accumulator never wraps. While a sum stays
//! below 2⁵³, every f64 addition of integer terms is exact, so any
//! ordered f64 fold of the same terms — the chunk-ordered folds this
//! kernel replaced — equals the integer sum converted once, bit for bit.
//! Past 2⁵³ the integer sum is still exact and its one conversion rounds
//! to nearest, so results stay identical across threads and strips; an
//! ordered f64 fold would round at every step instead.
//!
//! **Accumulators.** Each statistic owns its per-worker accumulator:
//! `PairHits` a `u64` hit count per pair, `ConnectedPairs` one `u64`,
//! and the ERR folds of the core crate a `u64` sum and a `u32` world
//! count per edge (12 bytes an edge). [`WorldFold::acc_bytes`] registers
//! it against the ensemble gauge with the worker's scratch. A fold's
//! per-element loop should not branch on data: the coupled ERR fold adds
//! `[l_u ≠ l_v]·s_u·s_v` for every absent edge rather than testing the
//! labels, since that test goes either way at random on shattered
//! worlds.
//!
//! [`EnsembleStream::fold_worlds`]: crate::EnsembleStream::fold_worlds

use crate::WorldEnsemble;
use chameleon_stats::alloc_guard::{BudgetExceeded, Tracked};
use chameleon_stats::parallel;
use chameleon_ugraph::{NodeId, UncertainGraph, UnionFind, WorldMatrix, WorldRef};
use std::ops::Range;

/// Worlds a worker claims at a time: enough to keep the claim counter off
/// the profile, few enough that the last claims balance across workers.
pub(crate) const CLAIM_WORLDS: usize = 4;

/// The largest value a running sum of an `worlds`-world fold over an
/// `nodes`-vertex graph can reach: each world adds at most `n(n−1)/2`
/// (its `cc(G_w)`, or an `s_u·s_v ≤ ⌊n/2⌋·⌈n/2⌉`) to any one sum, or 1 to
/// a hit or world count. `None` when that does not fit a `u64`, or when
/// the world count does not fit the `u32` per-edge world counts.
pub(crate) fn sum_bound(nodes: usize, worlds: usize) -> Option<u64> {
    let n = nodes as u128;
    let per_world = (n * n.saturating_sub(1) / 2).max(1);
    u32::try_from(worlds).ok()?;
    u64::try_from(per_world.checked_mul(worlds as u128)?).ok()
}

/// A per-world statistic the kernel folds: what it reads from each world,
/// its per-worker integer accumulator, and how two accumulators add up.
pub trait WorldFold: Sync {
    /// The per-worker accumulator: integer sums that merge by addition.
    type Acc: Send;
    /// Whether [`WorldFold::fold`] reads labels, component sizes or the
    /// connected-pair count. Only then is each world labeled.
    const LABELS: bool;
    /// An accumulator that has folded no world.
    fn zero(&self) -> Self::Acc;
    /// Heap bytes of one accumulator, registered against the ensemble
    /// gauge with each worker's scratch.
    fn acc_bytes(&self) -> usize;
    /// Adds one world's terms to `acc`.
    fn fold(&self, acc: &mut Self::Acc, world: &mut AnalyzedWorld<'_>);
    /// Adds `other` into `acc`.
    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc);
}

/// One sampled world, unioned (and labeled, for a [`WorldFold::LABELS`]
/// statistic), as [`WorldFold::fold`] sees it.
pub struct AnalyzedWorld<'a> {
    world: WorldRef<'a>,
    us: &'a [u32],
    vs: &'a [u32],
    /// The worker's union-find over this world; `None` when an analyzed
    /// ensemble lends its labels instead.
    uf: Option<&'a mut UnionFind>,
    labels: &'a [u32],
    sizes: &'a [u32],
    connected_pairs: u64,
}

impl<'a> AnalyzedWorld<'a> {
    /// The world's edge bits.
    pub fn world(&self) -> WorldRef<'a> {
        self.world
    }

    /// The graph's edge endpoints as SoA arrays (`us[e]`, `vs[e]`).
    pub fn endpoints(&self) -> (&'a [u32], &'a [u32]) {
        (self.us, self.vs)
    }

    /// True when `u` and `v` share a component, read straight from the
    /// union-find (or from the labels an analyzed ensemble lends).
    pub fn connected(&mut self, u: NodeId, v: NodeId) -> bool {
        match &mut self.uf {
            Some(uf) => uf.find(u) == uf.find(v),
            None => self.labels[u as usize] == self.labels[v as usize],
        }
    }

    /// Dense component labels, as `WorldEnsemble::labels` numbers them
    /// (empty for raw worlds unless the statistic sets
    /// [`WorldFold::LABELS`]).
    pub fn labels(&self) -> &'a [u32] {
        self.labels
    }

    /// Component sizes indexed by label (empty unless
    /// [`WorldFold::LABELS`]).
    pub fn component_sizes(&self) -> &'a [u32] {
        self.sizes
    }

    /// The world's connected-pair count `cc(G_w)` (0 unless
    /// [`WorldFold::LABELS`]).
    pub fn connected_pairs(&self) -> u64 {
        self.connected_pairs
    }
}

/// Folds every world of an analyzed in-RAM `ensemble` through `fold` on
/// up to `threads` worker threads (`0` = all hardware threads). The
/// ensemble lends each world its cached labels, component sizes and pair
/// count, so no world is unioned again; the sums equal
/// [`EnsembleStream::fold_worlds`](crate::EnsembleStream::fold_worlds)
/// over the same worlds. Worker accumulators register against the
/// ensemble gauge without consulting the ceiling, like every infallible
/// ensemble constructor.
///
/// # Panics
/// Panics if the ensemble's edge-slot count disagrees with the graph's,
/// or if the sums could overflow: N·n(n−1)/2 must fit a `u64` and N a
/// `u32`.
pub fn fold_ensemble<F: WorldFold>(
    graph: &UncertainGraph,
    ensemble: &WorldEnsemble,
    threads: usize,
    fold: &F,
) -> F::Acc {
    let register = |bytes| Ok(Tracked::register(bytes));
    fold_worlds(graph, Worlds::Analyzed(ensemble), threads, fold, register)
        .expect("infallible registration")
}

/// The worlds a fold reads.
#[derive(Clone, Copy)]
pub(crate) enum Worlds<'w> {
    /// Raw world bits: each worker unions (and labels) every world it
    /// claims.
    Raw(&'w [&'w WorldMatrix]),
    /// An analyzed ensemble, whose cached labels, sizes and pair counts
    /// stand in for the union-find.
    Analyzed(&'w WorldEnsemble),
}

/// One worker's scratch: its union-find, label and size buffers, and its
/// accumulator, registered against the gauge as one block.
struct Worker<A> {
    uf: UnionFind,
    labels: Vec<u32>,
    sizes: Vec<u32>,
    acc: A,
    _tracked: Tracked,
}

/// The kernel behind [`fold_ensemble`] and `EnsembleStream::fold_worlds`:
/// folds `worlds` through `fold` and returns the merged accumulator.
///
/// Scratch is registered with `register` one worker at a time. A later
/// worker whose registration fails is not started — fewer workers fold
/// the same worlds to the same sums — so only a first failure, when not
/// even one worker's scratch fits, is an error.
pub(crate) fn fold_worlds<F, R>(
    graph: &UncertainGraph,
    worlds: Worlds<'_>,
    threads: usize,
    fold: &F,
    register: R,
) -> Result<F::Acc, BudgetExceeded>
where
    F: WorldFold,
    R: Fn(usize) -> Result<Tracked, BudgetExceeded>,
{
    let _span = chameleon_obs::span!("ensemble.fold_worlds");
    let nn = graph.num_nodes();
    let analyzed_matrix;
    let matrices = match worlds {
        Worlds::Raw(matrices) => matrices,
        Worlds::Analyzed(ens) => {
            analyzed_matrix = ens.matrix();
            std::slice::from_ref(&analyzed_matrix)
        }
    };
    let total: usize = matrices.iter().map(|m| m.num_worlds()).sum();
    assert!(
        sum_bound(nn, total).is_some(),
        "{total} worlds of a {nn}-vertex graph could overflow the fold's u64 sums"
    );
    // Claims: runs of CLAIM_WORLDS worlds inside one matrix.
    let mut claims: Vec<(&WorldMatrix, Range<usize>)> = Vec::new();
    for &m in matrices {
        assert_eq!(
            m.num_edges(),
            graph.num_edges(),
            "world/graph edge-count mismatch"
        );
        claims.extend(
            (0..m.num_worlds())
                .step_by(CLAIM_WORLDS)
                .map(|s| (m, s..(s + CLAIM_WORLDS).min(m.num_worlds()))),
        );
    }
    let (uf_words, label_words) = match worlds {
        Worlds::Raw(_) if F::LABELS => (nn, nn),
        Worlds::Raw(_) => (nn, 0),
        Worlds::Analyzed(_) => (0, 0),
    };
    let scratch_bytes =
        (uf_words + 2 * label_words) * std::mem::size_of::<u32>() + fold.acc_bytes();
    let mut workers = Vec::new();
    for _ in 0..parallel::resolve_threads(threads).min(claims.len()).max(1) {
        let tracked = match register(scratch_bytes) {
            Ok(t) => t,
            Err(e) if workers.is_empty() => return Err(e),
            Err(_) => break,
        };
        workers.push(Worker {
            uf: UnionFind::new(uf_words),
            labels: vec![0u32; label_words],
            sizes: Vec::with_capacity(label_words),
            acc: fold.zero(),
            _tracked: tracked,
        });
    }
    let (us, vs) = graph.endpoint_soa();
    parallel::fold_chunks(&mut workers, claims.len(), 1, |w, c, _| {
        let (matrix, range) = &claims[c];
        if let Worlds::Analyzed(ens) = worlds {
            for i in range.clone() {
                let mut analyzed = AnalyzedWorld {
                    world: ens.world(i),
                    us: &us,
                    vs: &vs,
                    uf: None,
                    labels: ens.labels(i),
                    sizes: ens.component_sizes(i),
                    connected_pairs: ens.connected_pairs(i),
                };
                fold.fold(&mut w.acc, &mut analyzed);
            }
            return;
        }
        // One makeset per node plus one union per present edge, counted
        // per claim: a function of the worlds, not of which worker ran.
        let mut uf_ops = 0u64;
        for i in range.clone() {
            let world = matrix.world(i);
            w.uf.reset();
            uf_ops += (nn + world.union_into(&us, &vs, &mut w.uf)) as u64;
            let mut connected_pairs = 0;
            if F::LABELS {
                w.sizes.clear();
                connected_pairs = w.uf.labels_and_sizes(&mut w.labels, &mut w.sizes).1;
            }
            let mut analyzed = AnalyzedWorld {
                world,
                us: &us,
                vs: &vs,
                uf: Some(&mut w.uf),
                labels: &w.labels,
                sizes: &w.sizes,
                connected_pairs,
            };
            fold.fold(&mut w.acc, &mut analyzed);
        }
        chameleon_obs::counter!("ensemble.union_find_ops").add(uf_ops);
    });
    let mut accs = workers.into_iter().map(|w| w.acc);
    let mut acc = accs.next().expect("at least one worker");
    for other in accs {
        fold.merge(&mut acc, other);
    }
    Ok(acc)
}

/// `sum / count` for an exact integer sum, converted to f64 once; 0.0 for
/// an empty count (a statistic over zero worlds).
pub fn exact_mean(sum: u64, count: u64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    sum as f64 / count as f64
}

/// Per-pair hit counts: the worlds in which each pair shares a component,
/// read from the union-find without a labeling pass.
pub(crate) struct PairHits<'p>(pub &'p [(NodeId, NodeId)]);

impl WorldFold for PairHits<'_> {
    type Acc = Vec<u64>;
    const LABELS: bool = false;

    fn zero(&self) -> Vec<u64> {
        vec![0; self.0.len()]
    }

    fn acc_bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<u64>()
    }

    fn fold(&self, hits: &mut Vec<u64>, world: &mut AnalyzedWorld<'_>) {
        for (h, &(u, v)) in hits.iter_mut().zip(self.0) {
            *h += u64::from(world.connected(u, v));
        }
    }

    fn merge(&self, hits: &mut Vec<u64>, other: Vec<u64>) {
        for (h, o) in hits.iter_mut().zip(other) {
            *h += o;
        }
    }
}

/// The summed connected-pair counts `Σ_w cc(G_w)`.
pub(crate) struct ConnectedPairs;

impl WorldFold for ConnectedPairs {
    type Acc = u64;
    const LABELS: bool = true;

    fn zero(&self) -> u64 {
        0
    }

    fn acc_bytes(&self) -> usize {
        0
    }

    fn fold(&self, sum: &mut u64, world: &mut AnalyzedWorld<'_>) {
        *sum += world.connected_pairs();
    }

    fn merge(&self, sum: &mut u64, other: u64) {
        *sum += other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnsembleStream, WorldEnsemble};
    use chameleon_ugraph::GraphBuilder;

    /// Sums of integers below 2⁵³ are exact in f64: an ordered f64 fold
    /// of integer terms equals their integer sum until it gets here.
    const EXACT_F64_SUM: u64 = 1 << 53;

    /// A statistic whose per-world term is pushed up against 2⁵³, so a
    /// handful of worlds crosses the exactness bound: the world's
    /// connected-pair count plus a large constant.
    struct Offset(u64);

    impl WorldFold for Offset {
        type Acc = u64;
        const LABELS: bool = true;
        fn zero(&self) -> u64 {
            0
        }
        fn acc_bytes(&self) -> usize {
            0
        }
        fn fold(&self, sum: &mut u64, world: &mut AnalyzedWorld<'_>) {
            *sum += self.0 + world.connected_pairs();
        }
        fn merge(&self, sum: &mut u64, other: u64) {
            *sum += other;
        }
    }

    fn path(nodes: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new(0);
        for i in 0..nodes - 1 {
            b.add_edge(i, i + 1, p).unwrap();
        }
        b.build()
    }

    #[test]
    fn sum_bound_covers_every_term_and_refuses_to_wrap() {
        assert_eq!(sum_bound(0, 10), Some(10));
        assert_eq!(sum_bound(2, 10), Some(10));
        assert_eq!(sum_bound(100_000, 256), Some(256 * 4_999_950_000));
        // n(n−1)/2 bounds the coupled-ERR term ⌊n/2⌋·⌈n/2⌉ too.
        for n in 2u64..50 {
            assert!((n / 2) * n.div_ceil(2) <= n * (n - 1) / 2);
        }
        assert_eq!(sum_bound(1 << 32, 8), None);
        assert_eq!(sum_bound(10, u32::MAX as usize + 1), None);
    }

    #[test]
    #[should_panic(expected = "could overflow")]
    fn kernel_refuses_a_fold_that_could_wrap() {
        // 2³² edgeless worlds take no memory, but their count overflows
        // the u32 world counts: the kernel must stop before folding one.
        let g = UncertainGraph::with_nodes(2);
        let m = WorldMatrix::zeroed(u32::MAX as usize + 1, 0);
        let register = |bytes| Ok(Tracked::register(bytes));
        let _ = fold_worlds(&g, Worlds::Raw(&[&m]), 1, &ConnectedPairs, register);
    }

    /// At the exactness bound: the fold returns the exact integer sum,
    /// converted once (round to nearest, ties to even), and the stream
    /// (raw worlds, unioned per worker), the in-RAM ensemble (cached
    /// labels) and every thread count agree on it.
    #[test]
    fn sums_at_the_exactness_bound_agree_across_paths() {
        let g = path(12, 0.5);
        let worlds = 70; // one ragged 32-world chunk past two full ones
        let offset = EXACT_F64_SUM / 64;
        let dense = WorldEnsemble::sample_seeded(&g, worlds, 3, 1);
        let cc: u64 = dense.connected_pairs_all().iter().sum();
        let want = offset * worlds as u64 + cc;
        assert!(want > EXACT_F64_SUM, "the fold must cross 2^53");
        for threads in [1, 8] {
            assert_eq!(fold_ensemble(&g, &dense, threads, &Offset(offset)), want);
            for strip in [1, 64, 100] {
                let stream = EnsembleStream::sample(&g, worlds, 3, threads, strip).unwrap();
                assert_eq!(stream.fold_worlds(threads, &Offset(offset)).unwrap(), want);
            }
        }
        // Past 2⁵³ the mean is the one rounding of the exact sum; an
        // ordered f64 fold of the same terms rounds at every addition.
        let mean = exact_mean(want, worlds as u64);
        assert_eq!(mean, (want as f64) / worlds as f64);
        assert_eq!(exact_mean(EXACT_F64_SUM + 1, 1), EXACT_F64_SUM as f64);
        assert_eq!(exact_mean(EXACT_F64_SUM + 3, 1), (EXACT_F64_SUM + 4) as f64);
        assert_eq!(exact_mean(EXACT_F64_SUM - 1, 1), (EXACT_F64_SUM - 1) as f64);
        // Terms 2⁵³, 1, 1: an ordered f64 fold loses both ones, the
        // integer fold keeps them.
        let ordered = [EXACT_F64_SUM, 1, 1]
            .iter()
            .fold(0.0f64, |s, &t| s + t as f64);
        assert_eq!(ordered, EXACT_F64_SUM as f64);
        assert_eq!(exact_mean(EXACT_F64_SUM + 2, 1), ordered + 2.0);
        assert_eq!(exact_mean(7, 0), 0.0);
    }

    #[test]
    fn pair_hits_read_the_union_find_like_the_labels() {
        let g = path(30, 0.7);
        let dense = WorldEnsemble::sample_seeded(&g, 45, 9, 1);
        let pairs: Vec<(u32, u32)> = (0..29).map(|u| (u, (u * 7 + 3) % 30)).collect();
        let want = dense.reliability_many(&pairs);
        for threads in [1, 2, 8] {
            let stream = EnsembleStream::sample(&g, 45, 9, threads, 32).unwrap();
            let from_union_find = stream.fold_worlds(threads, &PairHits(&pairs)).unwrap();
            let from_labels = fold_ensemble(&g, &dense, threads, &PairHits(&pairs));
            assert_eq!(from_union_find, from_labels);
            let got: Vec<f64> = from_labels.iter().map(|&h| exact_mean(h, 45)).collect();
            assert_eq!(got, want);
        }
    }
}
