//! Strip-streamed ensemble analysis (DESIGN.md §12).
//!
//! [`EnsembleStream`] bounds the *analysis* memory by the strip instead
//! of the ensemble: worlds are sampled strip by strip and each strip's
//! raw [`WorldMatrix`] is kept as sampled (the only per-world state that
//! persists), then analyzed one fixed-size strip at a time through
//! streaming accumulators. The labels, component sizes and connected-pair
//! counts — several times the world bits at population scale — exist for
//! one strip at a time. Every statistic the in-RAM [`WorldEnsemble`]
//! exposes is reproduced **bit-identically**:
//!
//! * Sampling reuses the per-chunk CRN streams of
//!   [`WorldEnsemble::sample_seeded`] (`(seed, "world-chunk", c)` with the
//!   *global* chunk index `c`), so the stored world bits are the same
//!   bits, in the same order.
//! * Strip boundaries are aligned to [`STRIP_ALIGN`] worlds — the least
//!   common multiple of the sampling/analysis chunk
//!   ([`WORLD_CHUNK`](crate::WORLD_CHUNK)) and
//!   the ERR estimators' world chunk (64) — so per-chunk fold sequences
//!   inside a strip coincide with the global fold sequences of the in-RAM
//!   path.
//! * Integer statistics (reliability hit counts) are order-free;
//!   sequential f64 folds (expected connected pairs, ERR partials) replay
//!   identical additions because strips are visited in ascending world
//!   order.
//!
//! Each stored strip registers its exact bytes against the
//! `chameleon_stats::alloc_guard` ensemble gauge fallibly before it is
//! sampled, and each strip's transient analysis arenas are prechecked
//! against the configured ceiling, so `--max-ensemble-bytes` is a hard
//! contract rather than a hint.

use crate::ensemble::WorldEnsemble;
use chameleon_stats::alloc_guard::{self, BudgetExceeded, Tracked};
use chameleon_ugraph::{NodeId, SamplePlan, UncertainGraph, WorldMatrix};

/// Strip sizes are rounded up to a multiple of this many worlds: the
/// least common multiple of [`WORLD_CHUNK`] (sampling/labeling) and the
/// ERR estimators' 64-world chunk. Alignment makes every in-strip chunk
/// boundary a global chunk boundary, which is what keeps per-chunk RNG
/// streams and fold orders identical to the in-RAM path.
pub(crate) const STRIP_ALIGN: usize = 64;

/// Rounds a requested strip size up to the [`STRIP_ALIGN`] contract
/// (`strip = 1` therefore runs 64-world strips; the docs say so).
/// Saturates at the largest aligned `usize`, so any request at least the
/// world count runs as one strip.
pub(crate) fn align_strip(strip_worlds: usize) -> usize {
    strip_worlds
        .max(1)
        .checked_next_multiple_of(STRIP_ALIGN)
        .unwrap_or(usize::MAX / STRIP_ALIGN * STRIP_ALIGN)
}

/// A sampled ensemble held as raw world strips and analyzed strip by
/// strip. See the module docs for the bit-identity contract.
#[derive(Debug)]
pub struct EnsembleStream<'g> {
    graph: &'g UncertainGraph,
    /// The sampled worlds, one matrix per strip in ascending world order;
    /// each is paired with its gauge registration.
    strips: Vec<(WorldMatrix, Tracked)>,
    num_worlds: usize,
    strip_worlds: usize,
    threads: usize,
}

impl<'g> EnsembleStream<'g> {
    /// Samples `n` worlds of `graph` from `seed`, strip by strip. The
    /// sampled bits are identical to [`WorldEnsemble::sample_seeded`]
    /// with the same `(graph, n, seed)`. `strip_worlds` is rounded up via
    /// [`align_strip`].
    ///
    /// # Errors
    /// [`BudgetExceeded`] when the next stored strip would cross the
    /// configured ensemble byte ceiling.
    pub fn sample(
        graph: &'g UncertainGraph,
        n: usize,
        seed: u64,
        threads: usize,
        strip_worlds: usize,
    ) -> Result<Self, BudgetExceeded> {
        let _span = chameleon_obs::span!("ensemble.stream_sample");
        chameleon_obs::counter!("ensemble.worlds_sampled").add(n as u64);
        let strip_worlds = align_strip(strip_worlds);
        let plan = SamplePlan::new(graph);
        let mut strips = Vec::with_capacity(n.div_ceil(strip_worlds));
        let mut offset = 0usize;
        while offset < n {
            let len = strip_worlds.min(n - offset);
            let tracked =
                Tracked::try_register(len * plan.words_per_world() * std::mem::size_of::<u64>())?;
            let strip = WorldEnsemble::sample_strip_matrix(&plan, seed, offset, len, threads);
            debug_assert_eq!(strip.arena_bytes(), tracked.bytes());
            strips.push((strip, tracked));
            offset += len;
        }
        let stream = Self {
            graph,
            strips,
            num_worlds: n,
            strip_worlds,
            threads,
        };
        chameleon_obs::counter!("ensemble.stream_bytes").add(stream.compressed_bytes() as u64);
        Ok(stream)
    }

    /// Number of worlds.
    pub fn len(&self) -> usize {
        self.num_worlds
    }

    /// True when the stream holds no worlds.
    pub fn is_empty(&self) -> bool {
        self.num_worlds == 0
    }

    /// The effective (aligned) strip size.
    pub fn strip_worlds(&self) -> usize {
        self.strip_worlds
    }

    /// Bytes the stored world strips occupy, exactly as registered
    /// against the ensemble gauge. The name predates raw strip
    /// storage and stays until a benchmark change renames the
    /// `ugraph.compressed_bytes` metric it feeds.
    pub fn compressed_bytes(&self) -> usize {
        self.strips.iter().map(|(_, t)| t.bytes()).sum()
    }

    /// Size ratio of the world store against the raw worlds: always 1.0,
    /// since strips are stored raw. The name stays until a benchmark
    /// change renames the `ugraph.compression_ratio` metric it feeds.
    pub fn compression_ratio(&self) -> f64 {
        1.0
    }

    /// Analyzes the ensemble one strip at a time, calling
    /// `f(world_offset, &strip_ensemble)` for each strip in ascending
    /// world order. The strip ensembles are bit-identical to the
    /// corresponding world ranges of the in-RAM ensemble (same worlds,
    /// labels, component sizes, connected-pair counts).
    ///
    /// # Errors
    /// [`BudgetExceeded`] when a strip's arenas would cross the ceiling
    /// (the strip is then not built).
    pub fn for_each_strip<F: FnMut(usize, &WorldEnsemble)>(
        &self,
        mut f: F,
    ) -> Result<(), BudgetExceeded> {
        let _span = chameleon_obs::span!("ensemble.stream_analyze");
        let mut offset = 0usize;
        for (matrix, _) in &self.strips {
            let len = matrix.num_worlds();
            alloc_guard::check_ensemble_budget(WorldEnsemble::estimate_arena_bytes(
                self.graph, len,
            ))?;
            let strip =
                WorldEnsemble::from_matrix_threads(self.graph, matrix.clone(), self.threads);
            f(offset, &strip);
            offset += len;
        }
        Ok(())
    }

    /// Strip-streamed [`WorldEnsemble::two_terminal_reliability`]
    /// (bit-identical: integer hit counts).
    pub fn two_terminal_reliability(&self, u: NodeId, v: NodeId) -> Result<f64, BudgetExceeded> {
        Ok(self.reliability_many(&[(u, v)])?[0])
    }

    /// Strip-streamed [`WorldEnsemble::reliability_many`] (bit-identical:
    /// the per-strip kernel is the same loop, and hit counts are
    /// integers).
    pub fn reliability_many(&self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<f64>, BudgetExceeded> {
        let mut acc = PairReliabilityAccum::new(pairs.to_vec());
        self.for_each_strip(|_, strip| acc.fold(strip))?;
        Ok(acc.finish())
    }

    /// Strip-streamed [`WorldEnsemble::expected_connected_pairs`]
    /// (bit-identical: the same left-to-right f64 sum over worlds in
    /// ascending order).
    pub fn expected_connected_pairs(&self) -> Result<f64, BudgetExceeded> {
        let mut acc = ConnectedPairsAccum::new();
        self.for_each_strip(|_, strip| acc.fold(strip))?;
        Ok(acc.finish())
    }
}

/// Streaming accumulator for [`WorldEnsemble::reliability_many`] /
/// `two_terminal_reliability`: u32 hit counters folded strip by strip
/// through the in-RAM kernel.
#[derive(Debug, Clone)]
pub(crate) struct PairReliabilityAccum {
    pairs: Vec<(NodeId, NodeId)>,
    hits: Vec<u32>,
    worlds: usize,
}

impl PairReliabilityAccum {
    /// An empty accumulator over `pairs`.
    pub fn new(pairs: Vec<(NodeId, NodeId)>) -> Self {
        let hits = vec![0u32; pairs.len()];
        Self {
            pairs,
            hits,
            worlds: 0,
        }
    }

    /// Folds one strip's hit counts in (the same blocked kernel the
    /// in-RAM path uses).
    pub fn fold(&mut self, strip: &WorldEnsemble) {
        strip.accumulate_pair_hits(&self.pairs, &mut self.hits);
        self.worlds += strip.len();
    }

    /// Per-pair reliabilities (`0.0` for a zero-world stream, matching
    /// the in-RAM degenerate case).
    pub fn finish(self) -> Vec<f64> {
        let n = self.worlds;
        if n == 0 {
            return vec![0.0; self.pairs.len()];
        }
        self.hits.into_iter().map(|h| h as f64 / n as f64).collect()
    }
}

/// Streaming accumulator for
/// [`WorldEnsemble::expected_connected_pairs`]: carries the sequential
/// world-order f64 sum, so folding strips in ascending order replays the
/// exact additions of the in-RAM `iter().sum::<f64>()`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConnectedPairsAccum {
    sum: f64,
    worlds: usize,
}

impl ConnectedPairsAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one strip's connected-pair counts in, in world order.
    pub fn fold(&mut self, strip: &WorldEnsemble) {
        for &c in strip.connected_pairs_all() {
            self.sum += c as f64;
        }
        self.worlds += strip.len();
    }

    /// The expected connected pairs (`0.0` for a zero-world stream).
    pub fn finish(self) -> f64 {
        if self.worlds == 0 {
            return 0.0;
        }
        self.sum / self.worlds as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_ugraph::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(nodes: usize, edges: usize, seed: u64) -> UncertainGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(nodes);
        while b.num_edges() < edges {
            let u = rng.gen_range(0..nodes as u32);
            let v = rng.gen_range(0..nodes as u32);
            if u == v {
                continue;
            }
            let p = match rng.gen_range(0..5) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen::<f64>(),
            };
            let _ = b.add_edge(u, v, p);
        }
        b.build()
    }

    fn assert_stream_matches_in_ram(
        g: &UncertainGraph,
        n: usize,
        seed: u64,
        threads: usize,
        strip: usize,
    ) {
        let in_ram = WorldEnsemble::sample_seeded(g, n, seed, threads);
        let stream = EnsembleStream::sample(g, n, seed, threads, strip).unwrap();
        assert_eq!(stream.len(), n);

        // Worlds, labels, sizes, connected pairs: strip-by-strip equality
        // against the corresponding in-RAM world ranges.
        stream
            .for_each_strip(|offset, s| {
                for w in 0..s.len() {
                    let gw = offset + w;
                    assert_eq!(s.world(w), in_ram.world(gw), "world {gw}");
                    assert_eq!(s.labels(w), in_ram.labels(gw), "labels {gw}");
                    assert_eq!(
                        s.component_sizes(w),
                        in_ram.component_sizes(gw),
                        "sizes {gw}"
                    );
                    assert_eq!(s.connected_pairs(w), in_ram.connected_pairs(gw), "cc {gw}");
                }
            })
            .unwrap();

        // Query bit-equality.
        let nn = g.num_nodes();
        if nn >= 2 {
            let pairs: Vec<(u32, u32)> = (0..nn as u32 - 1).map(|u| (u, u + 1)).collect();
            let streamed = stream.reliability_many(&pairs).unwrap();
            let dense = in_ram.reliability_many(&pairs);
            for (i, (a, b)) in streamed.iter().zip(&dense).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "pair {i}");
            }
            assert_eq!(
                stream.two_terminal_reliability(0, 1).unwrap().to_bits(),
                in_ram.two_terminal_reliability(0, 1).to_bits()
            );
        }
        assert_eq!(
            stream.expected_connected_pairs().unwrap().to_bits(),
            in_ram.expected_connected_pairs().to_bits()
        );
    }

    #[test]
    fn align_strip_contract() {
        assert_eq!(align_strip(0), STRIP_ALIGN);
        assert_eq!(align_strip(1), STRIP_ALIGN);
        assert_eq!(align_strip(STRIP_ALIGN), STRIP_ALIGN);
        assert_eq!(align_strip(STRIP_ALIGN + 1), 2 * STRIP_ALIGN);
        assert_eq!(align_strip(1000), 1024);
    }

    #[test]
    fn strip_one_ragged_and_oversized_match_in_ram() {
        let g = random_graph(24, 60, 3);
        // n deliberately not a multiple of the aligned strip: the final
        // strip is ragged. strip=1 (rounds to 64), a mid size, and
        // strip ≥ n (single strip) all match.
        let n = 2 * STRIP_ALIGN + 17;
        for strip in [1, STRIP_ALIGN, 100, n, 10 * n, usize::MAX] {
            assert_stream_matches_in_ram(&g, n, 42, 1, strip);
        }
    }

    #[test]
    fn threads_do_not_change_streamed_results() {
        let g = random_graph(20, 50, 9);
        let n = STRIP_ALIGN + 9;
        for threads in [1, 8] {
            assert_stream_matches_in_ram(&g, n, 7, threads, 70);
        }
    }

    #[test]
    fn empty_graph_and_zero_worlds() {
        let g = UncertainGraph::with_nodes(0);
        let stream = EnsembleStream::sample(&g, 0, 1, 1, 64).unwrap();
        assert!(stream.is_empty());
        assert_eq!(stream.expected_connected_pairs().unwrap(), 0.0);

        let g = UncertainGraph::with_nodes(4); // edgeless but with nodes
        assert_stream_matches_in_ram(&g, STRIP_ALIGN + 5, 11, 2, 64);
    }

    #[test]
    fn all_deterministic_graph_matches_in_ram() {
        let mut b = GraphBuilder::new(0);
        for i in 0..200u32 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build();
        assert_stream_matches_in_ram(&g, 3 * STRIP_ALIGN, 5, 2, 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Strip-streamed results equal the in-RAM path bit-for-bit over
        /// random graphs, strip sizes, world counts, and thread counts.
        #[test]
        fn streamed_equals_in_ram(
            nodes in 2usize..24,
            edge_target in 0usize..60,
            seed in any::<u64>(),
            n in 1usize..(3 * STRIP_ALIGN),
            strip in 1usize..200,
            eight_threads in any::<bool>(),
        ) {
            let threads = if eight_threads { 8 } else { 1 };
            let g = random_graph(nodes, edge_target.min(nodes * (nodes - 1) / 2), seed);
            assert_stream_matches_in_ram(&g, n, seed ^ 0x9e37, threads, strip);
        }
    }
}
