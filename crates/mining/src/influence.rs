//! Influence spread under the independent-cascade model (Kempe et al. —
//! the paper's ref [20], its social-trust motivation scenario).
//!
//! For an uncertain graph interpreted as an IC diffusion network, the
//! expected influence of a seed set S is the expected number of nodes
//! reachable from S across possible worlds — i.e. multi-source
//! reachability, computable directly from a [`WorldEnsemble`]'s component
//! labels. The classic greedy hill-climbing seed selector (1−1/e
//! approximation for this submodular objective) is provided too.

use chameleon_reliability::WorldEnsemble;
use chameleon_ugraph::NodeId;

/// Expected number of nodes reachable from the seed set (seeds count
/// themselves).
///
/// # Panics
/// Panics if `seeds` is empty or indexes out of range.
pub fn influence_spread(ensemble: &WorldEnsemble, seeds: &[NodeId]) -> f64 {
    assert!(!seeds.is_empty(), "need at least one seed");
    if ensemble.is_empty() {
        return seeds.len() as f64;
    }
    let mut total = 0u64;
    let mut seed_labels = std::collections::HashSet::new();
    for w in 0..ensemble.len() {
        let labels = ensemble.labels(w);
        let sizes = ensemble.component_sizes(w);
        seed_labels.clear();
        for &s in seeds {
            seed_labels.insert(labels[s as usize]);
        }
        total += seed_labels
            .iter()
            .map(|&l| sizes[l as usize] as u64)
            .sum::<u64>();
    }
    total as f64 / ensemble.len() as f64
}

/// Greedy influence maximization: picks `k` seeds by hill climbing on
/// [`influence_spread`] (ties by smallest node id). Returns the seeds in
/// selection order together with the marginal spread after each pick.
///
/// # Panics
/// Panics if `k` exceeds the node count.
#[allow(clippy::needless_range_loop)] // worlds index three parallel caches
pub fn greedy_seed_selection(ensemble: &WorldEnsemble, k: usize) -> Vec<(NodeId, f64)> {
    let n = ensemble.num_nodes();
    assert!(k <= n, "cannot select {k} seeds from {n} nodes");
    let mut selected: Vec<NodeId> = Vec::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    // Incremental: track which (world, label) pairs are already covered.
    let n_worlds = ensemble.len();
    let mut covered: Vec<std::collections::HashSet<u32>> =
        vec![std::collections::HashSet::new(); n_worlds];
    let mut current = 0.0f64;
    for _ in 0..k {
        let mut best: Option<(NodeId, f64)> = None;
        for v in 0..n as u32 {
            if selected.contains(&v) {
                continue;
            }
            // Marginal gain of v: sum of sizes of its components in worlds
            // where its component is not yet covered.
            let mut gain = 0u64;
            for w in 0..n_worlds {
                let l = ensemble.labels(w)[v as usize];
                if !covered[w].contains(&l) {
                    gain += ensemble.component_sizes(w)[l as usize] as u64;
                }
            }
            let gain = if n_worlds == 0 {
                1.0 // isolated counting: each new seed adds itself
            } else {
                gain as f64 / n_worlds as f64
            };
            let better = match best {
                None => true,
                Some((bv, bg)) => gain > bg + 1e-12 || ((gain - bg).abs() <= 1e-12 && v < bv),
            };
            if better {
                best = Some((v, gain));
            }
        }
        let (v, gain) = best.expect("k <= n guarantees a candidate");
        selected.push(v);
        for w in 0..n_worlds {
            let l = ensemble.labels(w)[v as usize];
            covered[w].insert(l);
        }
        current += gain;
        out.push((v, current));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_ugraph::UncertainGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_stars() -> UncertainGraph {
        // Star A: hub 0 with 4 leaves (p=0.9); star B: hub 5 with 2 leaves.
        let mut g = UncertainGraph::with_nodes(8);
        for v in 1..5u32 {
            g.add_edge(0, v, 0.9).unwrap();
        }
        for v in 6..8u32 {
            g.add_edge(5, v, 0.9).unwrap();
        }
        g
    }

    #[test]
    fn spread_counts_expected_reachability() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(0);
        let ens = WorldEnsemble::sample(&g, 4000, &mut rng);
        // Seed {0}: expected spread = 1 + 4·0.9 = 4.6.
        let s = influence_spread(&ens, &[0]);
        assert!((s - 4.6).abs() < 0.1, "spread={s}");
        // Seeding a leaf: 1 + 0.9·(1 + 3·0.9) ≈ 4.33? No: leaf 1 reaches 0
        // w.p. .9, and through it each other leaf w.p. .9² = .81:
        // E = 1 + .9 + 3·.81 = 4.33.
        let s_leaf = influence_spread(&ens, &[1]);
        assert!((s_leaf - 4.33).abs() < 0.12, "spread={s_leaf}");
    }

    #[test]
    fn disjoint_seeds_add_up() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(1);
        let ens = WorldEnsemble::sample(&g, 3000, &mut rng);
        let a = influence_spread(&ens, &[0]);
        let b = influence_spread(&ens, &[5]);
        let both = influence_spread(&ens, &[0, 5]);
        assert!((both - (a + b)).abs() < 0.05, "{both} vs {a}+{b}");
    }

    #[test]
    fn overlapping_seeds_are_submodular() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(2);
        let ens = WorldEnsemble::sample(&g, 2000, &mut rng);
        // Adding a node from the same component adds little.
        let hub = influence_spread(&ens, &[0]);
        let hub_plus_leaf = influence_spread(&ens, &[0, 1]);
        assert!(hub_plus_leaf >= hub);
        assert!(hub_plus_leaf - hub < 0.5);
    }

    #[test]
    fn greedy_picks_big_star_first() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(3);
        let ens = WorldEnsemble::sample(&g, 2000, &mut rng);
        let seeds = greedy_seed_selection(&ens, 2);
        assert_eq!(seeds[0].0, 0, "hub of the big star first");
        assert_eq!(seeds[1].0, 5, "hub of the small star second");
        // Cumulative spread grows.
        assert!(seeds[1].1 > seeds[0].1);
        // Greedy total matches direct evaluation of the chosen set.
        let direct = influence_spread(&ens, &[seeds[0].0, seeds[1].0]);
        assert!((seeds[1].1 - direct).abs() < 1e-9);
    }

    #[test]
    fn greedy_is_deterministic() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(4);
        let ens = WorldEnsemble::sample(&g, 500, &mut rng);
        let a = greedy_seed_selection(&ens, 3);
        let b = greedy_seed_selection(&ens, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_ensemble_counts_seeds() {
        let g = two_stars();
        let ens = WorldEnsemble::sample_seeded(&g, 0, 0, 1);
        assert_eq!(influence_spread(&ens, &[0, 5]), 2.0);
    }

    #[test]
    #[should_panic]
    fn empty_seed_set_panics() {
        let g = two_stars();
        let ens = WorldEnsemble::sample_seeded(&g, 0, 0, 1);
        let _ = influence_spread(&ens, &[]);
    }

    #[test]
    #[should_panic]
    fn too_many_seeds_panics() {
        let g = two_stars();
        let ens = WorldEnsemble::sample_seeded(&g, 0, 0, 1);
        let _ = greedy_seed_selection(&ens, 99);
    }
}
