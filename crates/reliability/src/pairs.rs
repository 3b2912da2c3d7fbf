//! Node-pair sampling for reliability-discrepancy estimation.
//!
//! The reliability discrepancy (paper Definition 2) sums over all Θ(|V|²)
//! node pairs; at experiment scale we estimate the *average* per-pair
//! discrepancy from a sampled pair set, exactly as the paper reports
//! "average reliability discrepancy" in Fig. 4/8.

use chameleon_ugraph::NodeId;
use rand::Rng;
use std::collections::HashSet;

/// Samples `count` distinct unordered node pairs `u < v` uniformly from a
/// graph with `n` nodes. If `count` exceeds the number of possible pairs,
/// all pairs are returned (deterministically, in lexicographic order).
///
/// # Panics
/// Panics if `n < 2` and `count > 0`.
pub fn sample_distinct_pairs<R: Rng + ?Sized>(
    n: usize,
    count: usize,
    rng: &mut R,
) -> Vec<(NodeId, NodeId)> {
    if count == 0 {
        return Vec::new();
    }
    assert!(n >= 2, "need at least two nodes to form a pair");
    let max_pairs = n * (n - 1) / 2;
    if count >= max_pairs {
        let mut all = Vec::with_capacity(max_pairs);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                all.push((u, v));
            }
        }
        return all;
    }
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            out.push(key);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_pairs_are_distinct_and_ordered() {
        let mut rng = StdRng::seed_from_u64(0);
        let pairs = sample_distinct_pairs(50, 100, &mut rng);
        assert_eq!(pairs.len(), 100);
        let set: HashSet<_> = pairs.iter().collect();
        assert_eq!(set.len(), 100);
        assert!(pairs.iter().all(|&(u, v)| u < v && v < 50));
    }

    #[test]
    fn requesting_all_pairs_returns_them() {
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = sample_distinct_pairs(5, 100, &mut rng);
        assert_eq!(pairs.len(), 10);
        assert_eq!(pairs[0], (0, 1));
        assert_eq!(pairs[9], (3, 4));
    }

    #[test]
    fn zero_count_is_empty() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(sample_distinct_pairs(10, 0, &mut rng).is_empty());
        assert!(sample_distinct_pairs(0, 0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic]
    fn one_node_cannot_pair() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = sample_distinct_pairs(1, 1, &mut rng);
    }

    #[test]
    fn reproducible_with_seed() {
        let a = sample_distinct_pairs(30, 40, &mut StdRng::seed_from_u64(9));
        let b = sample_distinct_pairs(30, 40, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
