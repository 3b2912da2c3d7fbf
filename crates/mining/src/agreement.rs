//! Answer-agreement metrics: how similar are mining answers computed on
//! the original and on the published graph? These turn "utility" into
//! task-level numbers (the reproduction's mining-utility experiment).

use chameleon_ugraph::NodeId;
use std::collections::HashSet;

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` of two node sets (1.0 when both
/// are empty — identical answers).
pub(crate) fn jaccard(a: &[NodeId], b: &[NodeId]) -> f64 {
    let sa: HashSet<NodeId> = a.iter().copied().collect();
    let sb: HashSet<NodeId> = b.iter().copied().collect();
    let union = sa.union(&sb).count();
    if union == 0 {
        return 1.0;
    }
    sa.intersection(&sb).count() as f64 / union as f64
}

/// Top-k rank overlap: the fraction of the first `k` entries of `a` that
/// also appear in the first `k` entries of `b` (order-insensitive within
/// the prefix; 1.0 when both prefixes are empty).
pub fn rank_overlap_at_k(a: &[NodeId], b: &[NodeId], k: usize) -> f64 {
    let ka = a.iter().take(k).copied().collect::<HashSet<_>>();
    let kb = b.iter().take(k).copied().collect::<HashSet<_>>();
    let denom = ka.len().max(kb.len());
    if denom == 0 {
        return 1.0;
    }
    ka.intersection(&kb).count() as f64 / denom as f64
}

/// Best-match average Jaccard between two cluster sets: each cluster of
/// `a` is matched to its most similar cluster of `b`; the weighted (by
/// cluster size) mean similarity is returned. Asymmetric by design — call
/// both ways for a symmetric picture. Returns 1.0 when `a` is empty.
pub fn cluster_agreement(a: &[Vec<NodeId>], b: &[Vec<NodeId>]) -> f64 {
    if a.is_empty() {
        return 1.0;
    }
    let mut weighted = 0.0;
    let mut total = 0.0;
    for ca in a {
        let best = b.iter().map(|cb| jaccard(ca, cb)).fold(0.0f64, f64::max);
        weighted += best * ca.len() as f64;
        total += ca.len() as f64;
    }
    weighted / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1], &[]), 0.0);
    }

    #[test]
    fn jaccard_ignores_duplicates_and_order() {
        assert_eq!(jaccard(&[3, 1, 2, 2], &[2, 1, 3]), 1.0);
    }

    #[test]
    fn rank_overlap() {
        let a = [1u32, 2, 3, 4, 5];
        let b = [3u32, 2, 9, 1, 8];
        // top-3 of a = {1,2,3}; of b = {3,2,9} → overlap 2/3.
        assert!((rank_overlap_at_k(&a, &b, 3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rank_overlap_at_k(&a, &a, 5), 1.0);
        assert_eq!(rank_overlap_at_k(&a, &b, 0), 1.0);
        // Prefixes shorter than k.
        assert!((rank_overlap_at_k(&[1], &[1, 2], 5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cluster_agreement_perfect_and_partial() {
        let a = vec![vec![0u32, 1, 2], vec![3, 4]];
        assert_eq!(cluster_agreement(&a, &a), 1.0);
        let b = vec![vec![0u32, 1, 2, 3, 4]];
        // Cluster {0,1,2}: best jaccard 3/5; {3,4}: 2/5.
        // Weighted: (3·0.6 + 2·0.4)/5 = 0.52
        assert!((cluster_agreement(&a, &b) - 0.52).abs() < 1e-12);
        assert_eq!(cluster_agreement(&[], &b), 1.0);
        assert_eq!(cluster_agreement(&a, &[]), 0.0);
    }
}
