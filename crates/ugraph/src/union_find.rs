//! Union–find (disjoint set union) with union-by-size and path halving.
//!
//! This is the kernel of the paper's reliability machinery: every sampled
//! possible world is reduced to its connected components in
//! O(α(|V|)·|E|) (paper Lemma 2 cites exactly this bound), and the number
//! of connected vertex pairs `cc(G) = Σ_C |C|·(|C|−1)/2` is the statistic
//! aggregated by the ERR estimator (Algorithm 2).

/// Disjoint-set forest over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    num_components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            num_components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True for a zero-element structure.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.num_components -= 1;
        true
    }

    /// True when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub(crate) fn component_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }

    /// Number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Number of connected (unordered) vertex pairs: `Σ_C |C|·(|C|−1)/2`.
    pub fn connected_pairs(&mut self) -> u64 {
        let n = self.parent.len();
        let mut total = 0u64;
        for x in 0..n as u32 {
            if self.find(x) == x {
                let s = self.size[x as usize] as u64;
                total += s * (s - 1) / 2;
            }
        }
        total
    }

    /// Dense component labels in `0..num_components`, assigned in order of
    /// first appearance; useful for per-world pair queries.
    pub fn component_labels(&mut self) -> Vec<u32> {
        let n = self.parent.len();
        let mut label_of_root = vec![u32::MAX; n];
        let mut labels = vec![0u32; n];
        let mut next = 0u32;
        for x in 0..n as u32 {
            let r = self.find(x);
            if label_of_root[r as usize] == u32::MAX {
                label_of_root[r as usize] = next;
                next += 1;
            }
            labels[x as usize] = label_of_root[r as usize];
        }
        labels
    }

    /// Appends dense component labels (as produced by
    /// [`UnionFind::component_labels`]) to `labels_out` and the size of
    /// each component — indexed by its dense label — to `sizes_out`,
    /// reusing `label_of_root` as scratch so a caller looping over many
    /// worlds performs no per-world allocation once the buffers have
    /// grown. Returns `(num_components, connected_pairs)`: the pair count
    /// is accumulated while labelling — each component contributes
    /// `s·(s−1)/2` exactly once, when its root is first seen — so the
    /// value equals [`UnionFind::connected_pairs`] (u64 addition is exact
    /// and order-free) without a second find pass over every element.
    pub fn append_labels_and_sizes(
        &mut self,
        labels_out: &mut Vec<u32>,
        sizes_out: &mut Vec<u32>,
        label_of_root: &mut Vec<u32>,
    ) -> (usize, u64) {
        let n = self.parent.len();
        label_of_root.clear();
        label_of_root.resize(n, u32::MAX);
        labels_out.reserve(n);
        let mut next = 0u32;
        let mut pairs = 0u64;
        for x in 0..n as u32 {
            let r = self.find(x);
            let slot = label_of_root[r as usize];
            let label = if slot == u32::MAX {
                label_of_root[r as usize] = next;
                // Every member of the set shares this root, so the root's
                // size is exactly the label's member count.
                let s = self.size[r as usize];
                sizes_out.push(s);
                pairs += s as u64 * (s as u64 - 1) / 2;
                next += 1;
                next - 1
            } else {
                slot
            };
            labels_out.push(label);
        }
        (next as usize, pairs)
    }

    /// Resets to `n` singletons without reallocating.
    pub fn reset(&mut self) {
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = i as u32;
        }
        for s in &mut self.size {
            *s = 1;
        }
        self.num_components = self.parent.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_components(), 4);
        assert_eq!(uf.connected_pairs(), 0);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.component_size(2), 1);
    }

    #[test]
    fn union_merges() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already joined
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.num_components(), 3);
        assert_eq!(uf.component_size(1), 3);
        // pairs: C(3,2) = 3
        assert_eq!(uf.connected_pairs(), 3);
    }

    #[test]
    fn connected_pairs_full_merge() {
        let mut uf = UnionFind::new(6);
        for i in 0..5 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.connected_pairs(), 15); // C(6,2)
        assert_eq!(uf.num_components(), 1);
    }

    #[test]
    fn labels_are_dense_and_consistent() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(4, 5);
        let labels = uf.component_labels();
        assert_eq!(labels.len(), 6);
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[4]);
        assert_ne!(labels[1], labels[2]);
        let max = *labels.iter().max().unwrap() as usize;
        assert_eq!(max + 1, uf.num_components());
    }

    #[test]
    fn append_labels_and_sizes_matches_component_labels() {
        let mut uf = UnionFind::new(7);
        uf.union(0, 3);
        uf.union(4, 5);
        uf.union(3, 5);
        let expect_labels = uf.clone().component_labels();
        let expect_pairs = uf.clone().connected_pairs();
        let mut labels = Vec::new();
        let mut sizes = Vec::new();
        let mut scratch = Vec::new();
        let (ncomp, pairs) = uf.append_labels_and_sizes(&mut labels, &mut sizes, &mut scratch);
        assert_eq!(labels, expect_labels);
        assert_eq!(ncomp, uf.num_components());
        assert_eq!(pairs, expect_pairs);
        assert_eq!(sizes.len(), ncomp);
        let mut counted = vec![0u32; ncomp];
        for &l in &labels {
            counted[l as usize] += 1;
        }
        assert_eq!(sizes, counted);
        // Appending a second structure extends, never clears.
        let mut uf2 = UnionFind::new(2);
        uf2.union(0, 1);
        uf2.append_labels_and_sizes(&mut labels, &mut sizes, &mut scratch);
        assert_eq!(labels.len(), 9);
        assert_eq!(sizes.len(), ncomp + 1);
        assert_eq!(&sizes[ncomp..], &[2]);
    }

    #[test]
    fn reset_restores_singletons() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.reset();
        assert_eq!(uf.num_components(), 4);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.connected_pairs(), 0);
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.connected_pairs(), 0);
        assert!(uf.component_labels().is_empty());
    }

    proptest! {
        #[test]
        fn components_match_naive(
            unions in proptest::collection::vec((0u32..16, 0u32..16), 0..40)
        ) {
            let n = 16usize;
            let mut uf = UnionFind::new(n);
            // Naive: adjacency + BFS closure.
            let mut adj = vec![vec![]; n];
            for &(a, b) in &unions {
                uf.union(a, b);
                adj[a as usize].push(b as usize);
                adj[b as usize].push(a as usize);
            }
            // BFS labels.
            let mut label = vec![usize::MAX; n];
            let mut next = 0;
            for s in 0..n {
                if label[s] != usize::MAX { continue; }
                let mut queue = vec![s];
                label[s] = next;
                while let Some(x) = queue.pop() {
                    for &y in &adj[x] {
                        if label[y] == usize::MAX {
                            label[y] = next;
                            queue.push(y);
                        }
                    }
                }
                next += 1;
            }
            prop_assert_eq!(uf.num_components(), next);
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    prop_assert_eq!(
                        uf.connected(a, b),
                        label[a as usize] == label[b as usize]
                    );
                }
            }
            // connected_pairs equals count over naive labels.
            let mut counts = vec![0u64; next];
            for &l in &label { counts[l] += 1; }
            let pairs: u64 = counts.iter().map(|&c| c * (c - 1) / 2).sum();
            prop_assert_eq!(uf.connected_pairs(), pairs);
        }

        #[test]
        fn sizes_sum_to_n(
            unions in proptest::collection::vec((0u32..24, 0u32..24), 0..60)
        ) {
            let mut uf = UnionFind::new(24);
            for (a, b) in unions { uf.union(a, b); }
            let mut seen = std::collections::HashSet::new();
            let mut total = 0u32;
            for x in 0..24u32 {
                let r = uf.find(x);
                if seen.insert(r) {
                    total += uf.component_size(x);
                }
            }
            prop_assert_eq!(total, 24);
        }
    }
}
