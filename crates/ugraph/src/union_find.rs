//! Union–find (disjoint set union): Rem's algorithm with splicing.
//!
//! This is the kernel of the paper's reliability machinery: every sampled
//! possible world is reduced to its connected components, and the number
//! of connected vertex pairs `cc(G) = Σ_C |C|·(|C|−1)/2` is the statistic
//! aggregated by the ERR estimator (Algorithm 2).
//!
//! Rem's algorithm (Patwary, Blair & Manne, SEA 2010) links by index: a
//! root always hangs under a *smaller* vertex, and a union walks both
//! parent chains in lockstep, splicing each visited vertex of the higher
//! chain onto the lower one. The forest therefore keeps `parent[x] ≤ x`
//! for every `x`: each root is its set's minimum vertex, and one ascending
//! pass resolves every vertex's set from an already-resolved parent, with
//! no find loop at all. That pass yields dense labels numbered by first
//! appearance over vertex ids (so they depend only on the partition, not
//! on the union order), each set's size and the exact `u64` pair count.
//!
//! Linking by index gives up union-by-size's O(α(n)) amortized bound: the
//! worst case for m unions is O(m·log n) (Tarjan & van Leeuwen's bound for
//! naive linking with path splitting). In exchange there is no size array
//! and a union touches fewer cache lines, which is what the per-world
//! analysis of a large ensemble pays for.

/// Disjoint-set forest over `0..n` with `parent[x] ≤ x`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    num_components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
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

    /// Representative of `x`'s set — its smallest member (path halving).
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
        let merged = rem_union(&mut self.parent, a, b);
        self.num_components -= merged as usize;
        merged
    }

    /// Unions every pair in order, exactly as [`UnionFind::union`] would,
    /// but updates the component count once at the end so the per-pair
    /// loop stores only into the parent array.
    pub(crate) fn union_all(&mut self, pairs: impl Iterator<Item = (u32, u32)>) {
        let mut merged = 0usize;
        for (a, b) in pairs {
            merged += rem_union(&mut self.parent, a, b) as usize;
        }
        self.num_components -= merged;
    }

    /// True when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Number of connected (unordered) vertex pairs: `Σ_C |C|·(|C|−1)/2`.
    pub fn connected_pairs(&self) -> u64 {
        let mut labels = vec![0u32; self.len()];
        self.labels_and_sizes(&mut labels, &mut Vec::new()).1
    }

    /// Dense component labels in `0..num_components`, assigned in order of
    /// first appearance over vertex ids; useful for per-world pair queries.
    pub fn component_labels(&self) -> Vec<u32> {
        let mut labels = vec![0u32; self.len()];
        self.labels_and_sizes(&mut labels, &mut Vec::new());
        labels
    }

    /// Writes every vertex's dense component label (as produced by
    /// [`UnionFind::component_labels`]) to `labels_out` and appends the
    /// size of each component — indexed by its dense label — to
    /// `sizes_out`. Returns `(num_components, connected_pairs)`.
    ///
    /// One ascending pass: a root (`parent[x] == x`) is the smallest
    /// member of its set, so it opens the next label; any other vertex has
    /// a smaller parent whose label is already final and copies it. Labels
    /// therefore number the sets by their smallest member, a function of
    /// the partition alone. The pair count is an exact `u64` sum over the
    /// sizes, equal to [`UnionFind::connected_pairs`]. A caller looping
    /// over many worlds reuses both buffers and allocates nothing once
    /// `sizes_out` has grown.
    ///
    /// # Panics
    /// Panics if `labels_out.len()` differs from [`UnionFind::len`].
    pub fn labels_and_sizes(
        &self,
        labels_out: &mut [u32],
        sizes_out: &mut Vec<u32>,
    ) -> (usize, u64) {
        assert_eq!(labels_out.len(), self.len(), "label slice length mismatch");
        let base = sizes_out.len();
        sizes_out.resize(base + self.num_components, 0);
        let sizes = &mut sizes_out[base..];
        let mut next = 0u32;
        for (x, &p) in self.parent.iter().enumerate() {
            // Branch-free: a root reads its own (stale) slot and discards
            // it, so roots and non-roots take the same path.
            let root = p as usize == x;
            let label = if root { next } else { labels_out[p as usize] };
            labels_out[x] = label;
            next += root as u32;
            sizes[label as usize] += 1;
        }
        debug_assert_eq!(next as usize, self.num_components);
        let pairs = sizes_out[base..]
            .iter()
            .map(|&s| s as u64 * (s as u64 - 1) / 2)
            .sum();
        (next as usize, pairs)
    }

    /// Resets to `n` singletons without reallocating.
    pub fn reset(&mut self) {
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = i as u32;
        }
        self.num_components = self.parent.len();
    }
}

/// Rem's union with splicing on a parent array with `p[x] ≤ x`; returns
/// true if `a` and `b` were in distinct sets.
///
/// While the two current vertices have different parents, take the one
/// whose parent is larger (`x`). A root `x` is linked under `y`'s parent
/// and the sets are merged; otherwise `x` is spliced onto `y`'s parent and
/// the walk continues from `x`'s old parent. Every write replaces a parent
/// by a smaller vertex of the set being joined, so `p[x] ≤ x` holds
/// throughout, and equal parents mean both walks have reached the same
/// set.
fn rem_union(p: &mut [u32], a: u32, b: u32) -> bool {
    let (mut x, mut y) = (a as usize, b as usize);
    let (mut px, mut py) = (p[x], p[y]);
    while px != py {
        // Order the pair so that px > py, as selects rather than a
        // branch: which side is higher is a coin flip on random edges.
        let swap = px < py;
        (x, y) = if swap { (y, x) } else { (x, y) };
        (px, py) = (px.max(py), px.min(py));
        // px > py ≥ 0, so x ≠ y and the write below leaves p[y] alone.
        p[x] = py;
        if px as usize == x {
            return true;
        }
        x = px as usize;
        px = p[x];
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_components(), 4);
        assert_eq!(uf.connected_pairs(), 0);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.component_labels(), vec![0, 1, 2, 3]);
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
        // pairs: C(3,2) = 3
        assert_eq!(uf.connected_pairs(), 3);
    }

    #[test]
    fn labels_are_dense_and_consistent() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(4, 5);
        let labels = uf.component_labels();
        assert_eq!(labels, vec![0, 1, 2, 0, 3, 3]);
        let max = *labels.iter().max().unwrap() as usize;
        assert_eq!(max + 1, uf.num_components());
    }

    #[test]
    fn labels_and_sizes_appends_per_structure() {
        let mut uf = UnionFind::new(7);
        uf.union(0, 3);
        uf.union(4, 5);
        uf.union(3, 5);
        let mut labels = vec![0u32; 7];
        let mut sizes = Vec::new();
        let (ncomp, pairs) = uf.labels_and_sizes(&mut labels, &mut sizes);
        assert_eq!(labels, vec![0, 1, 2, 0, 0, 0, 3]);
        assert_eq!(sizes, vec![4, 1, 1, 1]);
        assert_eq!((ncomp, pairs), (4, 6));
        // A second structure appends its sizes after the first's.
        let mut uf2 = UnionFind::new(2);
        uf2.union(1, 0);
        let mut labels2 = vec![9u32; 2];
        assert_eq!(uf2.labels_and_sizes(&mut labels2, &mut sizes), (1, 1));
        assert_eq!(labels2, vec![0, 0]);
        assert_eq!(sizes, vec![4, 1, 1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "label slice length mismatch")]
    fn labels_and_sizes_rejects_a_short_slice() {
        UnionFind::new(3).labels_and_sizes(&mut [0; 2], &mut Vec::new());
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
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.connected_pairs(), 0);
        assert!(uf.component_labels().is_empty());
    }
}
