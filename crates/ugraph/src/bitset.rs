//! A fixed-capacity bitset used to represent sampled possible worlds
//! (one bit per edge) compactly: 1000 worlds of a 100k-edge graph occupy
//! ~12.5 MB instead of 100 MB of `Vec<bool>`s.

/// Fixed-capacity bitset backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a bitset of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitset has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// The backing `u64` words, least-significant bit first. Bits at
    /// positions `>= len` are always clear.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterator over indices of set bits, ascending.
    pub(crate) fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitSet::new(130);
        assert_eq!(b.len(), 130);
        b.set(0, true);
        b.set(63, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65));
        assert_eq!(b.iter_ones().count(), 4);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.iter_ones().count(), 3);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = BitSet::new(200);
        for i in [3usize, 64, 65, 127, 128, 199] {
            b.set(i, true);
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn clear_resets() {
        let mut b = BitSet::new(10);
        b.set(5, true);
        b.clear();
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn empty_bitset() {
        let b = BitSet::new(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        let b = BitSet::new(8);
        let _ = b.get(8);
    }

    #[test]
    #[should_panic]
    fn out_of_range_set_panics() {
        let mut b = BitSet::new(8);
        b.set(9, true);
    }

    proptest! {
        #[test]
        fn matches_vec_bool(ops in proptest::collection::vec((0usize..256, any::<bool>()), 0..300)) {
            let mut b = BitSet::new(256);
            let mut v = vec![false; 256];
            for (i, val) in ops {
                b.set(i, val);
                v[i] = val;
            }
            for (i, &expected) in v.iter().enumerate() {
                prop_assert_eq!(b.get(i), expected);
            }
            prop_assert_eq!(b.iter_ones().count(), v.iter().filter(|&&x| x).count());
            let ones: Vec<usize> = b.iter_ones().collect();
            let expect: Vec<usize> = (0..256).filter(|&i| v[i]).collect();
            prop_assert_eq!(ones, expect);
        }
    }
}
