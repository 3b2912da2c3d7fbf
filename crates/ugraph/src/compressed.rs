//! Delta+RLE compressed world storage (DESIGN.md §12).
//!
//! Every sampled world shares the deterministic template row (p ≥ 1 edges
//! set by [`SamplePlan`]), and most uncertain-edge words differ from the
//! template in only a few bits. [`CompressedWorlds`] therefore stores each
//! world as the word-level XOR delta against the template, run-length
//! encoding the zero words of that delta:
//!
//! ```text
//! row encoding := (varint zero_run, varint lit_len, lit_len × 8-byte LE words)*
//! ```
//!
//! Token pairs alternate a run of `zero_run` delta words (words equal to
//! the template) with `lit_len` literal delta words (stored XORed, little
//! endian). The trailing zero run is omitted — decoding starts from a copy
//! of the template, so words never covered by a literal are already
//! correct. Decoding a row is a template `copy_from_slice` plus one XOR
//! pass over the literals: cheap enough to run once per strip inside the
//! streamed analysis loop.

use crate::varint;
use crate::world_matrix::SamplePlan;

/// An append-only compressed ensemble: the shared template plus per-world
/// delta+RLE byte ranges. Rows decode back bit-identically via
/// [`CompressedWorlds::decode_into`].
#[derive(Debug, Clone)]
pub struct CompressedWorlds {
    template: Vec<u64>,
    words_per_world: usize,
    num_edges: usize,
    /// Byte range of world `w` is `bytes[offsets[w]..offsets[w + 1]]`.
    offsets: Vec<usize>,
    bytes: Vec<u8>,
}

impl CompressedWorlds {
    /// An empty store over `plan`'s template.
    pub fn new(plan: &SamplePlan) -> Self {
        Self {
            template: plan.template().to_vec(),
            words_per_world: plan.words_per_world(),
            num_edges: plan.num_edges(),
            offsets: vec![0],
            bytes: Vec::new(),
        }
    }

    /// Number of worlds stored.
    pub fn num_worlds(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Edge slots per world.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Words per decoded row.
    pub fn words_per_world(&self) -> usize {
        self.words_per_world
    }

    /// Appends one world, encoding `row` (a `words_per_world`-word bitset)
    /// as its delta against the template.
    ///
    /// # Panics
    /// Panics if `row.len() != words_per_world`.
    pub fn push_world(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.words_per_world, "row width mismatch");
        let mut i = 0;
        while i < row.len() {
            let run_start = i;
            while i < row.len() && row[i] == self.template[i] {
                i += 1;
            }
            if i == row.len() {
                break; // trailing zero run: omitted
            }
            let lit_start = i;
            while i < row.len() && row[i] != self.template[i] {
                i += 1;
            }
            varint::push_u64(&mut self.bytes, (lit_start - run_start) as u64);
            varint::push_u64(&mut self.bytes, (i - lit_start) as u64);
            for (r, t) in row[lit_start..i].iter().zip(&self.template[lit_start..i]) {
                self.bytes.extend_from_slice(&(r ^ t).to_le_bytes());
            }
        }
        self.offsets.push(self.bytes.len());
    }

    /// Decodes world `w` into `row` (bit-identical to the pushed row).
    ///
    /// # Panics
    /// Panics if `w >= num_worlds` or `row.len() != words_per_world`.
    pub fn decode_into(&self, w: usize, row: &mut [u64]) {
        assert!(
            w < self.num_worlds(),
            "world {w} out of {}",
            self.num_worlds()
        );
        assert_eq!(row.len(), self.words_per_world, "row width mismatch");
        row.copy_from_slice(&self.template);
        let mut cursor = self.offsets[w];
        let end = self.offsets[w + 1];
        let mut word = 0usize;
        while cursor < end {
            let (zero_run, used) = varint::decode_u64(&self.bytes[cursor..end]);
            cursor += used;
            let (lit_len, used) = varint::decode_u64(&self.bytes[cursor..end]);
            cursor += used;
            word += zero_run as usize;
            for _ in 0..lit_len {
                let mut le = [0u8; 8];
                le.copy_from_slice(&self.bytes[cursor..cursor + 8]);
                cursor += 8;
                row[word] ^= u64::from_le_bytes(le);
                word += 1;
            }
        }
    }

    /// Bytes of the compressed byte stream plus offsets and template —
    /// what the store actually occupies.
    pub fn compressed_bytes(&self) -> usize {
        self.bytes.len()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.template.len() * std::mem::size_of::<u64>()
    }

    /// Bytes the same worlds occupy as a dense [`WorldMatrix`]
    /// (`num_worlds × words_per_world × 8`).
    ///
    /// [`WorldMatrix`]: crate::world_matrix::WorldMatrix
    pub(crate) fn uncompressed_bytes(&self) -> usize {
        self.num_worlds() * self.words_per_world * std::mem::size_of::<u64>()
    }

    /// `uncompressed / compressed` size ratio (≥ 1 means the store wins).
    /// Returns 1.0 for an empty store.
    pub fn compression_ratio(&self) -> f64 {
        let compressed = self.compressed_bytes();
        if compressed == 0 || self.num_worlds() == 0 {
            return 1.0;
        }
        self.uncompressed_bytes() as f64 / compressed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UncertainGraph;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn chain_graph(edges: &[f64]) -> UncertainGraph {
        let mut g = UncertainGraph::with_nodes(edges.len() + 1);
        for (i, &p) in edges.iter().enumerate() {
            g.add_edge(i as u32, i as u32 + 1, p).unwrap();
        }
        g
    }

    #[test]
    fn roundtrips_sampled_worlds() {
        let probs: Vec<f64> = (0..200).map(|i| (i % 10) as f64 / 10.0).collect();
        let g = chain_graph(&probs);
        let plan = SamplePlan::new(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = CompressedWorlds::new(&plan);
        let mut rows = Vec::new();
        for _ in 0..50 {
            let mut row = vec![0u64; plan.words_per_world()];
            plan.sample_into(&mut row, &mut rng);
            store.push_world(&row);
            rows.push(row);
        }
        assert_eq!(store.num_worlds(), 50);
        let mut decoded = vec![0u64; plan.words_per_world()];
        for (w, row) in rows.iter().enumerate() {
            store.decode_into(w, &mut decoded);
            assert_eq!(&decoded, row, "world {w}");
        }
    }

    #[test]
    fn deterministic_worlds_compress_to_nothing() {
        // All p = 1: every row equals the template, so each world encodes
        // as zero bytes (one omitted trailing run).
        let g = chain_graph(&[1.0; 300]);
        let plan = SamplePlan::new(&g);
        let mut store = CompressedWorlds::new(&plan);
        let mut row = vec![0u64; plan.words_per_world()];
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            plan.sample_into(&mut row, &mut rng);
            store.push_world(&row);
        }
        assert_eq!(store.bytes.len(), 0);
        assert!(store.compression_ratio() > 2.0);
        let mut decoded = vec![0u64; plan.words_per_world()];
        store.decode_into(99, &mut decoded);
        assert_eq!(decoded, plan.template());
    }

    #[test]
    fn edgeless_graph_is_trivial() {
        let g = UncertainGraph::with_nodes(5);
        let plan = SamplePlan::new(&g);
        let mut store = CompressedWorlds::new(&plan);
        for _ in 0..8 {
            store.push_world(&[]);
        }
        assert_eq!(store.num_worlds(), 8);
        assert_eq!(store.uncompressed_bytes(), 0);
        let mut row: [u64; 0] = [];
        store.decode_into(3, &mut row);
    }

    proptest! {
        /// Every pushed row decodes back bit-identically, for arbitrary
        /// probability mixes (deterministic, impossible, uncertain edges).
        #[test]
        fn push_decode_roundtrip(
            raw in proptest::collection::vec((0u8..3, 0.0f64..=1.0), 0..260),
            seed in any::<u64>(),
            n in 1usize..12,
        ) {
            // Tag 0 → impossible, 1 → deterministic, else the drawn p:
            // exercises template bits, absent bits, and uncertain mixes.
            let probs: Vec<f64> = raw
                .iter()
                .map(|&(tag, p)| match tag {
                    0 => 0.0,
                    1 => 1.0,
                    _ => p,
                })
                .collect();
            let g = chain_graph(&probs);
            let plan = SamplePlan::new(&g);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = CompressedWorlds::new(&plan);
            let mut rows = Vec::new();
            for _ in 0..n {
                let mut row = vec![0u64; plan.words_per_world()];
                plan.sample_into(&mut row, &mut rng);
                // Occasionally flip a random in-range bit to decouple the
                // roundtrip property from the sampling distribution.
                if plan.num_edges() > 0 && rng.gen::<bool>() {
                    let e = rng.gen_range(0..plan.num_edges());
                    row[e / 64] ^= 1u64 << (e % 64);
                }
                store.push_world(&row);
                rows.push(row);
            }
            let mut decoded = vec![0u64; plan.words_per_world()];
            for (w, row) in rows.iter().enumerate() {
                store.decode_into(w, &mut decoded);
                prop_assert_eq!(&decoded, row);
            }
        }
    }
}
