//! The endpoint index of an [`UncertainGraph`](super::UncertainGraph):
//! normalized pair `(u, v)` → [`EdgeId`].
//!
//! An open-addressing table holds one `u32` edge id per slot and one tag
//! byte beside it; the key is read back from the edge array, which the
//! graph keeps anyway, so the table stores no endpoints. Slots are a power
//! of two, probed linearly from the slot the hash's top bits name, and at
//! most 7/8 of them are used. A tag of 0 marks an empty slot; an occupied
//! slot's tag is `0x80` plus seven other bits of its key's hash, so a
//! probe reads the edge array only when the tag matches (one slot in 128
//! of the others). That is 5 bytes a slot, 5·8/7 ≈ 5.7 to 5·16/7 ≈ 11.4
//! bytes an edge.
//!
//! The hash is two folded multiplies (the 128-bit product's halves
//! xored) keyed once per process from `std`'s `RandomState`, so a graph
//! sent by a client cannot aim its keys at one probe run (DESIGN §8.5). The slot
//! layout therefore differs between processes, but nothing reads it in
//! order: edge ids, adjacency order and every output follow insertion
//! order alone.

use super::{Edge, EdgeId, NodeId};
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// Tag of an empty slot.
const EMPTY: u8 = 0;

/// Slots whose tags a probe step reads at once, as one `u64`.
const GROUP: usize = 8;
/// Each byte's low bit.
const LO: u64 = 0x0101_0101_0101_0101;
/// Each byte's high bit, set in an occupied slot's tag.
const HI: u64 = 0x8080_8080_8080_8080;

/// The process's hash keys, drawn once from `std`'s `RandomState`.
fn process_keys() -> [u64; 4] {
    static KEYS: OnceLock<[u64; 4]> = OnceLock::new();
    *KEYS.get_or_init(|| {
        let state = std::collections::hash_map::RandomState::new();
        [0u64, 1, 2, 3].map(|i| state.hash_one(i))
    })
}

/// The 128-bit product's two halves, xored.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ (product >> 64) as u64
}

/// Most keys a table of `slots` slots holds: 7/8 of them, rounded down,
/// which always leaves an empty slot to end a probe.
fn max_len(slots: usize) -> usize {
    slots * 7 / 8
}

/// The open-addressing endpoint table (see the module docs).
#[derive(Clone)]
pub(super) struct EndpointIndex {
    /// Per slot: [`EMPTY`], or `0x80 | h & 0x7f` of the key's hash `h`.
    tags: Vec<u8>,
    /// Per occupied slot, the edge whose endpoints are its key.
    ids: Vec<EdgeId>,
    /// Occupied slots.
    len: usize,
    /// The process's keys (see [`process_keys`]).
    keys: [u64; 4],
}

impl Default for EndpointIndex {
    fn default() -> Self {
        Self {
            tags: Vec::new(),
            ids: Vec::new(),
            len: 0,
            keys: process_keys(),
        }
    }
}

impl std::fmt::Debug for EndpointIndex {
    // The keys stay out of debug output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndpointIndex")
            .field("len", &self.len)
            .field("slots", &self.tags.len())
            .finish()
    }
}

/// Where a key's probe ended: on its edge, or on the empty slot it would
/// take, with its tag.
pub(super) enum Probe {
    Found(EdgeId),
    Vacant { slot: usize, tag: u8 },
}

impl EndpointIndex {
    /// Number of indexed edges.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Bytes of the table.
    pub(super) fn heap_bytes(&self) -> usize {
        self.tags.capacity() + self.ids.capacity() * std::mem::size_of::<EdgeId>()
    }

    /// The key's 64-bit hash: two keyed folded multiplies. One is not
    /// enough: for keys that differ only in their low bits, as a star's
    /// or a path's do, its top bits (the home slot) are those of a plain
    /// multiply-shift hash, and with some key draws these pile into long
    /// runs (a mean of 104 slots a probe for a star and 188 for endpoints
    /// that are multiples of 2^16, against 1.5 for random keys, at the
    /// worst of 300 draws). The second multiply spreads every bit of the
    /// first's result over the top bits.
    #[inline]
    fn hash(&self, u: NodeId, v: NodeId) -> u64 {
        let [k0, k1, k2, k3] = self.keys;
        let key = u64::from(u) << 32 | u64::from(v);
        folded_multiply(folded_multiply(key ^ k0, k1) ^ k2, k3)
    }

    /// The home slot (the hash's top bits) and the tag of a hash.
    #[inline]
    fn place_of(&self, h: u64) -> (usize, u8) {
        let shift = 64 - self.tags.len().trailing_zeros();
        ((h >> shift) as usize, 0x80 | (h as u8 & 0x7f))
    }

    /// The tags of slots `start..start + 8`, wrapping, slot `start + j`
    /// in byte `j` (little-endian). Only the table's last 7 starts wrap.
    #[inline]
    fn group(&self, start: usize) -> u64 {
        if let Some(bytes) = self.tags.get(start..start + GROUP) {
            return u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        }
        let mask = self.tags.len() - 1;
        let mut bytes = [0; GROUP];
        for (j, b) in bytes.iter_mut().enumerate() {
            *b = self.tags[(start + j) & mask];
        }
        u64::from_le_bytes(bytes)
    }

    /// Probes for the normalized key `(u, v)`, `u < v`; `edges` is the
    /// array the indexed ids point into. The slots are visited in linear
    /// order, eight tags a step: a step's empty slots are the bytes whose
    /// high bit is clear, and its candidates the bytes equal to the tag
    /// (found the SWAR way, with a rare false candidate that the key
    /// check rejects) before its first empty slot.
    #[inline]
    pub(super) fn probe(&self, edges: &[Edge], u: NodeId, v: NodeId) -> Probe {
        if self.tags.is_empty() {
            probe_count::record(0);
            return Probe::Vacant { slot: 0, tag: 0 };
        }
        let (home, tag) = self.place_of(self.hash(u, v));
        let mask = self.tags.len() - 1;
        let mut start = home;
        let (found, end) = 'probe: loop {
            let tags = self.group(start);
            let empty = !tags & HI;
            let diff = tags ^ (LO * u64::from(tag));
            let mut candidates = diff.wrapping_sub(LO) & !diff & HI;
            if empty != 0 {
                // Keep the candidates below the first empty slot.
                candidates &= (empty & empty.wrapping_neg()) - 1;
            }
            while candidates != 0 {
                let slot = (start + (candidates.trailing_zeros() / 8) as usize) & mask;
                let id = self.ids[slot];
                let e = &edges[id as usize];
                if e.u == u && e.v == v {
                    break 'probe (Probe::Found(id), slot);
                }
                candidates &= candidates - 1;
            }
            if empty != 0 {
                let slot = (start + (empty.trailing_zeros() / 8) as usize) & mask;
                break (Probe::Vacant { slot, tag }, slot);
            }
            start = (start + GROUP) & mask;
        };
        probe_count::record((end.wrapping_sub(home) & mask) as u64 + 1);
        found
    }

    /// Indexes `(u, v)` as edge `id` at the slot its [`Probe::Vacant`]
    /// named. `edges` holds the `len()` edges already indexed; a full
    /// table is rebuilt from them at twice its size first, and the key
    /// then goes to its first empty slot there.
    pub(super) fn insert(
        &mut self,
        edges: &[Edge],
        u: NodeId,
        v: NodeId,
        id: EdgeId,
        vacant: (usize, u8),
    ) {
        if self.len + 1 > max_len(self.tags.len()) {
            self.rebuild(edges, self.len + 1);
            self.place(u, v, id);
        } else {
            let (slot, tag) = vacant;
            self.tags[slot] = tag;
            self.ids[slot] = id;
            self.len += 1;
        }
    }

    /// A copy with room for `additional` more keys: the table as it is
    /// when they fit, else one rebuilt from `edges` (the `len()` edges
    /// indexed) at the size they need.
    pub(super) fn clone_with_room(&self, edges: &[Edge], additional: usize) -> Self {
        if self.len + additional <= max_len(self.tags.len()) {
            return self.clone();
        }
        let mut index = Self::default();
        index.rebuild(edges, self.len + additional);
        index
    }

    /// Replaces the table with the smallest one (2 slots or more) that
    /// holds `keys` keys, and re-inserts every edge of `edges` in order.
    fn rebuild(&mut self, edges: &[Edge], keys: usize) {
        let mut slots = 2;
        while max_len(slots) < keys {
            slots *= 2;
        }
        self.tags = vec![EMPTY; slots];
        self.ids = vec![0; slots];
        self.len = 0;
        for (id, e) in edges.iter().enumerate() {
            self.place(e.u, e.v, id as EdgeId);
        }
    }

    /// Puts a key known to be absent into its first empty slot; the table
    /// has room for it.
    fn place(&mut self, u: NodeId, v: NodeId, id: EdgeId) {
        let (mut start, tag) = self.place_of(self.hash(u, v));
        let mask = self.tags.len() - 1;
        let slot = loop {
            let empty = !self.group(start) & HI;
            if empty != 0 {
                break (start + (empty.trailing_zeros() / 8) as usize) & mask;
            }
            start = (start + GROUP) & mask;
        };
        self.tags[slot] = tag;
        self.ids[slot] = id;
        self.len += 1;
    }
}

/// Slots visited by the probes of this thread, counted in test builds
/// only, so that tests can bound probe lengths on hostile keys.
pub(crate) mod probe_count {
    #[cfg(test)]
    thread_local! {
        static COUNT: std::cell::Cell<(u64, u64, u64)> = const { std::cell::Cell::new((0, 0, 0)) };
    }

    #[inline]
    #[cfg_attr(not(test), allow(unused_variables))]
    pub(super) fn record(visited: u64) {
        #[cfg(test)]
        COUNT.with(|c| {
            let (probes, slots, longest) = c.get();
            c.set((probes + 1, slots + visited, longest.max(visited)));
        });
    }

    /// This thread's `(probes, slots visited, longest probe)` since the
    /// last call, which resets them.
    #[cfg(test)]
    pub(crate) fn take() -> (u64, u64, u64) {
        COUNT.with(|c| c.replace((0, 0, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::hostile::{hostile_shapes, HIT_BOUND};

    /// The hostile shapes under many key draws, not only this process's:
    /// each shape fills one table of a fixed size, and its hits must stay
    /// short on average under every draw.
    #[test]
    fn hostile_keys_spread_under_every_key_draw() {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for shape in hostile_shapes(128) {
            let edges: Vec<_> = (shape.present.iter())
                .map(|&(u, v)| Edge { u, v, p: 0.5 })
                .collect();
            for _ in 0..32 {
                let mut index = EndpointIndex {
                    keys: [next(), next(), next(), next()],
                    ..EndpointIndex::default()
                };
                index.rebuild(&edges, edges.len());
                probe_count::take();
                for (id, e) in edges.iter().enumerate() {
                    assert!(
                        matches!(index.probe(&edges, e.u, e.v), Probe::Found(f) if f as usize == id)
                    );
                }
                let (probes, slots, _) = probe_count::take();
                let mean = slots as f64 / probes as f64;
                assert!(
                    mean <= HIT_BOUND.0 / 2.0,
                    "{}: {mean:.2} slots a hit",
                    shape.name
                );
            }
        }
    }
}
