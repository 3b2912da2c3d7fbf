//! Uncertain graph data structures and possible-world machinery.
//!
//! An *uncertain graph* `G = (V, E, p)` labels every edge with an independent
//! existence probability and is interpreted under possible-world semantics
//! (paper §III-A): `G` denotes a distribution over the 2^|E| deterministic
//! subgraphs ("worlds") obtained by keeping each edge `e` independently with
//! probability `p(e)`.
//!
//! This crate provides:
//!
//! * [`UncertainGraph`] — the core structure: edge array + adjacency +
//!   (u, v) → edge index map, with probability mutation (the anonymization
//!   algorithms perturb probabilities in place) and edge insertion (they may
//!   also inject previously-absent edges).
//! * [`World`] / [`WorldView`] — a sampled possible world as an edge bitset,
//!   and a zero-copy adjacency view of the graph restricted to that world.
//! * [`sample`] — possible-world Monte-Carlo sampling.
//! * [`WorldMatrix`] / [`SamplePlan`] — arena ensemble storage (all worlds
//!   in one contiguous word buffer) and the precomputed sampling plan whose
//!   draw order is bit-identical to [`WorldSampler::sample`](sample::WorldSampler::sample).
//! * [`UnionFind`] — connected components / connected-pair counting, the
//!   kernel of the reliability estimators (paper Algorithm 2 & Lemma 2).
//! * [`traversal`] — BFS distances and components over world views.
//! * [`generators`] — Erdős–Rényi, Barabási–Albert and Chung-Lu graph
//!   topology generators used by the synthetic dataset substitutes.
//! * [`io`] — plain-text and compact binary edge-list interchange formats
//!   (binary: magic + varints + exact f64 bits, auto-detected on read).
//! * [`weighted`] — the weighted+probabilistic data model of the paper's
//!   road-network motivation (weights ride along; probabilities anonymize).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod bitset;
pub mod builder;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod sample;
pub mod traversal;
pub mod union_find;
pub(crate) mod varint;
pub mod weighted;
pub mod world;
pub mod world_matrix;

pub use analysis::GraphSummary;
pub use bitset::BitSet;
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{Edge, EdgeId, NodeId, UncertainGraph};
pub use sample::WorldSampler;
pub use union_find::UnionFind;
pub use weighted::WeightedUncertainGraph;
pub use world::{World, WorldRef, WorldView};
pub use world_matrix::{SamplePlan, WorldMatrix};
