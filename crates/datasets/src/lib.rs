//! Synthetic uncertain-graph datasets modeled on the paper's evaluation
//! corpora (Table I): DBLP, BRIGHTKITE and PPI.
//!
//! The real datasets are not redistributable, so we generate *matched-
//! marginal substitutes* (DESIGN.md §4): a Chung–Lu heavy-tailed topology
//! scaled by a user-chosen factor, with edge existence probabilities drawn
//! from per-dataset models matching the distributions shown in the paper's
//! Figure 3(a):
//!
//! * **DBLP-like** — probabilities concentrate on a few discrete values
//!   (the output of a collaboration-count prediction model); mean ≈ 0.46.
//! * **BRIGHTKITE-like** — "generally very small" probabilities from a
//!   right-skewed (truncated-exponential) model; mean ≈ 0.29.
//! * **PPI-like** — "more uniform" probabilities; mean ≈ 0.29; denser
//!   topology (the real PPI has mean degree ≈ 64 vs DBLP's ≈ 13).
//!
//! All generators take an explicit scale (target node count) and a seed;
//! the paper-scale characteristics are tabulated in [`spec`].

//! # Example
//!
//! ```
//! use chameleon_datasets::{brightkite_like, DatasetKind};
//!
//! let g = brightkite_like(400, 42);
//! assert_eq!(g.num_nodes(), 400);
//! // Mean edge probability matches paper Table I within tolerance.
//! assert!((g.mean_edge_prob() - 0.29).abs() < 0.05);
//! // Paper-scale reference specs are also available:
//! assert_eq!(DatasetKind::Dblp.paper_spec().nodes, 824_774);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fit;
pub mod prob_models;
pub mod spec;
pub mod synth;

pub use fit::synth_like;
pub use prob_models::ProbModel;
pub use spec::{DatasetKind, DatasetSpec};
pub use synth::{brightkite_like, dblp_like, generate, ppi_like};
