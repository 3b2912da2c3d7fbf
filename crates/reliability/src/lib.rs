//! Monte-Carlo reliability estimation and structural metrics for uncertain
//! graphs.
//!
//! Two-terminal reliability — the probability that a node pair is connected
//! over the possible worlds of an uncertain graph (paper Definition 1) — is
//! `#P`-hard to compute exactly, so like the paper we estimate it by
//! sampling N possible worlds (N = 1000 by default, the paper's setting).
//!
//! * [`WorldEnsemble`] — a reusable set of sampled worlds with cached
//!   per-world component labels; all reliability queries and the ERR
//!   estimator of the core crate run off one ensemble (the "reused
//!   sampling" idea of paper Algorithm 2).
//! * [`discrepancy`] — the paper's utility-loss metric, *reliability
//!   discrepancy* (Definition 2), estimated over sampled node pairs.
//! * [`pairs`] — uniform node-pair sampling for discrepancy estimation.
//! * [`metrics`] — the evaluation metrics of paper §VI: expected average
//!   distance and diameter (exact per-world BFS), clustering coefficient,
//!   and distances between sampled degree distributions.
//! * [`fold`] — the per-world kernel every ensemble statistic folds
//!   through: exact integer accumulators per worker, merged by addition.
//! * [`stream`] — strip-streamed out-of-core ensembles: raw world strips
//!   folded world by world, bit-identical to [`WorldEnsemble`]
//!   (DESIGN.md §12).

//! # Example
//!
//! ```
//! use chameleon_reliability::WorldEnsemble;
//! use chameleon_ugraph::UncertainGraph;
//! use rand::SeedableRng;
//!
//! // A path 0 - 1 - 2 with 0.8-probability links.
//! let mut g = UncertainGraph::with_nodes(3);
//! g.add_edge(0, 1, 0.8).unwrap();
//! g.add_edge(1, 2, 0.8).unwrap();
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let ensemble = WorldEnsemble::sample(&g, 2000, &mut rng);
//! let r = ensemble.two_terminal_reliability(0, 2);
//! assert!((r - 0.64).abs() < 0.05); // series links multiply
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod discrepancy;
pub mod ensemble;
pub mod fold;
pub mod metrics;
pub mod pairs;
pub mod stream;

pub use discrepancy::{avg_reliability_discrepancy, DiscrepancyReport};
pub use ensemble::{crn_uniform_matrix, UniformMatrix, WorldEnsemble, WORLD_CHUNK};
pub use pairs::sample_distinct_pairs;
pub use stream::EnsembleStream;
