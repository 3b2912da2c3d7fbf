//! Uncertain-graph mining tasks.
//!
//! The paper motivates publishing uncertain graphs precisely because
//! downstream researchers run mining algorithms on them: locating
//! k-nearest neighbors under reliability distance (Potamias et al.,
//! VLDB 2010 — paper ref \[30\]), detecting protein complexes as reliable
//! dense clusters (refs \[4\], \[38\]), and maximizing influence spread
//! (Kempe et al. — ref \[20\]). This crate implements those tasks so the
//! reproduction can measure utility *as downstream analyses experience
//! it*: run the same task on the original and the published graph and
//! compare answers.
//!
//! * [`knn`] — reliability-based k-nearest neighbors.
//! * [`clusters`] — reliable-cluster detection (threshold peeling over
//!   pairwise reliabilities).
//! * [`influence`] — independent-cascade influence spread (= multi-source
//!   reachability over possible worlds) and a greedy seed selector.
//! * [`agreement`] — answer-agreement metrics (Jaccard, rank overlap)
//!   between original and published analyses.

//! # Example
//!
//! ```
//! use chameleon_mining::{reliability_knn, influence_spread};
//! use chameleon_reliability::WorldEnsemble;
//! use chameleon_ugraph::UncertainGraph;
//! use rand::SeedableRng;
//!
//! let mut g = UncertainGraph::with_nodes(4);
//! g.add_edge(0, 1, 0.9).unwrap();
//! g.add_edge(1, 2, 0.9).unwrap();
//! g.add_edge(0, 3, 0.1).unwrap();
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let ens = WorldEnsemble::sample(&g, 1500, &mut rng);
//! let knn = reliability_knn(&ens, 0, 2);
//! assert_eq!(knn[0].node, 1); // the most reliable contact
//! assert!(influence_spread(&ens, &[0]) > 2.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agreement;
pub mod clusters;
pub mod influence;
pub mod knn;

pub use agreement::{cluster_agreement, rank_overlap_at_k};
pub use clusters::reliable_clusters;
pub use influence::{greedy_seed_selection, influence_spread};
pub use knn::reliability_knn;
