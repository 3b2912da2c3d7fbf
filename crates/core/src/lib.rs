//! Chameleon: reliability-preserving syntactic anonymization of uncertain
//! graphs.
//!
//! This crate implements the primary contribution of *"Sharing Uncertain
//! Graphs Using Syntactic Private Graph Models"* (Xiao, Eltabakh, Kong —
//! ICDE 2018): publish an uncertain graph `G = (V, E, p)` as a
//! **(k, ε)-obfuscated** uncertain graph `G̃ = (V, Ẽ, p̃)` whose
//! *reliability discrepancy* from `G` is as small as possible.
//!
//! # Pipeline
//!
//! ```text
//! UncertainGraph ──► Chameleon::anonymize(method, k, ε)
//!                      │ 1. uniqueness scores  U^v      (§V-C, Def. 4)
//!                      │ 2. reliability relevance VRR^v (§V-D, Alg. 2)
//!                      │ 3. σ binary search             (Alg. 1)
//!                      │      └─ GenObf trials          (Alg. 3)
//!                      │           ├─ candidate edges E_C
//!                      │           ├─ per-edge noise σ(e)
//!                      │           ├─ perturbation (max-entropy / unguided)
//!                      │           └─ (k, ε) anonymity check  (Def. 3)
//!                      ▼
//! ObfuscationResult { graph: G̃, sigma, eps_hat, … }
//! ```
//!
//! # Quick example
//!
//! ```
//! use chameleon_core::{Chameleon, ChameleonConfig, Method};
//! use chameleon_ugraph::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut g = generators::gnm(60, 150, &mut rng);
//! for e in 0..g.num_edges() as u32 {
//!     g.set_prob(e, 0.3 + 0.4 * ((e % 5) as f64 / 5.0)).unwrap();
//! }
//! let config = ChameleonConfig::builder()
//!     .k(5)
//!     .epsilon(0.15)
//!     .num_world_samples(120)
//!     .trials(3)
//!     .build();
//! let result = Chameleon::new(config)
//!     .anonymize(&g, Method::Rsme, 42)
//!     .expect("obfuscation should succeed at this k");
//! assert!(result.eps_hat <= 0.15);
//! assert_eq!(result.graph.num_nodes(), g.num_nodes());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anonymity;
pub mod attack;
pub mod cancel;
mod candidate;
pub mod chameleon;
pub mod config;
pub mod genobf_checkpoint;
mod genobf_plan;
pub mod method;
pub mod perturb;
pub mod profile;
pub mod relevance;
pub mod uniqueness;

pub use anonymity::{
    anonymity_check, anonymity_check_threads, anonymity_check_tolerant, AdversaryKnowledge,
    AnonymityReport,
};
pub use attack::{simulate_degree_attack, AttackReport};
pub use cancel::{CancelReason, CancelToken};
pub use chameleon::{Chameleon, ChameleonError, ObfuscationResult};
pub use config::{ChameleonConfig, ChameleonConfigBuilder};
pub use genobf_checkpoint::{graph_fingerprint, CheckpointHook, ProbeRecord, SearchCheckpoint};
pub use method::Method;
pub use perturb::PerturbStrategy;
pub use profile::PrivacyProfile;
pub use relevance::{
    edge_reliability_relevance_streamed, edge_reliability_relevance_threads,
    vertex_reliability_relevance,
};
pub use uniqueness::uniqueness_scores;
