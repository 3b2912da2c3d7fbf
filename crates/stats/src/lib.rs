//! Probability and statistics toolkit underpinning the Chameleon
//! uncertain-graph anonymization framework.
//!
//! The anonymization pipeline of the paper ("Sharing Uncertain Graphs Using
//! Syntactic Private Graph Models", ICDE 2018) repeatedly needs a small set
//! of numeric primitives:
//!
//! * [`detmath`] — pure-Rust `exp` and `ln`, so that release bytes do not
//!   depend on the host's libm.
//! * [`trunc_normal`] — the truncated normal noise distribution `R(σ)` used
//!   to draw edge-probability perturbations (paper §V-A).
//! * [`poisson_binomial`] — the exact degree distribution of a vertex in an
//!   uncertain graph, required by the (k, ε)-obfuscation anonymity check
//!   (paper Definition 3) and by the degree-entropy argument of Lemma 6.
//! * [`entropy`] — Shannon entropy in bits and nats, for obfuscation levels
//!   and for the degree-uncertainty analysis.
//! * [`kde`] — Gaussian-kernel commonness/uniqueness density estimation
//!   (paper Definition 4).
//! * [`histogram`] — fixed-bin histograms used to reproduce the paper's
//!   distribution figures (Fig. 3).
//! * [`summary`] — streaming mean/variance (Welford) summaries.
//! * [`rng`] — deterministic seed fan-out so that every experiment in the
//!   reproduction is bit-for-bit repeatable.
//! * [`parallel`] — fixed-chunk data parallelism whose results are
//!   bit-identical at any thread count, so the Monte-Carlo hot paths can
//!   use every core without giving up reproducibility.
//! * [`alloc_guard`] — allocation accounting: a counting global allocator
//!   for test binaries plus the process-global ensemble byte budget behind
//!   `--max-ensemble-bytes` (DESIGN.md §12).
//!
//! All samplers take `&mut impl Rng` so callers control determinism.

#![warn(missing_docs)]
// `deny`, not `forbid`: alloc_guard implements `GlobalAlloc`, which is an
// unsafe trait, behind a module-scoped `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]

pub mod alloc_guard;
pub mod detmath;
pub mod entropy;
pub mod gamma;
pub mod histogram;
pub mod kde;
pub mod parallel;
pub mod poisson_binomial;
pub mod rng;
pub mod summary;
pub mod trunc_normal;

pub use alloc_guard::{BudgetExceeded, CountingAlloc, Tracked};
pub use entropy::shannon_entropy_bits;
pub use gamma::sample_beta;
pub use histogram::{Histogram, Log2Histogram};
pub use kde::GaussianKde;
pub use poisson_binomial::PoissonBinomial;
pub use rng::SeedSequence;
pub use summary::Summary;
pub use trunc_normal::TruncatedNormal;
