//! `chameleond`: a zero-dependency anonymization job service.
//!
//! This crate wraps the Chameleon pipeline (`chameleon-core`,
//! `chameleon-reliability`, `chameleon-baseline`) in a long-lived TCP
//! daemon speaking newline-delimited JSON, so repeated anonymization runs
//! against the same graphs amortize process start-up and share a result
//! cache. Everything is `std`-only, matching the rest of the workspace.
//!
//! Architecture (see `DESIGN.md` §7 for the full treatment):
//!
//! * [`protocol`] — the NDJSON request/response grammar, parsed and
//!   rendered with the shared deterministic encoder
//!   ([`chameleon_obs::json`]).
//! * [`job`] — executable job specs bridging protocol requests to the
//!   library entry points, plus canonical cache-key derivation.
//! * [`queue`] — a bounded MPMC queue with non-blocking rejection
//!   (backpressure → `retry_after_ms`) and exact drain accounting.
//! * [`cache`] — a content-addressed LRU cache of rendered results; hits
//!   replay the cold response byte-for-byte.
//! * [`reactor`] — the event loop both front ends run: a thin, safe
//!   wrapper over `poll(2)` (the workspace's only unsafe code), the
//!   self-pipe wakeup channel, and the line-protocol server (framing,
//!   limits, deadlines, connection states, drain-then-flush shutdown)
//!   that the daemon and the gateway each drive with a small service
//!   handler.
//! * [`config`] — [`ServerConfig`] and [`GatewayConfig`], each with its
//!   flag table (`from_args`) and usage text, shared by the standalone
//!   binaries and the `chameleon serve` / `chameleon gate` subcommands.
//! * [`gateway`] — chameleon-gate (DESIGN.md §13): a consistent-hashing
//!   gateway that shards jobs across N backend daemons by graph digest,
//!   health-checks the fleet, and re-drives jobs off dead backends with
//!   byte-identical results.
//! * [`server`] — the daemon's service handler: job admission, the
//!   worker pool, per-job deadlines (cooperative cancellation via
//!   [`chameleon_core::CancelToken`]), panic isolation and the graceful
//!   shutdown sequence, plus the seeded retry client.
//! * [`sync`] — poison-recovering lock wrappers: a panicking lock holder
//!   is counted and survived, never propagated as a permanent outage.
//! * [`journal`] — the durability layer (DESIGN.md §11): an append-only,
//!   checksummed write-ahead log of job lifecycles with segment rotation,
//!   crash-tolerant replay, checkpointed GenObf searches and clean-stop
//!   compaction.
//! * [`faults`] — deterministic, seeded fault injection (worker panics,
//!   cancel-token trips, deferred readiness, short writes) for chaos
//!   tests; inert unless configured.
//!
//! Robustness contract (DESIGN.md §8): no client behaviour and no worker
//! panic may take the daemon down — panics are isolated per job
//! (`catch_unwind` → structured `job_panicked` error), request lines are
//! bounded in size and read under a deadline, and the connection pool is
//! capped.
//!
//! Determinism contract: for a fixed request (graph, parameters, seed)
//! the `result` object is byte-identical across thread counts, cache
//! state (cold vs. hit) and the CLI subcommand computing the same thing —
//! enforced by `tests/service.rs`, and under injected faults by
//! `tests/chaos.rs`.

#![warn(missing_docs)]
// `deny`, not `forbid`: the reactor module carries the workspace's single
// unsafe exception (the `poll(2)` FFI call) behind a scoped allow.
#![deny(unsafe_code)]

pub mod cache;
pub mod config;
pub mod faults;
pub mod gateway;
pub mod job;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod sync;

pub use cache::{fnv1a64, CacheStats, ResultCache};
pub use config::{GatewayConfig, ServerConfig};
pub use faults::{FaultInjector, FaultPlan, JobFault};
pub use gateway::{Gateway, GatewayHandle, GatewayReport, HashRing, RING_REPLICAS};
pub use job::{AnonymizeMethod, Durability, ExecError, ExecOutput, JobSpec};
pub use journal::{Journal, JournalStats, JournalSync, ReplayJob, ReplaySummary};
pub use protocol::{
    chunk_frames, codes, error_response, ok_response, parse_request, JobRequest, Request,
};
pub use queue::{BoundedQueue, PushError, QueueSnapshot};
pub use server::{
    read_response, request_once, request_with_retry, response_field, roundtrip, RetryPolicy,
    Server, ServerHandle, ServerReport,
};
pub use sync::RecoverableMutex;
