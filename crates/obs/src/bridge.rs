//! Bridge into `chameleon_stats::parallel`'s scheduler telemetry hook.
//!
//! The stats crate sits below this one in the dependency graph, so it
//! cannot record into the registry itself; instead it exposes a
//! [`ParallelObserver`] hook and this module installs an implementation
//! that forwards per-chunk and per-scope telemetry into ordinary obs
//! counters and histograms:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `parallel.chunks_executed` | counter | chunks run across all fan-outs |
//! | `parallel.scopes` | counter | `map_chunks` calls observed |
//! | `parallel.chunk_busy_ns` | histogram | per-chunk wall time |
//! | `parallel.scope_wall_ns` | histogram | per-fan-out wall time |
//! | `parallel.utilization_pct` | histogram | per-fan-out `busy/(threads·wall)` |
//!
//! Installation happens automatically the first time any obs site records
//! (see [`Registry::global`](crate::Registry::global)).

use chameleon_stats::parallel::ParallelObserver;

struct SchedulerObserver;

impl ParallelObserver for SchedulerObserver {
    fn chunk_completed(&self, _worker: usize, _chunk: usize, busy_ns: u64) {
        crate::counter!("parallel.chunks_executed").add(1);
        crate::record_value!("parallel.chunk_busy_ns", busy_ns);
    }

    fn scope_completed(&self, threads: usize, _chunks: usize, busy_ns: u64, wall_ns: u64) {
        crate::counter!("parallel.scopes").add(1);
        crate::record_value!("parallel.scope_wall_ns", wall_ns);
        let denom = (threads as u64).saturating_mul(wall_ns).max(1);
        let pct = busy_ns.saturating_mul(100) / denom;
        crate::record_value!("parallel.utilization_pct", pct.min(100));
    }
}

static SCHEDULER_OBSERVER: SchedulerObserver = SchedulerObserver;

/// Installs the scheduler observer (idempotent; first caller wins).
/// Returns `true` when this call performed the installation.
pub(crate) fn install_scheduler_observer() -> bool {
    chameleon_stats::parallel::set_parallel_observer(&SCHEDULER_OBSERVER)
}
