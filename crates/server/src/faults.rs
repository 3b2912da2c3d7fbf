//! Deterministic fault injection for chaos-testing the daemon.
//!
//! A [`FaultPlan`] describes a *reproducible* schedule of faults: every
//! decision is a pure function of `(seed, site label, event index)`
//! through [`chameleon_stats::SeedSequence`], never of wall-clock time or
//! shared RNG state. Re-running the daemon with the same plan and the
//! same single-worker pool replays the identical fault schedule; with
//! more workers the per-index schedule is still fixed, only the
//! assignment of indices to jobs follows pop order.
//!
//! Two fault kinds are injected server-side by [`FaultInjector`] at the
//! worker's job-start boundary:
//!
//! * **worker panics** — the worker thread panics before executing the
//!   job. The hardened worker loop catches the unwind, answers a
//!   structured retryable `job_panicked` error, and survives.
//! * **cancel-token trips** — the job's [`chameleon_core::CancelToken`]
//!   is cancelled explicitly before execution, exercising the
//!   cooperative-cancellation path without waiting out a deadline. The
//!   daemon answers a retryable `cancelled` error (distinguished from a
//!   real deadline via [`chameleon_core::CancelToken::reason`]).
//!
//! Two more are injected at the reactor's I/O boundary (DESIGN.md §9) to
//! chaos-test the event loop itself:
//!
//! * **deferred readiness** — a connection that polled readable is
//!   skipped for one tick, exactly as if the kernel had woken the loop
//!   spuriously. The bytes are still there next tick; nothing is lost.
//! * **short writes** — a response flush is artificially truncated to
//!   one byte, forcing the partial-write resumption path that real
//!   kernel buffers exercise only under memory pressure.
//!
//! Client-side faults (slow, truncated, oversized and junk-byte request
//! lines; queue-full storms) are driven by the chaos harness itself —
//! see `tests/chaos.rs` — using [`decide`] so the abuse schedule is
//! seeded the same way.
//!
//! Faults only ever *remove* work (a panicked or cancelled execution
//! computes nothing) or delay it; they never feed into a job's RNG
//! streams. A job that eventually runs to completion therefore produces
//! bytes identical to a fault-free run — the chaos soak test pins this.

use chameleon_stats::SeedSequence;
use std::sync::atomic::{AtomicU64, Ordering};

/// A seeded, bounded schedule of injected faults.
///
/// `rate` is the per-execution injection probability (deterministically
/// derived per index); `budget` caps the total number of injections of
/// that kind. `rate = 1.0` with `budget = n` means "exactly the first
/// `n` executions fault" — the fully deterministic schedule the soak
/// tests use. Zero rate or zero budget disables a fault kind; the
/// default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master seed for every schedule decision.
    pub seed: u64,
    /// Per-execution probability of an injected worker panic.
    pub panic_rate: f64,
    /// Maximum number of injected panics.
    pub panic_budget: u64,
    /// Per-execution probability of an injected cancel-token trip.
    pub cancel_rate: f64,
    /// Maximum number of injected cancel trips.
    pub cancel_budget: u64,
    /// Per-readiness-event probability that the reactor defers handling
    /// a readable connection by one tick.
    pub defer_ready_rate: f64,
    /// Maximum number of injected readiness deferrals.
    pub defer_ready_budget: u64,
    /// Per-flush probability that the reactor truncates a response write
    /// to a single byte.
    pub short_write_rate: f64,
    /// Maximum number of injected short writes.
    pub short_write_budget: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            panic_rate: 0.0,
            panic_budget: 0,
            cancel_rate: 0.0,
            cancel_budget: 0,
            defer_ready_rate: 0.0,
            defer_ready_budget: 0,
            short_write_rate: 0.0,
            short_write_budget: 0,
        }
    }
}

impl FaultPlan {
    /// An inert plan (injects nothing) with the given schedule seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Enables worker-panic injection at `rate`, capped at `budget`.
    pub fn with_panics(mut self, rate: f64, budget: u64) -> Self {
        self.panic_rate = rate;
        self.panic_budget = budget;
        self
    }

    /// Enables cancel-trip injection at `rate`, capped at `budget`.
    pub fn with_cancels(mut self, rate: f64, budget: u64) -> Self {
        self.cancel_rate = rate;
        self.cancel_budget = budget;
        self
    }

    /// Enables reactor readiness-deferral injection at `rate`, capped at
    /// `budget`.
    pub fn with_deferred_ready(mut self, rate: f64, budget: u64) -> Self {
        self.defer_ready_rate = rate;
        self.defer_ready_budget = budget;
        self
    }

    /// Enables reactor short-write injection at `rate`, capped at
    /// `budget`.
    pub fn with_short_writes(mut self, rate: f64, budget: u64) -> Self {
        self.short_write_rate = rate;
        self.short_write_budget = budget;
        self
    }

    /// True when the plan can inject at least one fault.
    pub(crate) fn is_active(&self) -> bool {
        (self.panic_rate > 0.0 && self.panic_budget > 0)
            || (self.cancel_rate > 0.0 && self.cancel_budget > 0)
            || (self.defer_ready_rate > 0.0 && self.defer_ready_budget > 0)
            || (self.short_write_rate > 0.0 && self.short_write_budget > 0)
    }
}

/// Pure schedule decision: does event `index` at `label` fault, at
/// probability `rate`, under `seed`? Deterministic and order-independent
/// — the answer depends only on the arguments, so concurrent sites can
/// consult the schedule without coordination. Also used by the chaos
/// harness to derive its client-abuse schedule.
pub(crate) fn decide(seed: u64, label: &str, index: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    // 53 high bits → uniform in [0, 1), the standard f64 construction.
    let raw = SeedSequence::new(seed).derive_indexed(label, index);
    let unit = (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < rate
}

/// What the injector asks the worker to do to the current job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFault {
    /// Panic the worker thread before executing the job.
    Panic,
    /// Trip the job's cancel token before executing it.
    CancelTrip,
}

/// Runtime state of a [`FaultPlan`] inside a server: a monotone
/// execution counter plus per-kind injection totals.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    executions: AtomicU64,
    panics: AtomicU64,
    cancels: AtomicU64,
    ready_events: AtomicU64,
    defers: AtomicU64,
    flushes: AtomicU64,
    short_writes: AtomicU64,
}

impl FaultInjector {
    /// Arms `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            executions: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            cancels: AtomicU64::new(0),
            ready_events: AtomicU64::new(0),
            defers: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
        }
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Consumes one execution index and returns the fault (if any) to
    /// inject into the job about to run. Panic takes precedence over a
    /// cancel trip when both trip on the same index.
    pub(crate) fn next_job_fault(&self) -> Option<JobFault> {
        let index = self.executions.fetch_add(1, Ordering::Relaxed);
        if decide(
            self.plan.seed,
            "fault.worker_panic",
            index,
            self.plan.panic_rate,
        ) && self.take_budget(&self.panics, self.plan.panic_budget)
        {
            chameleon_obs::counter!("server.faults.injected_panic").add(1);
            return Some(JobFault::Panic);
        }
        if decide(
            self.plan.seed,
            "fault.cancel_trip",
            index,
            self.plan.cancel_rate,
        ) && self.take_budget(&self.cancels, self.plan.cancel_budget)
        {
            chameleon_obs::counter!("server.faults.injected_cancel").add(1);
            return Some(JobFault::CancelTrip);
        }
        None
    }

    /// Claims one unit of `budget` from `used`; false once exhausted.
    fn take_budget(&self, used: &AtomicU64, budget: u64) -> bool {
        used.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < budget).then_some(n + 1)
        })
        .is_ok()
    }

    /// Consumes one readiness-event index; true when the reactor should
    /// skip this readable connection for one tick.
    pub(crate) fn next_deferred_ready(&self) -> bool {
        if self.plan.defer_ready_rate <= 0.0 || self.plan.defer_ready_budget == 0 {
            return false;
        }
        let index = self.ready_events.fetch_add(1, Ordering::Relaxed);
        if decide(
            self.plan.seed,
            "fault.defer_ready",
            index,
            self.plan.defer_ready_rate,
        ) && self.take_budget(&self.defers, self.plan.defer_ready_budget)
        {
            chameleon_obs::counter!("server.faults.injected_defer").add(1);
            return true;
        }
        false
    }

    /// Consumes one flush index; true when the reactor should truncate
    /// this response flush to a single byte.
    pub(crate) fn next_short_write(&self) -> bool {
        if self.plan.short_write_rate <= 0.0 || self.plan.short_write_budget == 0 {
            return false;
        }
        let index = self.flushes.fetch_add(1, Ordering::Relaxed);
        if decide(
            self.plan.seed,
            "fault.short_write",
            index,
            self.plan.short_write_rate,
        ) && self.take_budget(&self.short_writes, self.plan.short_write_budget)
        {
            chameleon_obs::counter!("server.faults.injected_short_write").add(1);
            return true;
        }
        false
    }

    /// Total injected worker panics so far.
    pub fn injected_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Total injected cancel trips so far.
    pub fn injected_cancels(&self) -> u64 {
        self.cancels.load(Ordering::Relaxed)
    }

    /// Total injected readiness deferrals so far.
    pub fn injected_defers(&self) -> u64 {
        self.defers.load(Ordering::Relaxed)
    }

    /// Total injected short writes so far.
    pub fn injected_short_writes(&self) -> u64 {
        self.short_writes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_deterministic_and_rate_monotone() {
        for index in 0..64 {
            assert_eq!(
                decide(9, "x", index, 0.3),
                decide(9, "x", index, 0.3),
                "index {index}"
            );
            // A trip at rate r must also trip at any higher rate: the
            // underlying unit draw is fixed per (seed, label, index).
            if decide(9, "x", index, 0.3) {
                assert!(decide(9, "x", index, 0.8));
            }
        }
        assert!(!decide(9, "x", 0, 0.0));
        assert!(decide(9, "x", 0, 1.0));
    }

    #[test]
    fn decide_rate_is_roughly_honored() {
        let trips = (0..10_000).filter(|&i| decide(1, "rate", i, 0.25)).count();
        assert!((2_000..3_000).contains(&trips), "got {trips}");
    }

    #[test]
    fn full_rate_budget_gives_exact_prefix_schedule() {
        let inj = FaultInjector::new(FaultPlan::new(5).with_panics(1.0, 3));
        let faults: Vec<_> = (0..6).map(|_| inj.next_job_fault()).collect();
        assert_eq!(
            faults,
            vec![
                Some(JobFault::Panic),
                Some(JobFault::Panic),
                Some(JobFault::Panic),
                None,
                None,
                None
            ]
        );
        assert_eq!(inj.injected_panics(), 3);
    }

    #[test]
    fn panic_takes_precedence_and_budgets_are_independent() {
        let inj = FaultInjector::new(FaultPlan::new(5).with_panics(1.0, 1).with_cancels(1.0, 2));
        assert_eq!(inj.next_job_fault(), Some(JobFault::Panic));
        assert_eq!(inj.next_job_fault(), Some(JobFault::CancelTrip));
        assert_eq!(inj.next_job_fault(), Some(JobFault::CancelTrip));
        assert_eq!(inj.next_job_fault(), None);
        assert_eq!((inj.injected_panics(), inj.injected_cancels()), (1, 2));
    }

    #[test]
    fn inert_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::new(42));
        assert!(!inj.plan().is_active());
        assert!((0..100).all(|_| inj.next_job_fault().is_none()));
        assert!((0..100).all(|_| !inj.next_deferred_ready()));
        assert!((0..100).all(|_| !inj.next_short_write()));
    }

    #[test]
    fn reactor_faults_have_independent_budgets_and_counters() {
        let inj = FaultInjector::new(
            FaultPlan::new(11)
                .with_deferred_ready(1.0, 2)
                .with_short_writes(1.0, 3),
        );
        assert!(inj.plan().is_active());
        let defers = (0..10).filter(|_| inj.next_deferred_ready()).count();
        let shorts = (0..10).filter(|_| inj.next_short_write()).count();
        assert_eq!((defers, shorts), (2, 3));
        assert_eq!(inj.injected_defers(), 2);
        assert_eq!(inj.injected_short_writes(), 3);
        // Job faults are untouched by the reactor schedule.
        assert_eq!(inj.next_job_fault(), None);
    }
}
