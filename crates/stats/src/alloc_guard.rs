//! Allocation accounting for memory-ceiling enforcement (DESIGN.md §12).
//!
//! Two independent instruments live here:
//!
//! * [`CountingAlloc`] — a `#[global_allocator]` wrapper around the system
//!   allocator that counts allocation calls. Test binaries install it to
//!   pin steady-state allocation budgets (O(chunks), not O(worlds));
//!   production binaries never need it.
//! * The **ensemble byte budget** — a process-global gauge that the
//!   ensemble arenas (world matrices, label arenas, stored world
//!   strips) register their bytes against via [`Tracked`] guards. A
//!   configured limit ([`set_ensemble_limit`], wired to
//!   `--max-ensemble-bytes`) turns the gauge into a ceiling: fallible
//!   entry points call [`Tracked::try_register`] and surface [`BudgetExceeded`] with a
//!   hint to switch to strip-streamed analysis (`--strip-worlds`) instead
//!   of letting the process OOM. The gauge works without any custom
//!   global allocator, so every binary gets accurate "peak tracked
//!   ensemble bytes" reporting for free.
//!
//! The gauge is process-global: concurrent ensembles (e.g. parallel tests)
//! share it, so exact-peak assertions belong in single-ensemble binaries
//! like the scale sweep, not in parallel test suites.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// Counting global allocator (opt-in via #[global_allocator] in a binary).

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

/// A counting wrapper around the system allocator. Install with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;` in a test
/// or bench binary, then read [`alloc_calls`].
pub struct CountingAlloc;

#[allow(unsafe_code)] // GlobalAlloc is an inherently unsafe trait to implement.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Number of allocation calls (alloc + alloc_zeroed + realloc) since
/// process start. Only meaningful when [`CountingAlloc`] is installed as
/// the global allocator.
pub fn alloc_calls() -> usize {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Ensemble byte budget (always available; no custom allocator required).

static ENSEMBLE_LIMIT: AtomicUsize = AtomicUsize::new(0);
static ENSEMBLE_CURRENT: AtomicUsize = AtomicUsize::new(0);
static ENSEMBLE_PEAK: AtomicUsize = AtomicUsize::new(0);

/// The ensemble byte budget was exhausted: registering `requested` more
/// bytes on top of `in_use` would exceed `limit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Bytes the failed registration asked for.
    pub requested: usize,
    /// Tracked ensemble bytes already in use at the time.
    pub in_use: usize,
    /// The configured ceiling.
    pub limit: usize,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ensemble memory ceiling exceeded: {} bytes requested with {} already \
             tracked, limit {} (raise --max-ensemble-bytes or lower --strip-worlds \
             to analyze worlds in smaller strips)",
            self.requested, self.in_use, self.limit
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Sets the ensemble byte ceiling (`0` = unlimited). Wired to the
/// `--max-ensemble-bytes` CLI flag.
pub fn set_ensemble_limit(bytes: usize) {
    ENSEMBLE_LIMIT.store(bytes, Ordering::Relaxed);
}

/// The configured ensemble byte ceiling (`0` = unlimited).
pub(crate) fn ensemble_limit() -> usize {
    ENSEMBLE_LIMIT.load(Ordering::Relaxed)
}

/// Tracked ensemble bytes currently live.
pub fn ensemble_current_bytes() -> usize {
    ENSEMBLE_CURRENT.load(Ordering::Relaxed)
}

/// Peak tracked ensemble bytes since the last [`reset_ensemble_peak`].
pub fn ensemble_peak_bytes() -> usize {
    ENSEMBLE_PEAK.load(Ordering::Relaxed)
}

/// Resets the tracked-bytes peak to the current level.
pub fn reset_ensemble_peak() {
    ENSEMBLE_PEAK.store(ENSEMBLE_CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Would registering `bytes` more stay under the ceiling? `Ok` when no
/// limit is set. This is advisory (racy against concurrent registrations);
/// the scale sweep and the pipeline entry points use it for fail-fast
/// errors *before* allocating, then the gauge records what truly happened.
pub fn check_ensemble_budget(bytes: usize) -> Result<(), BudgetExceeded> {
    let limit = ensemble_limit();
    let in_use = ensemble_current_bytes();
    if limit > 0 && in_use.saturating_add(bytes) > limit {
        return Err(BudgetExceeded {
            requested: bytes,
            in_use,
            limit,
        });
    }
    Ok(())
}

/// A registration of ensemble bytes against the process-global gauge. The
/// bytes are released when the guard drops; cloning re-registers the same
/// amount (a cloned arena really does occupy more memory).
#[derive(Debug, Default)]
pub struct Tracked {
    bytes: usize,
}

impl Tracked {
    /// Registers `bytes` unconditionally (gauge accounting only — the
    /// ceiling is not consulted). Infallible constructors use this so the
    /// peak stays accurate even on paths that cannot return errors.
    pub fn register(bytes: usize) -> Self {
        let now = ENSEMBLE_CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
        ENSEMBLE_PEAK.fetch_max(now, Ordering::Relaxed);
        Self { bytes }
    }

    /// Registers `bytes` only if the ceiling allows it.
    ///
    /// # Errors
    /// [`BudgetExceeded`] when a limit is set and the registration would
    /// cross it; the gauge is left unchanged.
    pub fn try_register(bytes: usize) -> Result<Self, BudgetExceeded> {
        let limit = ensemble_limit();
        let prior = ENSEMBLE_CURRENT.fetch_add(bytes, Ordering::Relaxed);
        let now = prior + bytes;
        if limit > 0 && now > limit {
            ENSEMBLE_CURRENT.fetch_sub(bytes, Ordering::Relaxed);
            return Err(BudgetExceeded {
                requested: bytes,
                in_use: prior,
                limit,
            });
        }
        ENSEMBLE_PEAK.fetch_max(now, Ordering::Relaxed);
        Ok(Self { bytes })
    }

    /// Bytes this guard holds registered.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Self::register(self.bytes)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        ENSEMBLE_CURRENT.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The gauge is process-global; tests touching the limit serialize.
    static GAUGE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn tracked_registers_and_releases() {
        let _guard = GAUGE_LOCK.lock().unwrap();
        set_ensemble_limit(0);
        let before = ensemble_current_bytes();
        let t = Tracked::register(1024);
        assert_eq!(t.bytes(), 1024);
        assert!(ensemble_current_bytes() >= before + 1024);
        let cloned = t.clone();
        assert!(ensemble_current_bytes() >= before + 2048);
        drop(cloned);
        drop(t);
        assert_eq!(ensemble_current_bytes(), before);
    }

    #[test]
    fn peak_is_monotone_until_reset() {
        let _guard = GAUGE_LOCK.lock().unwrap();
        set_ensemble_limit(0);
        let t = Tracked::register(4096);
        let peak_with = ensemble_peak_bytes();
        assert!(peak_with >= 4096);
        drop(t);
        assert!(ensemble_peak_bytes() >= peak_with);
        reset_ensemble_peak();
        assert_eq!(ensemble_peak_bytes(), ensemble_current_bytes());
    }

    #[test]
    fn try_register_enforces_the_limit() {
        let _guard = GAUGE_LOCK.lock().unwrap();
        let floor = ensemble_current_bytes();
        set_ensemble_limit(floor + 1000);
        let ok = Tracked::try_register(900).expect("within budget");
        let err = Tracked::try_register(200).expect_err("over budget");
        assert_eq!(err.limit, floor + 1000);
        assert!(err.in_use >= floor + 900);
        assert_eq!(err.requested, 200);
        // A failed registration leaves the gauge unchanged.
        assert_eq!(ensemble_current_bytes(), floor + 900);
        let msg = err.to_string();
        assert!(msg.contains("strip-worlds"), "{msg}");
        drop(ok);
        set_ensemble_limit(0);
        assert!(Tracked::try_register(usize::MAX / 2).is_ok());
    }

    #[test]
    fn check_is_advisory_and_respects_limit() {
        let _guard = GAUGE_LOCK.lock().unwrap();
        let floor = ensemble_current_bytes();
        set_ensemble_limit(0);
        assert!(check_ensemble_budget(usize::MAX).is_ok());
        set_ensemble_limit(floor + 10);
        assert!(check_ensemble_budget(10).is_ok());
        assert!(check_ensemble_budget(11).is_err());
        set_ensemble_limit(0);
    }
}
