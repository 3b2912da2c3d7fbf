//! Poison-recovering synchronization primitives.
//!
//! `std::sync::Mutex` poisons itself when a holder panics, and every
//! later `lock()` returns `Err(PoisonError)`. The daemon's original
//! `.expect("poisoned")` calls turned one worker panic into a permanent
//! outage: the panic poisoned the queue/cache mutex and every subsequent
//! request died unwinding on the poison error. Nothing the daemon guards
//! with a mutex has an invariant that a panic can actually break — the
//! queue holds owned jobs, the cache holds owned strings, and both are
//! valid after any prefix of their critical sections — so poisoning is
//! pure downside here. [`RecoverableMutex`] recovers the inner guard,
//! counts the event (`server.lock.poison_recovered` plus a process-wide
//! atomic readable in no-obs builds), and carries on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Process-wide count of poison recoveries (all [`RecoverableMutex`]es).
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Total poisoned-lock recoveries since process start. Mirrored by the
/// `server.lock.poison_recovered` counter, but readable without obs.
pub(crate) fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

fn note_recovery() {
    POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
    chameleon_obs::counter!("server.lock.poison_recovered").add(1);
}

/// A mutex whose `lock()` never fails: a poisoned lock is recovered (the
/// data is taken as-is) and the recovery is counted instead of being
/// fatal. Returns the plain [`MutexGuard`], so it composes with
/// [`Condvar`] via [`RecoverableMutex::wait`].
#[derive(Debug, Default)]
pub struct RecoverableMutex<T> {
    inner: Mutex<T>,
}

impl<T> RecoverableMutex<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, recovering (and counting) poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                note_recovery();
                poisoned.into_inner()
            }
        }
    }

    /// `Condvar::wait` with the same recovery semantics as
    /// [`RecoverableMutex::lock`].
    pub fn wait<'a>(&self, condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match condvar.wait(guard) {
            Ok(guard) => guard,
            Err(poisoned) => {
                note_recovery();
                poisoned.into_inner()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_works_without_poison() {
        let m = RecoverableMutex::new(7);
        assert_eq!(*m.lock(), 7);
        *m.lock() = 8;
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn poisoned_lock_recovers_and_counts() {
        let m = Arc::new(RecoverableMutex::new(vec![1, 2, 3]));
        let before = poison_recoveries();
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // The lock is poisoned now; a recoverable lock shrugs it off.
        assert_eq!(*m.lock(), vec![1, 2, 3]);
        *m.lock() = vec![9];
        assert_eq!(*m.lock(), vec![9]);
        assert!(poison_recoveries() > before);
    }

    #[test]
    fn condvar_wait_round_trips() {
        let m = Arc::new(RecoverableMutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut guard = m2.lock();
            while !*guard {
                guard = m2.wait(&cv2, guard);
            }
            *guard
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        *m.lock() = true;
        cv.notify_all();
        assert!(waiter.join().unwrap());
    }
}
