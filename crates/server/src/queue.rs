//! A bounded MPMC job queue with explicit backpressure and drain
//! accounting.
//!
//! `std::sync::mpsc::sync_channel` almost fits, but the daemon needs three
//! things it does not offer together: a non-blocking depth-aware reject
//! (queue-full must answer `retry_after`, not block), a drain predicate
//! that is atomic with dequeueing (no window where the queue looks empty
//! while a worker is between `pop` and "I'm busy"), and an inspectable
//! depth for `status`. Hence this small lock + Condvar queue: `pop`
//! increments the active-worker count under the same lock that removes the
//! item, and `task_done` decrements it, so `is_drained()` is exact.
//!
//! The lock is a [`RecoverableMutex`]: a panicking holder (a worker hit
//! by an injected fault, say) must never take the queue down with it —
//! the queue's state is valid after any prefix of a critical section, so
//! poison is recovered and counted instead of being fatal.

use crate::sync::RecoverableMutex;
use std::collections::VecDeque;
use std::sync::Condvar;

/// A single-lock, mutually consistent view of the queue's counters.
///
/// `status` and drain checks need queued-and-active as one atomic pair:
/// reading them through separate [`BoundedQueue::len`] / [`BoundedQueue::active`]
/// calls can observe a job twice (still queued in one read, already active
/// in the next) or not at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Items queued but not yet popped.
    pub queued: usize,
    /// Items popped but not yet `task_done`d.
    pub active: usize,
    /// Whether the queue has stopped accepting pushes.
    pub closed: bool,
}

impl QueueSnapshot {
    /// True when nothing is queued and nothing is in flight.
    pub(crate) fn is_drained(&self) -> bool {
        self.queued == 0 && self.active == 0
    }
}

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds `capacity` items; retry later.
    Full {
        /// Configured bound that was hit.
        capacity: usize,
    },
    /// The queue no longer accepts work (shutdown in progress).
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    /// Items popped but not yet `task_done`d.
    active: usize,
    /// Closed queues reject pushes; pops drain the remainder then `None`.
    closed: bool,
}

/// Bounded multi-producer / multi-consumer FIFO.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: RecoverableMutex<State<T>>,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue bounded at `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: RecoverableMutex::new(State {
                items: VecDeque::new(),
                active: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueues without blocking; returns the depth after the push.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] once closed.
    pub(crate) fn try_push(&self, item: T) -> Result<usize, PushError> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full {
                capacity: self.capacity,
            });
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks for the next item; `None` once the queue is closed *and*
    /// empty. A returned item counts as active until [`Self::task_done`].
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                state.active += 1;
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.state.wait(&self.not_empty, state);
        }
    }

    /// Marks one previously popped item as finished.
    pub(crate) fn task_done(&self) {
        let mut state = self.state.lock();
        state.active = state.active.saturating_sub(1);
    }

    /// Queued and active counts read under one lock acquisition.
    pub fn snapshot(&self) -> QueueSnapshot {
        let state = self.state.lock();
        QueueSnapshot {
            queued: state.items.len(),
            active: state.active,
            closed: state.closed,
        }
    }

    /// Current number of queued (not yet popped) items.
    pub fn len(&self) -> usize {
        self.snapshot().queued
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of popped-but-unfinished items.
    pub(crate) fn active(&self) -> usize {
        self.snapshot().active
    }

    /// True when nothing is queued and nothing is in flight.
    pub(crate) fn is_drained(&self) -> bool {
        self.snapshot().is_drained()
    }

    /// Stops accepting pushes; blocked `pop`s drain the backlog, then
    /// return `None`.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_depth() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.pop(), Some(1));
        q.task_done();
        assert_eq!(q.pop(), Some(2));
        q.task_done();
        assert!(q.is_drained());
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full { capacity: 2 }));
    }

    #[test]
    fn close_drains_backlog_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(9), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1));
        q.task_done();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drained_is_false_while_item_in_flight() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        assert!(!q.is_drained());
        let _ = q.pop();
        assert!(!q.is_drained(), "popped item is still active");
        q.task_done();
        assert!(q.is_drained());
    }

    #[test]
    fn snapshot_reads_queued_and_active_as_one_pair() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let _ = q.pop();
        let snap = q.snapshot();
        assert_eq!((snap.queued, snap.active, snap.closed), (1, 1, false));
        assert!(!snap.is_drained());
        q.task_done();
        let _ = q.pop();
        q.task_done();
        q.close();
        let snap = q.snapshot();
        assert_eq!((snap.queued, snap.active, snap.closed), (0, 0, true));
        assert!(snap.is_drained());
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), None);
    }

    #[test]
    fn queue_survives_a_panicking_consumer() {
        // A consumer thread that panics between pop and task_done must
        // leave the queue fully operational for everyone else (its item
        // stays "active" until someone settles the account).
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let q2 = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _item = q2.pop();
            panic!("worker died mid-job");
        })
        .join();
        assert_eq!(q.len(), 1);
        assert_eq!(q.active(), 1);
        assert_eq!(q.pop(), Some(2));
        q.task_done();
        q.task_done(); // on behalf of the dead consumer
        assert!(q.is_drained());
    }
}
