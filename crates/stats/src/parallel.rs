//! Deterministic data-parallel execution.
//!
//! The Monte-Carlo hot paths of this workspace (world sampling, ERR
//! estimation, per-vertex degree pmfs, GenObf trials) are all
//! embarrassingly parallel, but naive parallelization destroys the
//! reproducibility contract the whole experiment harness is built on. This
//! module provides the one primitive every call site shares:
//! **fixed-chunk scheduling**. Work is split into chunks whose boundaries
//! depend only on the item count — never on the thread count — and chunk
//! results are combined in chunk order. Any randomness is seeded per chunk
//! (see `SeedSequence::rng_indexed`), and floating-point accumulation
//! happens per chunk then folds in chunk order, so the result is
//! bit-identical at 1 thread and at N threads. The one exception,
//! [`fold_chunks`], folds chunks into per-worker states for callers that
//! combine them with an order-free operation (exact integer sums).
//!
//! The pool is a scoped `std::thread` fan-out with an atomic work counter:
//! no dependencies, no unsafe code, no global state. Every worker is a
//! spawned thread while the caller waits in `join`. A fan-out costs tens of
//! microseconds: a two-item [`map_items_mut`] wave of empty items measured
//! 57–65 µs on a 2-vCPU host, against the millisecond-scale chunk
//! workloads this crate schedules. Running worker 0 on the calling thread
//! instead cut that to 35–43 µs, but made `population` 2–4% slower end to
//! end, so it was not kept.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Receiver for scheduler telemetry: per-chunk busy time and per-scope
/// utilization totals.
///
/// This crate sits at the bottom of the workspace, so the observability
/// layer (`chameleon_obs`, which depends on this crate) cannot be called
/// directly from here; instead it installs itself through this hook
/// (dependency inversion). When no observer is installed — the default —
/// [`map_chunks`] takes no timestamps at all, so the uninstrumented cost
/// is one atomic load per call.
///
/// Implementations must tolerate concurrent calls from many worker
/// threads; none of the callbacks may influence scheduling (they receive
/// copies of already-final values), so observation can never perturb the
/// deterministic chunk semantics.
pub trait ParallelObserver: Sync {
    /// One chunk finished: which worker ran it, its chunk index, and the
    /// wall-clock nanoseconds the closure took.
    fn chunk_completed(&self, worker: usize, chunk: usize, busy_ns: u64);
    /// One whole [`map_chunks`] call finished: resolved worker count,
    /// number of chunks, summed per-chunk busy nanoseconds and the
    /// end-to-end wall nanoseconds of the scope (busy/(threads·wall) is
    /// the thread-utilization of the fan-out).
    fn scope_completed(&self, threads: usize, chunks: usize, busy_ns: u64, wall_ns: u64);
}

static PARALLEL_OBSERVER: OnceLock<&'static dyn ParallelObserver> = OnceLock::new();

/// Installs the process-wide scheduler observer (first caller wins;
/// returns `false` when an observer was already installed). The observer
/// must live for the rest of the process — a `&'static` borrow enforces
/// that without allocation.
pub fn set_parallel_observer(observer: &'static dyn ParallelObserver) -> bool {
    PARALLEL_OBSERVER.set(observer).is_ok()
}

/// The installed observer, if any (one atomic load).
fn observer() -> Option<&'static dyn ParallelObserver> {
    PARALLEL_OBSERVER.get().copied()
}

/// Number of hardware threads, as reported by the OS (≥ 1).
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a user-facing thread knob: `0` means "all hardware threads",
/// any other value is used as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Number of fixed-size chunks covering `num_items` items.
pub(crate) fn chunk_count(num_items: usize, chunk_size: usize) -> usize {
    assert!(chunk_size > 0, "chunk size must be positive");
    num_items.div_ceil(chunk_size)
}

/// The half-open item range of chunk `chunk` (boundaries depend only on
/// `num_items` and `chunk_size`, never on the thread count).
pub fn chunk_range(chunk: usize, chunk_size: usize, num_items: usize) -> Range<usize> {
    let start = chunk * chunk_size;
    start..((start + chunk_size).min(num_items))
}

/// Maps `f` over the fixed-size chunks of `0..num_items` using up to
/// `threads` worker threads, returning the per-chunk results **in chunk
/// order**.
///
/// `f` receives `(chunk_index, item_range)`. Because chunk boundaries are
/// a pure function of `(num_items, chunk_size)` and results are returned
/// in chunk order, the output is identical for every `threads` value —
/// callers get parallel speed with serial semantics. `threads == 1` (or a
/// single chunk) short-circuits to a plain in-order loop with no thread
/// machinery at all.
///
/// Panics in `f` are propagated to the caller after all workers stop.
pub fn map_chunks<T, F>(num_items: usize, chunk_size: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    map_chunks_scratch(num_items, chunk_size, threads, || (), |(), c, r| f(c, r))
}

/// Like [`map_chunks`], but hands each chunk closure a mutable *scratch*
/// value that is created once per worker thread (by `make_scratch`) and
/// reused across every chunk that worker claims.
///
/// This is the allocation-hygiene primitive of the Monte-Carlo kernels: a
/// worker's union-find, label buffer, or uniform buffer is built once and
/// then recycled, so an N-world ensemble performs O(chunks) allocations
/// instead of O(N). Determinism is unaffected — scratch is an arbitrary
/// workspace, and the contract that output depends only on
/// `(chunk_index, item_range)` still holds: `f` must leave no information
/// behind in the scratch that changes later results (reset or overwrite it
/// per chunk). Scratch construction happens outside the per-chunk
/// telemetry window, so observer timings measure chunk work only.
fn map_chunks_scratch<S, T, MS, F>(
    num_items: usize,
    chunk_size: usize,
    threads: usize,
    make_scratch: MS,
    f: F,
) -> Vec<T>
where
    T: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, Range<usize>) -> T + Sync,
{
    let n_chunks = chunk_count(num_items, chunk_size);
    let threads = resolve_threads(threads).min(n_chunks.max(1));
    // Telemetry is observational only: timestamps are taken around the
    // already-scheduled closure calls, so the chunk → result mapping (and
    // with it the bit-exact output) is identical with and without an
    // observer installed.
    let obs = observer();
    let scope_start = obs.map(|_| Instant::now());
    let total_busy_ns = AtomicUsize::new(0);
    let run_chunk = |scratch: &mut S, worker: usize, c: usize| -> T {
        match obs {
            None => f(scratch, c, chunk_range(c, chunk_size, num_items)),
            Some(o) => {
                let t = Instant::now();
                let out = f(scratch, c, chunk_range(c, chunk_size, num_items));
                let busy = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                total_busy_ns.fetch_add(busy as usize, Ordering::Relaxed);
                o.chunk_completed(worker, c, busy);
                out
            }
        }
    };
    let report_scope = |threads: usize| {
        if let (Some(o), Some(start)) = (obs, scope_start) {
            o.scope_completed(
                threads,
                n_chunks,
                total_busy_ns.load(Ordering::Relaxed) as u64,
                start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
        }
    };
    if threads <= 1 {
        let mut scratch = make_scratch();
        let out = (0..n_chunks)
            .map(|c| run_chunk(&mut scratch, 0, c))
            .collect();
        report_scope(1);
        return out;
    }

    let next = AtomicUsize::new(0);
    let worker_results = on_workers(0..threads, |worker, _| {
        let mut scratch = make_scratch();
        let mut out = Vec::new();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            out.push((c, run_chunk(&mut scratch, worker, c)));
        }
        out
    });
    report_scope(threads);

    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n_chunks).collect();
    for (c, v) in worker_results.into_iter().flatten() {
        slots[c] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every chunk is claimed exactly once"))
        .collect()
}

/// Runs `work(w, item)` for the `w`-th of `items`, each on a scoped thread
/// of its own, and returns the results in item order. A panic anywhere is
/// re-raised, the first in item order, once every worker has stopped.
fn on_workers<I, R, F>(items: impl IntoIterator<Item = I>, work: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let outcomes: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (items.into_iter().enumerate())
            .map(|(w, item)| scope.spawn(move || work(w, item)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect()
}

/// Like [`map_chunks`], but chunk `c` also gets exclusive access to its
/// own slice of `out` — the chunk covering items `range` receives
/// `&mut out[range.start * stride .. range.end * stride]` — and a mutable
/// scratch value that `make_scratch` builds once per worker and that
/// worker reuses across its chunks. `f` must leave nothing in the scratch
/// that changes a later chunk's result.
///
/// Chunked kernels write their per-item rows straight into one
/// preallocated arena this way — no per-chunk buffers and no merge copy.
/// The slices are disjoint and fixed by `(num_items, chunk_size, stride)`,
/// so what lands in `out` is as thread-count invariant as the returned
/// values.
///
/// # Panics
/// Panics if `out.len() != num_items * stride`.
pub fn map_chunks_into<E, S, T, MS, F>(
    out: &mut [E],
    stride: usize,
    num_items: usize,
    chunk_size: usize,
    threads: usize,
    make_scratch: MS,
    f: F,
) -> Vec<T>
where
    E: Send,
    T: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, Range<usize>, &mut [E]) -> T + Sync,
{
    assert_eq!(
        out.len(),
        num_items * stride,
        "output slice does not hold {num_items} rows of {stride}"
    );
    // One uncontended lock per chunk hands its slice to whichever worker
    // claims the chunk, without unsafe code: each chunk runs exactly once.
    let n_chunks = chunk_count(num_items, chunk_size);
    let mut slots = Vec::with_capacity(n_chunks);
    let mut rest = out;
    for c in 0..n_chunks {
        let len = chunk_range(c, chunk_size, num_items).len() * stride;
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        slots.push(std::sync::Mutex::new(head));
        rest = tail;
    }
    map_chunks_scratch(num_items, chunk_size, threads, make_scratch, |s, c, r| {
        let mut slice = slots[c].lock().expect("each chunk is claimed once");
        f(s, c, r, &mut slice)
    })
}

/// Folds the fixed-size chunks of `0..num_items` into per-worker states:
/// one worker per element of `states`, each claiming chunks off an atomic
/// counter and calling `f(&mut its_state, chunk_index, item_range)`.
///
/// Unlike every other primitive here, *which* chunks land in which state
/// depends on timing. A caller gets thread-count invariant output only by
/// combining the states with an associative and commutative operation —
/// the ensemble folds add exact integers (DESIGN.md §12.1). One state, or
/// at most one chunk, runs on the calling thread with no thread machinery.
/// Panics in `f` propagate to the caller after all workers stop.
pub fn fold_chunks<S, F>(states: &mut [S], num_items: usize, chunk_size: usize, f: F)
where
    S: Send,
    F: Fn(&mut S, usize, Range<usize>) + Sync,
{
    let n_chunks = chunk_count(num_items, chunk_size);
    let obs = observer();
    let scope_start = obs.map(|_| Instant::now());
    let total_busy_ns = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let work = |state: &mut S, worker: usize| loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            break;
        }
        let range = chunk_range(c, chunk_size, num_items);
        match obs {
            None => f(state, c, range),
            Some(o) => {
                let t = Instant::now();
                f(state, c, range);
                let busy = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                total_busy_ns.fetch_add(busy as usize, Ordering::Relaxed);
                o.chunk_completed(worker, c, busy);
            }
        }
    };
    let workers = states.len().min(n_chunks);
    if workers <= 1 {
        match states.first_mut() {
            Some(state) => work(state, 0),
            None => assert_eq!(n_chunks, 0, "folding chunks needs at least one state"),
        }
    } else {
        on_workers(states.iter_mut().take(workers), |worker, state| {
            work(state, worker)
        });
    }
    if let (Some(o), Some(start)) = (obs, scope_start) {
        o.scope_completed(
            workers.max(1),
            n_chunks,
            total_busy_ns.load(Ordering::Relaxed) as u64,
            start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
    }
}

/// Maps `f` over `0..num_items` item-by-item on up to `threads` threads,
/// returning results in item order.
///
/// For *pure* per-item functions (no shared RNG), the output is trivially
/// independent of both the thread count and the internal chunking, so this
/// helper picks a chunk size balancing scheduling overhead against load
/// balance. Callers whose `f` draws randomness must use [`map_chunks`]
/// with an explicit chunk size and per-chunk seeding instead.
fn map_items<T, F>(num_items: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if num_items == 0 {
        return Vec::new();
    }
    let threads = resolve_threads(threads);
    // ~8 chunks per worker keeps stragglers short without excessive
    // scheduling traffic.
    let chunk_size = num_items.div_ceil(threads.max(1) * 8).max(1);
    let chunks = map_chunks(num_items, chunk_size, threads, |_, range| {
        range.map(&f).collect::<Vec<T>>()
    });
    chunks.into_iter().flatten().collect()
}

/// Maps `f(&mut items[i])` over the slice on up to `threads` threads and
/// returns the results in item order.
///
/// `f` may mutate only its own item and must draw no shared randomness,
/// so the output and the items' final states are independent of both the
/// thread count and the internal chunking. `threads == 1` (or a single
/// item) is a plain in-order loop.
pub fn map_items_mut<I, T, F>(items: &mut [I], threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(&mut I) -> T + Sync,
{
    if resolve_threads(threads) <= 1 || items.len() <= 1 {
        return items.iter_mut().map(f).collect();
    }
    // One uncontended lock per item hands each worker its `&mut` without
    // unsafe code: every index is claimed by exactly one chunk.
    let slots: Vec<std::sync::Mutex<&mut I>> =
        items.iter_mut().map(std::sync::Mutex::new).collect();
    map_items(slots.len(), threads, |i| {
        let mut item = slots[i].lock().expect("each slot is locked once");
        f(&mut item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn thread_resolution() {
        assert!(available_threads() >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(0), available_threads());
    }

    #[test]
    fn chunk_geometry() {
        assert_eq!(chunk_count(0, 4), 0);
        assert_eq!(chunk_count(9, 4), 3);
        assert_eq!(chunk_range(0, 4, 9), 0..4);
        assert_eq!(chunk_range(2, 4, 9), 8..9);
    }

    #[test]
    fn map_chunks_results_arrive_in_chunk_order() {
        for threads in [1, 2, 8] {
            let out = map_chunks(10, 3, threads, |c, r| (c, r.start, r.end));
            assert_eq!(out, vec![(0, 0, 3), (1, 3, 6), (2, 6, 9), (3, 9, 10)]);
        }
    }

    #[test]
    fn map_chunks_is_thread_count_invariant() {
        // Per-chunk fp sums folded in chunk order must agree bit-for-bit.
        let sum_at = |threads| -> f64 {
            map_chunks(1000, 7, threads, |_, r| {
                r.map(|i| (i as f64).sqrt()).sum::<f64>()
            })
            .iter()
            .sum()
        };
        let serial = sum_at(1);
        for threads in [2, 3, 8, 33] {
            assert_eq!(serial.to_bits(), sum_at(threads).to_bits());
        }
    }

    #[test]
    fn map_items_matches_serial() {
        for threads in [1, 2, 8] {
            let out = map_items(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map_items(0, 4, |i| i).is_empty());
    }

    #[test]
    fn map_items_mut_updates_every_item_in_order() {
        for threads in [1, 2, 8] {
            let mut items: Vec<u64> = (0..37).collect();
            let out = map_items_mut(&mut items, threads, |x| {
                *x *= 3;
                *x + 1
            });
            assert_eq!(items, (0..37).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(out, (0..37).map(|i| i * 3 + 1).collect::<Vec<_>>());
        }
        let mut none: Vec<u8> = Vec::new();
        assert!(map_items_mut(&mut none, 4, |x| *x).is_empty());
    }

    #[test]
    fn map_chunks_scratch_reuses_per_worker_buffers() {
        use std::sync::atomic::AtomicU64;
        static SCRATCHES_MADE: AtomicU64 = AtomicU64::new(0);
        for threads in [1, 2, 8] {
            let before = SCRATCHES_MADE.load(Ordering::Relaxed);
            let out = map_chunks_scratch(
                100,
                5,
                threads,
                || {
                    SCRATCHES_MADE.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |buf, _, r| {
                    buf.clear();
                    buf.extend(r);
                    buf.iter().sum::<usize>()
                },
            );
            // One scratch per worker, never one per chunk.
            let made = SCRATCHES_MADE.load(Ordering::Relaxed) - before;
            assert!(made <= threads as u64, "made {made} scratches");
            // Output bit-identical to the serial semantics at any thread
            // count.
            let expect: Vec<usize> = (0..20)
                .map(|c| (c * 5..(c + 1) * 5).sum::<usize>())
                .collect();
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn fold_chunks_visits_every_item_once_in_some_state() {
        for workers in [1, 2, 8] {
            // Per-state item sums and chunk counts: integer totals are
            // order-free, so any split of the chunks adds up the same.
            let mut states = vec![(0u64, 0usize); workers];
            fold_chunks(&mut states, 1000, 7, |(sum, chunks), _, r| {
                *sum += r.map(|i| i as u64).sum::<u64>();
                *chunks += 1;
            });
            assert_eq!(states.iter().map(|s| s.0).sum::<u64>(), 999 * 1000 / 2);
            assert_eq!(
                states.iter().map(|s| s.1).sum::<usize>(),
                1000usize.div_ceil(7)
            );
        }
        // No items: the states come back untouched, even with none at all.
        let mut states = vec![5u8; 3];
        fold_chunks(&mut states, 0, 4, |s, _, _| *s += 1);
        assert_eq!(states, vec![5; 3]);
        fold_chunks(&mut [] as &mut [u8], 0, 4, |s, _, _| *s += 1);
    }

    #[test]
    #[should_panic(expected = "chunk 3 fails")]
    fn fold_chunks_propagates_a_worker_panic() {
        let mut states = vec![(); 4];
        fold_chunks(&mut states, 40, 4, |_, c, _| {
            assert_ne!(c, 3, "chunk 3 fails")
        });
    }

    #[test]
    fn map_chunks_into_hands_each_chunk_its_rows() {
        for threads in [1, 2, 8] {
            // 10 items of stride 3 in chunks of 4: a ragged last chunk.
            let mut out = vec![0usize; 30];
            let firsts = map_chunks_into(
                &mut out,
                3,
                10,
                4,
                threads,
                || (),
                |(), c, r, rows| {
                    assert_eq!(rows.len(), r.len() * 3);
                    for (i, x) in rows.iter_mut().enumerate() {
                        *x = r.start * 3 + i + c;
                    }
                    r.start
                },
            );
            assert_eq!(firsts, vec![0, 4, 8]);
            let expect: Vec<usize> = (0..30).map(|i| i + i / 12).collect();
            assert_eq!(out, expect);
        }
        // Stride 0: every chunk still runs, over an empty slice.
        let ran = map_chunks_into(
            &mut [0u8; 0],
            0,
            5,
            2,
            2,
            || (),
            |(), _, r, rows| {
                assert!(rows.is_empty());
                r.len()
            },
        );
        assert_eq!(ran, vec![2, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn map_chunks_into_rejects_a_wrong_sized_output() {
        map_chunks_into(&mut [0u8; 5], 2, 3, 1, 1, || (), |(), _, _, _| ());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(map_chunks(0, 4, 8, |c, _| c).is_empty());
    }

    #[test]
    fn observer_sees_every_chunk_and_scope() {
        use std::sync::atomic::AtomicU64;
        static CHUNKS: AtomicU64 = AtomicU64::new(0);
        static SCOPES: AtomicU64 = AtomicU64::new(0);
        static BUSY: AtomicU64 = AtomicU64::new(0);
        struct Probe;
        impl ParallelObserver for Probe {
            fn chunk_completed(&self, _worker: usize, _chunk: usize, busy_ns: u64) {
                CHUNKS.fetch_add(1, Ordering::Relaxed);
                BUSY.fetch_add(busy_ns, Ordering::Relaxed);
            }
            fn scope_completed(&self, threads: usize, chunks: usize, busy: u64, wall: u64) {
                assert!(threads >= 1);
                assert!(chunks >= 1);
                assert!(wall >= 1, "wall clock must advance");
                let _ = busy;
                SCOPES.fetch_add(1, Ordering::Relaxed);
            }
        }
        static PROBE: Probe = Probe;
        // First caller wins; other tests may already have installed PROBE.
        set_parallel_observer(&PROBE);
        let chunks_before = CHUNKS.load(Ordering::Relaxed);
        let scopes_before = SCOPES.load(Ordering::Relaxed);
        // Serial and threaded paths must both report; results unchanged.
        for threads in [1, 4] {
            let out = map_chunks(20, 3, threads, |_, r| r.map(|i| i as u64).sum::<u64>());
            assert_eq!(out.iter().sum::<u64>(), (0..20).sum::<u64>());
        }
        // 7 chunks per call × 2 calls; concurrent tests may add more.
        assert!(CHUNKS.load(Ordering::Relaxed) >= chunks_before + 14);
        assert!(SCOPES.load(Ordering::Relaxed) >= scopes_before + 2);
    }

    #[test]
    fn chunk_to_result_mapping_is_the_same_at_every_thread_count() {
        // Each chunk sees exactly its own range, and its result lands at
        // its own index, whichever worker ran it.
        let expect: Vec<(usize, Range<usize>)> =
            (0..9).map(|c| (c, chunk_range(c, 5, 43))).collect();
        for threads in [1, 2, 8] {
            let out = map_chunks(43, 5, threads, |c, r| (c, r));
            assert_eq!(out, expect, "map_chunks, {threads} threads");
            let out = map_chunks_scratch(43, 5, threads, || (), |(), c, r| (c, r));
            assert_eq!(out, expect, "map_chunks_scratch, {threads} threads");
            let mut rows = vec![0usize; 43];
            let out = map_chunks_into(
                &mut rows,
                1,
                43,
                5,
                threads,
                || (),
                |(), c, r, row| {
                    row.fill(c);
                    (c, r)
                },
            );
            assert_eq!(out, expect, "map_chunks_into, {threads} threads");
            assert_eq!(rows, (0..43).map(|i| i / 5).collect::<Vec<_>>());
            let mut states = vec![Vec::new(); threads];
            fold_chunks(&mut states, 43, 5, |seen, c, r| seen.push((c, r)));
            let mut folded: Vec<_> = states.into_iter().flatten().collect();
            folded.sort_by_key(|(c, _)| *c);
            assert_eq!(folded, expect, "fold_chunks, {threads} threads");
        }
    }

    /// Runs `schedule` with a chunk body whose first chunk panics, and
    /// checks that the other workers still finished every other chunk
    /// before the payload came back.
    fn one_panic_joins_the_other_workers(schedule: impl Fn(&(dyn Fn(usize) + Sync))) {
        use std::sync::atomic::AtomicBool;
        let (done, panicked) = (AtomicUsize::new(0), AtomicBool::new(false));
        let body = |_c: usize| {
            if !panicked.swap(true, Ordering::SeqCst) {
                panic!("first chunk fails");
            }
            done.fetch_add(1, Ordering::SeqCst);
        };
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| schedule(&body)))
            .expect_err("the panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"first chunk fails"));
        // 32 chunks, one of which panicked: its worker stops claiming, the
        // other workers claim and finish all the rest before the join.
        assert_eq!(done.load(Ordering::SeqCst), 31);
    }

    #[test]
    fn a_panic_in_one_chunk_joins_the_other_workers() {
        one_panic_joins_the_other_workers(|body| {
            map_chunks(32, 1, 3, |c, _| body(c));
        });
        one_panic_joins_the_other_workers(|body| {
            map_chunks_into(&mut [0u8; 32], 1, 32, 1, 3, || (), |(), c, _, _| body(c));
        });
        one_panic_joins_the_other_workers(|body| {
            fold_chunks(&mut [(), (), ()], 32, 1, |(), c, _| body(c));
        });
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            map_chunks(16, 1, 4, |c, _| {
                if c == 7 {
                    panic!("chunk 7 exploded");
                }
                c
            })
        });
        assert!(result.is_err());
    }
}
