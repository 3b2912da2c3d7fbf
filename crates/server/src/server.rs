//! The daemon: a single-threaded poll reactor → bounded job queue →
//! worker pool, with a result cache, per-job deadlines, and graceful
//! drain-on-shutdown.
//!
//! Connection layer (DESIGN.md §9): the line-protocol server of
//! [`crate::reactor`], shared with the gateway, owns every socket; this
//! module is its daemon service handler. Complete request lines are
//! parsed and dispatched on the reactor thread, job work is executed on
//! the worker pool, and workers hand finished responses back over the
//! loop's completion channel. Responses to pipelined requests interleave
//! in completion order, correlated by the request `id`; a `batch`
//! request rides the queue as one entry whose elements are answered
//! individually.
//!
//! Job lifecycle: `received → queued → running → (completed | failed |
//! timed_out | panicked | cancelled)`, or `rejected` straight from
//! `received` when the queue is full or shutdown has begun. Every
//! transition is visible through `chameleon_obs` sites (`server.*` /
//! `server.reactor.*` counters) *and* through plain atomics so `status`
//! works even in a no-obs build.
//!
//! Robustness contract (DESIGN.md §8): no client behaviour and no worker
//! panic may take the daemon down or wedge it. Concretely:
//!
//! * job execution runs under `catch_unwind` — a panicking job answers a
//!   structured retryable `job_panicked` error and the worker survives;
//! * the queue and cache locks recover from poisoning
//!   ([`crate::sync::RecoverableMutex`]) instead of propagating it;
//! * request lines are buffered under a byte cap (`max_request_bytes`)
//!   and a per-line deadline (`read_timeout_ms`, tracked as poll-timeout
//!   bookkeeping): oversized and slow-dribbling (slowloris) clients get
//!   structured errors instead of unbounded allocation or a pinned
//!   reactor;
//! * the connection slab is bounded (`max_connections`); excess
//!   connections get a `server_busy` error line written best-effort from
//!   the reactor — no thread is ever spawned per connection;
//! * a client that stops reading its responses trips a write-stall
//!   deadline and is disconnected instead of growing its buffer forever;
//! * optional seeded fault injection ([`crate::faults`]) drives all of
//!   the above deterministically — including reactor-level deferred
//!   readiness and short writes — in tests and chaos runs.
//!
//! Shutdown sequence (triggered by a `shutdown` request): set the flag —
//! the reactor stops accepting and job submission starts rejecting —
//! then wait until the queue is drained (queued = in-flight = 0), flush
//! every already-completed response, answer the shutdown request, give
//! the flush a bounded grace period, close the queue so workers exit,
//! join them, and write the final metrics snapshot. A stalled client can
//! never wedge this: every wait is poll-timeout bounded.
//!
//! Determinism contract: job execution and response rendering are
//! identical to the CLI path (`process_job` runs the same library entry
//! points and the shared deterministic encoder), so for a fixed request
//! the `result` object is byte-identical across thread counts, cache
//! state, pipelining, batching and chunking — the reactor only moves
//! bytes, it never feeds an RNG stream.

use crate::cache::ResultCache;
use crate::config::ServerConfig;
use crate::faults::{FaultInjector, FaultPlan, JobFault};
use crate::job::{Durability, ExecError};
use crate::journal::Journal;
use crate::protocol::{chunk_frames, coded_error_response, codes, ok_response};
use crate::queue::{BoundedQueue, PushError};
use crate::reactor::{Completion, ConnToken, Handle, JobItem, Limits, LineServer, Service, Sites};
use crate::sync::RecoverableMutex;
use chameleon_core::{CancelReason, CancelToken};
use chameleon_obs::{counter, json};
use chameleon_stats::SeedSequence;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Suggested client backoff after an injected/transient worker fault.
const FAULT_RETRY_MS: u64 = 50;

/// Lifetime totals returned by [`Server::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Jobs answered successfully (cache hits included).
    pub jobs_completed: u64,
    /// Jobs that ran and failed (bad input, pipeline failure).
    pub jobs_failed: u64,
    /// Jobs rejected at admission (queue full or shutting down).
    pub jobs_rejected: u64,
    /// Jobs cancelled at their deadline.
    pub jobs_timed_out: u64,
    /// Jobs whose execution panicked (isolated; the worker survived).
    pub jobs_panicked: u64,
    /// Jobs whose cancel token was tripped explicitly (injected faults —
    /// deadline trips count under `jobs_timed_out`).
    pub jobs_cancelled: u64,
}

impl std::fmt::Display for ServerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} completed, {} failed, {} rejected, {} timed out, {} panicked, {} cancelled",
            self.jobs_completed,
            self.jobs_failed,
            self.jobs_rejected,
            self.jobs_timed_out,
            self.jobs_panicked,
            self.jobs_cancelled,
        )
    }
}

/// One job of a queue entry (a single request is a one-element entry).
struct QueuedJob {
    spec: crate::job::JobSpec,
    id: Option<String>,
    timeout: Duration,
    chunk_bytes: usize,
    /// Journal sequence number when durability is on (`accepted` already
    /// written); reused for the job's remaining lifecycle records.
    journal_seq: Option<u64>,
    /// Serialized `SearchCheckpoint` recovered from the journal: a
    /// resumed GenObf search skips the recorded σ probes.
    resume_checkpoint: Option<String>,
}

/// One bounded-queue entry: all jobs of one request line.
struct Job {
    items: Vec<QueuedJob>,
    token: ConnToken,
    enqueued: Instant,
}

struct Shared {
    queue: BoundedQueue<Job>,
    cache: RecoverableMutex<ResultCache>,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_timed_out: AtomicU64,
    jobs_panicked: AtomicU64,
    jobs_cancelled: AtomicU64,
    workers: usize,
    queue_depth: usize,
    default_timeout: Duration,
    faults: Option<FaultInjector>,
    /// The write-ahead job journal (DESIGN.md §11), when durability is
    /// on. Locked briefly per lifecycle record, never across execution.
    journal: Option<RecoverableMutex<Journal>>,
    /// Startup-replay totals, fixed after `bind`.
    journal_replayed_jobs: u64,
    journal_rehydrated_results: u64,
    journal_records_dropped: u64,
    /// σ probes skipped via checkpoint resume, summed over all jobs.
    journal_probes_skipped: AtomicU64,
    started: Instant,
}

impl Shared {
    /// Appends a lifecycle record for a journaled job (no-op otherwise).
    fn journal(&self, seq: Option<u64>, record: impl FnOnce(&mut Journal, u64)) {
        if let (Some(journal), Some(seq)) = (&self.journal, seq) {
            record(&mut journal.lock(), seq);
        }
    }

    fn report(&self) -> ServerReport {
        ServerReport {
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_timed_out: self.jobs_timed_out.load(Ordering::Relaxed),
            jobs_panicked: self.jobs_panicked.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
        }
    }
}

/// The daemon's counter sites in the shared loop.
fn server_sites() -> Sites {
    Sites {
        ticks: counter!("server.reactor.ticks"),
        wakeups: counter!("server.reactor.wakeups"),
        completions: counter!("server.reactor.completions"),
        connections: counter!("server.connections"),
        rejected_busy: counter!("server.conn.rejected_busy"),
        deferred_ready: counter!("server.reactor.deferred_ready"),
        short_writes: counter!("server.reactor.short_writes"),
        truncated: counter!("server.conn.truncated"),
        request_too_large: counter!("server.conn.request_too_large"),
        read_timeout: counter!("server.conn.read_timeout"),
        write_stalled: counter!("server.conn.write_stalled"),
        bad_utf8: counter!("server.conn.bad_utf8"),
        shutdown_requests: counter!("server.shutdown_requests"),
        batched: counter!("server.jobs.batched"),
        rejected_batch: counter!("server.jobs.rejected_batch"),
    }
}

impl Service for Shared {
    /// `status` result object; field order is fixed by construction.
    fn status_json(&self, open_connections: usize, shutting_down: bool) -> String {
        // One lock acquisition for the queued/active pair: separate len()
        // and active() reads could report a job in both places (or
        // neither) while a worker moves it between them.
        let queue = self.queue.snapshot();
        let cache = self.cache.lock().stats();
        let journal = self.journal.as_ref().map(|j| j.lock().stats());
        let (injected_panics, injected_cancels, injected_defers, injected_short_writes) =
            match &self.faults {
                Some(f) => (
                    f.injected_panics(),
                    f.injected_cancels(),
                    f.injected_defers(),
                    f.injected_short_writes(),
                ),
                None => (0, 0, 0, 0),
            };
        format!(
            "{{\"uptime_ms\":{},\"workers\":{},\"queue_depth\":{},\"queue_capacity\":{},\
             \"in_flight\":{},\"jobs_completed\":{},\"jobs_failed\":{},\"jobs_rejected\":{},\
             \"jobs_timed_out\":{},\"jobs_panicked\":{},\"jobs_cancelled\":{},\
             \"open_connections\":{},\"locks_recovered\":{},\"shutting_down\":{},\
             \"faults\":{{\"injected_panics\":{},\"injected_cancels\":{},\
             \"injected_defers\":{},\"injected_short_writes\":{}}},\
             \"cache\":{{\"entries\":{},\"capacity\":{},\"hits\":{},\"misses\":{},\
             \"evictions\":{}}},\
             \"journal\":{{\"enabled\":{},\"open_jobs\":{},\"segments\":{},\
             \"appends\":{},\"syncs\":{},\"replayed_jobs\":{},\
             \"rehydrated_results\":{},\"records_dropped\":{},\
             \"probes_skipped\":{}}}}}",
            self.started.elapsed().as_millis(),
            self.workers,
            queue.queued,
            self.queue_depth,
            queue.active,
            self.jobs_completed.load(Ordering::Relaxed),
            self.jobs_failed.load(Ordering::Relaxed),
            self.jobs_rejected.load(Ordering::Relaxed),
            self.jobs_timed_out.load(Ordering::Relaxed),
            self.jobs_panicked.load(Ordering::Relaxed),
            self.jobs_cancelled.load(Ordering::Relaxed),
            open_connections,
            crate::sync::poison_recoveries(),
            shutting_down,
            injected_panics,
            injected_cancels,
            injected_defers,
            injected_short_writes,
            cache.entries,
            cache.capacity,
            cache.hits,
            cache.misses,
            cache.evictions,
            journal.is_some(),
            journal.as_ref().map_or(0, |s| s.open_jobs as u64),
            journal.as_ref().map_or(0, |s| s.segments),
            journal.as_ref().map_or(0, |s| s.appends),
            journal.as_ref().map_or(0, |s| s.syncs),
            self.journal_replayed_jobs,
            self.journal_rehydrated_results,
            self.journal_records_dropped,
            self.journal_probes_skipped.load(Ordering::Relaxed),
        )
    }

    /// Admits the parsed jobs of one request line: per-element parse
    /// errors answer immediately, the valid remainder rides the queue as
    /// a single entry. Every element gets its own response line.
    fn dispatch(
        &self,
        token: ConnToken,
        _line: String,
        items: Vec<JobItem>,
        shutting_down: bool,
        reply: &mut dyn FnMut(&str),
    ) -> usize {
        let mut queued: Vec<QueuedJob> = Vec::with_capacity(items.len());
        for item in items {
            match item {
                Ok(job) => queued.push(QueuedJob {
                    timeout: job
                        .timeout_ms
                        .map(|ms| Duration::from_millis(ms.max(1)))
                        .unwrap_or(self.default_timeout),
                    spec: job.spec,
                    id: job.id,
                    chunk_bytes: job.chunk_bytes,
                    journal_seq: None,
                    resume_checkpoint: None,
                }),
                Err((id, msg)) => {
                    reply(&coded_error_response(
                        id.as_deref(),
                        codes::BAD_REQUEST,
                        &msg,
                        None,
                    ));
                }
            }
        }
        if queued.is_empty() {
            return 0;
        }
        let n = queued.len() as u64;
        // Ids are kept out-of-band so a rejected push (which consumes the
        // entry) can still answer every element with its own id.
        let ids: Vec<Option<String>> = queued.iter().map(|j| j.id.clone()).collect();
        let reject = |reply: &mut dyn FnMut(&str), code: &str, msg: &str, retry: Option<u64>| {
            for id in &ids {
                reply(&coded_error_response(id.as_deref(), code, msg, retry));
            }
            0
        };
        if shutting_down {
            self.jobs_rejected.fetch_add(n, Ordering::Relaxed);
            chameleon_obs::counter!("server.jobs.rejected_shutdown").add(n);
            return reject(reply, codes::SHUTTING_DOWN, "server is shutting down", None);
        }
        let count = queued.len();
        // Durability: every admitted job gets an `accepted` record *before*
        // the push — a crash between the two replays the job, which is the
        // safe direction (at-least-once acceptance, idempotent execution).
        if let Some(journal) = &self.journal {
            let mut j = journal.lock();
            for q in &mut queued {
                q.journal_seq = Some(j.accepted(&q.spec, Some(q.timeout.as_millis() as u64)));
            }
        }
        let seqs: Vec<Option<u64>> = queued.iter().map(|q| q.journal_seq).collect();
        // Settles `accepted` records of a rejected push (which consumed the
        // entry) so they are not replayed as live jobs after a restart.
        let journal_reject = |code: &str, msg: &str| {
            if let Some(journal) = &self.journal {
                let mut j = journal.lock();
                for seq in seqs.iter().flatten() {
                    j.failed(*seq, code, msg);
                }
            }
        };
        match self.queue.try_push(Job {
            items: queued,
            token,
            enqueued: Instant::now(),
        }) {
            Ok(depth) => {
                chameleon_obs::counter!("server.jobs.accepted").add(n);
                chameleon_obs::record_value!("server.queue.depth", depth as u64);
                count
            }
            Err(PushError::Full { capacity }) => {
                self.jobs_rejected.fetch_add(n, Ordering::Relaxed);
                chameleon_obs::counter!("server.jobs.rejected_full").add(n);
                // Suggested backoff grows with the number of busy workers: a
                // saturated pool drains no faster than one job at a time.
                let retry_ms = 100 * (1 + self.queue.active() as u64).min(50);
                let msg = format!("queue full ({capacity} queued jobs); retry later");
                journal_reject(codes::QUEUE_FULL, &msg);
                reject(reply, codes::QUEUE_FULL, &msg, Some(retry_ms))
            }
            Err(PushError::Closed) => {
                self.jobs_rejected.fetch_add(n, Ordering::Relaxed);
                chameleon_obs::counter!("server.jobs.rejected_shutdown").add(n);
                journal_reject(codes::SHUTTING_DOWN, "server is shutting down");
                reject(reply, codes::SHUTTING_DOWN, "server is shutting down", None)
            }
        }
    }

    fn shutdown_json(&self) -> String {
        let report = self.report();
        format!(
            "{{\"drained\":true,\"jobs_completed\":{},\"jobs_failed\":{},\
             \"jobs_rejected\":{},\"jobs_timed_out\":{},\"jobs_panicked\":{},\
             \"jobs_cancelled\":{}}}",
            report.jobs_completed,
            report.jobs_failed,
            report.jobs_rejected,
            report.jobs_timed_out,
            report.jobs_panicked,
            report.jobs_cancelled,
        )
    }

    fn is_drained(&self) -> bool {
        self.queue.is_drained()
    }

    fn count_rejected(&self, n: u64) {
        self.jobs_rejected.fetch_add(n, Ordering::Relaxed);
    }

    fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Interval-mode journal housekeeping: the tick is the daemon's
    /// heartbeat, so the fsync loss window is bounded by the poll
    /// timeout plus the sync interval.
    fn tick(&self) {
        if let Some(journal) = &self.journal {
            journal.lock().maybe_sync();
        }
    }
}

/// A bound-but-not-yet-running `chameleond` instance.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    limits: Limits,
    metrics_path: Option<String>,
}

/// Handle to a server running on a background thread (see
/// [`Server::spawn`]).
pub type ServerHandle = Handle<ServerReport>;

impl Server {
    /// Binds the listener (without accepting yet).
    ///
    /// # Errors
    /// Propagates bind failures.
    pub(crate) fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        // Durability: open (and replay) the journal before anything else
        // can accept work, so recovered state is complete by the time the
        // port goes live.
        let mut replay = None;
        let journal = match &config.journal_dir {
            Some(dir) => {
                let (journal, summary) = Journal::open(
                    std::path::Path::new(dir),
                    config.journal_sync,
                    config.journal_segment_bytes,
                )?;
                replay = Some(summary);
                Some(RecoverableMutex::new(journal))
            }
            None => None,
        };
        // Rehydrate the result cache from `completed` records: a restart
        // serves previously answered jobs byte-identically, from memory.
        let mut cache = ResultCache::new(config.cache_capacity);
        let mut rehydrated = 0u64;
        if let Some(summary) = &replay {
            for (key, result) in &summary.completed {
                cache.insert(key.clone(), result.as_str().into());
            }
            rehydrated = summary.completed.len() as u64;
            chameleon_obs::counter!("server.journal.rehydrated_results").add(rehydrated);
            chameleon_obs::counter!("server.journal.records_dropped").add(summary.records_dropped);
        }
        // Re-enqueue accepted-but-incomplete jobs in their original
        // acceptance order (`--resume`), or mark them cancelled so the
        // journal converges instead of replaying them forever.
        let queue = BoundedQueue::new(config.queue_depth);
        let default_timeout = Duration::from_millis(config.default_timeout_ms.max(1));
        let mut replayed_jobs = 0u64;
        if let (Some(journal), Some(summary)) = (&journal, replay.as_mut()) {
            let mut j = journal.lock();
            for job in summary.jobs.drain(..) {
                if !config.resume {
                    j.cancelled(job.seq);
                    continue;
                }
                let timeout = job
                    .timeout_ms
                    .map(|ms| Duration::from_millis(ms.max(1)))
                    .unwrap_or(default_timeout);
                let entry = Job {
                    items: vec![QueuedJob {
                        spec: job.spec,
                        id: None,
                        timeout,
                        chunk_bytes: 0,
                        journal_seq: Some(job.seq),
                        resume_checkpoint: job.checkpoint,
                    }],
                    token: ConnToken::DETACHED,
                    enqueued: Instant::now(),
                };
                match queue.try_push(entry) {
                    Ok(_) => {
                        replayed_jobs += 1;
                        chameleon_obs::counter!("server.journal.replayed_jobs").add(1);
                    }
                    Err(_) => {
                        // More incomplete jobs than queue slots: fail the
                        // overflow durably rather than wedging startup.
                        j.failed(
                            job.seq,
                            codes::QUEUE_FULL,
                            "recovery overflow: queue full during journal replay",
                        );
                    }
                }
            }
        }
        let shared = Arc::new(Shared {
            queue,
            cache: RecoverableMutex::new(cache),
            journal,
            journal_replayed_jobs: replayed_jobs,
            journal_rehydrated_results: rehydrated,
            journal_records_dropped: replay.as_ref().map_or(0, |s| s.records_dropped),
            journal_probes_skipped: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_timed_out: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            workers,
            queue_depth: config.queue_depth.max(1),
            default_timeout,
            faults: config
                .faults
                .filter(FaultPlan::is_active)
                .map(FaultInjector::new),
            started: Instant::now(),
        });
        Ok(Server {
            listener,
            shared,
            limits: config.limits(),
            metrics_path: config.metrics_path,
        })
    }

    /// The bound address.
    ///
    /// # Panics
    /// Never in practice (the listener is bound).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// The foreground entry point of `chameleond` and `chameleon serve`:
    /// binds, announces `chameleond listening on <addr>` on stderr, and
    /// serves until shutdown.
    ///
    /// # Errors
    /// A bind or fatal reactor failure, as a message.
    pub fn serve(config: ServerConfig) -> Result<ServerReport, String> {
        let server = Server::bind(config).map_err(|e| format!("failed to bind: {e}"))?;
        eprintln!("chameleond listening on {}", server.local_addr());
        server.run().map_err(|e| format!("server failed: {e}"))
    }

    /// Binds and runs on a background thread; returns once the port is
    /// live.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        Ok(Handle::spawn(
            "chameleond-reactor",
            server.local_addr(),
            move || server.run(),
        ))
    }

    /// Serves until a `shutdown` request completes: runs the reactor
    /// event loop, drains the queue on shutdown, joins the workers, and
    /// flushes the final metrics snapshot.
    ///
    /// # Errors
    /// Propagates fatal reactor I/O errors (`poll` failures, listener
    /// errors other than transient accept races).
    pub fn run(self) -> std::io::Result<ServerReport> {
        let Server {
            listener,
            shared,
            limits,
            metrics_path,
        } = self;
        let lines = LineServer::new(listener)?;
        let workers: Vec<_> = (0..shared.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let done = lines.completer();
                std::thread::Builder::new()
                    .name(format!("chameleond-worker-{i}"))
                    .spawn(move || done.drain_queue(&shared.queue, |job| run_entry(&shared, job)))
                    .expect("spawn worker")
            })
            .collect();
        let run_result = lines.serve(&*shared, limits, server_sites(), &shared.queue, workers);
        // Clean shutdown: every queued job has settled, so compaction can
        // drop fully-terminal segments and fsync what remains — the next
        // start replays zero jobs.
        if let Some(journal) = &shared.journal {
            journal.lock().compact();
        }
        if let Some(path) = &metrics_path {
            let _ = std::fs::write(path, chameleon_obs::metrics_json());
        }
        run_result?;
        Ok(shared.report())
    }
}

/// Renders one job's response line into wire bytes, applying chunked
/// framing when the request asked for it.
fn wire_bytes(id: Option<&str>, line: String, chunk_bytes: usize) -> Vec<u8> {
    if chunk_bytes > 0 {
        if let Some(frames) = chunk_frames(id, &line, chunk_bytes) {
            let mut out = Vec::with_capacity(line.len() + frames.len() * 96);
            for frame in &frames {
                out.extend_from_slice(frame.as_bytes());
                out.push(b'\n');
            }
            return out;
        }
    }
    let mut out = line.into_bytes();
    out.push(b'\n');
    out
}

/// Executes one queue entry; every job answers one response line (or
/// its chunk frames).
fn run_entry(shared: &Arc<Shared>, batch: Job) -> Completion {
    chameleon_obs::record_value!(
        "server.job.queue_wait_ns",
        batch.enqueued.elapsed().as_nanos() as u64
    );
    let mut wire: Vec<u8> = Vec::new();
    for item in &batch.items {
        // Panic isolation: a panicking job — injected or genuine —
        // must answer a structured error and leave the worker (and
        // the rest of the batch) running. The shared state is safe
        // to reuse after an unwind: the queue/cache locks recover
        // poison, and all counters are plain atomics.
        let response =
            match std::panic::catch_unwind(AssertUnwindSafe(|| process_job(shared, item))) {
                Ok(response) => response,
                Err(payload) => {
                    shared.jobs_panicked.fetch_add(1, Ordering::Relaxed);
                    chameleon_obs::counter!("server.jobs.panicked").add(1);
                    // A panicked job is terminal for the journal too:
                    // replaying it on restart would likely just panic
                    // again (the client was told to retry).
                    shared.journal(item.journal_seq, |j, seq| {
                        j.failed(seq, codes::JOB_PANICKED, panic_message(payload.as_ref()))
                    });
                    coded_error_response(
                        item.id.as_deref(),
                        codes::JOB_PANICKED,
                        &format!(
                            "{} job panicked: {}; the worker recovered — safe to retry",
                            item.spec.op(),
                            panic_message(payload.as_ref()),
                        ),
                        Some(FAULT_RETRY_MS),
                    )
                }
            };
        wire.extend_from_slice(&wire_bytes(item.id.as_deref(), response, item.chunk_bytes));
    }
    Completion {
        token: batch.token,
        wire,
        responses: batch.items.len(),
    }
}

/// Renders a `catch_unwind` payload (typically a `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

fn process_job(shared: &Arc<Shared>, job: &QueuedJob) -> String {
    let key = job.spec.cache_key();
    let cancel = CancelToken::with_deadline(Instant::now() + job.timeout);
    // Fault injection sits at the execution boundary, before the cache:
    // an injected panic/cancel exercises the full admission-to-error
    // path exactly as a genuine fault in the pipeline would.
    if let Some(injector) = &shared.faults {
        match injector.next_job_fault() {
            Some(JobFault::Panic) => panic!("injected fault: worker panic (chaos schedule)"),
            Some(JobFault::CancelTrip) => cancel.cancel(),
            None => {}
        }
    }
    let cached = shared.cache.lock().get(&key);
    if let Some(hit) = cached {
        chameleon_obs::counter!("server.cache.hit").add(1);
        shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
        // A hit still settles the journal record (result elided: the
        // self-contained record that produced the hit is already on disk).
        shared.journal(job.journal_seq, |j, seq| j.completed(seq, &key, None));
        return ok_response(job.id.as_deref(), true, &hit);
    }
    chameleon_obs::counter!("server.cache.miss").add(1);
    shared.journal(job.journal_seq, Journal::started);
    // Durability: σ-probe checkpoints stream into the journal as the
    // search runs, and a checkpoint recovered at replay short-circuits
    // the probes it already covers.
    let durability = match (&shared.journal, job.journal_seq) {
        (Some(_), Some(seq)) => {
            let sink_shared = Arc::clone(shared);
            Some(Durability {
                sink: Some(Arc::new(move |data: &str| {
                    sink_shared.journal(Some(seq), |j, seq| j.checkpoint(seq, data))
                })),
                resume: job.resume_checkpoint.clone(),
            })
        }
        _ => None,
    };
    let _span = match job.spec {
        crate::job::JobSpec::Obfuscate { .. } => chameleon_obs::span!("server.job.obfuscate"),
        crate::job::JobSpec::Check { .. } => chameleon_obs::span!("server.job.check"),
        crate::job::JobSpec::Reliability { .. } => chameleon_obs::span!("server.job.reliability"),
    };
    match job.spec.execute_durable(&cancel, durability.as_ref()) {
        Ok(out) => {
            if out.resumed_probes > 0 {
                shared
                    .journal_probes_skipped
                    .fetch_add(out.resumed_probes, Ordering::Relaxed);
                chameleon_obs::counter!("server.journal.probes_skipped").add(out.resumed_probes);
            }
            shared.journal(job.journal_seq, |j, seq| {
                j.completed(seq, &key, Some(&out.result))
            });
            shared.cache.lock().insert(key, out.result.as_str().into());
            shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
            chameleon_obs::counter!("server.jobs.completed").add(1);
            ok_response(job.id.as_deref(), false, &out.result)
        }
        Err(ExecError::Cancelled) => {
            shared.journal(job.journal_seq, Journal::cancelled);
            match cancel.reason() {
                Some(CancelReason::Explicit) => {
                    // Explicit trips are transient by construction (today:
                    // injected faults) — mark them retryable, unlike a
                    // deadline, which would fire again on an identical retry.
                    shared.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                    chameleon_obs::counter!("server.jobs.cancelled").add(1);
                    coded_error_response(
                        job.id.as_deref(),
                        codes::CANCELLED,
                        &format!(
                            "{} job cancelled before completion; safe to retry",
                            job.spec.op()
                        ),
                        Some(FAULT_RETRY_MS),
                    )
                }
                _ => {
                    shared.jobs_timed_out.fetch_add(1, Ordering::Relaxed);
                    chameleon_obs::counter!("server.jobs.timeout").add(1);
                    coded_error_response(
                        job.id.as_deref(),
                        codes::TIMEOUT,
                        &format!(
                            "{} job cancelled after exceeding its {} ms timeout",
                            job.spec.op(),
                            job.timeout.as_millis()
                        ),
                        None,
                    )
                }
            }
        }
        Err(ExecError::Invalid(msg)) | Err(ExecError::Failed(msg)) => {
            shared.journal(job.journal_seq, |j, seq| {
                j.failed(seq, codes::JOB_FAILED, &msg)
            });
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            chameleon_obs::counter!("server.jobs.failed").add(1);
            coded_error_response(job.id.as_deref(), codes::JOB_FAILED, &msg, None)
        }
    }
}

/// Client-side helper: writes one request line (newline appended). Pair
/// with [`read_response`]; pipelining is just several `send_request`
/// calls before the matching reads.
///
/// # Errors
/// Propagates socket I/O failures.
pub(crate) fn send_request<W: Write>(writer: &mut W, request: &str) -> std::io::Result<()> {
    writer.write_all(request.as_bytes())?;
    writer.write_all(b"\n")
}

/// Client-side helper: reads one *logical* response, transparently
/// reassembling chunked (`"status":"chunk"`) frames into the original
/// response line.
///
/// # Errors
/// Propagates socket I/O failures; a closed connection without a
/// complete response — including one reset mid-line, detected as a final
/// fragment with no trailing newline — is an `UnexpectedEof` error.
pub fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<String> {
    read_logical(reader, None)
}

/// [`read_response`] that also appends the raw wire lines (chunk frames
/// included, newlines kept) to `raw` — what the gateway relays verbatim.
pub(crate) fn read_logical<R: BufRead>(
    reader: &mut R,
    mut raw: Option<&mut Vec<u8>>,
) -> std::io::Result<String> {
    let eof = |msg: &str| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, msg.to_string());
    let mut assembled: Option<String> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(eof("server closed the connection without responding"));
        }
        if !line.ends_with('\n') {
            // read_line returned because the stream ended, not because the
            // response did: partial bytes must surface as a retryable I/O
            // error, never as a syntactically truncated response.
            return Err(eof("connection closed mid-response (truncated line)"));
        }
        if let Some(raw) = raw.as_deref_mut() {
            raw.extend_from_slice(line.as_bytes());
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        // Fast path: only lines that can be chunk frames pay the parse.
        if line.contains("\"status\":\"chunk\"") {
            if let Ok(v) = json::Json::parse(&line) {
                if v.get("status").and_then(json::Json::as_str) == Some("chunk") {
                    let data = v.get("data").and_then(json::Json::as_str).unwrap_or("");
                    assembled.get_or_insert_with(String::new).push_str(data);
                    if v.get("last").and_then(json::Json::as_bool) == Some(true) {
                        return Ok(assembled.take().unwrap_or_default());
                    }
                    continue;
                }
            }
        }
        return Ok(line);
    }
}

/// Client-side helper: sends one request line and reads one response
/// (chunk frames reassembled). Used by the CLI `submit` subcommand, the
/// integration tests and the bench probes — not part of the daemon
/// itself.
///
/// # Errors
/// Propagates socket I/O failures; a closed connection without a response
/// is an `UnexpectedEof` error.
pub fn roundtrip(stream: &mut TcpStream, request: &str) -> std::io::Result<String> {
    send_request(stream, request)?;
    stream.flush()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    read_response(&mut reader)
}

/// Convenience for one-shot clients: connect, round-trip a single request,
/// return the response line.
///
/// # Errors
/// Propagates connection and I/O failures.
pub fn request_once(addr: &str, request: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    roundtrip(&mut stream, request)
}

/// Client retry policy for transient, server-marked-retryable rejections
/// (queue full, injected faults, busy connection limits). The backoff is
/// *jittered but seeded*: for a fixed `seed` the jitter sequence — and
/// hence the whole retry schedule given the same server hints — is
/// reproducible, matching the workspace determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = behave like [`request_once`]).
    pub max_retries: u32,
    /// Base delay and jitter magnitude in ms.
    pub base_delay_ms: u64,
    /// Hard cap on a single backoff sleep in ms.
    pub max_delay_ms: u64,
    /// Seed for the jitter sequence.
    pub seed: u64,
    /// Retries granted to connect/I-O failures (refused connection, reset
    /// mid-read, truncated response), counted separately from the
    /// hint-driven `max_retries` budget.
    pub io_retries: u32,
    /// Whether connect/I-O failures are retried at all. `false` restores
    /// the fail-fast behavior (first socket error propagates).
    pub retry_io: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_delay_ms: 50,
            max_delay_ms: 5_000,
            seed: 0,
            io_retries: 3,
            retry_io: true,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (0-based), honoring the
    /// server's `retry_after_ms` hint when present: the sleep is the
    /// hint (or the base delay) scaled exponentially by attempt, plus a
    /// seeded jitter in `[0, base_delay_ms)`, capped at `max_delay_ms`.
    pub(crate) fn backoff(&self, attempt: u32, retry_after_ms: Option<u64>) -> Duration {
        let base = retry_after_ms.unwrap_or(self.base_delay_ms).max(1);
        let scaled = base.saturating_mul(1u64 << attempt.min(10));
        let jitter = SeedSequence::new(self.seed)
            .derive_indexed("submit.backoff", u64::from(attempt))
            % self.base_delay_ms.max(1);
        Duration::from_millis(scaled.saturating_add(jitter).min(self.max_delay_ms.max(1)))
    }
}

/// The `retry_after_ms` hint of a response line, when the line is an
/// error that carries one — the server's marker for "transient, safe to
/// retry". Non-error lines and unparsable lines return `None`.
pub(crate) fn retry_hint(line: &str) -> Option<u64> {
    let v = json::Json::parse(line).ok()?;
    if v.get("status").and_then(json::Json::as_str) != Some("error") {
        return None;
    }
    v.get("retry_after_ms").and_then(json::Json::as_u64)
}

/// [`request_once`] with seeded-backoff retries on responses the server
/// marked retryable (see [`retry_hint`]) *and* on connect/I-O failures
/// (dead or restarting backend: ECONNREFUSED, reset mid-read, truncated
/// response). The two failure classes draw on separate budgets —
/// `max_retries` hint-driven attempts and `io_retries` socket-level
/// attempts — so a flapping backend cannot starve the queue-full path or
/// vice versa. Hint-driven retries sleep the server's hint; I/O retries
/// have no hint and back off from `base_delay_ms`. Returns the last
/// response — hint retries exhausted still yield the server's error line,
/// never a client-synthesized one.
///
/// # Errors
/// Returns the final I/O error once `io_retries` extra attempts (or the
/// first, when `retry_io` is off) have failed at the socket level.
pub fn request_with_retry(
    addr: &str,
    request: &str,
    policy: &RetryPolicy,
) -> std::io::Result<String> {
    let mut hint_attempt = 0u32;
    let mut io_attempt = 0u32;
    loop {
        let line = match request_once(addr, request) {
            Ok(line) => line,
            Err(err) => {
                if !policy.retry_io || io_attempt >= policy.io_retries {
                    return Err(err);
                }
                chameleon_obs::counter!("server.client.io_retries").add(1);
                std::thread::sleep(policy.backoff(io_attempt, None));
                io_attempt += 1;
                continue;
            }
        };
        match retry_hint(&line) {
            Some(hint) if hint_attempt < policy.max_retries => {
                chameleon_obs::counter!("server.client.retries").add(1);
                std::thread::sleep(policy.backoff(hint_attempt, Some(hint)));
                hint_attempt += 1;
            }
            _ => return Ok(line),
        }
    }
}

/// Extracts a field from a response line, parsed with the shared JSON
/// module (client-side convenience).
pub fn response_field(line: &str, key: &str) -> Option<json::Json> {
    json::Json::parse(line).ok()?.get(key).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_seeded_and_honors_the_hint() {
        let p = RetryPolicy {
            max_retries: 5,
            base_delay_ms: 40,
            max_delay_ms: 10_000,
            seed: 9,
            ..RetryPolicy::default()
        };
        // Reproducible: same policy, same attempt, same sleep.
        assert_eq!(p.backoff(2, Some(100)), p.backoff(2, Some(100)));
        // The hint sets the base: attempt 0 sleeps at least the hint.
        assert!(p.backoff(0, Some(300)) >= Duration::from_millis(300));
        // Exponential growth until the cap.
        assert!(p.backoff(3, Some(100)) > p.backoff(1, Some(100)));
        assert!(p.backoff(30, Some(100)) <= Duration::from_millis(10_000));
        // Different seeds give different jitter (for this attempt).
        let q = RetryPolicy { seed: 10, ..p };
        assert_ne!(p.backoff(1, None), q.backoff(1, None));
    }

    #[test]
    fn retry_hint_only_fires_on_marked_errors() {
        assert_eq!(
            retry_hint(r#"{"status":"error","error":"full","retry_after_ms":120}"#),
            Some(120)
        );
        assert_eq!(retry_hint(r#"{"status":"error","error":"bad"}"#), None);
        assert_eq!(
            retry_hint(r#"{"status":"ok","cached":false,"result":{}}"#),
            None
        );
        assert_eq!(retry_hint("garbage"), None);
    }

    #[test]
    fn connect_refused_backend_is_retried_until_it_appears() {
        // Reserve a port, then free it so connects are refused.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let fast = RetryPolicy {
            base_delay_ms: 10,
            max_delay_ms: 50,
            io_retries: 40,
            ..RetryPolicy::default()
        };

        // Fail-fast semantics are preserved when I/O retries are off.
        let fail_fast = RetryPolicy {
            retry_io: false,
            ..fast
        };
        let err = request_with_retry(&addr.to_string(), "{\"op\":\"status\"}", &fail_fast)
            .expect_err("nothing is listening; fail-fast must propagate the connect error");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

        // A backend that comes up late is reached by the retry loop.
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let listener = TcpListener::bind(addr).unwrap();
            let (mut conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            conn.write_all(b"{\"status\":\"ok\",\"cached\":false,\"result\":{}}\n")
                .unwrap();
        });
        let line = request_with_retry(&addr.to_string(), "{\"op\":\"status\"}", &fast)
            .expect("retries should outlast the backend's restart window");
        assert!(line.contains("\"status\":\"ok\""));
        server.join().unwrap();
    }

    #[test]
    fn truncated_response_is_retried_not_returned() {
        // Direct check: a final fragment without '\n' is an I/O error.
        let mut reader = BufReader::new(std::io::Cursor::new(&b"{\"status\":\"ok\""[..]));
        let err = read_response(&mut reader).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        // End to end: first connection dies mid-line, the retry gets the
        // full response from the recovered backend.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            conn.write_all(b"{\"status\":\"ok\",\"cach").unwrap();
            // Close BOTH handles (the BufReader holds a try_clone dup —
            // the socket only FINs once every descriptor is gone).
            drop(reader);
            drop(conn);
            let (mut conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            conn.write_all(b"{\"status\":\"ok\",\"cached\":true,\"result\":{}}\n")
                .unwrap();
        });
        let fast = RetryPolicy {
            base_delay_ms: 5,
            max_delay_ms: 20,
            io_retries: 10,
            ..RetryPolicy::default()
        };
        let line = request_with_retry(&addr.to_string(), "{\"op\":\"status\"}", &fast).unwrap();
        assert!(
            line.contains("\"cached\":true"),
            "client must re-drive after a truncated read, got: {line}"
        );
        server.join().unwrap();
    }

    #[test]
    fn wire_bytes_chunk_only_when_asked_and_needed() {
        let short = wire_bytes(Some("a"), "{\"x\":1}".to_string(), 0);
        assert_eq!(short, b"{\"x\":1}\n");
        let long_line = format!("{{\"pad\":\"{}\"}}", "x".repeat(4000));
        let unchunked = wire_bytes(Some("a"), long_line.clone(), 0);
        assert_eq!(unchunked.len(), long_line.len() + 1);
        let chunked = wire_bytes(Some("a"), long_line.clone(), 1024);
        let text = String::from_utf8(chunked).unwrap();
        let mut rebuilt = String::new();
        for frame in text.lines() {
            let v = json::Json::parse(frame).unwrap();
            assert_eq!(v.get("status").and_then(json::Json::as_str), Some("chunk"));
            rebuilt.push_str(v.get("data").and_then(json::Json::as_str).unwrap());
        }
        assert_eq!(rebuilt, long_line);
        // Client-side reassembly round-trips through read_response.
        let mut reader = std::io::BufReader::new(std::io::Cursor::new(wire_bytes(
            Some("a"),
            long_line.clone(),
            1024,
        )));
        assert_eq!(read_response(&mut reader).unwrap(), long_line);
    }
}
