//! chameleon-gate: a thin gateway that consistent-hashes jobs across a
//! fleet of `chameleond` backends (DESIGN.md §13).
//!
//! The gateway speaks the exact `chameleond` wire protocol on its client
//! side — `submit --via-gateway` is just `submit` pointed at a different
//! port — and owns no job execution of its own. Each accepted job line is
//! routed by the FNV-1a digest of its graph text over a consistent-hash
//! ring ([`HashRing`]) with virtual nodes, so all work on one graph lands
//! on one backend and that backend's LRU result cache becomes the graph's
//! shard of a distributed cache. Forwarding uses the retrying client
//! ([`crate::server::request_with_retry`]'s I/O semantics): transient
//! connect/read failures are retried with seeded backoff, and a backend
//! that stays dead is marked down and its jobs are *re-driven* to the
//! next live replica on the ring.
//!
//! Losslessness and byte-identity of failover both come from invariants
//! established by earlier layers, not from gateway cleverness:
//!
//! * backends journal `accepted` before acknowledging (DESIGN.md §11), so
//!   a killed backend's accepted jobs are recoverable by `--resume` — and
//!   independently, the gateway holds every request line until it has a
//!   complete response, so an in-flight job on a dead backend is simply
//!   re-sent to the ring successor;
//! * results are thread-count-, cache-state- and placement-invariant
//!   (the PR-1 determinism contract), so *which* backend computes a job
//!   cannot change a single result byte.
//!
//! Responses are forwarded verbatim (chunk frames included): the bytes a
//! client reads through the gateway are the bytes the backend wrote.
//! The client side is the daemon's own line-protocol server
//! ([`crate::reactor`]) — same framing, limits, deadlines and shutdown —
//! with this module's service handler feeding a bounded forward queue
//! and a small forwarder pool doing the blocking backend I/O. A
//! background health thread probes every backend with `status` requests,
//! marking dead backends down before a client job has to discover it,
//! and reviving them when they return.

use crate::cache::fnv1a64;
use crate::config::GatewayConfig;
use crate::protocol::{coded_error_response, codes};
use crate::queue::{BoundedQueue, PushError};
use crate::reactor::{Completion, ConnToken, Handle, JobItem, Limits, LineServer, Service, Sites};
use crate::server::{read_logical, send_request, RetryPolicy};
use chameleon_obs::{counter, json};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual nodes per backend on the gateway's hash ring.
pub const RING_REPLICAS: usize = 64;

/// Connect/read budget for one health probe.
const PROBE_TIMEOUT: Duration = Duration::from_millis(1_000);

/// `retry_after_ms` hint on gateway-synthesized `no_backend` errors.
const NO_BACKEND_RETRY_MS: u64 = 500;

/// A consistent-hash ring with virtual nodes.
///
/// Each backend contributes `replicas` points hashed from
/// `"{addr}#{replica}"`; a key routes to the first point clockwise from
/// its own hash whose backend is alive. The construction is a pure
/// function of the backend list and replica count — two gateways (or two
/// runs) configured identically route identically — and removing one
/// backend only remaps the keys that backend owned (the consistent-hash
/// property the rebalance tests pin).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, backend index)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds the ring for `backends` with `replicas` virtual nodes each
    /// (minimum 1).
    pub fn new(backends: &[String], replicas: usize) -> Self {
        let replicas = replicas.max(1);
        let mut points = Vec::with_capacity(backends.len() * replicas);
        for (idx, addr) in backends.iter().enumerate() {
            for r in 0..replicas {
                points.push((fnv1a64(format!("{addr}#{r}").as_bytes()), idx));
            }
        }
        points.sort_unstable();
        Self { points }
    }

    /// Routes `key` to the first live backend clockwise from its hash
    /// point; `None` when every backend is dead (or the ring is empty).
    pub(crate) fn route(&self, key: u64, alive: impl Fn(usize) -> bool) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(point, _)| point < key);
        let n = self.points.len();
        for off in 0..n {
            let (_, idx) = self.points[(start + off) % n];
            if alive(idx) {
                return Some(idx);
            }
        }
        None
    }

    /// The backend owning `key` when everything is alive.
    pub fn owner(&self, key: u64) -> Option<usize> {
        self.route(key, |_| true)
    }
}

impl std::fmt::Display for GatewayReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} forwarded, {} redriven, {} no-backend errors, {} rejected",
            self.forwarded, self.redriven, self.no_backend_errors, self.rejected,
        )
    }
}

/// Final counters reported by [`Gateway::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GatewayReport {
    /// Request lines answered from a backend.
    pub forwarded: u64,
    /// Request lines re-driven to a ring successor after a backend died.
    pub redriven: u64,
    /// Responses synthesized because every backend was dead.
    pub no_backend_errors: u64,
    /// Request lines rejected at the gateway (queue full, shutdown).
    pub rejected: u64,
}

/// One request line travelling to a backend: the raw line (forwarded
/// verbatim), its routing key, how many logical responses it owes, and
/// the per-response ids needed to synthesize errors when no backend is
/// left to answer them.
struct ForwardJob {
    token: ConnToken,
    line: String,
    key: u64,
    expect: usize,
    ids: Vec<Option<String>>,
}

struct GwShared {
    queue: BoundedQueue<ForwardJob>,
    ring: HashRing,
    backends: Vec<String>,
    alive: Vec<AtomicBool>,
    forwarded_per_backend: Vec<AtomicU64>,
    forwarded: AtomicU64,
    redriven: AtomicU64,
    no_backend_errors: AtomicU64,
    rejected: AtomicU64,
    started: Instant,
    retry: RetryPolicy,
    queue_depth: usize,
}

impl GwShared {
    fn report(&self) -> GatewayReport {
        GatewayReport {
            forwarded: self.forwarded.load(Ordering::Relaxed),
            redriven: self.redriven.load(Ordering::Relaxed),
            no_backend_errors: self.no_backend_errors.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

/// The gateway's counter sites in the shared loop.
fn gateway_sites() -> Sites {
    Sites {
        ticks: counter!("gateway.reactor.ticks"),
        wakeups: counter!("gateway.reactor.wakeups"),
        completions: counter!("gateway.reactor.completions"),
        connections: counter!("gateway.connections"),
        rejected_busy: counter!("gateway.conn.rejected_busy"),
        deferred_ready: counter!("gateway.reactor.deferred_ready"),
        short_writes: counter!("gateway.reactor.short_writes"),
        truncated: counter!("gateway.conn.truncated"),
        request_too_large: counter!("gateway.conn.request_too_large"),
        read_timeout: counter!("gateway.conn.read_timeout"),
        write_stalled: counter!("gateway.conn.write_stalled"),
        bad_utf8: counter!("gateway.conn.bad_utf8"),
        shutdown_requests: counter!("gateway.shutdown_requests"),
        batched: counter!("gateway.jobs.batched"),
        rejected_batch: counter!("gateway.jobs.rejected_batch"),
    }
}

impl Service for GwShared {
    /// Gateway `status` result object; field order fixed by construction.
    /// Queued/active are read as one [`crate::queue::QueueSnapshot`].
    fn status_json(&self, open_connections: usize, shutting_down: bool) -> String {
        let queue = self.queue.snapshot();
        let mut backends = String::new();
        for (i, addr) in self.backends.iter().enumerate() {
            if i > 0 {
                backends.push(',');
            }
            backends.push_str(&format!(
                "{{\"addr\":{},\"alive\":{},\"forwarded\":{}}}",
                json::string(addr),
                self.alive[i].load(Ordering::Relaxed),
                self.forwarded_per_backend[i].load(Ordering::Relaxed),
            ));
        }
        format!(
            "{{\"gateway\":true,\"uptime_ms\":{},\"backends\":[{}],\
             \"ring_replicas\":{},\"queue_depth\":{},\"queue_capacity\":{},\
             \"in_flight\":{},\"forwarded\":{},\"redriven\":{},\
             \"no_backend_errors\":{},\"rejected\":{},\
             \"open_connections\":{},\"shutting_down\":{}}}",
            self.started.elapsed().as_millis(),
            backends,
            RING_REPLICAS,
            queue.queued,
            self.queue_depth,
            queue.active,
            self.forwarded.load(Ordering::Relaxed),
            self.redriven.load(Ordering::Relaxed),
            self.no_backend_errors.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            open_connections,
            shutting_down,
        )
    }

    /// Admits one raw request line to the forward queue, or rejects it
    /// with the same coded, hinted errors the backend daemon uses. The
    /// line is parsed only to route and count responses — the *raw* line
    /// is what a backend receives, so its responses match a direct
    /// submission byte-for-byte.
    fn dispatch(
        &self,
        token: ConnToken,
        line: String,
        items: Vec<JobItem>,
        shutting_down: bool,
        reply: &mut dyn FnMut(&str),
    ) -> usize {
        // A batch routes whole-line by its first parsable element's graph
        // (elements of one batch usually share a graph; splitting a line
        // would break the protocol's one-queue-slot batch semantics).
        // Parse-failed elements still get their per-element error from
        // the backend.
        let key = items
            .iter()
            .find_map(|item| item.as_ref().ok())
            .map(|job| job.spec.graph_digest())
            .unwrap_or_else(|| fnv1a64(line.as_bytes()));
        let ids: Vec<Option<String>> = items
            .into_iter()
            .map(|item| match item {
                Ok(job) => job.id,
                Err((id, _)) => id,
            })
            .collect();
        let expect = ids.len();
        let reject = |reply: &mut dyn FnMut(&str), code: &str, msg: &str, retry: Option<u64>| {
            self.rejected.fetch_add(expect as u64, Ordering::Relaxed);
            for id in &ids {
                reply(&coded_error_response(id.as_deref(), code, msg, retry));
            }
            0
        };
        if shutting_down {
            return reject(
                reply,
                codes::SHUTTING_DOWN,
                "gateway is shutting down",
                None,
            );
        }
        match self.queue.try_push(ForwardJob {
            token,
            line,
            key,
            expect,
            ids: ids.clone(),
        }) {
            Ok(_) => {
                chameleon_obs::counter!("gateway.jobs.accepted").add(expect as u64);
                expect
            }
            Err(PushError::Full { capacity }) => {
                chameleon_obs::counter!("gateway.jobs.rejected_full").add(expect as u64);
                let retry_ms = 100 * (1 + self.queue.snapshot().active as u64).min(50);
                reject(
                    reply,
                    codes::QUEUE_FULL,
                    &format!("gateway queue full ({capacity} queued lines); retry later"),
                    Some(retry_ms),
                )
            }
            Err(PushError::Closed) => reject(
                reply,
                codes::SHUTTING_DOWN,
                "gateway is shutting down",
                None,
            ),
        }
    }

    /// `shutdown` stops the gateway only: backends are shared
    /// infrastructure with their own lifecycles.
    fn shutdown_json(&self) -> String {
        let report = self.report();
        format!(
            "{{\"drained\":true,\"forwarded\":{},\"redriven\":{},\
             \"no_backend_errors\":{},\"rejected\":{}}}",
            report.forwarded, report.redriven, report.no_backend_errors, report.rejected,
        )
    }

    fn is_drained(&self) -> bool {
        self.queue.is_drained()
    }

    fn count_rejected(&self, n: u64) {
        self.rejected.fetch_add(n, Ordering::Relaxed);
    }
}

/// A bound-but-not-yet-running gateway instance.
pub struct Gateway {
    listener: TcpListener,
    shared: Arc<GwShared>,
    limits: Limits,
    health_interval: Option<Duration>,
    forwarders: usize,
    metrics_path: Option<String>,
}

/// Handle to a gateway running on a background thread.
pub type GatewayHandle = Handle<GatewayReport>;

impl Gateway {
    /// Binds the listener (without accepting yet).
    ///
    /// # Errors
    /// Fails on an empty backend list or bind failure.
    pub(crate) fn bind(config: GatewayConfig) -> std::io::Result<Gateway> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "gateway requires at least one backend (--backends)",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let forwarders = if config.forwarders == 0 {
            (config.backends.len() * 2).max(4)
        } else {
            config.forwarders
        };
        let n = config.backends.len();
        let limits = config.limits();
        let shared = Arc::new(GwShared {
            queue: BoundedQueue::new(config.queue_depth),
            ring: HashRing::new(&config.backends, RING_REPLICAS),
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            forwarded_per_backend: (0..n).map(|_| AtomicU64::new(0)).collect(),
            backends: config.backends,
            forwarded: AtomicU64::new(0),
            redriven: AtomicU64::new(0),
            no_backend_errors: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            started: Instant::now(),
            retry: config.retry,
            queue_depth: config.queue_depth,
        });
        Ok(Gateway {
            listener,
            shared,
            limits,
            health_interval: (config.health_interval_ms > 0)
                .then(|| Duration::from_millis(config.health_interval_ms)),
            forwarders,
            metrics_path: config.metrics_path,
        })
    }

    /// The bound address (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// The foreground entry point of `chameleon_gate` and `chameleon
    /// gate`: binds, announces `chameleon-gate listening on <addr>` on
    /// stderr, and serves until shutdown.
    ///
    /// # Errors
    /// A bind or fatal reactor failure, as a message.
    pub fn serve(config: GatewayConfig) -> Result<GatewayReport, String> {
        let gateway = Gateway::bind(config).map_err(|e| format!("failed to bind: {e}"))?;
        eprintln!("chameleon-gate listening on {}", gateway.local_addr());
        gateway.run().map_err(|e| format!("gateway failed: {e}"))
    }

    /// [`Gateway::bind`] + [`Gateway::run`] on a background thread.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn spawn(config: GatewayConfig) -> std::io::Result<GatewayHandle> {
        let gateway = Gateway::bind(config)?;
        Ok(Handle::spawn(
            "chameleon-gate",
            gateway.local_addr(),
            move || gateway.run(),
        ))
    }

    /// Serves until a `shutdown` request completes: runs the reactor,
    /// drains the forward queue, joins the forwarders and the health
    /// thread, and flushes the final metrics snapshot.
    ///
    /// # Errors
    /// Propagates fatal reactor I/O errors.
    pub fn run(self) -> std::io::Result<GatewayReport> {
        let Gateway {
            listener,
            shared,
            limits,
            health_interval,
            forwarders,
            metrics_path,
        } = self;
        let lines = LineServer::new(listener)?;
        let forwarders: Vec<_> = (0..forwarders)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let done = lines.completer();
                std::thread::Builder::new()
                    .name(format!("gate-forward-{i}"))
                    .spawn(move || {
                        let mut pool = ConnPool::new();
                        done.drain_queue(&shared.queue, |job| Completion {
                            wire: drive_job(&shared, &mut pool, &job),
                            token: job.token,
                            responses: job.expect,
                        })
                    })
                    .expect("spawn forwarder")
            })
            .collect();
        let health_run = Arc::new(AtomicBool::new(true));
        let health_handle = health_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            let run = Arc::clone(&health_run);
            std::thread::Builder::new()
                .name("gate-health".into())
                .spawn(move || health_loop(&shared, &run, interval))
                .expect("spawn health thread")
        });
        let run_result = lines.serve(&*shared, limits, gateway_sites(), &shared.queue, forwarders);
        health_run.store(false, Ordering::Relaxed);
        if let Some(handle) = health_handle {
            let _ = handle.join();
        }
        if let Some(path) = &metrics_path {
            let _ = std::fs::write(path, chameleon_obs::metrics_json());
        }
        run_result?;
        Ok(shared.report())
    }
}

/// Per-forwarder pool of persistent backend connections, keyed by ring
/// index. A forwarder is strictly lockstep per backend (one job in
/// flight per connection), so reusing the socket across jobs is safe —
/// and saves a TCP handshake per forwarded job on the hot path.
type ConnPool = std::collections::HashMap<usize, BufReader<TcpStream>>;

/// Synthesized per-response error lines for a job no backend can answer.
fn no_backend_wire(shared: &GwShared, job: &ForwardJob) -> Vec<u8> {
    shared
        .no_backend_errors
        .fetch_add(job.expect as u64, Ordering::Relaxed);
    chameleon_obs::counter!("gateway.no_backend").add(job.expect as u64);
    let mut wire = Vec::new();
    for id in &job.ids {
        let line = coded_error_response(
            id.as_deref(),
            codes::NO_BACKEND,
            "no live backend in the ring; retry later",
            Some(NO_BACKEND_RETRY_MS),
        );
        wire.extend_from_slice(line.as_bytes());
        wire.push(b'\n');
    }
    wire
}

/// Routes one job along the ring until a backend answers it in full, or
/// until every backend has been declared dead; returns the wire bytes to
/// hand the client. A backend whose I/O fails past the retry budget is
/// marked dead for everyone and the job moves to the ring successor
/// ("re-drive") — lossless because the whole request line is still in
/// hand, byte-identical because placement cannot change results.
fn drive_job(shared: &GwShared, pool: &mut ConnPool, job: &ForwardJob) -> Vec<u8> {
    let mut redrives = 0usize;
    loop {
        let Some(idx) = shared
            .ring
            .route(job.key, |i| shared.alive[i].load(Ordering::Relaxed))
        else {
            return no_backend_wire(shared, job);
        };
        match forward_collect(
            pool,
            idx,
            &shared.backends[idx],
            &job.line,
            job.expect,
            &shared.retry,
        ) {
            Ok(wire) => {
                shared.forwarded.fetch_add(1, Ordering::Relaxed);
                shared.forwarded_per_backend[idx].fetch_add(1, Ordering::Relaxed);
                chameleon_obs::counter!("gateway.forwarded").add(1);
                return wire;
            }
            Err(_) => {
                if shared.alive[idx].swap(false, Ordering::Relaxed) {
                    chameleon_obs::counter!("gateway.backend.died").add(1);
                }
                redrives += 1;
                // The health thread may revive backends while we loop;
                // bounding re-drives at the fleet size keeps one job from
                // chasing a flapping ring forever.
                if redrives > shared.backends.len() {
                    return no_backend_wire(shared, job);
                }
                shared.redriven.fetch_add(1, Ordering::Relaxed);
                chameleon_obs::counter!("gateway.jobs.redriven").add(1);
            }
        }
    }
}

/// One backend round-trip with the I/O retry budget of `policy`. A
/// pooled connection gets one grace attempt first: if it fails, it is
/// replaced by a fresh connect *without* touching the retry budget, so
/// a backend that dropped an idle socket is never mistaken for a dead
/// one. Fresh-connect failures sleep the seeded backoff and try again,
/// up to `io_retries` extra attempts; a connection that completes a
/// round-trip goes back into the pool.
fn forward_collect(
    pool: &mut ConnPool,
    idx: usize,
    addr: &str,
    line: &str,
    expect: usize,
    policy: &RetryPolicy,
) -> std::io::Result<Vec<u8>> {
    if let Some(mut reader) = pool.remove(&idx) {
        if let Ok(wire) = try_forward_on(&mut reader, line, expect) {
            pool.insert(idx, reader);
            return Ok(wire);
        }
    }
    let mut attempt = 0u32;
    loop {
        let fresh = TcpStream::connect(addr).and_then(|stream| {
            let _ = stream.set_nodelay(true);
            let mut reader = BufReader::new(stream);
            Ok((try_forward_on(&mut reader, line, expect)?, reader))
        });
        match fresh {
            Ok((wire, reader)) => {
                pool.insert(idx, reader);
                return Ok(wire);
            }
            Err(err) => {
                if !policy.retry_io || attempt >= policy.io_retries {
                    return Err(err);
                }
                chameleon_obs::counter!("gateway.backend.io_retries").add(1);
                std::thread::sleep(policy.backoff(attempt, None));
                attempt += 1;
            }
        }
    }
}

/// Sends the raw request line down a backend connection and collects
/// `expect` complete logical responses as verbatim wire bytes (chunk
/// frames pass through untouched). A connection that ends early — or
/// mid-line — is an `UnexpectedEof`, so the caller re-drives instead of
/// forwarding a torn response.
fn try_forward_on(
    reader: &mut BufReader<TcpStream>,
    line: &str,
    expect: usize,
) -> std::io::Result<Vec<u8>> {
    send_request(reader.get_mut(), line)?;
    reader.get_mut().flush()?;
    let mut wire = Vec::new();
    for _ in 0..expect {
        read_logical(reader, Some(&mut wire))?;
    }
    Ok(wire)
}

fn health_loop(shared: &Arc<GwShared>, run: &AtomicBool, interval: Duration) {
    while run.load(Ordering::Relaxed) {
        for (i, addr) in shared.backends.iter().enumerate() {
            let ok = probe_backend(addr);
            let was = shared.alive[i].swap(ok, Ordering::Relaxed);
            if was != ok {
                if ok {
                    chameleon_obs::counter!("gateway.backend.revived").add(1);
                } else {
                    chameleon_obs::counter!("gateway.backend.died").add(1);
                }
            }
        }
        // Sleep in short steps so shutdown never waits a full interval.
        let mut left = interval;
        while run.load(Ordering::Relaxed) && left > Duration::ZERO {
            let step = left.min(Duration::from_millis(50));
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
    }
}

/// One `status` round-trip under [`PROBE_TIMEOUT`]; any complete response
/// line proves the backend alive (even a `server_busy` rejection — a
/// saturated backend is not a dead one).
fn probe_backend(addr: &str) -> bool {
    let Some(sock_addr) = addr.to_socket_addrs().ok().and_then(|mut it| it.next()) else {
        return false;
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&sock_addr, PROBE_TIMEOUT) else {
        return false;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(PROBE_TIMEOUT));
    if send_request(&mut stream, "{\"op\":\"status\"}").is_err() || stream.flush().is_err() {
        return false;
    }
    let mut reader = BufReader::new(stream);
    crate::server::read_response(&mut reader).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7000")).collect()
    }

    #[test]
    fn ring_construction_is_deterministic() {
        let a = HashRing::new(&addrs(5), 64);
        let b = HashRing::new(&addrs(5), 64);
        assert_eq!(a.points.len(), 5 * 64);
        for key in (0..10_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            assert_eq!(a.owner(key), b.owner(key));
        }
    }

    #[test]
    fn ring_spreads_keys_across_backends() {
        let ring = HashRing::new(&addrs(4), 64);
        let mut counts = [0usize; 4];
        for key in (0..40_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            counts[ring.owner(key).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 40_000 / 16,
                "backend {i} owns only {c} of 40000 keys — ring badly unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn killing_a_backend_only_remaps_its_own_keys() {
        let ring = HashRing::new(&addrs(5), 64);
        let dead = 2usize;
        let mut dead_owned = 0usize;
        for key in (0..20_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let before = ring.owner(key).unwrap();
            let after = ring.route(key, |i| i != dead).unwrap();
            assert_ne!(after, dead);
            if before == dead {
                dead_owned += 1;
            } else {
                // The consistent-hash property: survivors keep their keys.
                assert_eq!(before, after, "live backend lost key {key:#x}");
            }
        }
        assert!(dead_owned > 0, "dead backend owned no keys at all");
    }

    #[test]
    fn route_skips_dead_backends_deterministically() {
        let ring = HashRing::new(&addrs(3), 32);
        for key in (0..5_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let a = ring.route(key, |i| i != 0);
            let b = ring.route(key, |i| i != 0);
            assert_eq!(a, b);
            assert_ne!(a, Some(0));
        }
        assert_eq!(ring.route(1, |_| false), None);
        assert_eq!(HashRing::new(&[], 64).route(1, |_| true), None);
    }

    #[test]
    fn empty_backend_list_fails_bind() {
        let err = match Gateway::bind(GatewayConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("bind accepted an empty backend list"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn gateway_answers_status_and_synthesizes_no_backend_errors() {
        // One dead backend (reserved then released port): jobs come back
        // as retryable `no_backend` errors, status reflects the outage,
        // and shutdown drains cleanly.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        let handle = Gateway::spawn(GatewayConfig {
            backends: vec![dead_addr],
            health_interval_ms: 0,
            retry: RetryPolicy {
                io_retries: 0,
                base_delay_ms: 1,
                ..RetryPolicy::default()
            },
            ..GatewayConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();

        let status =
            crate::server::request_once(&addr, "{\"op\":\"status\",\"id\":\"s\"}").unwrap();
        assert!(status.contains("\"gateway\":true"), "got: {status}");
        assert!(status.contains("\"alive\":true"), "got: {status}");

        let job = crate::server::request_once(
            &addr,
            "{\"op\":\"check\",\"id\":\"j\",\"graph\":\"0 1 0.5\\n\",\"k\":2}",
        )
        .unwrap();
        assert!(job.contains("\"code\":\"no_backend\""), "got: {job}");
        assert!(job.contains("\"retry_after_ms\""), "got: {job}");
        assert!(job.contains("\"id\":\"j\""), "got: {job}");

        let bye = crate::server::request_once(&addr, "{\"op\":\"shutdown\"}").unwrap();
        assert!(bye.contains("\"drained\":true"), "got: {bye}");
        let report = handle.join().unwrap();
        assert_eq!(report.forwarded, 0);
        assert!(report.no_backend_errors >= 1);
    }
}
