//! C10K soak driver: one process drives thousands of concurrent
//! loopback connections against a chameleond poll reactor and verifies
//! every reply **byte-for-byte** against locally computed results.
//!
//! The client mix deliberately mirrors production abuse, seeded and
//! deterministic (connection index → behaviour, so a failing run replays
//! exactly):
//!
//! * **pipelined** (40%) — every job plus one id-tagged junk line written
//!   in a single burst before any reply is read;
//! * **batch** (30%) — all jobs as one `batch` request line (one queue
//!   slot server-side, replies under derived `id#index` ids);
//! * **single** (15%) — strict request→reply lockstep;
//! * **slowloris** (10%) — one request dribbled in 7-byte fragments
//!   across hundreds of poll ticks;
//! * **abrupt-close** (5%) — half a request line, then the socket
//!   vanishes.
//!
//! Verification: each job's expected `result` object is computed in this
//! process via the same [`chameleon_server::JobSpec::execute`] path the
//! CLI uses, and every server reply — including reassembled chunked
//! responses — must match it byte-for-byte. `queue_full` rejections are
//! retried (that is backpressure, not failure); any payload mismatch,
//! missing reply, or unexpected disconnect fails the run (exit 1).
//!
//! The whole client side is one nonblocking event loop over the same
//! [`chameleon_server::reactor::PollSet`] the daemon uses, so thousands
//! of concurrent connections cost thousands of sockets, not threads.
//!
//! Usage:
//!   c10k_soak [--connections 2000] [--addr host:port] [--seed 2026]
//!             [--out c10k_metrics.json] [--deadline-s 180]
//!             [--workers 2] [--queue-depth 4096] [--shutdown]
//!
//! Without `--addr` a server is spawned in-process (and always shut down
//! at the end); with `--addr` an external chameleond is targeted and
//! `--shutdown` controls whether the soak sends the final shutdown op.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use chameleon_core::CancelToken;
use chameleon_obs::json::{self, Json};
use chameleon_server::reactor::{PollSet, POLLIN, POLLOUT};
use chameleon_server::{parse_request, request_once, Request, Server, ServerConfig};

/// New connections opened per event-loop pass: ramps the storm up fast
/// without a thundering-herd connect burst against the accept backlog.
const OPEN_PER_PASS: usize = 64;
/// Slowloris fragment size and inter-fragment pacing. Small enough that
/// a request spans hundreds of poll ticks, fast enough to finish far
/// inside the server's read deadline.
const SLOWLORIS_FRAG: usize = 7;
const SLOWLORIS_DELAY: Duration = Duration::from_millis(4);
/// Cap on `queue_full` retries for one request id before the run fails.
const MAX_RETRIES: u32 = 200;

/// Deterministic soak graph: a ring plus every-third-node chords with
/// xorshift-derived probabilities. No dataset crate (bins cannot see
/// dev-dependencies); the structure only needs to be nontrivial and
/// reproducible from the seed.
fn graph_text(nodes: usize, seed: u64) -> String {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut s = format!("nodes {nodes}\n");
    for i in 0..nodes {
        let p = 0.25 + (next() % 500) as f64 / 1000.0;
        let _ = writeln!(s, "{} {} {:.3}", i, (i + 1) % nodes, p);
    }
    for i in (0..nodes.saturating_sub(2)).step_by(3) {
        let p = 0.25 + (next() % 500) as f64 / 1000.0;
        let _ = writeln!(s, "{} {} {:.3}", i, i + 2, p);
    }
    s
}

/// The soak's job bodies (no `id` field — ids are spliced per client).
/// Cheap real work with distinct cache keys; the last job's result is
/// large enough that its `chunk_bytes` request forces chunked framing.
fn job_bodies(seed: u64) -> Vec<String> {
    let graph = json::string(&graph_text(30, seed));
    let mut bodies = Vec::new();
    for k in 2..=5u64 {
        bodies.push(format!("{{\"op\":\"check\",\"graph\":{graph},\"k\":{k}}}"));
    }
    for s in 5..=8u64 {
        bodies.push(format!(
            "{{\"op\":\"reliability\",\"graph\":{graph},\"worlds\":40,\"pairs\":10,\
             \"seed\":{s},\"threads\":1}}"
        ));
    }
    // The obfuscate result embeds the anonymized graph's edge-list text,
    // comfortably past CHUNK_FLOOR — its `chunk_bytes` request makes every
    // client kind exercise chunked framing and reassembly.
    bodies.push(format!(
        "{{\"op\":\"obfuscate\",\"graph\":{graph},\"k\":2,\"epsilon\":0.3,\
         \"method\":\"RSME\",\"worlds\":30,\"trials\":3,\"seed\":11,\"threads\":1,\
         \"chunk_bytes\":64}}"
    ));
    bodies
}

/// Splices `"id":...` into a job body right after the opening brace.
fn with_id(body: &str, id: &str) -> String {
    format!("{{\"id\":{},{}", json::string(id), &body[1..])
}

/// What a given request id must come back as.
enum Want {
    /// Canonical render of the `result` object.
    Result(usize),
    /// A structured error with this `code`.
    Code(&'static str),
}

struct Expect {
    /// Single-request line (with id) used to re-submit on `queue_full`.
    line: String,
    want: Want,
    retries: u32,
}

/// One pending write: `bytes` go out once `after_replies` replies have
/// arrived on this connection and `delay` has elapsed since the previous
/// step finished.
struct Step {
    bytes: Vec<u8>,
    after_replies: usize,
    delay: Duration,
}

struct Client {
    stream: TcpStream,
    steps: Vec<Step>,
    step: usize,
    step_written: usize,
    next_write_at: Instant,
    close_after_write: bool,
    expect: HashMap<String, Expect>,
    replies_needed: usize,
    replies_got: usize,
    rbuf: Vec<u8>,
    /// Partially reassembled chunked responses, keyed by id.
    chunks: HashMap<String, String>,
}

impl Client {
    fn write_pending(&self) -> bool {
        self.step < self.steps.len()
    }

    fn write_gated_open(&self, now: Instant) -> bool {
        self.write_pending()
            && self.replies_got >= self.steps[self.step].after_replies
            && now >= self.next_write_at
    }

    fn done(&self) -> bool {
        !self.write_pending() && self.replies_got >= self.replies_needed
    }
}

struct Totals {
    opened: usize,
    completed: usize,
    replies_verified: u64,
    chunk_frames: u64,
    retries: u64,
    failures: Vec<String>,
}

impl Totals {
    fn fail(&mut self, msg: String) {
        if self.failures.len() < 16 {
            self.failures.push(msg);
        } else if self.failures.len() == 16 {
            self.failures.push("... further failures suppressed".into());
        }
    }
}

/// Builds the deterministic client for connection `idx`.
fn build_conn(idx: usize, stream: TcpStream, bodies: &[String], now: Instant) -> Client {
    let mut conn = Client {
        stream,
        steps: Vec::new(),
        step: 0,
        step_written: 0,
        next_write_at: now,
        close_after_write: false,
        expect: HashMap::new(),
        replies_needed: 0,
        replies_got: 0,
        rbuf: Vec::new(),
        chunks: HashMap::new(),
    };
    let kind = idx % 20;
    let expect_ok = |conn: &mut Client, id: String, job: usize| {
        conn.expect.insert(
            id.clone(),
            Expect {
                line: with_id(&bodies[job], &id),
                want: Want::Result(job),
                retries: 0,
            },
        );
        conn.replies_needed += 1;
    };
    match kind {
        // Pipelined burst: every job plus one junk line, one write.
        0..=7 => {
            let mut burst = String::new();
            for (job, body) in bodies.iter().enumerate() {
                let id = format!("c{idx}.{job}");
                let _ = writeln!(burst, "{}", with_id(body, &id));
                expect_ok(&mut conn, id, job);
            }
            let junk_id = format!("c{idx}.junk");
            let _ = writeln!(
                burst,
                "{{\"op\":\"bogus\",\"id\":{}}}",
                json::string(&junk_id)
            );
            conn.expect.insert(
                junk_id,
                Expect {
                    line: String::new(),
                    want: Want::Code("bad_request"),
                    retries: 0,
                },
            );
            conn.replies_needed += 1;
            conn.steps.push(Step {
                bytes: burst.into_bytes(),
                after_replies: 0,
                delay: Duration::ZERO,
            });
        }
        // Batch: all jobs as one request line, derived element ids.
        8..=13 => {
            let mut line = format!("{{\"op\":\"batch\",\"id\":\"c{idx}\",\"requests\":[");
            for (job, body) in bodies.iter().enumerate() {
                if job > 0 {
                    line.push(',');
                }
                line.push_str(body);
                expect_ok(&mut conn, format!("c{idx}#{job}"), job);
            }
            line.push_str("]}\n");
            conn.steps.push(Step {
                bytes: line.into_bytes(),
                after_replies: 0,
                delay: Duration::ZERO,
            });
        }
        // Lockstep singles: three jobs, each gated on the previous reply.
        14..=16 => {
            for n in 0..3 {
                let job = (idx + n) % bodies.len();
                let id = format!("c{idx}.s{n}");
                let mut line = with_id(&bodies[job], &id);
                line.push('\n');
                expect_ok(&mut conn, id, job);
                conn.steps.push(Step {
                    bytes: line.into_bytes(),
                    after_replies: n,
                    delay: Duration::ZERO,
                });
            }
        }
        // Slowloris: one request dribbled in tiny paced fragments.
        17 | 18 => {
            let job = idx % bodies.len();
            let id = format!("c{idx}.slow");
            let mut line = with_id(&bodies[job], &id);
            line.push('\n');
            expect_ok(&mut conn, id, job);
            for frag in line.as_bytes().chunks(SLOWLORIS_FRAG) {
                conn.steps.push(Step {
                    bytes: frag.to_vec(),
                    after_replies: 0,
                    delay: SLOWLORIS_DELAY,
                });
            }
        }
        // Abrupt close: half a request line, then vanish mid-frame.
        _ => {
            let half = bodies[0].len() / 2;
            conn.steps.push(Step {
                bytes: bodies[0].as_bytes()[..half].to_vec(),
                after_replies: 0,
                delay: Duration::ZERO,
            });
            conn.close_after_write = true;
        }
    }
    conn
}

/// Handles one complete reply line; returns false on verification failure.
fn handle_line(conn: &mut Client, line: &str, expected: &[String], totals: &mut Totals) {
    let v = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            totals.fail(format!("unparsable reply {line:?}: {e}"));
            conn.replies_got += 1;
            return;
        }
    };
    // Chunk frame: accumulate; a `last` frame reassembles into the full
    // unchunked reply line and is handled like any other.
    if v.get("status").and_then(Json::as_str) == Some("chunk") {
        totals.chunk_frames += 1;
        let Some(id) = v.get("id").and_then(Json::as_str).map(String::from) else {
            totals.fail(format!("chunk frame without id: {line}"));
            return;
        };
        let data = v.get("data").and_then(Json::as_str).unwrap_or_default();
        conn.chunks.entry(id.clone()).or_default().push_str(data);
        if v.get("last").and_then(Json::as_bool) == Some(true) {
            let full = conn.chunks.remove(&id).unwrap_or_default();
            handle_line(conn, &full, expected, totals);
        }
        return;
    }
    let Some(id) = v.get("id").and_then(Json::as_str).map(String::from) else {
        totals.fail(format!("reply without id: {line}"));
        conn.replies_got += 1;
        return;
    };
    let Some(exp) = conn.expect.get_mut(&id) else {
        totals.fail(format!("reply for unknown id {id:?}: {line}"));
        conn.replies_got += 1;
        return;
    };
    let status = v.get("status").and_then(Json::as_str).unwrap_or_default();
    // Backpressure is not failure: re-submit this id after the hinted
    // delay, as a real client would.
    if status == "error" && v.get("retry_after_ms").is_some() && !exp.line.is_empty() {
        exp.retries += 1;
        if exp.retries > MAX_RETRIES {
            totals.fail(format!("id {id:?} exceeded {MAX_RETRIES} retries"));
            conn.replies_got += 1;
            return;
        }
        totals.retries += 1;
        let retry_ms = v.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(50);
        let mut bytes = exp.line.clone().into_bytes();
        bytes.push(b'\n');
        let after = conn.replies_got;
        conn.steps.push(Step {
            bytes,
            after_replies: after,
            delay: Duration::from_millis(retry_ms.min(500)),
        });
        return;
    }
    match &exp.want {
        Want::Result(job) => {
            if status != "ok" {
                totals.fail(format!("id {id:?}: expected ok, got {line}"));
            } else {
                let got = v.get("result").map(Json::render).unwrap_or_default();
                if got != expected[*job] {
                    totals.fail(format!(
                        "id {id:?}: result diverged from local compute\n  local:  {}\n  server: {got}",
                        expected[*job]
                    ));
                } else {
                    totals.replies_verified += 1;
                }
            }
        }
        Want::Code(code) => {
            let got_code = v.get("code").and_then(Json::as_str).unwrap_or_default();
            if status != "error" || got_code != *code {
                totals.fail(format!("id {id:?}: expected error code {code}, got {line}"));
            } else {
                totals.replies_verified += 1;
            }
        }
    }
    conn.replies_got += 1;
}

struct Args(Vec<String>);

impl Args {
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.0
            .iter()
            .position(|a| a == &format!("--{name}"))
            .and_then(|i| self.0.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn get_opt(&self, name: &str) -> Option<String> {
        self.0
            .iter()
            .position(|a| a == &format!("--{name}"))
            .and_then(|i| self.0.get(i + 1))
            .cloned()
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == &format!("--{name}"))
    }
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    let connections: usize = args.get("connections", 2000);
    let seed: u64 = args.get("seed", 2026);
    let out: String = args.get("out", "c10k_metrics.json".to_string());
    let deadline = Duration::from_secs(args.get("deadline-s", 180));
    let external = args.get_opt("addr");
    let shutdown = external.is_none() || args.has("shutdown");

    // Local ground truth: the same execute path the CLI uses, rendered
    // through the same canonical encoder.
    let bodies = job_bodies(seed);
    let cancel = CancelToken::new();
    let expected: Vec<String> = bodies
        .iter()
        .map(|body| {
            let req = parse_request(body).expect("soak job body must parse");
            let Request::Job(job) = req else {
                panic!("soak job body is not a job request")
            };
            let result = job.spec.execute(&cancel).expect("local execute");
            Json::parse(&result).expect("local result parses").render()
        })
        .collect();

    let (handle, addr) = match &external {
        Some(addr) => (None, addr.clone()),
        None => {
            let handle = Server::spawn(ServerConfig {
                workers: args.get("workers", 2),
                queue_depth: args.get("queue-depth", 4096),
                max_connections: connections + 64,
                ..ServerConfig::default()
            })
            .expect("spawn in-process chameleond");
            let addr = handle.addr().to_string();
            (Some(handle), addr)
        }
    };

    // Prime the result cache so the storm measures the connection layer,
    // not 2000 redundant first computations of the same eight jobs.
    for body in &bodies {
        let resp = request_once(&addr, body).expect("prime job");
        assert!(resp.contains("\"status\":\"ok\""), "prime failed: {resp}");
    }

    eprintln!("c10k_soak: {connections} connections against {addr}");
    let begun = Instant::now();
    let mut totals = Totals {
        opened: 0,
        completed: 0,
        replies_verified: 0,
        chunk_frames: 0,
        retries: 0,
        failures: Vec::new(),
    };
    let mut conns: Vec<Option<Client>> = Vec::with_capacity(connections);
    let mut poll = PollSet::new();
    let mut slots: Vec<(usize, usize)> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut live = 0usize;

    while live > 0 || totals.opened < connections {
        let now = Instant::now();
        if now.duration_since(begun) > deadline {
            totals.fail(format!(
                "soak deadline exceeded with {} of {} connections incomplete",
                totals.opened - totals.completed,
                connections
            ));
            break;
        }
        // Ramp: open a bounded number of new connections per pass.
        for _ in 0..OPEN_PER_PASS {
            if totals.opened >= connections {
                break;
            }
            let stream = match TcpStream::connect(&addr) {
                Ok(s) => s,
                Err(e) => {
                    totals.fail(format!("connect {} failed: {e}", totals.opened));
                    totals.opened += 1;
                    continue;
                }
            };
            stream.set_nonblocking(true).expect("nonblocking");
            stream.set_nodelay(true).expect("nodelay");
            let conn = build_conn(totals.opened, stream, &bodies, now);
            totals.opened += 1;
            live += 1;
            if let Some(free) = conns.iter().position(Option::is_none) {
                conns[free] = Some(conn);
            } else {
                conns.push(Some(conn));
            }
        }

        poll.clear();
        slots.clear();
        let mut min_delay: Option<Duration> = None;
        for (i, slot) in conns.iter().enumerate() {
            let Some(conn) = slot else { continue };
            let mut events = 0i16;
            if conn.replies_got < conn.replies_needed {
                events |= POLLIN;
            }
            if conn.write_gated_open(now) {
                events |= POLLOUT;
            } else if conn.write_pending() && conn.next_write_at > now {
                let wait = conn.next_write_at - now;
                min_delay = Some(min_delay.map_or(wait, |d| d.min(wait)));
            }
            if events != 0 {
                slots.push((i, poll.register(conn.stream.as_raw_fd(), events)));
            }
        }
        if poll.is_empty() {
            if let Some(d) = min_delay {
                std::thread::sleep(d.min(Duration::from_millis(20)));
            }
            continue;
        }
        let timeout = min_delay.unwrap_or(Duration::from_millis(50));
        poll.poll(Some(timeout.min(Duration::from_millis(50))))
            .expect("client poll");

        for &(i, slot) in &slots {
            let ready_read = poll.revents(slot).readable();
            let ready_write = poll.revents(slot).writable();
            let conn = conns[i].as_mut().expect("registered conn is live");
            // `remove` tears the connection down after both directions are
            // serviced; `clean` marks it a successful completion.
            let mut remove = false;
            let mut clean = false;
            if ready_write && conn.write_gated_open(Instant::now()) {
                let step = &conn.steps[conn.step];
                match (&conn.stream).write(&step.bytes[conn.step_written..]) {
                    Ok(n) => {
                        conn.step_written += n;
                        if conn.step_written >= step.bytes.len() {
                            conn.step += 1;
                            conn.step_written = 0;
                            let delay = conn
                                .steps
                                .get(conn.step)
                                .map_or(Duration::ZERO, |s| s.delay);
                            conn.next_write_at = Instant::now() + delay;
                            if !conn.write_pending() && conn.close_after_write {
                                remove = true;
                                clean = true;
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => {
                        totals.fail(format!("conn write failed: {e}"));
                        remove = true;
                    }
                }
            }
            if ready_read && !remove {
                loop {
                    match (&conn.stream).read(&mut scratch) {
                        Ok(0) => {
                            if conn.replies_got < conn.replies_needed {
                                totals.fail(format!(
                                    "server closed with {} replies outstanding",
                                    conn.replies_needed - conn.replies_got
                                ));
                            } else {
                                clean = true;
                            }
                            remove = true;
                            break;
                        }
                        Ok(n) => {
                            conn.rbuf.extend_from_slice(&scratch[..n]);
                            while let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
                                let line: Vec<u8> = conn.rbuf.drain(..=pos).collect();
                                let text =
                                    String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                                handle_line(conn, &text, &expected, &mut totals);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) => {
                            totals.fail(format!("conn read failed: {e}"));
                            remove = true;
                            break;
                        }
                    }
                }
            }
            if !remove && conn.done() {
                remove = true;
                clean = true;
            }
            if remove {
                conns[i] = None;
                live -= 1;
                if clean {
                    totals.completed += 1;
                }
            }
        }
    }
    let elapsed = begun.elapsed();
    let _ = live;

    // Final accounting straight from the server, then optional shutdown.
    let status = request_once(&addr, "{\"op\":\"status\"}")
        .ok()
        .and_then(|line| Json::parse(&line).ok())
        .and_then(|v| v.get("result").map(Json::render))
        .unwrap_or_else(|| "null".to_string());
    if shutdown {
        let _ = request_once(&addr, "{\"op\":\"shutdown\"}");
    }
    if let Some(handle) = handle {
        let _ = handle.join();
    }

    let mut doc = String::from("{\n");
    let _ = writeln!(doc, "  \"connections\": {},", connections);
    let _ = writeln!(doc, "  \"completed\": {},", totals.completed);
    let _ = writeln!(doc, "  \"replies_verified\": {},", totals.replies_verified);
    let _ = writeln!(doc, "  \"chunk_frames\": {},", totals.chunk_frames);
    let _ = writeln!(doc, "  \"queue_full_retries\": {},", totals.retries);
    let _ = writeln!(doc, "  \"failures\": {},", totals.failures.len());
    let _ = writeln!(doc, "  \"elapsed_s\": {:.3},", elapsed.as_secs_f64());
    let _ = writeln!(doc, "  \"server_status\": {status}");
    doc.push_str("}\n");
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("warning: could not write {out}: {e}");
    }
    eprintln!(
        "c10k_soak: {} conns completed, {} replies verified ({} chunk frames, {} retries) \
         in {:.2}s",
        totals.completed,
        totals.replies_verified,
        totals.chunk_frames,
        totals.retries,
        elapsed.as_secs_f64()
    );
    if !totals.failures.is_empty() {
        eprintln!("c10k_soak FAILED:");
        for f in &totals.failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!("c10k_soak passed");
}
