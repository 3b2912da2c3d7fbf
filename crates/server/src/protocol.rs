//! The `chameleond` wire protocol: newline-delimited JSON over TCP, with
//! pipelining, batch submission and chunked responses.
//!
//! Grammar (one request object per line, one response object per line):
//!
//! ```text
//! request  = { "op": op, ["id": string], ["timeout_ms": int],
//!              ["chunk_bytes": int], params... }
//!          | { "op": "batch", ["id": string], ["chunk_bytes": int],
//!              "requests": [ job-request, ... ] }
//! op       = "obfuscate" | "check" | "reliability" | "status" | "shutdown"
//! response = { ["id": ...], "status": "ok", "cached": bool, "result": {...} }
//!          | { ["id": ...], "status": "error", "error": string,
//!              ["retry_after_ms": int] }
//!          | { ["id": ...], "status": "chunk", "seq": int, "last": bool,
//!              "data": string }    (reassemble by concatenating "data")
//! ```
//!
//! **Pipelining.** Clients may write any number of request lines without
//! waiting for responses; the `id` field is the correlation key — job
//! responses come back in *completion* order, each echoing the `id` of
//! the request it answers. Clients that pipeline must send distinct ids.
//!
//! **Batch.** `op":"batch"` submits many job requests in one line (each
//! element a full job object). Every element gets its own response line;
//! an element without an `id` inherits `"<batch-id>#<index>"` when the
//! batch has one. Elements that fail to parse get a structured error with
//! their id; the remaining elements still run.
//!
//! **Chunking.** A request carrying `"chunk_bytes": N` asks that any
//! response line for it longer than `N` bytes be streamed as `chunk`
//! frames whose concatenated `data` fields are the exact bytes of the
//! unchunked response line — byte-identical reassembly, enforced by test.
//!
//! Job parameters are flat fields mirroring the CLI flags of the matching
//! subcommand, with the same defaults (`seed` 42, `worlds` 500, `trials`
//! 5, `threads` 0, anonymize `epsilon` 0.01, `method` "RSME"); defaults
//! are applied *here*, before cache-key derivation, so a request relying
//! on a default and one spelling it out share a cache entry. Graphs travel
//! inline as edge-list text in the `"graph"` field.
//!
//! Responses are rendered with the shared deterministic encoder
//! ([`chameleon_obs::json`]); for a fixed request, the `result` object is
//! byte-stable across runs, machines, thread counts, and cache state.

use crate::job::{AnonymizeMethod, JobSpec};
use chameleon_obs::json::{self, Json};

/// Requests below this `chunk_bytes` floor are never chunked: tiny frames
/// would multiply the framing overhead past the payload itself.
pub(crate) const CHUNK_FLOOR: usize = 512;

/// One fully parsed job submission (top-level or batch element).
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// What to compute.
    pub spec: JobSpec,
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<String>,
    /// Per-job wall-clock budget override (ms).
    pub timeout_ms: Option<u64>,
    /// Chunk responses longer than this many bytes (0 = never chunk;
    /// values below [`CHUNK_FLOOR`] are raised to it).
    pub chunk_bytes: usize,
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Work for the queue/worker pool.
    Job(JobRequest),
    /// Many jobs submitted in one line; per-element parse failures keep
    /// the recovered id so each element can be answered individually.
    Batch {
        /// Batch-level correlation id (also the prefix for element ids).
        id: Option<String>,
        /// Parsed elements, in submission order.
        items: Vec<Result<JobRequest, ParseFailure>>,
    },
    /// Server introspection (answered inline, never queued).
    Status {
        /// Correlation id.
        id: Option<String>,
    },
    /// Begin graceful shutdown; the response is sent after the queue
    /// drains.
    Shutdown {
        /// Correlation id.
        id: Option<String>,
    },
}

/// Parse failure: the (possibly recovered) request id plus a message.
pub type ParseFailure = (Option<String>, String);

fn get_u64(v: &Json, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(field) => field
            .as_u64()
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn get_u32(v: &Json, key: &str, default: u32) -> Result<u32, String> {
    let value = get_u64(v, key, u64::from(default))?;
    u32::try_from(value).map_err(|_| format!("field {key:?} must be at most {}", u32::MAX))
}

fn get_f64(v: &Json, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(field) => field
            .as_f64()
            .ok_or_else(|| format!("field {key:?} must be a number")),
    }
}

fn get_str(v: &Json, key: &str, default: &str) -> Result<String, String> {
    match v.get(key) {
        None => Ok(default.to_string()),
        Some(field) => field
            .as_str()
            .map(String::from)
            .ok_or_else(|| format!("field {key:?} must be a string")),
    }
}

fn require_graph(v: &Json) -> Result<String, String> {
    v.get("graph")
        .and_then(Json::as_str)
        .map(String::from)
        .ok_or_else(|| "missing required string field \"graph\"".to_string())
}

/// Parses one request line.
///
/// # Errors
/// Returns the request id (when recoverable) and a message suitable for an
/// error response.
pub fn parse_request(line: &str) -> Result<Request, ParseFailure> {
    let v = Json::parse(line).map_err(|e| (None, format!("bad request JSON: {e}")))?;
    let id = v.get("id").and_then(Json::as_str).map(String::from);
    let fail = |msg: String| (id.clone(), msg);
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("missing required string field \"op\"".to_string()))?
        .to_string();
    match op.as_str() {
        "status" => return Ok(Request::Status { id }),
        "shutdown" => return Ok(Request::Shutdown { id }),
        "batch" => return parse_batch(&v, id),
        _ => {}
    }
    parse_job_body(&v, &op, id).map(Request::Job)
}

/// Parses the batch envelope: every element of `"requests"` is parsed as
/// an independent job; elements without an id inherit `"<batch-id>#<i>"`,
/// and a batch-level `"chunk_bytes"` is the default for elements that do
/// not set their own.
fn parse_batch(v: &Json, id: Option<String>) -> Result<Request, ParseFailure> {
    let fail = |msg: String| (id.clone(), msg);
    let default_chunk = get_u64(v, "chunk_bytes", 0).map_err(&fail)? as usize;
    let requests = v
        .get("requests")
        .ok_or_else(|| fail("batch requires an array field \"requests\"".into()))?;
    let elements = requests
        .as_array()
        .ok_or_else(|| fail("field \"requests\" must be an array".into()))?;
    if elements.is_empty() {
        return Err(fail("batch \"requests\" must not be empty".into()));
    }
    let items = elements
        .iter()
        .enumerate()
        .map(|(i, elem)| {
            let derived_id = elem
                .get("id")
                .and_then(Json::as_str)
                .map(String::from)
                .or_else(|| id.as_ref().map(|batch| format!("{batch}#{i}")));
            let op = match elem.get("op").and_then(Json::as_str) {
                Some(op) => op.to_string(),
                None => {
                    return Err((
                        derived_id,
                        format!("batch element {i}: missing required string field \"op\""),
                    ))
                }
            };
            if matches!(op.as_str(), "batch" | "status" | "shutdown") {
                return Err((
                    derived_id,
                    format!("batch element {i}: op {op:?} is not allowed inside a batch"),
                ));
            }
            let mut job = parse_job_body(elem, &op, derived_id.clone())
                .map_err(|(_, msg)| (derived_id, format!("batch element {i}: {msg}")))?;
            if job.chunk_bytes == 0 {
                job.chunk_bytes = default_chunk;
            }
            Ok(job)
        })
        .collect();
    Ok(Request::Batch { id, items })
}

/// Parses the job fields shared by top-level and batch-element requests.
fn parse_job_body(v: &Json, op: &str, id: Option<String>) -> Result<JobRequest, ParseFailure> {
    let fail = |msg: String| (id.clone(), msg);
    let timeout_ms =
        match v.get("timeout_ms") {
            None => None,
            Some(t) => Some(t.as_u64().ok_or_else(|| {
                fail("field \"timeout_ms\" must be a non-negative integer".into())
            })?),
        };
    let chunk_bytes = get_u64(v, "chunk_bytes", 0).map_err(&fail)? as usize;
    let spec = match op {
        "obfuscate" => {
            let graph = require_graph(v).map_err(&fail)?;
            let k = get_u64(v, "k", 0).map_err(&fail)?;
            if k == 0 {
                return Err(fail("obfuscate requires \"k\" >= 1".into()));
            }
            let method = AnonymizeMethod::parse(&get_str(v, "method", "RSME").map_err(&fail)?)
                .map_err(&fail)?;
            JobSpec::Obfuscate {
                graph,
                k: k as usize,
                epsilon: get_f64(v, "epsilon", 0.01).map_err(&fail)?,
                method,
                worlds: get_u64(v, "worlds", 500).map_err(&fail)? as usize,
                trials: get_u64(v, "trials", 5).map_err(&fail)? as usize,
                threads: get_u64(v, "threads", 0).map_err(&fail)? as usize,
                strip_worlds: get_u64(v, "strip_worlds", 0).map_err(&fail)? as usize,
                seed: get_u64(v, "seed", 42).map_err(&fail)?,
            }
        }
        "check" => {
            let graph = require_graph(v).map_err(&fail)?;
            let k = get_u64(v, "k", 0).map_err(&fail)?;
            if k == 0 {
                return Err(fail("check requires \"k\" >= 1".into()));
            }
            JobSpec::Check {
                graph,
                k: k as usize,
                epsilon: get_f64(v, "epsilon", 0.0).map_err(&fail)?,
                tolerance: get_u32(v, "tolerance", 0).map_err(&fail)?,
            }
        }
        "reliability" => JobSpec::Reliability {
            graph: require_graph(v).map_err(&fail)?,
            worlds: get_u64(v, "worlds", 500).map_err(&fail)? as usize,
            pairs: get_u64(v, "pairs", 2000).map_err(&fail)? as usize,
            threads: get_u64(v, "threads", 0).map_err(&fail)? as usize,
            seed: get_u64(v, "seed", 42).map_err(&fail)?,
        },
        other => {
            return Err(fail(format!(
                "unknown op {other:?} (obfuscate|check|reliability|batch|status|shutdown)"
            )))
        }
    };
    Ok(JobRequest {
        spec,
        id,
        timeout_ms,
        chunk_bytes,
    })
}

/// Renders a success response. `result` must already be a rendered JSON
/// object (the cacheable replay unit); the envelope field order is fixed.
pub fn ok_response(id: Option<&str>, cached: bool, result: &str) -> String {
    let mut out = String::with_capacity(result.len() + 64);
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        out.push_str(&json::string(id));
        out.push(',');
    }
    out.push_str("\"status\":\"ok\",\"cached\":");
    out.push_str(if cached { "true" } else { "false" });
    out.push_str(",\"result\":");
    out.push_str(result);
    out.push('}');
    out
}

/// Renders an error response; `retry_after_ms` marks retryable
/// backpressure rejections.
pub fn error_response(id: Option<&str>, error: &str, retry_after_ms: Option<u64>) -> String {
    render_error(id, None, error, retry_after_ms)
}

/// Machine-readable error categories carried in the optional `"code"`
/// response field. Clients branch on the code (retry policy, tests)
/// instead of string-matching the human-readable message; the presence
/// of `retry_after_ms` — not the code — is the retryability signal.
pub mod codes {
    /// Unparsable or semantically invalid request line.
    pub(crate) const BAD_REQUEST: &str = "bad_request";
    /// Request line exceeded the configured byte limit.
    pub(crate) const REQUEST_TOO_LARGE: &str = "request_too_large";
    /// A started request line stalled past the read deadline.
    pub(crate) const READ_TIMEOUT: &str = "read_timeout";
    /// Connection refused: too many open connections.
    pub(crate) const SERVER_BUSY: &str = "server_busy";
    /// Bounded queue at capacity (retryable).
    pub(crate) const QUEUE_FULL: &str = "queue_full";
    /// Daemon is draining for shutdown.
    pub(crate) const SHUTTING_DOWN: &str = "shutting_down";
    /// The job exceeded its wall-clock budget.
    pub(crate) const TIMEOUT: &str = "timeout";
    /// The job's cancel token was tripped explicitly (retryable — this is
    /// the injected-fault path, not a deadline).
    pub(crate) const CANCELLED: &str = "cancelled";
    /// The worker panicked while running the job (retryable; the panic
    /// was isolated and the worker survived).
    pub(crate) const JOB_PANICKED: &str = "job_panicked";
    /// The job ran and failed (bad input, pipeline failure).
    pub(crate) const JOB_FAILED: &str = "job_failed";
    /// A batch carried more elements than the server's `--max-batch`.
    pub(crate) const BATCH_TOO_LARGE: &str = "batch_too_large";
    /// Gateway-synthesized: every backend in the ring is dead or
    /// unreachable (retryable — backends may recover).
    pub(crate) const NO_BACKEND: &str = "no_backend";
}

/// Splits a finished response line into `chunk` frames of at most
/// `chunk_bytes` payload bytes each, or returns `None` when the line fits
/// in one frame's worth (no chunking needed). Frames split only at UTF-8
/// character boundaries; concatenating the `data` fields of all frames
/// reproduces `line` byte-for-byte.
pub fn chunk_frames(id: Option<&str>, line: &str, chunk_bytes: usize) -> Option<Vec<String>> {
    let chunk_bytes = chunk_bytes.max(CHUNK_FLOOR);
    if line.len() <= chunk_bytes {
        return None;
    }
    let mut pieces: Vec<&str> = Vec::with_capacity(line.len() / chunk_bytes + 2);
    let mut rest = line;
    while rest.len() > chunk_bytes {
        let mut cut = chunk_bytes;
        while !rest.is_char_boundary(cut) {
            cut -= 1;
        }
        let (head, tail) = rest.split_at(cut);
        pieces.push(head);
        rest = tail;
    }
    if !rest.is_empty() {
        pieces.push(rest);
    }
    let last = pieces.len() - 1;
    Some(
        pieces
            .iter()
            .enumerate()
            .map(|(seq, data)| {
                let mut out = String::with_capacity(data.len() + 80);
                out.push('{');
                if let Some(id) = id {
                    out.push_str("\"id\":");
                    out.push_str(&json::string(id));
                    out.push(',');
                }
                out.push_str("\"status\":\"chunk\",\"seq\":");
                out.push_str(&seq.to_string());
                out.push_str(",\"last\":");
                out.push_str(if seq == last { "true" } else { "false" });
                out.push_str(",\"data\":");
                out.push_str(&json::string(data));
                out.push('}');
                out
            })
            .collect(),
    )
}

/// Renders an error response tagged with a machine-readable `code` (see
/// [`codes`]). Field order: `id?`, `status`, `code`, `error`,
/// `retry_after_ms?`.
pub(crate) fn coded_error_response(
    id: Option<&str>,
    code: &str,
    error: &str,
    retry_after_ms: Option<u64>,
) -> String {
    render_error(id, Some(code), error, retry_after_ms)
}

fn render_error(
    id: Option<&str>,
    code: Option<&str>,
    error: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut out = String::with_capacity(error.len() + 96);
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        out.push_str(&json::string(id));
        out.push(',');
    }
    out.push_str("\"status\":\"error\",");
    if let Some(code) = code {
        out.push_str("\"code\":");
        out.push_str(&json::string(code));
        out.push(',');
    }
    out.push_str("\"error\":");
    out.push_str(&json::string(error));
    if let Some(ms) = retry_after_ms {
        out.push_str(",\"retry_after_ms\":");
        out.push_str(&ms.to_string());
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_obfuscate_with_defaults() {
        let line = r#"{"op":"obfuscate","id":"j1","graph":"0 1 0.5\n","k":4}"#;
        match parse_request(line).unwrap() {
            Request::Job(JobRequest {
                spec:
                    JobSpec::Obfuscate {
                        k,
                        epsilon,
                        worlds,
                        trials,
                        threads,
                        seed,
                        ..
                    },
                id,
                timeout_ms,
                chunk_bytes,
            }) => {
                assert_eq!(id.as_deref(), Some("j1"));
                assert_eq!(timeout_ms, None);
                assert_eq!(chunk_bytes, 0);
                assert_eq!((k, worlds, trials, threads, seed), (4, 500, 5, 0, 42));
                assert!((epsilon - 0.01).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn defaults_share_a_cache_key_with_explicit_values() {
        let implicit = r#"{"op":"obfuscate","graph":"0 1 0.5\n","k":4}"#;
        let explicit = r#"{"op":"obfuscate","graph":"0 1 0.5\n","k":4,"epsilon":0.01,"method":"RSME","worlds":500,"trials":5,"seed":42,"threads":3}"#;
        let key = |line: &str| match parse_request(line).unwrap() {
            Request::Job(job) => job.spec.cache_key(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(key(implicit), key(explicit));
        // Streamed analysis is bit-identical to dense, so strip_worlds is
        // excluded from the cache key just like threads.
        let streamed = r#"{"op":"obfuscate","graph":"0 1 0.5\n","k":4,"strip_worlds":128}"#;
        assert_eq!(key(implicit), key(streamed));
    }

    #[test]
    fn batch_elements_parse_with_derived_ids_and_default_chunking() {
        let line = r#"{"op":"batch","id":"b","chunk_bytes":4096,"requests":[{"op":"check","graph":"0 1 0.5\n","k":2},{"op":"check","id":"own","graph":"0 1 0.5\n","k":2,"chunk_bytes":9000},{"op":"status"},{"op":"check","k":2}]}"#;
        match parse_request(line).unwrap() {
            Request::Batch { id, items } => {
                assert_eq!(id.as_deref(), Some("b"));
                assert_eq!(items.len(), 4);
                let first = items[0].as_ref().unwrap();
                assert_eq!(first.id.as_deref(), Some("b#0"));
                assert_eq!(first.chunk_bytes, 4096);
                let second = items[1].as_ref().unwrap();
                assert_eq!(second.id.as_deref(), Some("own"));
                assert_eq!(second.chunk_bytes, 9000);
                let (bad_id, bad_msg) = items[2].as_ref().err().unwrap();
                assert_eq!(bad_id.as_deref(), Some("b#2"));
                assert!(bad_msg.contains("not allowed inside a batch"));
                let (miss_id, miss_msg) = items[3].as_ref().err().unwrap();
                assert_eq!(miss_id.as_deref(), Some("b#3"));
                assert!(miss_msg.contains("graph"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_envelope_errors_are_whole_line_failures() {
        assert!(parse_request(r#"{"op":"batch"}"#).is_err());
        assert!(parse_request(r#"{"op":"batch","requests":[]}"#).is_err());
        assert!(parse_request(r#"{"op":"batch","requests":7}"#).is_err());
    }

    #[test]
    fn chunk_frames_reassemble_byte_for_byte() {
        let line = format!(
            "{{\"status\":\"ok\",\"cached\":false,\"result\":{{\"pad\":\"{}\"}}}}",
            "é".repeat(2000)
        );
        assert!(chunk_frames(Some("c"), &line, usize::MAX).is_none());
        let frames = chunk_frames(Some("c"), &line, 700).unwrap();
        assert!(frames.len() > 1);
        let mut rebuilt = String::new();
        for (i, frame) in frames.iter().enumerate() {
            let v = Json::parse(frame).unwrap();
            assert_eq!(v.get("id").and_then(Json::as_str), Some("c"));
            assert_eq!(v.get("status").and_then(Json::as_str), Some("chunk"));
            assert_eq!(v.get("seq").and_then(Json::as_u64), Some(i as u64));
            let last = frame.contains("\"last\":true");
            assert_eq!(last, i == frames.len() - 1);
            rebuilt.push_str(v.get("data").and_then(Json::as_str).unwrap());
        }
        assert_eq!(rebuilt, line);
        // The floor protects against degenerate frame sizes.
        let floored = chunk_frames(None, &line, 1).unwrap();
        assert!(floored.len() <= line.len() / CHUNK_FLOOR + 1);
    }

    #[test]
    fn missing_required_fields_are_reported_with_id() {
        let (id, msg) = parse_request(r#"{"op":"obfuscate","id":"x","graph":"0 1 0.5\n"}"#)
            .err()
            .unwrap();
        assert_eq!(id.as_deref(), Some("x"));
        assert!(msg.contains("\"k\""));
        let (_, msg) = parse_request(r#"{"op":"check","k":2}"#).err().unwrap();
        assert!(msg.contains("graph"));
    }

    #[test]
    fn check_tolerance_above_u32_is_rejected() {
        // A wrapping cast would read 2^32 as 0 and silently turn the fuzzy
        // check into an exact one.
        let line = |tol: u64| {
            format!(r#"{{"op":"check","id":"t","graph":"0 1 0.5\n","k":2,"tolerance":{tol}}}"#)
        };
        let (id, msg) = parse_request(&line(1 << 32)).err().unwrap();
        assert_eq!(id.as_deref(), Some("t"));
        assert!(msg.contains("\"tolerance\""), "{msg}");
        assert!(matches!(
            parse_request(&line(u64::from(u32::MAX))).unwrap(),
            Request::Job(JobRequest {
                spec: JobSpec::Check {
                    tolerance: u32::MAX,
                    ..
                },
                ..
            })
        ));
    }

    #[test]
    fn unknown_op_and_bad_json_are_errors() {
        assert!(parse_request(r#"{"op":"fry"}"#).is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"graph":"0 1 0.5\n"}"#).is_err());
    }

    #[test]
    fn status_and_shutdown_parse() {
        assert!(matches!(
            parse_request(r#"{"op":"status"}"#).unwrap(),
            Request::Status { id: None }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown","id":"bye"}"#).unwrap(),
            Request::Shutdown { id: Some(_) }
        ));
    }

    #[test]
    fn responses_have_fixed_shape() {
        assert_eq!(
            ok_response(Some("a"), true, "{\"x\":1}"),
            r#"{"id":"a","status":"ok","cached":true,"result":{"x":1}}"#
        );
        assert_eq!(
            ok_response(None, false, "{}"),
            r#"{"status":"ok","cached":false,"result":{}}"#
        );
        assert_eq!(
            error_response(Some("a"), "queue full", Some(250)),
            r#"{"id":"a","status":"error","error":"queue full","retry_after_ms":250}"#
        );
        // Escaping goes through the shared encoder.
        assert_eq!(
            error_response(None, "bad \"k\"\n", None),
            "{\"status\":\"error\",\"error\":\"bad \\\"k\\\"\\n\"}"
        );
    }

    #[test]
    fn coded_errors_carry_the_code_field() {
        assert_eq!(
            coded_error_response(Some("a"), codes::QUEUE_FULL, "queue full", Some(250)),
            r#"{"id":"a","status":"error","code":"queue_full","error":"queue full","retry_after_ms":250}"#
        );
        assert_eq!(
            coded_error_response(None, codes::JOB_PANICKED, "boom", None),
            r#"{"status":"error","code":"job_panicked","error":"boom"}"#
        );
    }
}
