//! End-to-end tests against a live `chameleond` on loopback: determinism
//! (daemon vs. direct library call, cold vs. cache hit, threads 1 vs. 2),
//! backpressure, per-job timeouts, graceful shutdown with a final metrics
//! snapshot, and the hardening paths — panic isolation, request-size
//! limits, read deadlines, and shutdown with stalled clients attached.
//! The connection-level hardening tests run against both front ends: the
//! daemon itself and a gateway fronting one.

mod common;

use chameleon_core::{CancelToken, Chameleon, ChameleonConfig, Method};
use chameleon_obs::json::Json;
use chameleon_server::{request_once, FaultPlan, Server, ServerConfig, ServerHandle};
use chameleon_ugraph::builder::DedupPolicy;
use chameleon_ugraph::io;
use common::FRONTS;
use std::io::{BufRead, BufReader, Write};

fn graph_text(nodes: usize, seed: u64) -> String {
    let g = chameleon_datasets::dblp_like(nodes, seed);
    let mut buf = Vec::new();
    io::write_text(&g, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

fn start(config: ServerConfig) -> (ServerHandle, String) {
    let handle = Server::spawn(config).unwrap();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn parsed(line: &str) -> Json {
    Json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key)
        .unwrap_or_else(|| panic!("response missing {key:?}: {v:?}"))
}

/// Renders the `result` object back out; byte-stable because `Json`
/// objects render in sorted key order and numbers round-trip exactly.
fn result_bytes(line: &str) -> String {
    field(&parsed(line), "result").render()
}

fn shutdown(addr: &str, handle: ServerHandle) -> chameleon_server::ServerReport {
    let resp = request_once(addr, r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(field(&parsed(&resp), "status").as_str(), Some("ok"));
    handle.join().unwrap()
}

/// [`shutdown`] for a front end from the two-front harness; returns the
/// daemon's report.
fn shutdown_front(front: common::Running) -> chameleon_server::ServerReport {
    let (resp, report) = front.shutdown();
    assert_eq!(field(&parsed(&resp), "status").as_str(), Some("ok"));
    report
}

#[test]
fn daemon_matches_direct_call_cold_and_cached_across_thread_counts() {
    let graph = graph_text(60, 11);
    let (handle, addr) = start(ServerConfig::default());

    let submit = |threads: usize| {
        let req = format!(
            "{{\"op\":\"obfuscate\",\"graph\":{},\"k\":2,\"epsilon\":0.2,\
             \"method\":\"ME\",\"worlds\":60,\"trials\":1,\"seed\":5,\"threads\":{threads}}}",
            chameleon_obs::json::string(&graph),
        );
        request_once(&addr, &req).unwrap()
    };

    let cold = submit(1);
    let cold_v = parsed(&cold);
    assert_eq!(field(&cold_v, "status").as_str(), Some("ok"));
    assert_eq!(field(&cold_v, "cached").as_bool(), Some(false));

    // Same request again: a cache hit replaying the identical result.
    let hit = submit(1);
    assert_eq!(field(&parsed(&hit), "cached").as_bool(), Some(true));
    assert_eq!(result_bytes(&cold), result_bytes(&hit));

    // threads=2 hits the same entry (threads excluded from the key) —
    // legal because results are thread-count invariant.
    let two = submit(2);
    assert_eq!(field(&parsed(&two), "cached").as_bool(), Some(true));
    assert_eq!(result_bytes(&cold), result_bytes(&two));

    // The daemon's answer matches a direct library call, field by field
    // and graph byte by byte.
    let g = io::read_text(graph.as_bytes(), DedupPolicy::KeepFirst).unwrap();
    let config = ChameleonConfig {
        k: 2,
        epsilon: 0.2,
        num_world_samples: 60,
        trials: 1,
        num_threads: 1,
        ..ChameleonConfig::default()
    };
    let direct = Chameleon::new(config)
        .anonymize_cancellable(&g, Method::Me, 5, &CancelToken::new())
        .unwrap();
    let result = field(&cold_v, "result");
    assert_eq!(field(result, "sigma").as_f64(), Some(direct.sigma));
    assert_eq!(field(result, "eps_hat").as_f64(), Some(direct.eps_hat));
    let mut direct_text = Vec::new();
    io::write_text(&direct.graph, &mut direct_text).unwrap();
    assert_eq!(
        field(result, "graph").as_str().unwrap().as_bytes(),
        direct_text.as_slice(),
    );

    shutdown(&addr, handle);
}

#[test]
fn status_and_check_and_reliability_round_trip() {
    let graph = graph_text(40, 3);
    let (handle, addr) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    let status = request_once(&addr, r#"{"op":"status","id":"s1"}"#).unwrap();
    let v = parsed(&status);
    assert_eq!(field(&v, "id").as_str(), Some("s1"));
    let result = field(&v, "result");
    assert_eq!(field(result, "workers").as_u64(), Some(2));
    assert_eq!(field(result, "shutting_down").as_bool(), Some(false));
    assert!(result.get("cache").is_some());

    let check = request_once(
        &addr,
        &format!(
            "{{\"op\":\"check\",\"graph\":{},\"k\":2}}",
            chameleon_obs::json::string(&graph)
        ),
    )
    .unwrap();
    let v = parsed(&check);
    assert_eq!(field(&v, "status").as_str(), Some("ok"));
    assert!(field(field(&v, "result"), "eps_hat").as_f64().is_some());

    let rel_req = format!(
        "{{\"op\":\"reliability\",\"graph\":{},\"worlds\":80,\"pairs\":20,\"seed\":9}}",
        chameleon_obs::json::string(&graph)
    );
    let rel_a = request_once(&addr, &rel_req).unwrap();
    let rel_b = request_once(&addr, &rel_req).unwrap();
    assert_eq!(field(&parsed(&rel_b), "cached").as_bool(), Some(true));
    assert_eq!(result_bytes(&rel_a), result_bytes(&rel_b));

    shutdown(&addr, handle);
}

#[test]
fn bad_requests_get_structured_errors_and_do_not_kill_the_server() {
    let (handle, addr) = start(ServerConfig::default());

    let cases = [
        "not json at all",
        r#"{"op":"fry"}"#,
        r#"{"op":"obfuscate","graph":"0 1 0.5\n"}"#,
        r#"{"op":"check","graph":"0 1 not-a-prob\n","k":2}"#,
    ];
    for case in cases {
        let resp = request_once(&addr, case).unwrap();
        let v = parsed(&resp);
        assert_eq!(field(&v, "status").as_str(), Some("error"), "case {case:?}");
        assert!(field(&v, "error").as_str().is_some());
    }

    // Still serving after all that abuse.
    let status = request_once(&addr, r#"{"op":"status"}"#).unwrap();
    assert_eq!(field(&parsed(&status), "status").as_str(), Some("ok"));

    // Only the unparsable-graph case reached a worker; the others were
    // rejected at the protocol layer before queueing.
    let report = shutdown(&addr, handle);
    assert_eq!(report.jobs_failed, 1);
}

#[test]
fn full_queue_rejects_with_retry_after() {
    // One worker, queue of one: occupy the worker, fill the queue, and the
    // third submission must bounce with retry_after_ms.
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0,
        ..ServerConfig::default()
    });
    // RSME at this size runs for hundreds of milliseconds in release (the
    // ensemble sampling and ERR scans dominate) — far longer than the
    // submission stagger below, so the worker is still busy with job 1
    // when jobs 2 and 3 arrive.
    let graph = graph_text(400, 7);
    let slow = |seed: u64| {
        format!(
            "{{\"op\":\"obfuscate\",\"graph\":{},\"k\":40,\"epsilon\":0.05,\
             \"method\":\"RSME\",\"worlds\":3000,\"trials\":2,\"seed\":{seed},\"threads\":1}}",
            chameleon_obs::json::string(&graph),
        )
    };

    let submits: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            let req = slow(100 + i);
            // Stagger so the first request owns the worker and the second
            // the queue slot before the third arrives.
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30 * i));
                request_once(&addr, &req).unwrap()
            })
        })
        .collect();
    let responses: Vec<String> = submits.into_iter().map(|t| t.join().unwrap()).collect();

    let rejected: Vec<&String> = responses
        .iter()
        .filter(|r| field(&parsed(r), "status").as_str() == Some("error"))
        .collect();
    assert_eq!(rejected.len(), 1, "exactly one rejection in {responses:?}");
    let v = parsed(rejected[0]);
    assert!(field(&v, "error").as_str().unwrap().contains("queue full"));
    assert!(field(&v, "retry_after_ms").as_u64().unwrap() > 0);

    let report = shutdown(&addr, handle);
    assert_eq!(report.jobs_completed, 2);
    assert_eq!(report.jobs_rejected, 1);
}

#[test]
fn timed_out_job_is_cancelled_and_the_worker_survives() {
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let graph = graph_text(120, 13);

    // A deadline far below the job's runtime: the cooperative token fires
    // at a σ-probe boundary and the job reports a timeout.
    let doomed = format!(
        "{{\"op\":\"obfuscate\",\"id\":\"doomed\",\"timeout_ms\":1,\"graph\":{},\
         \"k\":3,\"epsilon\":0.05,\"method\":\"RSME\",\"worlds\":500,\"trials\":3,\
         \"seed\":21,\"threads\":1}}",
        chameleon_obs::json::string(&graph),
    );
    let resp = request_once(&addr, &doomed).unwrap();
    let v = parsed(&resp);
    assert_eq!(field(&v, "id").as_str(), Some("doomed"));
    assert_eq!(field(&v, "status").as_str(), Some("error"));
    assert!(field(&v, "error").as_str().unwrap().contains("timeout"));

    // The sole worker is alive and takes the next job.
    let quick = format!(
        "{{\"op\":\"check\",\"graph\":{},\"k\":2}}",
        chameleon_obs::json::string(&graph)
    );
    let resp = request_once(&addr, &quick).unwrap();
    assert_eq!(field(&parsed(&resp), "status").as_str(), Some("ok"));

    let report = shutdown(&addr, handle);
    assert_eq!(report.jobs_timed_out, 1);
    assert_eq!(report.jobs_completed, 1);
}

#[test]
fn graceful_shutdown_drains_and_writes_the_metrics_snapshot() {
    let dir = std::env::temp_dir().join(format!(
        "chameleond-test-{}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len(),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join("metrics.json");
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        metrics_path: Some(metrics_path.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    });
    let graph = graph_text(80, 17);

    // Put a real job in flight, then immediately request shutdown from a
    // second connection: the job must complete, not be dropped.
    let job = format!(
        "{{\"op\":\"obfuscate\",\"graph\":{},\"k\":2,\"epsilon\":0.2,\"method\":\"ME\",\
         \"worlds\":200,\"trials\":1,\"seed\":33,\"threads\":0}}",
        chameleon_obs::json::string(&graph),
    );
    let worker_conn = {
        let addr = addr.clone();
        std::thread::spawn(move || request_once(&addr, &job).unwrap())
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    let report = shutdown(&addr, handle);

    let job_resp = worker_conn.join().unwrap();
    assert_eq!(field(&parsed(&job_resp), "status").as_str(), Some("ok"));
    assert_eq!(report.jobs_completed, 1);

    // New connections are refused (listener closed) or reset.
    assert!(request_once(&addr, r#"{"op":"status"}"#).is_err());

    // The final snapshot exists and is valid deterministic JSON.
    let snapshot = std::fs::read_to_string(&metrics_path).unwrap();
    let v = Json::parse(&snapshot).unwrap();
    if chameleon_obs::is_enabled() {
        assert!(
            v.get("counters").is_some(),
            "expected counters in {snapshot}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn submissions_during_shutdown_are_rejected() {
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // Trigger shutdown and, while the accept loop may still be mid-poll,
    // push a job down a pre-existing connection.
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    let resp = request_once(&addr, r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(field(&parsed(&resp), "status").as_str(), Some("ok"));
    let late = chameleon_server::roundtrip(
        &mut conn,
        r#"{"op":"check","graph":"nodes 2\n0 1 0.5\n","k":1}"#,
    );
    // Either the connection already died with the server, or the request
    // got a structured shutting-down rejection.
    if let Ok(line) = late {
        let v = parsed(&line);
        assert_eq!(field(&v, "status").as_str(), Some("error"));
        assert!(field(&v, "error")
            .as_str()
            .unwrap()
            .contains("shutting down"));
    }
    handle.join().unwrap();
}

const TINY_GRAPH: &str = "nodes 4\\n0 1 0.9\\n1 2 0.8\\n2 3 0.7\\n0 3 0.6\\n";

fn tiny_check(id: &str) -> String {
    format!("{{\"op\":\"check\",\"id\":\"{id}\",\"graph\":\"{TINY_GRAPH}\",\"k\":1}}")
}

#[test]
fn panicking_job_is_isolated_and_the_same_worker_serves_the_next_job() {
    // One worker, deterministic schedule: the very first execution
    // panics, everything after runs clean. The regression this pins: a
    // worker panic used to poison the queue/cache mutexes and take the
    // daemon down for good.
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        cache_capacity: 0,
        faults: Some(FaultPlan::new(7).with_panics(1.0, 1)),
        ..ServerConfig::default()
    });

    let resp = request_once(&addr, &tiny_check("boom")).unwrap();
    let v = parsed(&resp);
    assert_eq!(field(&v, "id").as_str(), Some("boom"));
    assert_eq!(field(&v, "status").as_str(), Some("error"));
    assert_eq!(field(&v, "code").as_str(), Some("job_panicked"));
    assert!(field(&v, "error").as_str().unwrap().contains("panicked"));
    // Panics are transient by nature; the server marks them retryable.
    assert!(field(&v, "retry_after_ms").as_u64().unwrap() > 0);

    // The SAME worker (there is only one) now serves a normal job.
    let resp = request_once(&addr, &tiny_check("after")).unwrap();
    let v = parsed(&resp);
    assert_eq!(field(&v, "status").as_str(), Some("ok"));

    let report = shutdown(&addr, handle);
    assert_eq!(report.jobs_panicked, 1);
    assert_eq!(report.jobs_completed, 1);
}

#[test]
fn injected_cancel_is_retryable_and_distinct_from_a_timeout() {
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        cache_capacity: 0,
        faults: Some(FaultPlan::new(3).with_cancels(1.0, 1)),
        ..ServerConfig::default()
    });

    let resp = request_once(&addr, &tiny_check("trip")).unwrap();
    let v = parsed(&resp);
    assert_eq!(field(&v, "status").as_str(), Some("error"));
    // An explicit cancel-token trip, not a deadline: code "cancelled"
    // with a retry hint, where a real timeout answers "timeout" without.
    assert_eq!(field(&v, "code").as_str(), Some("cancelled"));
    assert!(field(&v, "retry_after_ms").as_u64().unwrap() > 0);

    let resp = request_once(&addr, &tiny_check("ok")).unwrap();
    assert_eq!(field(&parsed(&resp), "status").as_str(), Some("ok"));

    let report = shutdown(&addr, handle);
    assert_eq!(report.jobs_cancelled, 1);
    assert_eq!(report.jobs_timed_out, 0);
    assert_eq!(report.jobs_completed, 1);
}

#[test]
fn oversized_request_line_gets_a_structured_error_and_the_connection_closes() {
    for front in FRONTS {
        let front = front.start(ServerConfig {
            max_request_bytes: 1024,
            ..ServerConfig::default()
        });
        let addr = front.addr.clone();

        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        // 4 KiB against a 1 KiB cap; the reader must refuse without waiting
        // for the newline (none is ever sent on the abusive path).
        let huge = format!("{{\"op\":\"check\",\"graph\":\"{}\"", "x".repeat(4096));
        conn.write_all(huge.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = parsed(line.trim_end());
        assert_eq!(field(&v, "status").as_str(), Some("error"));
        assert_eq!(field(&v, "code").as_str(), Some("request_too_large"));
        assert!(field(&v, "error").as_str().unwrap().contains("1024"));
        // The stream cannot be resynced mid-line, so the server closes it.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

        // The daemon itself is unaffected.
        let status = request_once(&addr, r#"{"op":"status"}"#).unwrap();
        assert_eq!(field(&parsed(&status), "status").as_str(), Some("ok"));
        shutdown_front(front);
    }
}

#[test]
fn slowloris_client_gets_a_read_timeout_error() {
    for front in FRONTS {
        let front = front.start(ServerConfig {
            read_timeout_ms: 150,
            ..ServerConfig::default()
        });
        let addr = front.addr.clone();

        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        // Start a line, then stall: the per-line deadline (armed at the first
        // byte) must fire and answer a structured read_timeout error.
        conn.write_all(b"{\"op\":\"st").unwrap();
        conn.flush().unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = parsed(line.trim_end());
        assert_eq!(field(&v, "status").as_str(), Some("error"));
        assert_eq!(field(&v, "code").as_str(), Some("read_timeout"));
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

        let status = request_once(&addr, r#"{"op":"status"}"#).unwrap();
        assert_eq!(field(&parsed(&status), "status").as_str(), Some("ok"));
        shutdown_front(front);
    }
}

#[test]
fn graceful_shutdown_completes_with_a_stalled_client_attached() {
    for front in FRONTS {
        let front = front.start(ServerConfig {
            workers: 1,
            // No read deadline at all: only the shutdown poll can free the
            // connection thread from the half-sent line.
            read_timeout_ms: 0,
            ..ServerConfig::default()
        });
        let addr = front.addr.clone();

        // A client that starts a request line and then goes silent forever.
        let mut stalled = std::net::TcpStream::connect(&addr).unwrap();
        stalled.write_all(b"{\"op\":\"status\"").unwrap();
        stalled.flush().unwrap();
        // And one that is connected but fully idle.
        let _idle = std::net::TcpStream::connect(&addr).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));

        let begun = std::time::Instant::now();
        let report = shutdown_front(front);
        // The drain must not wait on the stalled/idle clients: connection
        // threads poll the shutdown flag and unwind within the bounded wait.
        assert!(
            begun.elapsed() < std::time::Duration::from_secs(5),
            "shutdown took {:?} with stalled clients attached",
            begun.elapsed()
        );
        assert_eq!(report.jobs_completed, 0);
    }
}

#[test]
fn connection_limit_rejects_excess_clients_with_server_busy() {
    for front in FRONTS {
        let front = front.start(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let addr = front.addr.clone();

        // Occupy the single slot with a connection the server has accepted
        // (prove it by round-tripping a request on it).
        let mut first = std::net::TcpStream::connect(&addr).unwrap();
        let resp = chameleon_server::roundtrip(&mut first, r#"{"op":"status"}"#).unwrap();
        assert_eq!(field(&parsed(&resp), "status").as_str(), Some("ok"));

        // The next client is turned away at the door with a structured,
        // retryable server_busy line.
        let second = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(second);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = parsed(line.trim_end());
        assert_eq!(field(&v, "code").as_str(), Some("server_busy"));
        assert!(field(&v, "retry_after_ms").as_u64().unwrap() > 0);
        drop(reader);

        // Releasing the slot lets new clients in again.
        drop(first);
        std::thread::sleep(std::time::Duration::from_millis(100));
        let status = request_once(&addr, r#"{"op":"status"}"#).unwrap();
        assert_eq!(field(&parsed(&status), "status").as_str(), Some("ok"));
        shutdown_front(front);
    }
}
