//! End-to-end failover tests for chameleon-gate (DESIGN.md §13): a
//! gateway fronting three real `chameleond` processes must keep cache
//! affinity per graph, and when the backend owning an in-flight GenObf
//! job is SIGKILLed, the gateway must re-drive the job to the ring
//! successor and answer with bytes identical to an uninterrupted local
//! run — the placement-invariance half of the determinism contract.

use chameleon_core::CancelToken;
use chameleon_obs::json::Json;
use chameleon_server::{
    fnv1a64, parse_request, request_once, Gateway, GatewayConfig, GatewayHandle, HashRing, Request,
    RetryPolicy, RING_REPLICAS,
};
use chameleon_ugraph::io;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn graph_text(nodes: usize, seed: u64) -> String {
    let g = chameleon_datasets::dblp_like(nodes, seed);
    let mut buf = Vec::new();
    io::write_text(&g, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

fn obfuscate_request(graph: &str, worlds: usize, trials: usize, seed: u64) -> String {
    format!(
        "{{\"op\":\"obfuscate\",\"graph\":{},\"k\":2,\"epsilon\":0.2,\
         \"method\":\"ME\",\"worlds\":{worlds},\"trials\":{trials},\"seed\":{seed},\
         \"threads\":1}}",
        chameleon_obs::json::string(graph),
    )
}

fn parsed(line: &str) -> Json {
    Json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key)
        .unwrap_or_else(|| panic!("response missing {key:?}: {v:?}"))
}

fn status(addr: &str) -> Json {
    let line = request_once(addr, r#"{"op":"status"}"#).unwrap();
    field(&parsed(&line), "result").clone()
}

/// The response `result` bytes the library produces for the same request,
/// computed in-process: the failover contract is byte-identity with an
/// uninterrupted run, and an uninterrupted run matches the direct call.
fn reference_result(request: &str) -> String {
    let Ok(Request::Job(job)) = parse_request(request) else {
        panic!("reference request must parse as a job");
    };
    let raw = job.spec.execute(&CancelToken::new()).unwrap();
    parsed(&raw).render()
}

struct Backend {
    child: Child,
    addr: String,
    /// Held open so the daemon's stderr never blocks on a full pipe.
    _stderr: BufReader<std::process::ChildStderr>,
}

fn spawn_backend() -> Backend {
    let mut child = Command::new(env!("CARGO_BIN_EXE_chameleond"))
        .args(["--port", "0", "--workers", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn chameleond");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("chameleond listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .to_string();
    Backend {
        child,
        addr,
        _stderr: stderr,
    }
}

fn spawn_fleet(n: usize, retry: RetryPolicy) -> (Vec<Backend>, Vec<String>, GatewayHandle) {
    let backends: Vec<Backend> = (0..n).map(|_| spawn_backend()).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let gate = Gateway::spawn(GatewayConfig {
        backends: addrs.clone(),
        retry,
        // The kill tests rely on the forwarder path discovering death
        // (marking dead + re-driving); a probe thread would only race it.
        health_interval_ms: 0,
        ..GatewayConfig::default()
    })
    .expect("spawn chameleon-gate");
    (backends, addrs, gate)
}

fn shutdown_fleet(backends: Vec<Backend>, gate_addr: &str, gate: GatewayHandle) {
    let _ = request_once(gate_addr, r#"{"op":"shutdown"}"#);
    let _ = gate.join();
    for mut b in backends {
        let _ = request_once(&b.addr, r#"{"op":"shutdown"}"#);
        let _ = b.child.wait();
    }
}

fn wait_until(deadline: Duration, what: &str, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One attempt of the kill/re-drive cycle. Returns `None` when the job
/// finished before the SIGKILL landed (nothing was re-driven), so the
/// caller can escalate to a slower workload instead of flaking.
fn try_failover(nodes: usize, worlds: usize, trials: usize, seed: u64) -> Option<()> {
    let (mut backends, addrs, gate) = spawn_fleet(
        3,
        RetryPolicy {
            io_retries: 2,
            base_delay_ms: 10,
            max_delay_ms: 50,
            ..RetryPolicy::default()
        },
    );
    let gate_addr = gate.addr().to_string();

    let graph = graph_text(nodes, seed);
    let request = obfuscate_request(&graph, worlds, trials, seed);
    // The gateway routes by graph digest; replaying its ring construction
    // tells us which backend to assassinate.
    let ring = HashRing::new(&addrs, RING_REPLICAS);
    let owner = ring.owner(fnv1a64(graph.as_bytes())).unwrap();

    // Fire the slow job through the gateway from a background thread: the
    // client connection must survive the backend's death.
    let submit_addr = gate_addr.clone();
    let submit_req = request.clone();
    let submitter = std::thread::spawn(move || request_once(&submit_addr, &submit_req));

    // SIGKILL the owner as soon as its worker reports the job in flight.
    // A job can also start and finish between two polls; the answered
    // submitter ends the wait too, and the re-drive check below escalates.
    wait_until(
        Duration::from_secs(60),
        "the owner to start the job",
        || {
            submitter.is_finished()
                || field(&status(&backends[owner].addr), "in_flight")
                    .as_u64()
                    .unwrap()
                    >= 1
        },
    );
    backends[owner].child.kill().unwrap();
    let _ = backends[owner].child.wait();

    let line = submitter.join().unwrap().expect("gateway answered");
    let st = status(&gate_addr);
    if field(&st, "redriven").as_u64().unwrap() == 0 {
        // The search outran the kill: the owner answered before dying.
        // Clean up and let the caller escalate.
        backends.remove(owner);
        shutdown_fleet(backends, &gate_addr, gate);
        return None;
    }

    // The re-driven response must be a plain success — the client never
    // learns a backend died — with the exact bytes of a local run.
    let v = parsed(&line);
    assert_eq!(field(&v, "status").as_str(), Some("ok"), "response: {line}");
    assert_eq!(field(&v, "result").render(), reference_result(&request));
    let dead = field(&st, "backends")
        .as_array()
        .unwrap()
        .iter()
        .filter(|b| field(b, "alive").as_bool() == Some(false))
        .count();
    assert_eq!(dead, 1, "exactly the killed backend is down: {st:?}");

    // No-failure comparison: the same request again now hits the ring
    // successor's cache and must render the same result bytes.
    let again = parsed(&request_once(&gate_addr, &request).unwrap());
    assert_eq!(field(&again, "cached").as_bool(), Some(true));
    assert_eq!(
        field(&again, "result").render(),
        field(&v, "result").render(),
        "cached successor replay diverged from the re-driven response"
    );

    backends.remove(owner);
    shutdown_fleet(backends, &gate_addr, gate);
    Some(())
}

#[test]
fn sigkill_owner_mid_job_redrives_to_ring_successor_byte_identically() {
    // Escalating workloads: if the search finishes before the SIGKILL
    // lands (fast machine), retry with a slower one instead of flaking.
    for (nodes, worlds, trials) in [(140, 300, 2), (220, 600, 3), (320, 1000, 4)] {
        if try_failover(nodes, worlds, trials, 17).is_some() {
            return;
        }
    }
    panic!("every workload completed before the SIGKILL; cannot exercise failover");
}

#[test]
fn gateway_keeps_cache_affinity_per_graph() {
    let (backends, addrs, gate) = spawn_fleet(3, RetryPolicy::default());
    let gate_addr = gate.addr().to_string();
    let ring = HashRing::new(&addrs, RING_REPLICAS);

    // Small quick jobs on distinct graphs; each must land on (and stay
    // on) the backend its digest owns.
    let mut expected = vec![0u64; addrs.len()];
    for seed in 0..4u64 {
        let graph = graph_text(60, seed);
        let request = format!(
            "{{\"op\":\"check\",\"graph\":{},\"k\":2}}",
            chameleon_obs::json::string(&graph)
        );
        let owner = ring.owner(fnv1a64(graph.as_bytes())).unwrap();
        let cold = parsed(&request_once(&gate_addr, &request).unwrap());
        assert_eq!(field(&cold, "status").as_str(), Some("ok"));
        assert_eq!(field(&cold, "cached").as_bool(), Some(false));
        // The repeat must be a cache hit: same digest, same backend.
        let warm = parsed(&request_once(&gate_addr, &request).unwrap());
        assert_eq!(field(&warm, "cached").as_bool(), Some(true));
        assert_eq!(
            field(&warm, "result").render(),
            field(&cold, "result").render()
        );
        expected[owner] += 2;
    }
    let st = status(&gate_addr);
    let per_backend: Vec<u64> = field(&st, "backends")
        .as_array()
        .unwrap()
        .iter()
        .map(|b| field(b, "forwarded").as_u64().unwrap())
        .collect();
    assert_eq!(
        per_backend, expected,
        "forward counts must match ring ownership: {st:?}"
    );

    shutdown_fleet(backends, &gate_addr, gate);
}

#[test]
fn standalone_binaries_reject_unknown_flags() {
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_chameleond"),
            &["--port", "0", "--bogus", "1"][..],
        ),
        (
            env!("CARGO_BIN_EXE_chameleon_gate"),
            &["--backends", "127.0.0.1:1", "--replicas", "64"][..],
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{bin}: {err}");
    }
}
