//! CI perf-smoke gate: runs the tier-1 Monte-Carlo hot paths at a fixed
//! small size, times them through `chameleon_obs` spans, and fails (exit 1)
//! when any hot path regresses more than `--tolerance` (default 25%)
//! against the committed baseline `ci/perf_baseline.json`.
//!
//! Raw wall-clock is useless as a cross-machine gate, so every measurement
//! is normalized by a calibration score: the time a fixed xorshift
//! arithmetic loop takes on the same host, measured through the same span
//! machinery. The baseline stores `site_seconds / calibration_seconds`
//! ratios — dimensionless work units that transfer across CPU generations
//! far better than seconds do.
//!
//! Usage:
//!   perf_smoke [--out perf-smoke.json] [--baseline ci/perf_baseline.json]
//!              [--tolerance 0.25] [--reps 5] [--write-baseline] [--allow-new]
//!
//! `--write-baseline` re-measures and rewrites the baseline file instead of
//! gating (exit 0); commit the result when the hot paths change on purpose.
//! `--allow-new` lets sites that are missing from the baseline pass (used
//! when gating a branch that adds measurement sites against an older
//! committed baseline).

use chameleon_bench::{Args, ExperimentConfig};
use chameleon_core::AdversaryKnowledge;
use chameleon_core::{
    anonymity_check_threads, edge_reliability_relevance_threads, Chameleon, ChameleonConfig, Method,
};
use chameleon_datasets::DatasetKind;
use chameleon_obs::site::{SpanGuard, SpanSite};
use chameleon_reliability::{sample_distinct_pairs, EnsembleStream, WorldEnsemble};
use chameleon_stats::SeedSequence;
use std::fmt::Write as _;

/// Fixed workload: small enough for a sub-minute CI job, large enough that
/// each site runs well above timer resolution.
const SCALE: usize = 400;
const WORLDS: usize = 300;
const SEED: u64 = 42;

/// Strip size for the streamed-ensemble sites (the `--strip-worlds`
/// default; see DESIGN.md §12).
const STRIP_WORLDS: usize = 64;

/// Hard ceiling on the streamed-analysis tax: analyzing the stored
/// world strips one by one may cost at most this multiple of the in-RAM
/// connectivity analysis on the same pre-sampled worlds.
const STREAMED_OVERHEAD_CEILING: f64 = 1.25;

/// Iterations of the calibration loop (~10–40 ms per rep on 2020s x86).
const CALIBRATION_ITERS: u64 = 1 << 24;

static SPAN_CALIBRATION: SpanSite = SpanSite::new("perf.calibration");
static SPAN_SAMPLING: SpanSite = SpanSite::new("perf.smoke.world_sampling");
static SPAN_ANALYZE: SpanSite = SpanSite::new("perf.smoke.ensemble_analyze");
static SPAN_STREAMED: SpanSite = SpanSite::new("perf.smoke.ensemble_streamed");
static SPAN_ERR: SpanSite = SpanSite::new("perf.smoke.err_coupled");
static SPAN_RELIABILITY: SpanSite = SpanSite::new("perf.smoke.reliability_many");
static SPAN_CHECK: SpanSite = SpanSite::new("perf.smoke.anonymity_check");
static SPAN_DISPATCH: SpanSite = SpanSite::new("perf.smoke.server_dispatch");
static SPAN_PIPELINED: SpanSite = SpanSite::new("perf.smoke.server_pipelined_dispatch");
static SPAN_BATCH: SpanSite = SpanSite::new("perf.smoke.server_batch_submit");
static SPAN_JOURNALED: SpanSite = SpanSite::new("perf.smoke.server_journaled_dispatch");
static SPAN_GATEWAY: SpanSite = SpanSite::new("perf.smoke.gateway_dispatch");
static SPAN_E2E: SpanSite = SpanSite::new("perf.smoke.anonymize_e2e");
static SPAN_E2E_INC: SpanSite = SpanSite::new("perf.smoke.anonymize_e2e_incremental");

/// Node pairs for the `reliability_many` site: enough that several
/// `PAIR_BLOCK` windows stream the label matrix.
const RELIABILITY_PAIRS: usize = 3000;

/// Round-trips per dispatch rep; enough that a rep runs well above timer
/// resolution while staying loopback-bound, not compute-bound.
const DISPATCH_ROUNDTRIPS: usize = 200;

/// Hard floor on the batch protocol's amortization: one batch line must
/// cost at least this many times fewer µs/job than lockstep dispatch.
const BATCH_SPEEDUP_FLOOR: f64 = 5.0;

/// Hard ceiling on the durable-jobs tax: lockstep dispatch against a
/// journaled daemon (two appended records per job, interval fsync) may
/// cost at most this multiple of the un-journaled lockstep cost.
const JOURNAL_OVERHEAD_CEILING: f64 = 1.25;

/// Hard ceiling on the gateway tier's tax (DESIGN.md §13): the pipelined
/// cached burst through chameleon-gate — digest routing, a forward-queue
/// hand-off, a pooled backend round-trip and a verbatim relay per job —
/// may cost at most this multiple of ONE direct lockstep round-trip per
/// job (the `server_dispatch` site). Serial lockstep through a proxy has
/// a ≥2x physical floor (a second full loopback hop per job), so the
/// gate instead asserts that a pipelining client overlaps the tier's
/// whole tax — second hop included — into at most 30% above dispatching
/// straight to the backend. Losing the forwarder connection pool (a TCP
/// handshake per job) or burst line-extraction regresses this ~4x.
const GATEWAY_OVERHEAD_CEILING: f64 = 1.3;

/// Lockstep dispatch is dominated by loopback round-trip latency, which
/// shared CI runners perturb far more than compute; a single noisy run
/// must not fail the build, so the speedup gate re-measures (accumulating
/// reps, min-of-all-reps per site) up to this many times before failing.
const SPEEDUP_MEASURE_ATTEMPTS: usize = 3;

/// Runs `f` `reps` times inside `site`, returns the fastest rep in seconds.
fn time_reps<F: FnMut()>(site: &'static SpanSite, reps: usize, mut f: F) -> f64 {
    for _ in 0..reps.max(1) {
        let _g = SpanGuard::enter(site);
        f();
    }
    chameleon_obs::snapshot()
        .span(site.name())
        .map(|s| s.min_s())
        .unwrap_or(0.0)
}

/// Fixed arithmetic workload whose wall time defines one "work unit" on
/// this host. Pure integer xorshift: no memory traffic, no allocator, so
/// it tracks core speed rather than cache or RAM configuration.
fn calibration_workload() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..CALIBRATION_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
}

/// Pulls `"key": <number>` out of a flat JSON document (the baseline file
/// is written by this binary, so the format is under our control and a
/// full parser is unnecessary).
fn extract_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

struct Measurement {
    name: &'static str,
    seconds: f64,
    normalized: f64,
    /// `normalized / baseline` once gated; `None` for new or baseline-less
    /// sites.
    vs_baseline: Option<f64>,
}

impl Measurement {
    fn new(name: &'static str, seconds: f64) -> Self {
        Self {
            name,
            seconds,
            normalized: 0.0,
            vs_baseline: None,
        }
    }
}

fn main() {
    assert!(
        chameleon_obs::is_enabled(),
        "perf_smoke times via obs spans; rebuild with the default `obs` feature"
    );
    let args = Args::from_env();
    let out: String = args.get("out", "perf-smoke.json".to_string());
    let baseline_path: String = args.get("baseline", "ci/perf_baseline.json".to_string());
    let tolerance: f64 = args.get("tolerance", 0.25f64);
    let reps: usize = args.get("reps", 5usize);
    let write_baseline = args.has("write-baseline");
    let allow_new = args.has("allow-new");

    let mut cfg = ExperimentConfig::from_args(&args);
    cfg.scale = SCALE;
    cfg.worlds = WORLDS;
    cfg.seed = SEED;
    let g = chameleon_bench::build_dataset(DatasetKind::Brightkite, &cfg);
    let knowledge = AdversaryKnowledge::expected_degrees(&g);
    let k = (SCALE / 10).max(2);
    println!(
        "== perf_smoke: n={} m={} worlds={WORLDS} reps={reps} tolerance={tolerance} ==",
        g.num_nodes(),
        g.num_edges()
    );

    // Warm-up pass (build caches, fault in the binary), then clear the
    // registry so spans cover only the timed region.
    let warm = WorldEnsemble::sample_seeded(&g, WORLDS, SEED, 1);
    let _ = edge_reliability_relevance_threads(&g, &warm, 1);
    drop(warm);
    chameleon_obs::reset();

    let calibration_s = time_reps(&SPAN_CALIBRATION, reps, calibration_workload);
    assert!(calibration_s > 0.0, "calibration loop measured zero time");
    println!("calibration: {calibration_s:.4}s per {CALIBRATION_ITERS} xorshift rounds");

    let ens = WorldEnsemble::sample_seeded(&g, WORLDS, SEED, 1);
    let pairs = sample_distinct_pairs(
        g.num_nodes(),
        RELIABILITY_PAIRS,
        &mut SeedSequence::new(SEED).rng("perf-pairs"),
    );
    // Streamed-analysis tax (DESIGN.md §12): analyze the stored
    // STRIP_WORLDS-world strips one by one vs the in-RAM
    // connectivity analysis of the same pre-sampled worlds. Both are
    // compute-bound, but shared runners still jitter, so the ratio is
    // re-measured (minima accumulate in the spans) before it may fail.
    let stream =
        EnsembleStream::sample(&g, WORLDS, SEED, 1, STRIP_WORLDS).expect("no ensemble ceiling");
    let mut analyze_seconds: f64;
    let mut streamed_seconds: f64;
    let mut attempts = 0usize;
    loop {
        attempts += 1;
        analyze_seconds = time_reps(&SPAN_ANALYZE, reps, || {
            let e = WorldEnsemble::from_matrix_threads(&g, ens.matrix().clone(), 1);
            assert_eq!(e.len(), WORLDS);
        });
        streamed_seconds = time_reps(&SPAN_STREAMED, reps, || {
            let mut seen = 0usize;
            stream
                .for_each_strip(|_, s| seen += s.len())
                .expect("strip analyze");
            assert_eq!(seen, WORLDS);
        });
        if streamed_seconds / analyze_seconds <= STREAMED_OVERHEAD_CEILING
            || attempts >= SPEEDUP_MEASURE_ATTEMPTS
        {
            break;
        }
        println!(
            "streamed analyze {:.2}x over the {STREAMED_OVERHEAD_CEILING:.2}x ceiling on attempt \
             {attempts}/{SPEEDUP_MEASURE_ATTEMPTS} (runner noise?); re-measuring",
            streamed_seconds / analyze_seconds
        );
    }
    let streamed_overhead = streamed_seconds / analyze_seconds;
    println!(
        "ensemble streamed: {streamed_overhead:.2}x in-RAM analyze (ceiling \
         {STREAMED_OVERHEAD_CEILING:.2}x)"
    );
    let sites = [
        Measurement::new(
            "world_sampling",
            time_reps(&SPAN_SAMPLING, reps, || {
                let e = WorldEnsemble::sample_seeded(&g, WORLDS, SEED, 1);
                assert_eq!(e.len(), WORLDS);
            }),
        ),
        // Connectivity analysis alone (union–find, labels, sizes, pair
        // counts) on pre-sampled worlds: isolates the arena/scratch path
        // from the RNG cost that dominates `world_sampling`. Measured
        // above, paired with its strip-streamed counterpart.
        Measurement::new("ensemble_analyze", analyze_seconds),
        Measurement::new("ensemble_streamed", streamed_seconds),
        Measurement::new(
            "err_coupled",
            time_reps(&SPAN_ERR, reps, || {
                let e = edge_reliability_relevance_threads(&g, &ens, 1);
                assert_eq!(e.len(), g.num_edges());
            }),
        ),
        // Blocked streaming of the flat label matrix over many pairs.
        Measurement::new(
            "reliability_many",
            time_reps(&SPAN_RELIABILITY, reps, || {
                let r = ens.reliability_many(&pairs);
                assert_eq!(r.len(), pairs.len());
            }),
        ),
        Measurement::new(
            "anonymity_check",
            time_reps(&SPAN_CHECK, reps, || {
                let r = anonymity_check_threads(&g, &knowledge, k, 1);
                assert!(r.eps_hat.is_finite());
            }),
        ),
    ];
    // End-to-end σ search on the reference workload, plain vs incremental
    // (DESIGN.md §6d). Both runs must succeed; the driver and BENCH json
    // report `anonymize_incremental_speedup` = plain / incremental.
    let anonymize_cfg = |incremental: bool| {
        ChameleonConfig::builder()
            .k(k)
            .epsilon(0.05)
            .trials(5)
            .num_world_samples(WORLDS)
            // A tight bisection tolerance makes the σ search take enough
            // probes that the one-off setup (VRR ensemble, selection) does
            // not dominate either variant.
            .sigma_tolerance(0.02)
            .num_threads(1)
            .incremental(incremental)
            .build()
    };
    let e2e_plain = time_reps(&SPAN_E2E, reps, || {
        let r = Chameleon::new(anonymize_cfg(false))
            .anonymize(&g, Method::Rsme, SEED)
            .expect("plain anonymize on the reference workload");
        std::hint::black_box(r.sigma);
    });
    let e2e_incremental = time_reps(&SPAN_E2E_INC, reps, || {
        let r = Chameleon::new(anonymize_cfg(true))
            .anonymize(&g, Method::Rsme, SEED)
            .expect("incremental anonymize on the reference workload");
        std::hint::black_box(r.sigma);
    });
    let incremental_speedup = e2e_plain / e2e_incremental;
    println!(
        "anonymize e2e: plain {e2e_plain:.4}s, incremental {e2e_incremental:.4}s \
         ({incremental_speedup:.2}x speedup)"
    );
    let sites: Vec<Measurement> = sites
        .into_iter()
        .chain([
            Measurement::new("anonymize_e2e", e2e_plain),
            Measurement::new("anonymize_e2e_incremental", e2e_incremental),
        ])
        .collect();
    // Daemon dispatch overhead: cached `status`-free round-trips through a
    // live loopback chameleond. The job (a tiny check) is primed into the
    // result cache first, so the measurement isolates the service stack —
    // socket, NDJSON parse, queue hand-off, cache hit, response render —
    // from the anonymization math gated by the sites above.
    // A deliberately tiny job: the dispatch sites measure the service stack
    // (framing, queue hand-off, completion wakeups, cache-hit replay), so
    // the payload must not drown the machinery being compared in
    // graph-parse time — per-element parse cost is identical across
    // lockstep/pipelined/batch/journaled and is gated by the math sites
    // above.
    let graph_json = chameleon_obs::json::string("nodes 4\n0 1 0.5\n1 2 0.5\n2 3 0.25\n0 3 0.75\n");
    let req = format!("{{\"op\":\"check\",\"graph\":{graph_json},\"k\":2}}");
    let (dispatch_seconds, pipelined_seconds, batch_seconds) = {
        use std::io::{BufReader, Write};
        let handle = chameleon_server::Server::spawn(chameleon_server::ServerConfig {
            workers: 1,
            // The pipelined site bursts DISPATCH_ROUNDTRIPS individual
            // requests before draining a single reply; the queue must
            // absorb the whole burst or the site measures rejection cost.
            queue_depth: 2 * DISPATCH_ROUNDTRIPS,
            ..chameleon_server::ServerConfig::default()
        })
        .expect("spawn loopback chameleond");
        let addr = handle.addr().to_string();
        let prime = chameleon_server::request_once(&addr, &req).expect("prime dispatch job");
        assert!(prime.contains("\"status\":\"ok\""), "prime failed: {prime}");
        let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
        conn.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut burst = String::new();
        for i in 0..DISPATCH_ROUNDTRIPS {
            let _ = writeln!(
                burst,
                "{{\"op\":\"check\",\"id\":\"p{i}\",\"graph\":{graph_json},\"k\":2}}"
            );
        }
        let mut batch = String::from("{\"op\":\"batch\",\"id\":\"b\",\"requests\":[");
        for i in 0..DISPATCH_ROUNDTRIPS {
            if i > 0 {
                batch.push(',');
            }
            let _ = write!(batch, "{{\"op\":\"check\",\"graph\":{graph_json},\"k\":2}}");
        }
        batch.push_str("]}\n");
        // The lockstep/batch pair feeds the BATCH_SPEEDUP_FLOOR gate; both
        // wall-clock measurements are noisy on shared runners, so when the
        // best-of-reps ratio lands under the floor the pair is re-measured
        // (reps accumulate into the same spans, so each pass can only
        // improve the minima) before the gate is allowed to fail.
        let mut dispatch: f64;
        let mut pipelined: f64;
        let mut batch_s: f64;
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            // (a) Strict request→reply lockstep: each job pays a full
            // loopback round-trip plus a reactor wakeup.
            dispatch = time_reps(&SPAN_DISPATCH, reps, || {
                for _ in 0..DISPATCH_ROUNDTRIPS {
                    let resp = chameleon_server::roundtrip(&mut conn, &req).expect("roundtrip");
                    assert!(
                        resp.contains("\"cached\":true"),
                        "expected a cache hit: {resp}"
                    );
                }
            });
            // (b) Pipelined: the same jobs, id-tagged, written in one burst
            // and the replies drained afterwards — round-trips overlap, but
            // each line is still parsed, queued and completed individually.
            pipelined = time_reps(&SPAN_PIPELINED, reps, || {
                conn.write_all(burst.as_bytes()).expect("pipelined write");
                for _ in 0..DISPATCH_ROUNDTRIPS {
                    let resp =
                        chameleon_server::read_response(&mut reader).expect("pipelined read");
                    assert!(
                        resp.contains("\"cached\":true"),
                        "expected a cache hit: {resp}"
                    );
                }
            });
            // (c) Batch: the same jobs as ONE request line occupying one
            // queue slot; the worker renders every reply into a single
            // completion, so queue pop, channel send and reactor wakeup
            // amortize over the lot.
            batch_s = time_reps(&SPAN_BATCH, reps, || {
                conn.write_all(batch.as_bytes()).expect("batch write");
                for _ in 0..DISPATCH_ROUNDTRIPS {
                    let resp = chameleon_server::read_response(&mut reader).expect("batch read");
                    assert!(
                        resp.contains("\"cached\":true"),
                        "expected a cache hit: {resp}"
                    );
                }
            });
            if dispatch / batch_s >= BATCH_SPEEDUP_FLOOR || attempts >= SPEEDUP_MEASURE_ATTEMPTS {
                break;
            }
            println!(
                "batch speedup {:.2}x under the {BATCH_SPEEDUP_FLOOR:.0}x floor on attempt \
                 {attempts}/{SPEEDUP_MEASURE_ATTEMPTS} (runner noise?); re-measuring",
                dispatch / batch_s
            );
        }
        drop(reader);
        drop(conn);
        let _ = chameleon_server::request_once(&addr, "{\"op\":\"shutdown\"}");
        let _ = handle.join();
        (dispatch, pipelined, batch_s)
    };
    // Durable-jobs tax (DESIGN.md §11): the same cached lockstep workload
    // against a *journaled* daemon, where every submit appends an
    // `accepted` and a `completed` record (interval fsync). The gate
    // bounds the ratio to the un-journaled lockstep cost measured above.
    let journal_dir =
        std::env::temp_dir().join(format!("perf-smoke-journal-{}-{SEED}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir).expect("create perf-smoke journal dir");
    let journaled_seconds = {
        let handle = chameleon_server::Server::spawn(chameleon_server::ServerConfig {
            workers: 1,
            queue_depth: 2 * DISPATCH_ROUNDTRIPS,
            journal_dir: Some(journal_dir.to_str().expect("utf-8 temp path").to_string()),
            journal_sync: chameleon_server::JournalSync::Interval,
            ..chameleon_server::ServerConfig::default()
        })
        .expect("spawn journaled loopback chameleond");
        let addr = handle.addr().to_string();
        let prime = chameleon_server::request_once(&addr, &req).expect("prime journaled job");
        assert!(prime.contains("\"status\":\"ok\""), "prime failed: {prime}");
        let mut conn = std::net::TcpStream::connect(&addr).expect("connect journaled");
        conn.set_nodelay(true).expect("nodelay");
        // Like the batch-speedup gate: loopback latency is the noisiest
        // thing CI measures, so the ratio is re-measured (min-of-all-reps
        // accumulates in the span) before it may fail the build.
        let mut journaled: f64;
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            journaled = time_reps(&SPAN_JOURNALED, reps, || {
                for _ in 0..DISPATCH_ROUNDTRIPS {
                    let resp =
                        chameleon_server::roundtrip(&mut conn, &req).expect("journaled roundtrip");
                    assert!(
                        resp.contains("\"cached\":true"),
                        "expected a cache hit: {resp}"
                    );
                }
            });
            if journaled / dispatch_seconds <= JOURNAL_OVERHEAD_CEILING
                || attempts >= SPEEDUP_MEASURE_ATTEMPTS
            {
                break;
            }
            println!(
                "journal overhead {:.2}x over the {JOURNAL_OVERHEAD_CEILING:.2}x ceiling on \
                 attempt {attempts}/{SPEEDUP_MEASURE_ATTEMPTS} (runner noise?); re-measuring",
                journaled / dispatch_seconds
            );
        }
        drop(conn);
        let _ = chameleon_server::request_once(&addr, "{\"op\":\"shutdown\"}");
        let _ = handle.join();
        journaled
    };
    let _ = std::fs::remove_dir_all(&journal_dir);
    let journal_overhead = journaled_seconds / dispatch_seconds;
    // Gateway tier tax (DESIGN.md §13): the pipelined cached burst through
    // chameleon-gate fronting one backend, gated against the direct
    // lockstep site above. The verbatim-relay contract forces the forward
    // stage itself to stay lockstep per backend connection (backend
    // completions are worker-ordered, so relayed responses can only be
    // attributed to jobs one round-trip at a time) — but a pipelining
    // client overlaps the gateway reactor, the forwarder pool (over
    // pooled persistent backend connections) and the backend, so the
    // whole tier tax must fit in the ceiling's margin over one direct
    // round-trip per job.
    let gateway_seconds = {
        use std::io::{BufReader, Write};
        let backend = chameleon_server::Server::spawn(chameleon_server::ServerConfig {
            workers: 1,
            queue_depth: 2 * DISPATCH_ROUNDTRIPS,
            ..chameleon_server::ServerConfig::default()
        })
        .expect("spawn gateway backend chameleond");
        let backend_addr = backend.addr().to_string();
        let prime = chameleon_server::request_once(&backend_addr, &req).expect("prime gateway job");
        assert!(prime.contains("\"status\":\"ok\""), "prime failed: {prime}");
        let gate = chameleon_server::Gateway::spawn(chameleon_server::GatewayConfig {
            backends: vec![backend_addr.clone()],
            // Each forwarder is lockstep with the backend, so the pool size
            // sets the forward stage's concurrency; 8 keeps that stage off
            // the critical path without drowning the 1-worker backend.
            forwarders: 8,
            queue_depth: 2 * DISPATCH_ROUNDTRIPS,
            // The probe thread would only add scheduling noise against a
            // backend that cannot die during the measurement.
            health_interval_ms: 0,
            ..chameleon_server::GatewayConfig::default()
        })
        .expect("spawn chameleon-gate");
        let gate_addr = gate.addr().to_string();
        let conn = std::net::TcpStream::connect(&gate_addr).expect("connect gateway");
        conn.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut conn = conn;
        let mut burst = String::new();
        for i in 0..DISPATCH_ROUNDTRIPS {
            let _ = writeln!(
                burst,
                "{{\"op\":\"check\",\"id\":\"g{i}\",\"graph\":{graph_json},\"k\":2}}"
            );
        }
        let mut gateway: f64;
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            gateway = time_reps(&SPAN_GATEWAY, reps, || {
                conn.write_all(burst.as_bytes())
                    .expect("gateway burst write");
                for _ in 0..DISPATCH_ROUNDTRIPS {
                    let resp = chameleon_server::read_response(&mut reader).expect("gateway read");
                    assert!(
                        resp.contains("\"cached\":true"),
                        "expected a cache hit via the gateway: {resp}"
                    );
                }
            });
            if gateway / dispatch_seconds <= GATEWAY_OVERHEAD_CEILING
                || attempts >= SPEEDUP_MEASURE_ATTEMPTS
            {
                break;
            }
            println!(
                "gateway overhead {:.2}x over the {GATEWAY_OVERHEAD_CEILING:.2}x ceiling on \
                 attempt {attempts}/{SPEEDUP_MEASURE_ATTEMPTS} (runner noise?); re-measuring",
                gateway / dispatch_seconds
            );
        }
        drop(reader);
        drop(conn);
        let _ = chameleon_server::request_once(&gate_addr, "{\"op\":\"shutdown\"}");
        let _ = gate.join();
        let _ = chameleon_server::request_once(&backend_addr, "{\"op\":\"shutdown\"}");
        let _ = backend.join();
        gateway
    };
    let gateway_overhead = gateway_seconds / dispatch_seconds;

    let dispatch_us_per_job = dispatch_seconds / DISPATCH_ROUNDTRIPS as f64 * 1e6;
    let batch_us_per_job = batch_seconds / DISPATCH_ROUNDTRIPS as f64 * 1e6;
    let batch_speedup = dispatch_us_per_job / batch_us_per_job;
    println!(
        "dispatch µs/job: lockstep {dispatch_us_per_job:.1}, pipelined {:.1}, \
         batch {batch_us_per_job:.1} ({batch_speedup:.1}x batch speedup), \
         journaled {:.1} ({journal_overhead:.2}x journal overhead), \
         gateway-pipelined {:.1} ({gateway_overhead:.2}x gateway overhead vs pipelined)",
        pipelined_seconds / DISPATCH_ROUNDTRIPS as f64 * 1e6,
        journaled_seconds / DISPATCH_ROUNDTRIPS as f64 * 1e6,
        gateway_seconds / DISPATCH_ROUNDTRIPS as f64 * 1e6
    );

    let mut sites: Vec<Measurement> = sites
        .into_iter()
        .chain([
            Measurement::new("server_dispatch", dispatch_seconds),
            Measurement::new("server_pipelined_dispatch", pipelined_seconds),
            Measurement::new("server_batch_submit", batch_seconds),
            Measurement::new("server_journaled_dispatch", journaled_seconds),
            Measurement::new("gateway_dispatch", gateway_seconds),
        ])
        .map(|m| Measurement {
            normalized: m.seconds / calibration_s,
            ..m
        })
        .collect();

    let baseline = if write_baseline {
        None
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(doc) => Some(doc),
            Err(e) => {
                eprintln!(
                    "error: cannot read baseline {baseline_path}: {e}\n\
                     (run `perf_smoke --write-baseline` and commit the file)"
                );
                std::process::exit(1);
            }
        }
    };

    let mut regressions = Vec::new();
    for m in &mut sites {
        let base = baseline
            .as_deref()
            .and_then(|doc| extract_number(doc, m.name));
        let verdict = match base {
            Some(b) if b > 0.0 => {
                let ratio = m.normalized / b;
                m.vs_baseline = Some(ratio);
                if ratio > 1.0 + tolerance {
                    regressions.push((m.name, ratio));
                    format!("REGRESSED {:.2}x vs baseline {b:.3}", ratio)
                } else {
                    format!("ok {:.2}x vs baseline {b:.3}", ratio)
                }
            }
            Some(_) | None if write_baseline => "baseline".to_string(),
            Some(_) | None if allow_new => "new site (allowed)".to_string(),
            _ => {
                regressions.push((m.name, f64::NAN));
                "MISSING from baseline".to_string()
            }
        };
        println!(
            "{:<17} {:.4}s  normalized {:.3}  {verdict}",
            m.name, m.seconds, m.normalized
        );
    }

    if write_baseline {
        let mut doc = String::from("{\n");
        let _ = writeln!(doc, "  \"comment\": \"normalized hot-path costs: site_s / calibration_s; regenerate with perf_smoke --write-baseline\",");
        let _ = writeln!(doc, "  \"calibration_iters\": {CALIBRATION_ITERS},");
        let _ = writeln!(doc, "  \"scale\": {SCALE},");
        let _ = writeln!(doc, "  \"worlds\": {WORLDS},");
        // Informational, not a gated site: the lockstep/batch ratio this
        // baseline was written at, for comparing against CI artifacts (its
        // gate is a fixed floor, not baseline-relative).
        let _ = writeln!(doc, "  \"batch_speedup\": {batch_speedup:.4},");
        for (i, m) in sites.iter().enumerate() {
            let sep = if i + 1 < sites.len() { "," } else { "" };
            let _ = writeln!(doc, "  \"{}\": {:.4}{sep}", m.name, m.normalized);
        }
        doc.push_str("}\n");
        if let Err(e) = std::fs::write(&baseline_path, &doc) {
            eprintln!("error: cannot write {baseline_path}: {e}");
            std::process::exit(1);
        }
        println!("(baseline written to {baseline_path})");
    }

    // The `--out` report: measurements + the full metrics snapshot (spans of
    // this run, pipeline counters, chunk histograms) for the CI artifact.
    // `vs_baseline` is `normalized / committed-baseline` — < 1.0 means the
    // hot path got faster than the baseline commit.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"perf smoke gate\",");
    let _ = writeln!(json, "  \"timer\": \"obs span, min of reps\",");
    let _ = writeln!(
        json,
        "  \"anonymize_incremental_speedup\": {incremental_speedup:.4},"
    );
    let _ = writeln!(json, "  \"dispatch_us_per_job\": {dispatch_us_per_job:.2},");
    let _ = writeln!(json, "  \"batch_us_per_job\": {batch_us_per_job:.2},");
    let _ = writeln!(json, "  \"batch_speedup\": {batch_speedup:.4},");
    let _ = writeln!(
        json,
        "  \"journal_append_overhead\": {journal_overhead:.4},"
    );
    let _ = writeln!(
        json,
        "  \"gateway_dispatch_overhead\": {gateway_overhead:.4},"
    );
    let _ = writeln!(
        json,
        "  \"ensemble_streamed_overhead\": {streamed_overhead:.4},"
    );
    let _ = writeln!(json, "  \"scale\": {SCALE},");
    let _ = writeln!(json, "  \"worlds\": {WORLDS},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"tolerance\": {tolerance},");
    let _ = writeln!(json, "  \"calibration_s\": {calibration_s:.6},");
    for m in &sites {
        let vs = m
            .vs_baseline
            .map_or("null".to_string(), |r| format!("{r:.4}"));
        let _ = writeln!(
            json,
            "  \"{}\": {{ \"seconds\": {:.6}, \"normalized\": {:.4}, \"vs_baseline\": {vs} }},",
            m.name, m.seconds, m.normalized
        );
    }
    let _ = writeln!(json, "  \"regressions\": {},", regressions.len());
    let _ = writeln!(
        json,
        "  \"metrics\": {}",
        indent_json(&chameleon_obs::metrics_json())
    );
    json.push_str("}\n");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("(json written to {out})"),
        Err(e) => eprintln!("warning: could not write {out}: {e}"),
    }

    if !regressions.is_empty() {
        eprintln!(
            "perf_smoke FAILED: {} hot path(s) regressed beyond {:.0}%: {}",
            regressions.len(),
            tolerance * 100.0,
            regressions
                .iter()
                .map(|(n, r)| format!("{n} ({r:.2}x)"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    }
    // Hard floor on the batch protocol's amortization: one batch line must
    // cost at least 5x fewer µs/job than lockstep single-request dispatch,
    // or the queue-slot/completion amortization has silently regressed.
    // The ratio was already re-measured up to SPEEDUP_MEASURE_ATTEMPTS
    // times above, so reaching here under the floor is persistent, not one
    // noisy run.
    if batch_speedup < BATCH_SPEEDUP_FLOOR {
        eprintln!(
            "perf_smoke FAILED: batch submit amortization {batch_speedup:.2}x < required \
             {BATCH_SPEEDUP_FLOOR:.0}x after {SPEEDUP_MEASURE_ATTEMPTS} measurement attempts \
             (lockstep {dispatch_us_per_job:.1} µs/job vs batch {batch_us_per_job:.1} µs/job)"
        );
        std::process::exit(1);
    }
    // Hard ceiling on the durable-jobs tax: journaling a cached submit may
    // not cost more than JOURNAL_OVERHEAD_CEILING× the un-journaled path.
    // Also re-measured above, so a failure here is persistent.
    if journal_overhead > JOURNAL_OVERHEAD_CEILING {
        eprintln!(
            "perf_smoke FAILED: journaled dispatch overhead {journal_overhead:.2}x > allowed \
             {JOURNAL_OVERHEAD_CEILING:.2}x after {SPEEDUP_MEASURE_ATTEMPTS} measurement \
             attempts (un-journaled {dispatch_us_per_job:.1} µs/job)"
        );
        std::process::exit(1);
    }
    // Hard ceiling on the gateway tier's tax: the pipelined cached burst
    // through chameleon-gate may not cost more than
    // GATEWAY_OVERHEAD_CEILING× the same burst sent directly to the
    // backend. Also re-measured above, so a failure here is persistent.
    if gateway_overhead > GATEWAY_OVERHEAD_CEILING {
        eprintln!(
            "perf_smoke FAILED: gateway pipelined overhead {gateway_overhead:.2}x > allowed \
             {GATEWAY_OVERHEAD_CEILING:.2}x after {SPEEDUP_MEASURE_ATTEMPTS} measurement \
             attempts (direct lockstep {dispatch_us_per_job:.1} µs/job)"
        );
        std::process::exit(1);
    }
    // Out-of-core gate (DESIGN.md §12): strip-streamed analysis may not
    // tax the in-RAM analyze beyond its ceiling (re-measured above).
    if streamed_overhead > STREAMED_OVERHEAD_CEILING {
        eprintln!(
            "perf_smoke FAILED: streamed ensemble analysis {streamed_overhead:.2}x > allowed \
             {STREAMED_OVERHEAD_CEILING:.2}x of in-RAM analyze after \
             {SPEEDUP_MEASURE_ATTEMPTS} measurement attempts"
        );
        std::process::exit(1);
    }
    println!("perf_smoke passed");
}

/// Re-indents a JSON document for embedding as a nested object value.
fn indent_json(doc: &str) -> String {
    doc.trim_end().replace('\n', "\n  ")
}
