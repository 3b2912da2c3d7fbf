//! `service`: an open loop on a seeded arrival schedule, through
//! `chameleon-gate` to two journaled one-worker `chameleond` backends.
//!
//! Queue wait, light jobs blocked behind heavy ones, journal appends,
//! digest routing and cache hits are all on the latency path, with real
//! compute in the workers. A traced run also runs the framing probes
//! (`framing.rs`) on the same fleet once the schedule has drained.

use crate::fleet::{self, Fleet, LineReader};
use crate::framing;
use crate::metrics::Report;
use crate::sys;
use crate::{discrepancy, graph_text, Ctx, THREADS};
use chameleon_core::{CancelToken, Method};
use chameleon_datasets::{generate, DatasetKind};
use chameleon_obs::json;
use chameleon_server::{ok_response, roundtrip, AnonymizeMethod, JobSpec};
use chameleon_stats::{alloc_guard, SeedSequence};
use chameleon_ugraph::builder::DedupPolicy;
use chameleon_ugraph::{io, UncertainGraph};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Distinct small graphs requests draw from, n spread evenly over
/// 250–350 nodes: `obfuscate` cost grows with n, and the narrower the
/// spread of job costs, the steadier their median over one run.
const POOL: usize = 24;
/// Arrival rate: about a third of the fleet's capacity for this mix
/// (NOTES.md), so queues form behind `obfuscate` jobs but do not grow,
/// and a run holds enough requests for a steady median.
const RATE_RPS: f64 = 6.0;
/// Request mix as shares of all requests: repeats of specs primed during
/// set-up (each must be a cache hit), then cold `obfuscate`, `check` and
/// `reliability` specs. Cold `obfuscate` jobs are the majority, so the
/// median request parses, computes and journals, and the tail waits
/// behind them; light requests share the queues.
const MIX: [f64; 4] = [0.1, 0.8, 0.05, 0.05];
const EPSILON: f64 = 0.01;
const OBF_K: usize = 10;
const OBF_WORLDS: usize = 200;
const OBF_TRIALS: usize = 2;
const REL_WORLDS: usize = 200;
const REL_PAIRS: usize = 200;
/// Worlds per ensemble behind `rel_discrepancy`.
const DISCREPANCY_WORLDS: usize = 200;
/// Replies still missing this long after the last send are failures.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Obfuscate,
    Check,
    Reliability,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Obfuscate => "obfuscate",
            Op::Check => "check",
            Op::Reliability => "reliability",
        }
    }
}

/// One distinct request body; `k` and `seed` make cold specs unique.
/// Seeds keep to 52 bits: the protocol reads numbers as JSON doubles.
#[derive(Clone, Copy)]
struct Spec {
    op: Op,
    graph: usize,
    k: usize,
    seed: u64,
}

impl Spec {
    fn line(&self, id: Option<&str>, graph_json: &str) -> String {
        let id = id.map_or(String::new(), |id| format!("\"id\":{},", json::string(id)));
        match self.op {
            Op::Obfuscate => format!(
                "{{\"op\":\"obfuscate\",{id}\"graph\":{graph_json},\"k\":{},\"epsilon\":{EPSILON},\
                 \"worlds\":{OBF_WORLDS},\"trials\":{OBF_TRIALS},\"threads\":1,\"seed\":{}}}",
                self.k, self.seed
            ),
            Op::Check => format!(
                "{{\"op\":\"check\",{id}\"graph\":{graph_json},\"k\":{},\"epsilon\":{EPSILON}}}",
                self.k
            ),
            Op::Reliability => format!(
                "{{\"op\":\"reliability\",{id}\"graph\":{graph_json},\"worlds\":{REL_WORLDS},\
                 \"pairs\":{REL_PAIRS},\"threads\":1,\"seed\":{}}}",
                self.seed
            ),
        }
    }

    /// The same job built directly, for the in-process reference.
    fn job(&self, graph: &str) -> JobSpec {
        let graph = graph.to_string();
        match self.op {
            Op::Obfuscate => JobSpec::Obfuscate {
                graph,
                k: self.k,
                epsilon: EPSILON,
                method: AnonymizeMethod::Chameleon(Method::Rsme),
                worlds: OBF_WORLDS,
                trials: OBF_TRIALS,
                threads: 1,
                strip_worlds: 0,
                seed: self.seed,
            },
            Op::Check => JobSpec::Check {
                graph,
                k: self.k,
                epsilon: EPSILON,
                tolerance: 0,
            },
            Op::Reliability => JobSpec::Reliability {
                graph,
                worlds: REL_WORLDS,
                pairs: REL_PAIRS,
                threads: 1,
                seed: self.seed,
            },
        }
    }
}

/// One scheduled request: due offset, spec index, and whether it repeats
/// a primed (hot) spec.
struct Arrival {
    due: Duration,
    spec: usize,
    hot: bool,
    line: String,
}

struct Inputs {
    graphs: Vec<UncertainGraph>,
    texts: Vec<String>,
    specs: Vec<Spec>,
    hot: Vec<usize>,
    schedule: Vec<Arrival>,
}

struct Setup {
    input: Inputs,
    fleet: Fleet,
    /// Priming replies to the hot specs (cold computations).
    primed: Vec<String>,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let seq = SeedSequence::new(ctx.seed);
    let mut rng = seq.rng("service-inputs");
    // BRIGHTKITE-like only: its k = 10 jobs cost 0.08–0.16 s, rising
    // smoothly with n, where DBLP- and PPI-like ones cost 2–5 times more
    // and would split the latency distribution into clusters whose
    // boundary the median straddles.
    let kind = DatasetKind::Brightkite;
    let (mut graphs, mut texts) = (Vec::new(), Vec::new());
    for i in 0..POOL {
        let n = if ctx.toy {
            100
        } else {
            250 + 100 * i / (POOL - 1)
        };
        let g = generate(
            &kind.scaled_spec(n),
            seq.derive_indexed("service-graph", i as u64),
        );
        texts.push(graph_text(&g));
        graphs.push(g);
    }
    // Hot specs: two per op, primed during set-up.
    let mut specs = Vec::new();
    for (i, op) in [Op::Obfuscate, Op::Check, Op::Reliability]
        .iter()
        .enumerate()
    {
        for j in 0..2 {
            specs.push(Spec {
                op: *op,
                graph: 2 * i + j,
                k: OBF_K,
                seed: seq.derive_indexed("service-hot", specs.len() as u64) >> 12,
            });
        }
    }
    let hot: Vec<usize> = (0..specs.len()).collect();
    // Exact counts per kind, in seeded order, so that every seed offers
    // the same load.
    let total = (RATE_RPS * ctx.seconds.as_secs_f64()).round() as usize;
    let mut kinds_left: Vec<usize> = Vec::with_capacity(total);
    for (kind, share) in MIX.iter().enumerate().rev() {
        let count = if kind == 0 {
            total - kinds_left.len()
        } else {
            (share * total as f64).round() as usize
        };
        kinds_left.extend(vec![kind; count]);
    }
    shuffle(&mut kinds_left, &mut rng);
    // Cold specs visit the pool round-robin in a seeded order, so every
    // graph size class carries the same share of the work.
    let mut pool_order: Vec<usize> = (0..POOL).collect();
    shuffle(&mut pool_order, &mut rng);
    let json_texts: Vec<String> = texts.iter().map(|t| json::string(t)).collect();
    let mut schedule = Vec::new();
    let mut cold = 0usize;
    for (slot, &kind) in kinds_left.iter().enumerate() {
        // Evenly spaced arrivals: the seed picks what arrives, not when,
        // so queues come from job costs and routing, not from bursts.
        let at = slot as f64 / RATE_RPS;
        let (spec, hot_hit) = if kind == 0 {
            (hot[rng.gen_range(0..hot.len())], true)
        } else {
            let op = [Op::Obfuscate, Op::Check, Op::Reliability][kind - 1];
            specs.push(Spec {
                op,
                graph: pool_order[cold % POOL],
                // A fresh k per check (seed for the others), never the hot
                // specs' k, keeps every cold spec's cache key unique.
                k: if op == Op::Check {
                    OBF_K + 1 + specs.len()
                } else {
                    OBF_K
                },
                seed: seq.derive_indexed("service-cold", specs.len() as u64) >> 12,
            });
            cold += 1;
            (specs.len() - 1, false)
        };
        let id = format!("r{}", schedule.len());
        let s = specs[spec];
        schedule.push(Arrival {
            due: Duration::from_secs_f64(at),
            spec,
            hot: hot_hit,
            line: s.line(Some(&id), &json_texts[s.graph]),
        });
    }
    Inputs {
        graphs,
        texts,
        specs,
        hot,
        schedule,
    }
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut impl Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Per-arrival client-side record.
#[derive(Clone, Default)]
struct Sent {
    sent: Option<Instant>,
    reply: Option<(String, Instant)>,
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let journal_root = ctx
        .work_dir
        .join(format!("service-journal-{}", std::process::id()));
    let setup = ctx.setup(report, |_| {
        let input = inputs(ctx);
        let fleet = Fleet::spawn(2, Some(&journal_root)).expect("spawn loopback fleet");
        let primed = input
            .hot
            .iter()
            .map(|&h| {
                let s = input.specs[h];
                let line = s.line(None, &json::string(&input.texts[s.graph]));
                chameleon_server::request_once(&fleet.gate_addr, &line)
                    .unwrap_or_else(|e| format!("io error: {e}"))
            })
            .collect();
        Setup {
            input,
            fleet,
            primed,
        }
    });
    let input = &setup.input;
    let fleet = &setup.fleet;
    let tr = &ctx.tracer;
    let n = input.schedule.len();
    report.attempted = n as u64;

    let conns = fleet::connect(&fleet.gate_addr, 2).expect("connect to the gateway");
    let mut reader = LineReader::new(&conns).expect("clone client sockets");
    let roots: Vec<u64> = (0..n).map(|_| tr.new_id()).collect();
    let log = Mutex::new(vec![Sent::default(); n]);
    let half = n / 2;
    let t0 = Instant::now();
    let io_error = std::thread::scope(|scope| {
        // Sender: one thread writes every request at its due time,
        // alternating connections; the other half of a traced run is
        // recorded.
        let writer = scope.spawn(|| -> std::io::Result<()> {
            let mut conns: Vec<_> = conns
                .iter()
                .map(|c| c.try_clone())
                .collect::<Result<_, _>>()?;
            for (i, a) in input.schedule.iter().enumerate() {
                let due = t0 + a.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if i == half {
                    tr.set_on(ctx.traced);
                }
                let sent = Instant::now();
                fleet::send_line(&mut conns[i % 2], &a.line)?;
                let written = Instant::now();
                tr.record(tr.new_id(), roots[i], i as u64, "client.late", due, sent);
                tr.record(
                    tr.new_id(),
                    roots[i],
                    i as u64,
                    "client.write",
                    sent,
                    written,
                );
                log.lock().expect("client log poisoned")[i].sent = Some(sent);
            }
            Ok(())
        });
        // Receiver (this thread): match replies to requests by id.
        let mut received = 0usize;
        let mut drain_start: Option<Instant> = None;
        let mut result = Ok(());
        while received < n {
            if writer.is_finished() {
                let now = Instant::now();
                let since = *drain_start.get_or_insert(now);
                if now.duration_since(since) > DRAIN_TIMEOUT {
                    break;
                }
            }
            match reader.poll(Duration::from_millis(50)) {
                Ok(lines) => {
                    for (line, at) in lines {
                        let idx = fleet::reply_id(&line)
                            .and_then(|id| id.strip_prefix('r'))
                            .and_then(|i| i.parse::<usize>().ok())
                            .filter(|&i| i < n);
                        match idx {
                            Some(i) => {
                                let mut log = log.lock().expect("client log poisoned");
                                if log[i].reply.is_none() {
                                    received += 1;
                                }
                                log[i].reply = Some((line, at));
                            }
                            None => report
                                .fail(format!("service: reply without a known id: {line:.120}")),
                        }
                    }
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        match writer.join().expect("sender thread panicked") {
            Err(e) => Some(e),
            Ok(()) => result.err(),
        }
    });
    if let Some(e) = io_error {
        report.fail(format!("service: client I/O failed: {e}"));
    }
    tr.set_on(false);
    let log = log.into_inner().expect("client log poisoned");
    let last_reply = log
        .iter()
        .filter_map(|s| s.reply.as_ref().map(|r| r.1))
        .max()
        .unwrap_or(t0);
    let wall_s = last_reply.duration_since(t0).as_secs_f64();
    report.set("peak_rss_mb", sys::peak_rss_mb());
    let peak_ensemble = alloc_guard::ensemble_peak_bytes();

    // Fleet counters before shutdown.
    let gate_status = Fleet::status(&fleet.gate_addr);
    let forwarded = fleet::status_u64(gate_status.as_ref(), &["forwarded"]);
    let redriven = fleet::status_u64(gate_status.as_ref(), &["redriven"]);
    let appends: u64 = fleet
        .backend_addrs
        .iter()
        .map(|a| fleet::status_u64(Fleet::status(a).as_ref(), &["journal", "appends"]))
        .sum();
    let journal_bytes: u64 = fleet.journal_dirs.iter().map(|d| sys::dir_bytes(d)).sum();
    if redriven != 0 {
        report.fail(format!("service: gateway re-drove {redriven} job(s)"));
    }
    let direct_rtt_s = if ctx.traced {
        let rtt_s = direct_cached_rtt(input, fleet);
        framing::probe(ctx, report, fleet);
        rtt_s
    } else {
        0.0
    };

    // Reference results for every distinct spec, in-process.
    let reference = reference_results(input);
    for (k, &h) in input.hot.iter().enumerate() {
        let want = ok_response(None, false, &reference[h].result);
        if setup.primed[k] != want {
            report.fail(format!(
                "service: priming reply for hot spec {h} ({}) differs from the in-process \
                 result",
                input.specs[h].op.name()
            ));
        }
    }
    let mut latencies = Vec::new();
    let mut lat_by_half: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut late = Vec::new();
    let mut waits = Vec::new();
    let (mut cached, mut hot, mut ok_bytes, mut ok_count) = (0usize, 0usize, 0usize, 0usize);
    for (i, a) in input.schedule.iter().enumerate() {
        let id = format!("r{i}");
        let due = t0 + a.due;
        let Some((line, at)) = &log[i].reply else {
            report.fail(format!("service request {id}: no reply"));
            continue;
        };
        let lat_ms = at.duration_since(due).as_secs_f64() * 1e3;
        tr.set_on(ctx.traced && i >= half);
        tr.record(roots[i], 0, i as u64, "service.request", due, *at);
        hot += usize::from(a.hot);
        cached += usize::from(line.contains("\"cached\":true"));
        let want = ok_response(Some(&id), a.hot, &reference[a.spec].result);
        if *line != want {
            report.fail(format!(
                "service request {id} ({} spec {}{}): reply differs from the in-process result: \
                 {line:.160}",
                input.specs[a.spec].op.name(),
                a.spec,
                if a.hot { ", hot" } else { "" }
            ));
            continue;
        }
        ok_count += 1;
        ok_bytes += a.line.len() + 1;
        latencies.push(lat_ms);
        lat_by_half[usize::from(i >= half)].push(lat_ms);
        if let Some(sent) = log[i].sent {
            late.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        if !a.hot {
            let wait =
                at.duration_since(due).as_secs_f64() - reference[a.spec].execute_s - direct_rtt_s;
            waits.push(1e3 * wait.max(0.0));
        }
    }
    tr.set_on(false);
    let hit_ratio = cached as f64 / n.max(1) as f64;
    if cached != hot {
        report.fail(format!(
            "service: {cached} cached replies for {hot} repeated requests"
        ));
    }

    // rel_discrepancy: at k = 10 these small graphs are obfuscated at
    // σ ≈ 0, so their releases sit within Monte-Carlo noise of the input;
    // the metric is that noise floor, each pool graph against itself
    // re-sampled under another seed. Utility of real releases is gated on
    // `search`.
    let seq = SeedSequence::new(ctx.seed);
    let discrepancies: Vec<f64> = input
        .graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            discrepancy(
                g,
                g,
                DISCREPANCY_WORLDS,
                seq.derive_indexed("service-discrepancy", i as u64),
            )
        })
        .collect();

    report.set("wall_s", wall_s);
    report.set(
        "throughput_rps",
        ok_count as f64 / wall_s.max(f64::MIN_POSITIVE),
    );
    report.set("latency_p50_ms", sys::quantile(&latencies, 0.5));
    report.set("client.latency_p90_ms", sys::quantile(&latencies, 0.9));
    report.set("client.latency_p99_ms", sys::quantile(&latencies, 0.99));
    report.set(
        "ingest_mb_per_s",
        ok_bytes as f64 / 1e6 / wall_s.max(f64::MIN_POSITIVE),
    );
    report.set("rel_discrepancy", sys::mean(&discrepancies));
    report.set("peak_ensemble_bytes", peak_ensemble as f64);
    report.note(format!(
        "{n} requests over {:.1} s at {RATE_RPS}/s ({hot} repeats), {} distinct specs; replies \
         done {wall_s:.2} s after the first was due; {} latency samples, quartiles {:.1} / \
         {:.1} / {:.1} ms; in-process `obfuscate` median {:.1} ms",
        ctx.seconds.as_secs_f64(),
        input.specs.len(),
        latencies.len(),
        sys::quantile(&latencies, 0.25),
        sys::quantile(&latencies, 0.5),
        sys::quantile(&latencies, 0.75),
        1e3 * sys::median(
            &reference
                .iter()
                .zip(&input.specs)
                .filter(|(_, s)| s.op == Op::Obfuscate)
                .map(|(r, _)| r.execute_s)
                .collect::<Vec<_>>()
        )
    ));

    if ctx.traced {
        for op in [Op::Obfuscate, Op::Check, Op::Reliability] {
            let times: Vec<f64> = reference
                .iter()
                .zip(&input.specs)
                .filter(|(_, s)| s.op == op)
                .map(|(r, _)| r.execute_s)
                .collect();
            let name = match op {
                Op::Obfuscate => "server.job.execute_s.obfuscate",
                Op::Check => "server.job.execute_s.check",
                Op::Reliability => "server.job.execute_s.reliability",
            };
            report.set(name, sys::mean(&times));
        }
        report.set(
            "ugraph.parse_s",
            sys::mean(&reference.iter().map(|r| r.parse_s).collect::<Vec<_>>()),
        );
        report.set("server.queue.wait_ms", sys::median(&waits));
        report.set("server.cache.hit_ratio", hit_ratio);
        report.set("server.journal.appends", appends as f64);
        report.set("server.journal.bytes", journal_bytes as f64);
        report.set("server.gateway.forwarded", forwarded as f64);
        report.set("server.gateway.redriven", redriven as f64);
        report.set("client.late_ms", sys::quantile(&late, 0.99));
        report.note(format!(
            "cache hit ratio {hit_ratio:.4} = {cached} cached / {n} replies; queue wait p50 \
             {:.2} ms over {} cold jobs (direct cached round-trip {:.3} ms); journal {appends} \
             appends, {journal_bytes} B; gateway forwarded {forwarded}, redriven {redriven}",
            sys::median(&waits),
            waits.len(),
            direct_rtt_s * 1e3
        ));
        ctx.attribution(
            report,
            "service.request",
            sys::median(&lat_by_half[0]),
            sys::median(&lat_by_half[1]),
        );
    }
    drop(setup);
}

/// Reference computation of one distinct spec.
struct Reference {
    result: String,
    execute_s: f64,
    parse_s: f64,
}

/// `JobSpec::execute` on every distinct spec, over [`THREADS`] threads.
fn reference_results(input: &Inputs) -> Vec<Reference> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Reference>>> =
        Mutex::new((0..input.specs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = input.specs.get(i) else {
                    break;
                };
                let text = &input.texts[spec.graph];
                let t = Instant::now();
                let _ = io::read_text(text.as_bytes(), DedupPolicy::KeepFirst);
                let parse_s = t.elapsed().as_secs_f64();
                let job = spec.job(text);
                let t = Instant::now();
                let result = job
                    .execute(&CancelToken::new())
                    .unwrap_or_else(|e| format!("{e:?}"));
                let execute_s = t.elapsed().as_secs_f64();
                out.lock().expect("reference results poisoned")[i] = Some(Reference {
                    result,
                    execute_s,
                    parse_s,
                });
            });
        }
    });
    out.into_inner()
        .expect("reference results poisoned")
        .into_iter()
        .map(|r| r.expect("every spec executed"))
        .collect()
}

/// Median round-trip of a cached request sent straight to the backend
/// that owns it: the part of a reply's latency that is neither queueing
/// nor compute.
fn direct_cached_rtt(input: &Inputs, fleet: &Fleet) -> f64 {
    let spec = input.specs[input.hot[2]];
    let line = spec.line(None, &json::string(&input.texts[spec.graph]));
    for addr in &fleet.backend_addrs {
        let Ok(mut conn) = fleet::connect(addr, 1).map(|mut c| c.remove(0)) else {
            continue;
        };
        match roundtrip(&mut conn, &line) {
            Ok(reply) if reply.contains("\"cached\":true") => {}
            _ => continue,
        }
        let times: Vec<f64> = (0..30)
            .filter_map(|_| {
                let t = Instant::now();
                roundtrip(&mut conn, &line)
                    .ok()
                    .map(|_| t.elapsed().as_secs_f64())
            })
            .collect();
        return sys::median(&times);
    }
    0.0
}
