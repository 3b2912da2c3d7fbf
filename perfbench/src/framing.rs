//! Framing probes, run after `service`'s traced rounds on its fleet: a
//! ladder of cached requests whose inline graphs grow from 4 edges to
//! n = 10⁵ (≈11.5 MB of edge-list text), each timed sent straight to a
//! backend and, for the 4-edge rung, through the gateway too.
//!
//! A cached reply does no compute, so what a probe costs beyond
//! `parse_request` and the FNV-1a digest (both timed here in-process) is
//! reactor line framing and relay; per MB it stays flat across size
//! classes when framing is linear. `search` and `population` never run
//! this code.

use crate::fleet::{self, Fleet};
use crate::metrics::{Report, SIZE_CLASSES};
use crate::sys;
use crate::{graph_text, Ctx};
use chameleon_core::CancelToken;
use chameleon_datasets::brightkite_like;
use chameleon_obs::json;
use chameleon_server::{fnv1a64, ok_response, parse_request, roundtrip, JobSpec};
use chameleon_stats::SeedSequence;
use chameleon_ugraph::builder::DedupPolicy;
use rand::Rng;
use std::net::TcpStream;
use std::time::Instant;

/// Nodes per rung (0 = a fixed 4-edge graph), in the order of
/// [`SIZE_CLASSES`]: ≈0.7, 2.8 and 11.5 MB of inline edge-list text.
const RUNG_NODES: [usize; 4] = [0, 6_250, 25_000, 100_000];
/// Timed repetitions per rung; each probe reports the median.
const REPS: [usize; 4] = [200, 20, 5, 3];
/// Repetitions behind `server.gateway.hop_ms`.
const HOP_REPS: usize = 50;
const CHECK_K: usize = 100;
const EPSILON: f64 = 0.01;
/// The 4-edge rung is a `reliability` job, the graph rungs `check` jobs.
const TINY_WORLDS: usize = 64;
const TINY_PAIRS: usize = 4;

struct Rung {
    text: String,
    /// Request line, without an id.
    line: String,
    job: JobSpec,
}

fn rungs(ctx: &Ctx) -> Vec<Rung> {
    let seq = SeedSequence::new(ctx.seed);
    let mut rng = seq.rng("framing-tiny");
    RUNG_NODES
        .iter()
        .enumerate()
        .map(|(r, &n)| {
            let text = if n == 0 {
                let mut text = String::from("nodes 4\n");
                for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
                    text.push_str(&format!(
                        "{u} {v} {}\n",
                        rng.gen_range(1..100) as f64 / 100.0
                    ));
                }
                // Normalised through the reader and writer, as every
                // other rung's text is.
                graph_text(
                    &chameleon_ugraph::io::read_text(text.as_bytes(), DedupPolicy::KeepFirst)
                        .expect("fixed 4-edge graph parses"),
                )
            } else {
                let n = if ctx.toy { n / 50 } else { n };
                graph_text(&brightkite_like(
                    n,
                    seq.derive_indexed("framing-graph", r as u64),
                ))
            };
            let graph_json = json::string(&text);
            // 52 bits: the protocol reads numbers as JSON doubles.
            let seed = seq.derive_indexed("framing-seed", r as u64) >> 12;
            let (line, job) = if n == 0 {
                (
                    format!(
                        "{{\"op\":\"reliability\",\"graph\":{graph_json},\"worlds\":{TINY_WORLDS},\
                         \"pairs\":{TINY_PAIRS},\"threads\":1,\"seed\":{seed}}}"
                    ),
                    JobSpec::Reliability {
                        graph: text.clone(),
                        worlds: TINY_WORLDS,
                        pairs: TINY_PAIRS,
                        threads: 1,
                        seed,
                    },
                )
            } else {
                (
                    format!(
                        "{{\"op\":\"check\",\"graph\":{graph_json},\"k\":{CHECK_K},\
                         \"epsilon\":{EPSILON}}}"
                    ),
                    JobSpec::Check {
                        graph: text.clone(),
                        k: CHECK_K,
                        epsilon: EPSILON,
                        tolerance: 0,
                    },
                )
            };
            Rung { text, line, job }
        })
        .collect()
}

fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    sys::median(&times)
}

/// Median round-trip of `line` on `conn` over `reps` requests; records a
/// failure unless every reply is `hit`.
fn cached_rtt(
    report: &mut Report,
    conn: &mut TcpStream,
    line: &str,
    hit: &str,
    reps: usize,
    what: &str,
) -> f64 {
    let mut all_hits = true;
    let rtt_s = median_time(reps, || {
        all_hits &= roundtrip(conn, line).is_ok_and(|reply| reply == hit);
    });
    if !all_hits {
        report.fail(format!(
            "framing probe {what}: a reply was not the cached in-process result"
        ));
    }
    rtt_s
}

/// Sends `line` once on `conn`; records a failure unless the reply is
/// `want`.
fn expect_reply(report: &mut Report, conn: &mut TcpStream, line: &str, want: &str, what: &str) {
    match roundtrip(conn, line) {
        Ok(reply) if reply == want => {}
        Ok(reply) => report.fail(format!(
            "framing probe {what}: reply differs from the in-process result: {reply:.160}"
        )),
        Err(e) => report.fail(format!("framing probe {what}: {e}")),
    }
}

/// Primes every rung through the gateway, then times per size class
/// `parse_request`, the FNV-1a digest and a cached round-trip straight to
/// backend 0, plus the gateway's extra hop on the 4-edge rung over a
/// straight request to the backend it routes to. Every reply must equal
/// `ok_response` over an in-process `JobSpec::execute`.
pub fn probe(ctx: &Ctx, report: &mut Report, fleet: &Fleet) {
    let connect = |addr: &str| {
        fleet::connect(addr, 1)
            .expect("connect to the loopback fleet")
            .remove(0)
    };
    let mut direct = connect(&fleet.backend_addrs[0]);
    let mut via_gate = connect(&fleet.gate_addr);
    for (r, rung) in rungs(ctx).iter().enumerate() {
        let class = SIZE_CLASSES[r];
        let result = rung
            .job
            .execute(&CancelToken::new())
            .unwrap_or_else(|e| format!("{e:?}"));
        let (cold, hit) = (
            ok_response(None, false, &result),
            ok_response(None, true, &result),
        );
        expect_reply(report, &mut via_gate, &rung.line, &cold, class);
        // Only the backend the gateway routed the rung to has it cached;
        // one direct request to every backend finds that owner and caches
        // the rung on the others, backend 0 included.
        let mut owner = None;
        for (b, addr) in fleet.backend_addrs.iter().enumerate() {
            match roundtrip(&mut connect(addr), &rung.line) {
                Ok(reply) if reply == hit => {
                    owner.get_or_insert(b);
                }
                Ok(reply) if reply == cold => {}
                Ok(reply) => report.fail(format!(
                    "framing probe {class}: backend {b} reply differs from the in-process \
                     result: {reply:.160}"
                )),
                Err(e) => report.fail(format!("framing probe {class}: backend {b}: {e}")),
            }
        }
        let Some(owner) = owner else {
            report.fail(format!(
                "framing probe {class}: no backend cached the gateway's reply"
            ));
            continue;
        };
        let parse_s = median_time(REPS[r], || {
            std::hint::black_box(parse_request(&rung.line).is_ok());
        });
        let digest_s = median_time(REPS[r], || {
            std::hint::black_box(fnv1a64(rung.text.as_bytes()));
        });
        let rtt_s = cached_rtt(report, &mut direct, &rung.line, &hit, REPS[r], class);
        let mb = (rung.line.len() + 1) as f64 / 1e6;
        let ms_per_mb = (rtt_s - parse_s - digest_s).max(0.0) * 1e3 / mb;
        report.set(
            [
                "server.protocol.parse_s.tiny",
                "server.protocol.parse_s.n6k",
                "server.protocol.parse_s.n25k",
                "server.protocol.parse_s.n100k",
            ][r],
            parse_s,
        );
        report.set(
            [
                "server.cache.digest_s.tiny",
                "server.cache.digest_s.n6k",
                "server.cache.digest_s.n25k",
                "server.cache.digest_s.n100k",
            ][r],
            digest_s,
        );
        if r > 0 {
            report.set(
                [
                    "",
                    "server.reactor.ms_per_mb.n6k",
                    "server.reactor.ms_per_mb.n25k",
                    "server.reactor.ms_per_mb.n100k",
                ][r],
                ms_per_mb,
            );
        }
        report.note(format!(
            "class {class:<6} {mb:>8.4} MB: direct cached {:.3} ms = parse {:.3} ms + digest \
             {:.3} ms + framing/relay {ms_per_mb:.2} ms/MB",
            rtt_s * 1e3,
            parse_s * 1e3,
            digest_s * 1e3
        ));
        if r == 0 {
            // Through the gateway and straight to the backend it routes to.
            let mut to_owner = connect(&fleet.backend_addrs[owner]);
            let gate_s = cached_rtt(report, &mut via_gate, &rung.line, &hit, HOP_REPS, class);
            let direct_s = cached_rtt(report, &mut to_owner, &rung.line, &hit, HOP_REPS, class);
            let hop_ms = (gate_s - direct_s) * 1e3;
            report.set("server.gateway.hop_ms", hop_ms);
            report.note(format!(
                "gateway hop {hop_ms:.3} ms (4-edge cached request, gateway minus direct)"
            ));
        }
    }
}
