//! `population`: the `reliability` and `check` ops plus anonymize's front
//! half at n = 10⁵, on strip-streamed compressed worlds under a byte
//! ceiling.
//!
//! Sampling, union-find analysis and ERR do nearly all the work, and
//! there is no σ search. Uniqueness scores are left out: their Gaussian
//! KDE is quadratic in n and takes ~65 s at this size (NOTES.md), so the
//! `search` workload measures them instead. The reliability layer runs from compressed
//! strips here and from dense in-RAM ensembles in `search`, so a kernel
//! change that helps one path and costs the other shows.

use crate::metrics::Report;
use crate::sys::{self, CpuMeter};
use crate::{graph_text, Ctx, THREADS};
use chameleon_core::relevance::edge_reliability_relevance_streamed;
use chameleon_core::{
    anonymity_check, anonymity_check_threads, edge_reliability_relevance_threads,
    vertex_reliability_relevance, AdversaryKnowledge,
};
use chameleon_datasets::brightkite_like;
use chameleon_reliability::{sample_distinct_pairs, EnsembleStream, WorldEnsemble};
use chameleon_stats::{alloc_guard, SeedSequence};
use chameleon_ugraph::builder::DedupPolicy;
use chameleon_ugraph::{io, NodeId, UncertainGraph};
use std::time::Instant;

const NODES: usize = 100_000;
const WORLDS: usize = 256;
const STRIP: usize = 64;
/// The streamed pass must fit this tracked-ensemble ceiling (the dense
/// ensemble at this size needs ~146 MB).
const CEILING_BYTES: usize = 64 << 20;
const PAIRS: usize = 64;
/// Pairs behind `rel_discrepancy`.
const FLOOR_PAIRS: usize = 500;
const K: usize = 100;

struct Inputs {
    graph: UncertainGraph,
    text: String,
    pairs: Vec<(NodeId, NodeId)>,
    ens_seed: u64,
}

/// Everything one pass computes; passes and the dense path must agree
/// bit for bit.
#[derive(PartialEq)]
struct Outputs {
    ecp: u64,
    rels: Vec<u64>,
    err: Vec<u64>,
    vrr: Vec<u64>,
    eps_hat: u64,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn inputs(ctx: &Ctx) -> Inputs {
    let seq = SeedSequence::new(ctx.seed);
    let n = if ctx.toy { NODES / 50 } else { NODES };
    let graph = brightkite_like(n, seq.derive("population-graph"));
    let text = graph_text(&graph);
    let pairs = sample_distinct_pairs(n, PAIRS, &mut seq.rng("population-pairs"));
    Inputs {
        graph,
        text,
        pairs,
        ens_seed: seq.derive("population-ensemble"),
    }
}

/// One streamed pass: sample, ECP, pair reliability, ERR, VRR, anonymity
/// check.
fn pass(ctx: &Ctx, input: &Inputs, trace: u64, root: u64) -> Result<Outputs, String> {
    let tr = &ctx.tracer;
    let g = &input.graph;
    let stream = tr
        .time("ugraph.sample", trace, root, || {
            EnsembleStream::sample(g, WORLDS, input.ens_seed, THREADS, STRIP)
        })
        .map_err(|e| e.to_string())?;
    let ecp = tr
        .time("reliability.ecp", trace, root, || {
            stream.expected_connected_pairs()
        })
        .map_err(|e| e.to_string())?;
    let rels = tr
        .time("reliability.pairs", trace, root, || {
            stream.reliability_many(&input.pairs)
        })
        .map_err(|e| e.to_string())?;
    let err = tr
        .time("core.relevance.err", trace, root, || {
            edge_reliability_relevance_streamed(g, &stream, THREADS)
        })
        .map_err(|e| e.to_string())?;
    let vrr = tr.time("core.relevance.vrr", trace, root, || {
        vertex_reliability_relevance(g, &err)
    });
    let check = tr.time("core.anonymity.check", trace, root, || {
        anonymity_check_threads(g, &AdversaryKnowledge::expected_degrees(g), K, THREADS)
    });
    Ok(Outputs {
        ecp: ecp.to_bits(),
        rels: bits(&rels),
        err: bits(&err),
        vrr: bits(&vrr),
        eps_hat: check.eps_hat.to_bits(),
    })
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let input = ctx.setup(report, |_| inputs(ctx));
    let tr = &ctx.tracer;
    let mut first: Option<Outputs> = None;
    let mut pass_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut check_calls = Vec::new();
    alloc_guard::set_ensemble_limit(CEILING_BYTES);
    let cpu = CpuMeter::start();
    let start = Instant::now();
    for round in 0.. {
        let traced = ctx.trace_round(round);
        report.attempted += 1;
        let checks0 = chameleon_obs::counter_value("anonymity.checks");
        let root = tr.new_id();
        let t0 = Instant::now();
        let out = pass(ctx, &input, round as u64, root);
        let t1 = Instant::now();
        tr.record(root, 0, round as u64, "population.pass", t0, t1);
        let pass_len = t1.duration_since(t0).as_secs_f64();
        pass_s[usize::from(traced)].push(pass_len);
        if traced {
            check_calls.push((chameleon_obs::counter_value("anonymity.checks") - checks0) as f64);
        }
        match (out, &first) {
            (Err(e), _) => report.fail(format!("population pass {round}: {e}")),
            (Ok(o), None) => first = Some(o),
            (Ok(o), Some(f)) => {
                if o != *f {
                    report.fail(format!(
                        "population pass {round}: outputs differ from pass 0"
                    ));
                }
            }
        }
        if !ctx.another_round(start, round + 1, pass_len) {
            break;
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let (cpu_s, cpu_wall) = cpu.stop();
    let peak = alloc_guard::ensemble_peak_bytes();
    alloc_guard::set_ensemble_limit(0);
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report.set("peak_ensemble_bytes", peak as f64);
    if peak > CEILING_BYTES {
        report.fail(format!(
            "population: tracked ensemble peak {peak} B breached the {CEILING_BYTES} B ceiling"
        ));
    }

    let untraced = sys::median(&pass_s[0]);
    let passes = (pass_s[0].len() + pass_s[1].len()) as f64;
    report.set("wall_s", untraced);
    report.set("throughput_rps", passes / window_s);
    report.set("latency_p50_ms", 1e3 * untraced);
    report.set(
        "client.latency_p90_ms",
        1e3 * sys::quantile(&pass_s[0], 0.9),
    );
    report.set(
        "client.latency_p99_ms",
        1e3 * sys::quantile(&pass_s[0], 0.99),
    );
    report.set(
        "ingest_mb_per_s",
        passes * input.text.len() as f64 / 1e6 / window_s,
    );
    report.set(
        "stats.parallel.cpu_util",
        cpu_s / (cpu_wall * THREADS as f64),
    );
    report.note(format!(
        "n {} m {}: {passes} passes in {window_s:.2} s; cpu_util {:.3} = {cpu_s:.2} s cpu / \
         ({cpu_wall:.2} s wall x {THREADS} threads); tracked ensemble peak {peak} B under a \
         {CEILING_BYTES} B ceiling",
        input.graph.num_nodes(),
        input.graph.num_edges(),
        cpu_s / (cpu_wall * THREADS as f64)
    ));

    // Correctness, once per run: the dense in-RAM path (ceiling lifted)
    // must reproduce the streamed statistics bit for bit.
    tr.set_on(false);
    let g = &input.graph;
    let dense = WorldEnsemble::sample_seeded(g, WORLDS, input.ens_seed, THREADS);
    let err = edge_reliability_relevance_threads(g, &dense, THREADS);
    let want = Outputs {
        ecp: dense.expected_connected_pairs().to_bits(),
        rels: bits(&dense.reliability_many(&input.pairs)),
        vrr: bits(&vertex_reliability_relevance(g, &err)),
        err: bits(&err),
        eps_hat: anonymity_check(g, &AdversaryKnowledge::expected_degrees(g), K)
            .eps_hat
            .to_bits(),
    };
    if let Some(f) = &first {
        if *f != want {
            report.fail("population: streamed statistics differ from the dense path".into());
        }
    }
    // rel_discrepancy: the Monte-Carlo floor of pair reliability, fixed
    // pairs estimated from these worlds and from independently seeded
    // ones. It moves only if the sampled worlds change.
    let seq = SeedSequence::new(ctx.seed);
    let floor_pairs = sample_distinct_pairs(
        g.num_nodes(),
        FLOOR_PAIRS,
        &mut seq.rng("population-floor-pairs"),
    );
    let ours = dense.reliability_many(&floor_pairs);
    drop(dense);
    let indep = EnsembleStream::sample(g, WORLDS, seq.derive("population-floor"), THREADS, STRIP)
        .and_then(|s| s.reliability_many(&floor_pairs))
        .expect("no ceiling is set");
    let floor = ours
        .iter()
        .zip(&indep)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / FLOOR_PAIRS as f64;
    report.set("rel_discrepancy", floor);

    if ctx.traced {
        layer_metrics(ctx, report, &input, &check_calls);
        ctx.attribution(report, "population.pass", untraced, sys::median(&pass_s[1]));
    }
}

fn layer_metrics(ctx: &Ctx, report: &mut Report, input: &Inputs, check_calls: &[f64]) {
    let tr = &ctx.tracer;
    let mean_of = |name: &str| sys::mean(&tr.durations(name));
    report.set("ugraph.sample_s", mean_of("ugraph.sample"));
    report.set("reliability.ecp_s", mean_of("reliability.ecp"));
    report.set("reliability.pairs_s", mean_of("reliability.pairs"));
    report.set("core.relevance.err_s", mean_of("core.relevance.err"));
    report.set("core.relevance.vrr_s", mean_of("core.relevance.vrr"));
    report.set("core.anonymity.check_s", mean_of("core.anonymity.check"));
    report.set("core.anonymity.check_calls", sys::median(check_calls));
    // Outside the passes: one strip sweep alone (the union-find analysis
    // every statistic above folds over), the store's size and one parse
    // of the graph's text form.
    let g = &input.graph;
    let stream = EnsembleStream::sample(g, WORLDS, input.ens_seed, THREADS, STRIP)
        .expect("no ceiling is set");
    let t = Instant::now();
    let mut worlds = 0usize;
    stream
        .for_each_strip(|_, s| worlds += s.len())
        .expect("no ceiling is set");
    report.set("reliability.analyze_s", t.elapsed().as_secs_f64());
    assert_eq!(worlds, WORLDS);
    report.set("ugraph.compressed_bytes", stream.compressed_bytes() as f64);
    report.set("ugraph.compression_ratio", stream.compression_ratio());
    let t = Instant::now();
    let parsed = io::read_text(input.text.as_bytes(), DedupPolicy::KeepFirst)
        .expect("rendered graph text parses");
    report.set("ugraph.parse_s", t.elapsed().as_secs_f64());
    assert_eq!(parsed.num_edges(), g.num_edges());
}
