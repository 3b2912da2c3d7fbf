//! `search`: closed loop, one in-process `Chameleon::anonymize` at a time.
//!
//! The σ search (GenObf select/perturb/clone plus the anonymity check)
//! does most of the work; no server code runs, so a serving change must
//! leave this workload unchanged.

use crate::metrics::Report;
use crate::sys::{self, CpuMeter};
use crate::{discrepancy, graph_text, Ctx, THREADS};
use chameleon_core::{
    anonymity_check, edge_reliability_relevance_threads, uniqueness_scores,
    vertex_reliability_relevance, AdversaryKnowledge, Chameleon, ChameleonConfig, Method,
};
use chameleon_datasets::{generate, DatasetKind};
use chameleon_reliability::WorldEnsemble;
use chameleon_stats::{alloc_guard, SeedSequence};
use chameleon_ugraph::builder::DedupPolicy;
use chameleon_ugraph::{io, UncertainGraph};
use std::time::Instant;

/// `(dataset, n, k)`. k is 2.5–5% of n: at these settings every seed
/// tried found a release through the regular σ search (6–8 GenObf
/// calls), and n is set so that a job costs about the same (≈0.6 s) on
/// each dataset. Lower k lets some seeds collapse σ towards 0 over ~46
/// calls. PPI-like graphs are left out: between k that collapse and k
/// that find no release, their σ search takes 8–14 calls, and the job
/// list's cost swung with the seed.
const DATASETS: [(DatasetKind, usize, usize); 2] = [
    (DatasetKind::Dblp, 4000, 100),
    (DatasetKind::Brightkite, 5500, 275),
];
/// Graph instances per dataset: more distinct jobs average out the
/// per-seed spread of σ-search lengths.
const INSTANCES: usize = 6;
const EPSILON: f64 = 0.01;
const WORLDS: usize = 100;
const TRIALS: usize = 2;
/// Worlds per ensemble behind `rel_discrepancy`: releases here differ from
/// their inputs by far more than the Monte-Carlo noise at this count.
const REL_WORLDS: usize = 200;

struct Job {
    name: String,
    graph: usize,
    k: usize,
    incremental: bool,
    seed: u64,
}

struct Inputs {
    graphs: Vec<UncertainGraph>,
    texts: Vec<String>,
    jobs: Vec<Job>,
}

/// What a job returned in its first round; later rounds must repeat it.
struct Outcome {
    release: UncertainGraph,
    sigma: f64,
    eps_hat: f64,
    calls: usize,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let seq = SeedSequence::new(ctx.seed);
    let (mut graphs, mut texts, mut jobs) = (Vec::new(), Vec::new(), Vec::new());
    for (d, (kind, n, k)) in DATASETS.iter().enumerate() {
        let (n, k) = if ctx.toy { (n / 8, k / 8) } else { (*n, *k) };
        for inst in 0..INSTANCES {
            let g = generate(
                &kind.scaled_spec(n),
                seq.derive_indexed2("search-graph", d as u64, inst as u64),
            );
            texts.push(graph_text(&g));
            graphs.push(g);
            for incremental in [false, true] {
                jobs.push(Job {
                    name: format!(
                        "{}-n{n}-k{k}-i{inst}-{}",
                        kind.name(),
                        if incremental { "incremental" } else { "plain" }
                    ),
                    graph: graphs.len() - 1,
                    k,
                    incremental,
                    seed: seq.derive_indexed("search-job", jobs.len() as u64),
                });
            }
        }
    }
    Inputs {
        graphs,
        texts,
        jobs,
    }
}

fn config(job: &Job) -> ChameleonConfig {
    ChameleonConfig {
        k: job.k,
        epsilon: EPSILON,
        num_world_samples: WORLDS,
        trials: TRIALS,
        num_threads: THREADS,
        incremental: job.incremental,
        ..ChameleonConfig::default()
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let input = ctx.setup(report, |_| {
        let input = inputs(ctx);
        // Warm-up: fault in the code paths and the allocator once.
        let warm = &input.jobs[0];
        let _ = Chameleon::new(ChameleonConfig {
            num_world_samples: 20,
            trials: 1,
            ..config(warm)
        })
        .anonymize(&input.graphs[warm.graph], Method::Rsme, warm.seed);
        input
    });
    let tr = &ctx.tracer;

    let mut outcomes: Vec<Option<Outcome>> = input.jobs.iter().map(|_| None).collect();
    let mut latencies = Vec::new();
    let mut round_walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut anonymize_s = vec![Vec::new(); input.jobs.len()];
    let mut check_calls = Vec::new();
    let mut ingest_bytes = 0usize;
    let cpu = CpuMeter::start();
    let start = Instant::now();
    for round in 0.. {
        let traced = ctx.trace_round(round);
        let checks0 = chameleon_obs::counter_value("anonymity.checks");
        let t_round = Instant::now();
        for (j, job) in input.jobs.iter().enumerate() {
            let g = &input.graphs[job.graph];
            report.attempted += 1;
            let root = tr.new_id();
            let t0 = Instant::now();
            let res = tr.time("core.chameleon.anonymize", j as u64, root, || {
                Chameleon::new(config(job)).anonymize(g, Method::Rsme, job.seed)
            });
            let t1 = Instant::now();
            tr.record(root, 0, j as u64, "search.job", t0, t1);
            let secs = t1.duration_since(t0).as_secs_f64();
            ingest_bytes += input.texts[job.graph].len();
            if traced {
                anonymize_s[j].push(secs);
            } else {
                latencies.push(secs * 1e3);
            }
            let r = match res {
                Ok(r) => r,
                Err(e) => {
                    report.fail(format!("search job {} (round {round}): {e}", job.name));
                    continue;
                }
            };
            match &outcomes[j] {
                None => {
                    outcomes[j] = Some(Outcome {
                        release: r.graph,
                        sigma: r.sigma,
                        eps_hat: r.eps_hat,
                        calls: r.genobf_calls,
                    })
                }
                Some(o) => {
                    if o.sigma.to_bits() != r.sigma.to_bits()
                        || o.eps_hat.to_bits() != r.eps_hat.to_bits()
                        || o.calls != r.genobf_calls
                        || o.release.num_edges() != r.graph.num_edges()
                    {
                        report.fail(format!(
                            "search job {} (round {round}): not deterministic across rounds",
                            job.name
                        ));
                    }
                }
            }
        }
        let round_s = t_round.elapsed().as_secs_f64();
        round_walls[usize::from(traced)].push(round_s);
        if traced {
            check_calls.push((chameleon_obs::counter_value("anonymity.checks") - checks0) as f64);
        }
        if !ctx.another_round(start, round + 1, round_s) {
            break;
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let (cpu_s, cpu_wall) = cpu.stop();
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report.set(
        "peak_ensemble_bytes",
        alloc_guard::ensemble_peak_bytes() as f64,
    );

    tr.set_on(ctx.traced);
    // Correctness: a fresh anonymity check of every release at its
    // (k, ε), against the adversary's view of the input.
    let seq = SeedSequence::new(ctx.seed);
    let mut discrepancies = Vec::new();
    for (j, job) in input.jobs.iter().enumerate() {
        let Some(o) = &outcomes[j] else { continue };
        let g = &input.graphs[job.graph];
        let knowledge = AdversaryKnowledge::expected_degrees(g);
        let fresh = tr.time("core.anonymity.check", j as u64, 0, || {
            anonymity_check(&o.release, &knowledge, job.k)
        });
        if !fresh.satisfies(EPSILON) || fresh.eps_hat.to_bits() != o.eps_hat.to_bits() {
            report.fail(format!(
                "search job {}: release fails a fresh ({}, {EPSILON}) check (eps_hat {} vs \
                 reported {})",
                job.name, job.k, fresh.eps_hat, o.eps_hat
            ));
        }
        let d = discrepancy(
            g,
            &o.release,
            REL_WORLDS,
            seq.derive_indexed("search-discrepancy", j as u64),
        );
        discrepancies.push(d);
        report.note(format!(
            "job {:<36} sigma {:<12.6} eps_hat {:<8.5} genobf_calls {:>3} discrepancy {d:.5}",
            job.name, o.sigma, o.eps_hat, o.calls
        ));
    }
    report.set("rel_discrepancy", sys::mean(&discrepancies));

    let untraced_wall = sys::median(&round_walls[0]);
    report.set("wall_s", untraced_wall);
    report.set("throughput_rps", report.attempted as f64 / window_s);
    report.set("latency_p50_ms", sys::quantile(&latencies, 0.5));
    report.set("client.latency_p90_ms", sys::quantile(&latencies, 0.9));
    report.set("client.latency_p99_ms", sys::quantile(&latencies, 0.99));
    report.set("ingest_mb_per_s", ingest_bytes as f64 / 1e6 / window_s);
    report.set(
        "stats.parallel.cpu_util",
        cpu_s / (cpu_wall * THREADS as f64),
    );
    report.note(format!(
        "cpu_util {:.3} = {cpu_s:.2} s cpu / ({cpu_wall:.2} s wall x {THREADS} threads)",
        cpu_s / (cpu_wall * THREADS as f64)
    ));
    if ctx.traced {
        layer_metrics(ctx, report, &input, &outcomes, &anonymize_s, &check_calls);
        ctx.attribution(
            report,
            "search.job",
            untraced_wall,
            sys::median(&round_walls[1]),
        );
    }
}

/// Times, outside the measured rounds, the input-only stages that
/// `anonymize` runs before its σ search (uniqueness, world sampling, ERR,
/// VRR) on each job's input; the σ search is what remains.
fn layer_metrics(
    ctx: &Ctx,
    report: &mut Report,
    input: &Inputs,
    outcomes: &[Option<Outcome>],
    anonymize_s: &[Vec<f64>],
    check_calls: &[f64],
) {
    let tr = &ctx.tracer;
    tr.set_on(true);
    let (mut parse, mut uniq, mut sample, mut err, mut vrr) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut search, mut anon, mut sigma, mut eps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut calls, mut search_total) = (0usize, 0.0f64);
    for (j, job) in input.jobs.iter().enumerate() {
        let g = &input.graphs[job.graph];
        let t = Instant::now();
        let parsed = io::read_text(input.texts[job.graph].as_bytes(), DedupPolicy::KeepFirst)
            .expect("rendered graph text parses");
        parse.push(t.elapsed().as_secs_f64());
        assert_eq!(parsed.num_edges(), g.num_edges());
        let timed = |name: &'static str, f: &mut dyn FnMut()| {
            let t = Instant::now();
            tr.time(name, j as u64, 0, f);
            t.elapsed().as_secs_f64()
        };
        let u = timed("core.uniqueness", &mut || {
            std::hint::black_box(uniqueness_scores(g));
        });
        let mut ens = None;
        let s = timed("ugraph.sample", &mut || {
            ens = Some(WorldEnsemble::sample_seeded(g, WORLDS, job.seed, THREADS));
        });
        let ens = ens.expect("sampled above");
        let mut e = Vec::new();
        let r = timed("core.relevance.err", &mut || {
            e = edge_reliability_relevance_threads(g, &ens, THREADS);
        });
        let v = timed("core.relevance.vrr", &mut || {
            std::hint::black_box(vertex_reliability_relevance(g, &e));
        });
        let a = sys::mean(&anonymize_s[j]);
        let rest = (a - u - s - r - v).max(0.0);
        uniq.push(u);
        sample.push(s);
        err.push(r);
        vrr.push(v);
        anon.push(a);
        search.push(rest);
        if let Some(o) = &outcomes[j] {
            calls += o.calls;
            search_total += rest;
            sigma.push(o.sigma);
            eps.push(o.eps_hat);
        }
    }
    report.set("ugraph.parse_s", sys::mean(&parse));
    report.set("ugraph.sample_s", sys::mean(&sample));
    report.set("core.uniqueness_s", sys::mean(&uniq));
    report.set("core.relevance.err_s", sys::mean(&err));
    report.set("core.relevance.vrr_s", sys::mean(&vrr));
    report.set("core.chameleon.anonymize_s", sys::mean(&anon));
    report.set("core.chameleon.search_s", sys::mean(&search));
    report.set("core.chameleon.genobf_calls", calls as f64);
    report.set("core.chameleon.probe_s", search_total / calls.max(1) as f64);
    report.set("core.chameleon.sigma", sys::mean(&sigma));
    report.set("core.chameleon.eps_hat", sys::mean(&eps));
    report.set(
        "core.anonymity.check_s",
        sys::mean(&tr.durations("core.anonymity.check")),
    );
    report.set("core.anonymity.check_calls", sys::median(check_calls));
    report.note(format!(
        "per job (mean of {} jobs): anonymize {:.4} s = uniqueness {:.4} + sample {:.4} + ERR \
         {:.4} + VRR {:.4} + sigma search {:.4}; {calls} GenObf calls, {:.5} s per probe; \
         {} anonymity checks per round",
        input.jobs.len(),
        sys::mean(&anon),
        sys::mean(&uniq),
        sys::mean(&sample),
        sys::mean(&err),
        sys::mean(&vrr),
        sys::mean(&search),
        search_total / calls.max(1) as f64,
        sys::median(check_calls),
    ));
}
