//! `chameleon` — anonymize, audit and analyze uncertain graphs from the
//! command line.
//!
//! ```text
//! chameleon generate  <out.txt> --dataset dblp|brightkite|ppi --nodes N [--seed S]
//! chameleon stats     <graph.txt>
//! chameleon check     <graph.txt> --k K [--epsilon E] [--original orig.txt]
//!                     [--tolerance T]   # adversary knows degree only up to ±T
//! chameleon anonymize <in.txt> <out.txt> --k K [--epsilon E] [--method RSME|RS|ME|REPAN]
//!                     [--seed S] [--worlds N] [--trials T] [--threads T]
//!                     [--strip-worlds W] [--max-ensemble-bytes B]
//!                     # --threads 0 (default) uses all cores; results are
//!                     # bit-identical for every thread count.
//!                     # --strip-worlds W samples the Monte-Carlo ensemble
//!                     # in strips of W worlds (rounded up to 32), with
//!                     # bit-identical output; --max-ensemble-bytes B
//!                     # makes B a hard ceiling on tracked ensemble memory —
//!                     # runs that would exceed it fail cleanly instead.
//! chameleon attack    <graph.txt> [--original orig.txt] [--candidates C]
//! chameleon profile   <graph.txt> [--original orig.txt] [--top T]
//! chameleon compare   <a.txt> <b.txt> [--worlds N] [--pairs P] [--seed S]
//! chameleon mine      <graph.txt> --task knn|clusters|influence
//!                     [--source V] [--top K] [--threshold T] [--seeds K]
//!                     [--worlds N] [--seed S]
//! chameleon synth     <in.txt> <out.txt> [--nodes N] [--seed S] [--dp-epsilon E]
//! chameleon serve     [chameleond flags: see `chameleond --help`]
//!                     # run the chameleond job service (see DESIGN.md §7–8);
//!                     # --journal-dir enables the durable-jobs write-ahead
//!                     # journal (DESIGN.md §11); --resume re-enqueues
//!                     # incomplete journaled jobs after a crash.
//!                     # with --metrics, the final snapshot is written on
//!                     # graceful shutdown. Built with the `fault-injection`
//!                     # feature, --fault-* flags arm a deterministic chaos
//!                     # schedule (dev/test only).
//! chameleon gate      --backends addr,addr,...
//!                     [chameleon_gate flags: see `chameleon_gate --help`]
//!                     # run chameleon-gate (DESIGN.md §13): shard jobs
//!                     # across N chameleond backends by graph digest on a
//!                     # consistent-hash ring; dead backends are detected,
//!                     # their jobs re-driven to the ring successor, and
//!                     # results stay byte-identical regardless of placement.
//! chameleon submit    [in.txt] [out.txt] --job obfuscate|check|reliability|status|shutdown
//!                     [--host H] [--port P] [--id ID] [--timeout-ms MS]
//!                     [--retries N] [--retry-base-ms MS] [--io-retries N]
//!                     [--via-gateway]
//!                     [job flags as for the matching subcommand]
//!                     # send one job to a running chameleond; for
//!                     # obfuscate, the returned graph is written to out.txt
//!                     # byte-identical to `chameleon anonymize` output.
//!                     # Retryable rejections (queue full, injected faults)
//!                     # are retried with seeded-jitter backoff honoring the
//!                     # server's retry_after_ms hint; connect/I-O errors
//!                     # retry under the same backoff up to --io-retries.
//!                     # --via-gateway targets a chameleon-gate (port 7789)
//!                     # and widens both retry budgets to outlast failovers.
//! ```
//!
//! Graphs use the text edge-list format of `chameleon_ugraph::io`. When
//! `--original` is omitted for check/attack/profile, the graph audits
//! itself (adversary knowledge = its own expected degrees).
//!
//! Every subcommand also accepts `--metrics <path>`: on exit (success,
//! failure, or a `check` violation) the process writes the observability
//! snapshot — timing spans, counters and latency histograms from
//! `chameleon_obs` — to the path as deterministic JSON.

mod args;

use args::Cli;
use chameleon_baseline::RepAn;
use chameleon_core::{
    anonymity_check_tolerant, simulate_degree_attack, AdversaryKnowledge, Chameleon,
    ChameleonConfig, Method, PrivacyProfile,
};
use chameleon_reliability::{avg_reliability_discrepancy, sample_distinct_pairs, WorldEnsemble};
use chameleon_stats::SeedSequence;
use chameleon_ugraph::analysis::GraphSummary;
use chameleon_ugraph::builder::DedupPolicy;
use chameleon_ugraph::{io, UncertainGraph};

/// Subcommand entry: name, flag whitelist, handler.
type Command = (
    &'static str,
    &'static [&'static str],
    fn(&Cli) -> Result<(), String>,
);

/// Per-subcommand flag whitelist (the global `--metrics` is implied);
/// `Cli::expect_flags` turns typos into errors instead of silent defaults.
const COMMANDS: &[Command] = &[
    ("generate", &["dataset", "nodes", "seed"], cmd_generate),
    ("stats", &[], cmd_stats),
    (
        "check",
        &["k", "epsilon", "tolerance", "original"],
        cmd_check,
    ),
    (
        "anonymize",
        &[
            "k",
            "epsilon",
            "method",
            "seed",
            "worlds",
            "trials",
            "threads",
            "incremental",
            "strip-worlds",
            "max-ensemble-bytes",
        ],
        cmd_anonymize,
    ),
    ("attack", &["original", "candidates"], cmd_attack),
    ("profile", &["original", "top"], cmd_profile),
    ("compare", &["worlds", "pairs", "seed"], cmd_compare),
    (
        "mine",
        &[
            "task",
            "source",
            "top",
            "threshold",
            "min-size",
            "seeds",
            "worlds",
            "seed",
        ],
        cmd_mine,
    ),
    ("synth", &["nodes", "seed", "dp-epsilon"], cmd_synth),
    (
        "submit",
        &[
            "host",
            "port",
            "job",
            "id",
            "timeout-ms",
            "retries",
            "retry-base-ms",
            "io-retries",
            "via-gateway",
            "k",
            "epsilon",
            "method",
            "seed",
            "worlds",
            "trials",
            "threads",
            "strip-worlds",
            "tolerance",
            "pairs",
            "chunk-bytes",
        ],
        cmd_submit,
    ),
];

fn main() {
    let cli = match Cli::from_env() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    };
    // `serve` and `gate` validate their flags against the server crate's
    // own tables, shared with the standalone binaries.
    let outcome = match cli.command() {
        Some("serve") => cmd_serve(cli.flag_args()),
        Some("gate") => cmd_gate(cli.flag_args()),
        Some(name) => match COMMANDS.iter().find(|(cmd, _, _)| *cmd == name) {
            Some((_, allowed, run)) => cli.expect_flags(allowed).and_then(|()| run(&cli)),
            None => Err(format!("unknown command {name:?}\n\n{USAGE}")),
        },
        None => Err(USAGE.to_string()),
    };
    // `--metrics` applies to every subcommand, including failed ones (a
    // run that errors out mid-pipeline still leaves a usable snapshot).
    let metrics = write_metrics(&cli);
    if let Err(msg) = outcome.and(metrics) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}

/// Writes the observability snapshot to the path given by `--metrics`
/// (no-op when the flag is absent). Must be invoked on every exit path —
/// `cmd_check` calls it directly because its violation branch bypasses
/// `main`'s epilogue via `process::exit(2)`.
fn write_metrics(cli: &Cli) -> Result<(), String> {
    let path: String = cli.get("metrics", String::new())?;
    if path.is_empty() {
        return Ok(());
    }
    std::fs::write(&path, chameleon_obs::metrics_json())
        .map_err(|e| format!("{path}: cannot write metrics: {e}"))
}

const USAGE: &str =
    "usage: chameleon <generate|stats|check|anonymize|attack|profile|compare|mine|synth|serve|submit> ...
run with a command and --help-style flags documented in the crate docs";

fn operand(cli: &Cli, index: usize, what: &str) -> Result<String, String> {
    cli.positional()
        .get(index)
        .cloned()
        .ok_or_else(|| format!("missing {what} operand"))
}

fn load(path: &str) -> Result<UncertainGraph, String> {
    io::read_file(path, DedupPolicy::KeepFirst).map_err(|e| format!("{path}: {e}"))
}

fn knowledge_for(cli: &Cli, graph: &UncertainGraph) -> Result<AdversaryKnowledge, String> {
    match cli.get::<String>("original", String::new())? {
        s if s.is_empty() => Ok(AdversaryKnowledge::expected_degrees(graph)),
        path => {
            let original = load(&path)?;
            if original.num_nodes() != graph.num_nodes() {
                return Err(format!(
                    "original has {} nodes, graph has {}",
                    original.num_nodes(),
                    graph.num_nodes()
                ));
            }
            Ok(AdversaryKnowledge::expected_degrees(&original))
        }
    }
}

fn cmd_generate(cli: &Cli) -> Result<(), String> {
    let out = operand(cli, 0, "output path")?;
    let dataset: String = cli.get("dataset", "brightkite".to_string())?;
    let nodes: usize = cli.get("nodes", 500usize)?;
    if nodes == 0 {
        return Err("generate requires --nodes >= 1".into());
    }
    let seed: u64 = cli.get("seed", 42u64)?;
    let graph = match dataset.to_lowercase().as_str() {
        "dblp" => chameleon_datasets::dblp_like(nodes, seed),
        "brightkite" => chameleon_datasets::brightkite_like(nodes, seed),
        "ppi" => chameleon_datasets::ppi_like(nodes, seed),
        other => return Err(format!("unknown dataset {other:?} (dblp|brightkite|ppi)")),
    };
    io::write_file(&graph, &out).map_err(|e| e.to_string())?;
    println!("wrote {} ({})", out, GraphSummary::of(&graph));
    Ok(())
}

fn cmd_stats(cli: &Cli) -> Result<(), String> {
    let path = operand(cli, 0, "graph path")?;
    let graph = load(&path)?;
    println!("{}", GraphSummary::of(&graph));
    Ok(())
}

fn cmd_check(cli: &Cli) -> Result<(), String> {
    let path = operand(cli, 0, "graph path")?;
    let graph = load(&path)?;
    let k: usize = cli.require("k")?;
    if k == 0 {
        return Err("check requires --k >= 1".into());
    }
    let epsilon: f64 = cli.get("epsilon", 0.0f64)?;
    let tolerance: u32 = cli.get("tolerance", 0u32)?;
    let knowledge = knowledge_for(cli, &graph)?;
    let report = anonymity_check_tolerant(&graph, &knowledge, k, tolerance);
    println!(
        "({k}, {epsilon})-obfuscation: {}",
        if report.satisfies(epsilon) {
            "SATISFIED"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "unobfuscated: {} of {} vertices (eps-hat = {:.5})",
        report.unobfuscated.len(),
        graph.num_nodes(),
        report.eps_hat
    );
    if !report.unobfuscated.is_empty() {
        let shown: Vec<String> = report
            .unobfuscated
            .iter()
            .take(10)
            .map(|v| v.to_string())
            .collect();
        println!("first exposed vertices: {}", shown.join(", "));
    }
    if report.satisfies(epsilon) {
        Ok(())
    } else {
        if let Err(msg) = write_metrics(cli) {
            eprintln!("error: {msg}");
        }
        std::process::exit(2);
    }
}

fn cmd_anonymize(cli: &Cli) -> Result<(), String> {
    let input = operand(cli, 0, "input path")?;
    let output = operand(cli, 1, "output path")?;
    let graph = load(&input)?;
    let k: usize = cli.require("k")?;
    let epsilon: f64 = cli.get("epsilon", 0.01f64)?;
    let method: String = cli.get("method", "RSME".to_string())?;
    let seed: u64 = cli.get("seed", 42u64)?;
    let worlds: usize = cli.get("worlds", 500usize)?;
    let trials: usize = cli.get("trials", 5usize)?;
    let threads: usize = cli.get("threads", 0usize)?;
    // `--incremental` reuses each GenObf trial's randomness across the σ
    // search (DESIGN.md §6d); output stays a deterministic function of
    // (seed, config) but can differ from the non-incremental bytes once
    // the search takes more than one probe.
    let incremental = cli.has("incremental");
    // Out-of-core ensembles (DESIGN.md §12): --strip-worlds streams the
    // analysis (bit-identical output); --max-ensemble-bytes turns the
    // tracked-ensemble gauge into a hard, fallible ceiling.
    let strip_worlds: usize = cli.get("strip-worlds", 0usize)?;
    let max_ensemble_bytes: usize = cli.get("max-ensemble-bytes", 0usize)?;
    chameleon_stats::alloc_guard::set_ensemble_limit(max_ensemble_bytes);
    let config = ChameleonConfig {
        k,
        epsilon,
        num_world_samples: worlds,
        trials,
        num_threads: threads,
        incremental,
        strip_worlds,
        ..ChameleonConfig::default()
    };
    config.validate()?;
    let (published, sigma, eps_hat) = if method.eq_ignore_ascii_case("repan") {
        let r = RepAn::new(config)
            .anonymize(&graph, seed)
            .map_err(|e| e.to_string())?;
        (r.graph, r.sigma, r.eps_hat)
    } else {
        let m: Method = method.parse()?;
        let r = Chameleon::new(config)
            .anonymize(&graph, m, seed)
            .map_err(|e| e.to_string())?;
        (r.graph, r.sigma, r.eps_hat)
    };
    io::write_file(&published, &output).map_err(|e| e.to_string())?;
    println!(
        "wrote {} — ({k}, {epsilon})-obfuscated with {method}, sigma = {sigma:.4e}, \
         eps-hat = {eps_hat:.5}, edges {} -> {}",
        output,
        graph.num_edges(),
        published.num_edges()
    );
    Ok(())
}

fn cmd_attack(cli: &Cli) -> Result<(), String> {
    let path = operand(cli, 0, "graph path")?;
    let graph = load(&path)?;
    let candidates: usize = cli.get("candidates", 1usize)?;
    if candidates == 0 {
        return Err("attack requires --candidates >= 1".into());
    }
    let knowledge = knowledge_for(cli, &graph)?;
    let report = simulate_degree_attack(&graph, &knowledge, candidates);
    println!(
        "degree-informed Bayesian adversary vs {} vertices:",
        graph.num_nodes()
    );
    println!(
        "  top-1 re-identification rate: {:.4}",
        report.top1_success_rate
    );
    println!(
        "  top-{} candidate-set hit rate:  {:.4}",
        candidates, report.topc_success_rate
    );
    println!(
        "  mean posterior on true id:    {:.4}",
        report.mean_posterior()
    );
    let disclosed = report.disclosed(0.5);
    println!(
        "  practically disclosed (>50% confidence): {} vertices",
        disclosed.len()
    );
    Ok(())
}

fn cmd_profile(cli: &Cli) -> Result<(), String> {
    let path = operand(cli, 0, "graph path")?;
    let graph = load(&path)?;
    let top: usize = cli.get("top", 10usize)?;
    let knowledge = knowledge_for(cli, &graph)?;
    let profile = PrivacyProfile::compute(&graph, &knowledge);
    for eps in [0.0, 0.01, 0.05] {
        println!("max k at tolerance {eps}: {}", profile.max_k_at(eps));
    }
    println!("least-protected vertices:");
    for (v, h) in profile.weakest(top) {
        println!(
            "  vertex {v:>6}: H = {h:.3} bits (effective anonymity {:.1})",
            chameleon_stats::detmath::exp(h * std::f64::consts::LN_2)
        );
    }
    Ok(())
}

fn cmd_mine(cli: &Cli) -> Result<(), String> {
    let path = operand(cli, 0, "graph path")?;
    let graph = load(&path)?;
    let task: String = cli.get("task", "knn".to_string())?;
    let worlds: usize = cli.get("worlds", 500usize)?;
    let seed: u64 = cli.get("seed", 42u64)?;
    let mut rng = SeedSequence::new(seed).rng("cli-mine");
    let ens = WorldEnsemble::sample(&graph, worlds, &mut rng);
    match task.as_str() {
        "knn" => {
            let source: u32 = cli.get("source", 0u32)?;
            let top: usize = cli.get("top", 10usize)?;
            if source as usize >= graph.num_nodes() {
                return Err(format!("source {source} out of range"));
            }
            println!("top-{top} most reliable nodes from {source}:");
            for nb in chameleon_mining::reliability_knn(&ens, source, top) {
                println!("  node {:>6}  reliability {:.4}", nb.node, nb.reliability);
            }
        }
        "clusters" => {
            let threshold: f64 = cli.get("threshold", 0.5f64)?;
            if !(0.0..=1.0).contains(&threshold) {
                return Err(format!("--threshold {threshold} is not in [0, 1]"));
            }
            let min_size: usize = cli.get("min-size", 3usize)?;
            let cs = chameleon_mining::reliable_clusters(&graph, &ens, threshold, min_size);
            println!(
                "{} reliable clusters at threshold {threshold} (min size {min_size}):",
                cs.len()
            );
            for (i, c) in cs.clusters.iter().enumerate().take(20) {
                let preview: Vec<String> = c.iter().take(8).map(|v| v.to_string()).collect();
                let ellipsis = if c.len() > 8 { ", ..." } else { "" };
                println!(
                    "  #{i}: {} nodes [{}{}]",
                    c.len(),
                    preview.join(", "),
                    ellipsis
                );
            }
        }
        "influence" => {
            let k: usize = cli.get("seeds", 5usize)?;
            if k > graph.num_nodes() {
                return Err(format!("--seeds {k} exceeds node count"));
            }
            println!("greedy influence maximization ({k} seeds):");
            for (i, (v, spread)) in chameleon_mining::greedy_seed_selection(&ens, k)
                .into_iter()
                .enumerate()
            {
                println!(
                    "  pick {:>2}: node {v:>6}  cumulative spread {spread:.2}",
                    i + 1
                );
            }
        }
        other => return Err(format!("unknown task {other:?} (knn|clusters|influence)")),
    }
    Ok(())
}

/// Produce a synthetic twin of a graph: matched marginals (default) or an
/// epsilon-differentially-private dK-1 release (`--dp-epsilon`).
fn cmd_synth(cli: &Cli) -> Result<(), String> {
    let input = operand(cli, 0, "input path")?;
    let output = operand(cli, 1, "output path")?;
    let graph = load(&input)?;
    let seed: u64 = cli.get("seed", 42u64)?;
    let nodes: usize = cli.get("nodes", graph.num_nodes())?;
    let dp_epsilon: f64 = cli.get("dp-epsilon", 0.0f64)?;
    if nodes == 0 {
        return Err("synth requires --nodes >= 1".into());
    }
    let twin = if dp_epsilon > 0.0 {
        if nodes != graph.num_nodes() {
            return Err(
                "--nodes cannot be combined with --dp-epsilon (node count is public)".into(),
            );
        }
        chameleon_dp::DpPublisher::new(dp_epsilon).publish(&graph, seed)
    } else if graph.num_edges() == 0 {
        return Err(format!(
            "{input}: cannot fit a synthetic twin to an edgeless graph"
        ));
    } else {
        chameleon_datasets::synth_like(&graph, nodes, seed)
    };
    io::write_file(&twin, &output).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({}{})",
        output,
        GraphSummary::of(&twin),
        if dp_epsilon > 0.0 {
            format!(", {dp_epsilon}-DP")
        } else {
            String::new()
        }
    );
    Ok(())
}

/// Run the `chameleond` job service in the foreground until a client
/// sends `{"op":"shutdown"}` (graceful drain). `--metrics` doubles as the
/// final-snapshot path written during shutdown.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let config = chameleon_server::ServerConfig::from_args(args)?;
    let report = chameleon_server::Server::serve(config)?;
    println!("drained and stopped ({report})");
    Ok(())
}

/// Run chameleon-gate (DESIGN.md §13): a consistent-hashing gateway that
/// shards jobs across a fleet of chameleond backends by graph digest,
/// health-checks them, and re-drives jobs off dead backends with
/// byte-identical results.
fn cmd_gate(args: &[String]) -> Result<(), String> {
    let config = chameleon_server::GatewayConfig::from_args(args)?;
    let report = chameleon_server::Gateway::serve(config)?;
    println!("drained and stopped ({report})");
    Ok(())
}

/// Send one job to a running daemon and render the reply. An `obfuscate`
/// result graph is written to the output operand with exactly the bytes
/// `chameleon anonymize` would have produced locally.
fn cmd_submit(cli: &Cli) -> Result<(), String> {
    use chameleon_obs::json::{self, Json};
    let host: String = cli.get("host", "127.0.0.1".to_string())?;
    // --via-gateway targets a chameleon-gate front (default port 7789)
    // and widens the retry budgets: a failover re-drive can hold a job
    // for several backoff rounds, so the client should outlast it.
    let via_gateway = cli.has("via-gateway");
    let port: u16 = cli.get("port", if via_gateway { 7789u16 } else { 7788u16 })?;
    let addr = format!("{host}:{port}");
    let job: String = cli.get("job", "obfuscate".to_string())?;

    let mut req = String::from("{");
    let push_field = |req: &mut String, key: &str, value: String| {
        if req.len() > 1 {
            req.push(',');
        }
        req.push_str(&format!("\"{key}\":{value}"));
    };
    push_field(&mut req, "op", json::string(&job));
    let id: String = cli.get("id", String::new())?;
    if !id.is_empty() {
        push_field(&mut req, "id", json::string(&id));
    }
    let timeout_ms: u64 = cli.get("timeout-ms", 0u64)?;
    if timeout_ms > 0 {
        push_field(&mut req, "timeout_ms", timeout_ms.to_string());
    }
    // Ask the daemon to stream oversized responses as chunk frames; the
    // client helper reassembles them, so the rendered reply is identical.
    let chunk_bytes: u64 = cli.get("chunk-bytes", 0u64)?;
    if chunk_bytes > 0 {
        push_field(&mut req, "chunk_bytes", chunk_bytes.to_string());
    }
    let needs_graph = matches!(job.as_str(), "obfuscate" | "check" | "reliability");
    if needs_graph {
        let input = operand(cli, 0, "input path")?;
        let text = std::fs::read_to_string(&input).map_err(|e| format!("{input}: {e}"))?;
        push_field(&mut req, "graph", json::string(&text));
        push_field(&mut req, "seed", cli.get("seed", 42u64)?.to_string());
    }
    match job.as_str() {
        "obfuscate" => {
            push_field(&mut req, "k", cli.require::<usize>("k")?.to_string());
            push_field(
                &mut req,
                "epsilon",
                json::number(cli.get("epsilon", 0.01f64)?),
            );
            push_field(
                &mut req,
                "method",
                json::string(&cli.get("method", "RSME".to_string())?),
            );
            push_field(&mut req, "worlds", cli.get("worlds", 500usize)?.to_string());
            push_field(&mut req, "trials", cli.get("trials", 5usize)?.to_string());
            push_field(&mut req, "threads", cli.get("threads", 0usize)?.to_string());
            // Out-of-core execution knob: results are bit-identical, so
            // the server excludes it from the result cache key; omit it
            // entirely at the default to keep request bytes stable.
            let strip_worlds: usize = cli.get("strip-worlds", 0usize)?;
            if strip_worlds > 0 {
                push_field(&mut req, "strip_worlds", strip_worlds.to_string());
            }
        }
        "check" => {
            push_field(&mut req, "k", cli.require::<usize>("k")?.to_string());
            push_field(
                &mut req,
                "epsilon",
                json::number(cli.get("epsilon", 0.0f64)?),
            );
            push_field(
                &mut req,
                "tolerance",
                cli.get("tolerance", 0u32)?.to_string(),
            );
        }
        "reliability" => {
            push_field(&mut req, "worlds", cli.get("worlds", 500usize)?.to_string());
            push_field(&mut req, "pairs", cli.get("pairs", 2000usize)?.to_string());
            push_field(&mut req, "threads", cli.get("threads", 0usize)?.to_string());
        }
        "status" | "shutdown" => {}
        other => {
            return Err(format!(
                "unknown job {other:?} (obfuscate|check|reliability|status|shutdown)"
            ))
        }
    }
    req.push('}');

    // Retryable rejections (the server marks them with `retry_after_ms`:
    // queue full, injected faults) are retried with seeded-jitter backoff;
    // reusing the job seed keeps the whole submit schedule reproducible.
    let defaults = chameleon_server::RetryPolicy::default();
    let policy = chameleon_server::RetryPolicy {
        max_retries: cli.get("retries", if via_gateway { 8 } else { 3u32 })?,
        base_delay_ms: cli.get("retry-base-ms", 50u64)?,
        io_retries: cli.get(
            "io-retries",
            if via_gateway { 8 } else { defaults.io_retries },
        )?,
        seed: cli.get("seed", 42u64)?,
        ..defaults
    };
    let line = chameleon_server::request_with_retry(&addr, &req, &policy)
        .map_err(|e| format!("{addr}: {e}"))?;
    let v = Json::parse(&line).map_err(|e| format!("bad response from server: {e}"))?;
    let status = v.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "ok" {
        let msg = v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("malformed error response");
        return Err(match v.get("retry_after_ms").and_then(Json::as_u64) {
            Some(ms) => format!("server rejected the job: {msg} (retry after {ms} ms)"),
            None => format!("server rejected the job: {msg}"),
        });
    }
    let cached = v.get("cached").and_then(Json::as_bool).unwrap_or(false);
    let result = v.get("result").ok_or("response missing result")?;
    if job == "obfuscate" {
        let output = operand(cli, 1, "output path")?;
        let graph = result
            .get("graph")
            .and_then(Json::as_str)
            .ok_or("result missing graph")?;
        std::fs::write(&output, graph).map_err(|e| format!("{output}: {e}"))?;
        let num = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "wrote {output} — sigma = {:.4e}, eps-hat = {:.5}, {} GenObf calls{}",
            num("sigma"),
            num("eps_hat"),
            result
                .get("genobf_calls")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            if cached { " (cache hit)" } else { "" },
        );
    } else {
        println!(
            "{}{}",
            result.render(),
            if cached { " (cache hit)" } else { "" }
        );
    }
    Ok(())
}

fn cmd_compare(cli: &Cli) -> Result<(), String> {
    let a_path = operand(cli, 0, "first graph path")?;
    let b_path = operand(cli, 1, "second graph path")?;
    let a = load(&a_path)?;
    let b = load(&b_path)?;
    if a.num_nodes() != b.num_nodes() {
        return Err("graphs must share a node set".into());
    }
    let worlds: usize = cli.get("worlds", 500usize)?;
    let pairs: usize = cli.get("pairs", 2000usize)?;
    if pairs > 0 && a.num_nodes() < 2 {
        return Err("compare needs graphs with at least 2 nodes to sample pairs".into());
    }
    let seed: u64 = cli.get("seed", 42u64)?;
    let seq = SeedSequence::new(seed);
    let pair_set = sample_distinct_pairs(a.num_nodes(), pairs, &mut seq.rng("pairs"));
    let ens_a = WorldEnsemble::sample(&a, worlds, &mut seq.rng("a"));
    let ens_b = WorldEnsemble::sample(&b, worlds, &mut seq.rng("b"));
    let rep = avg_reliability_discrepancy(&ens_a, &ens_b, &pair_set);
    println!(
        "avg reliability discrepancy: {:.5} (± {:.5} s.e., max {:.4})",
        rep.avg, rep.std_error, rep.max
    );
    println!(
        "expected average degree: {:.4} vs {:.4}",
        a.expected_average_degree(),
        b.expected_average_degree()
    );
    println!(
        "mean edge probability:   {:.4} vs {:.4}",
        a.mean_edge_prob(),
        b.mean_edge_prob()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_server::{GatewayConfig, ServerConfig};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn serve_and_gate_parse_exactly_like_the_standalone_binaries() {
        let serve = "--port 0 --workers 3 --resume --journal-sync=always --metrics m.json";
        let cli = Cli::parse(argv(&format!("serve {serve}"))).unwrap();
        let via_cli = ServerConfig::from_args(cli.flag_args()).unwrap();
        assert_eq!(via_cli, ServerConfig::from_args(&argv(serve)).unwrap());
        assert!(via_cli.resume);

        let gate = "--backends a:1,b:2 --read-timeout-ms 150 --max-batch 0";
        // A global flag before the subcommand still reaches the table.
        let cli = Cli::parse(argv(&format!("--metrics g.json gate {gate}"))).unwrap();
        let via_cli = GatewayConfig::from_args(cli.flag_args()).unwrap();
        let mut via_bin = GatewayConfig::from_args(&argv(gate)).unwrap();
        via_bin.metrics_path = Some("g.json".into());
        assert_eq!(via_cli, via_bin);

        for bad in [
            "serve --port 0 --bogus 1",
            "gate --backends a:1 --replicas 64",
        ] {
            let cli = Cli::parse(argv(bad)).unwrap();
            let rest = &argv(bad)[1..];
            let (a, b) = if bad.starts_with("serve") {
                (
                    ServerConfig::from_args(cli.flag_args()).map(drop),
                    ServerConfig::from_args(rest).map(drop),
                )
            } else {
                (
                    GatewayConfig::from_args(cli.flag_args()).map(drop),
                    GatewayConfig::from_args(rest).map(drop),
                )
            };
            assert!(a.as_ref().unwrap_err().contains("unknown flag"), "{a:?}");
            assert_eq!(a, b);
        }
    }
}
