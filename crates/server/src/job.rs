//! Job specifications: what a request asks the worker pool to compute,
//! how the answer is cached, and how it is rendered.
//!
//! Every job carries its graph inline as edge-list text (the format of
//! `chameleon_ugraph::io`), is parameterized exactly like the matching CLI
//! subcommand (same defaults, applied before cache-key derivation), and
//! renders its result as a deterministic JSON object with a fixed field
//! order — the unit of byte-identical replay for cache hits.

use crate::cache::fnv1a64;
use chameleon_baseline::RepAn;
use chameleon_core::{
    anonymity_check_tolerant, AdversaryKnowledge, CancelToken, Chameleon, ChameleonConfig,
    ChameleonError, CheckpointHook, Method, SearchCheckpoint,
};
use chameleon_obs::json;
use chameleon_reliability::{sample_distinct_pairs, WorldEnsemble};
use chameleon_stats::{parallel, SeedSequence};
use chameleon_ugraph::builder::DedupPolicy;
use chameleon_ugraph::{io, UncertainGraph};
use std::fmt::Write as _;
use std::sync::Arc;

/// Which anonymizer an `obfuscate` job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnonymizeMethod {
    /// A Chameleon variant (RSME / RS / ME).
    Chameleon(Method),
    /// The Rep-An baseline.
    RepAn,
}

impl AnonymizeMethod {
    /// Canonical uppercase name (used in cache keys and results).
    pub fn name(&self) -> &'static str {
        match self {
            AnonymizeMethod::Chameleon(m) => m.name(),
            AnonymizeMethod::RepAn => "REPAN",
        }
    }

    /// Parses a method name as the CLI does (`REPAN` or a Method variant).
    ///
    /// # Errors
    /// Returns the parse failure for unknown names.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s.eq_ignore_ascii_case("repan") {
            Ok(AnonymizeMethod::RepAn)
        } else {
            s.parse::<Method>().map(AnonymizeMethod::Chameleon)
        }
    }
}

/// A fully parameterized unit of work for the worker pool.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// `(k, ε)`-obfuscate a graph — the daemon twin of `chameleon
    /// anonymize`.
    Obfuscate {
        /// Edge-list text of the input graph.
        graph: String,
        /// Obfuscation level `k`.
        k: usize,
        /// Tolerance ε.
        epsilon: f64,
        /// Anonymizer to run.
        method: AnonymizeMethod,
        /// Monte-Carlo world count.
        worlds: usize,
        /// GenObf trials per σ.
        trials: usize,
        /// Worker threads inside the job (0 = all cores). Not part of the
        /// cache key: results are thread-count invariant.
        threads: usize,
        /// Out-of-core analysis strip in worlds (0 = dense in-RAM
        /// ensembles). Not part of the cache key: streamed results are
        /// bit-identical to dense ones (DESIGN.md §12).
        strip_worlds: usize,
        /// Seed driving all randomness.
        seed: u64,
    },
    /// Audit a graph against its own expected degrees — the daemon twin of
    /// `chameleon check` without `--original`.
    Check {
        /// Edge-list text of the graph to audit.
        graph: String,
        /// Obfuscation level `k`.
        k: usize,
        /// Tolerance ε for the verdict.
        epsilon: f64,
        /// Adversary degree tolerance (0 = exact).
        tolerance: u32,
    },
    /// Estimate two-terminal reliability over a sampled pair set.
    Reliability {
        /// Edge-list text of the graph.
        graph: String,
        /// Monte-Carlo world count.
        worlds: usize,
        /// Number of sampled node pairs.
        pairs: usize,
        /// Worker threads (0 = all cores); excluded from the cache key.
        threads: usize,
        /// Seed for pair sampling and world sampling.
        seed: u64,
    },
}

/// Receives each serialized checkpoint as a search progresses (the
/// journal's `checkpoint` record writer).
pub type CheckpointWriter = Arc<dyn Fn(&str) + Send + Sync>;

/// Durability plumbing for one job execution (DESIGN.md §11): where to
/// persist search checkpoints and what checkpoint to resume from. Only
/// Chameleon `obfuscate` jobs have checkpointable state; the other ops
/// ignore this entirely.
#[derive(Clone, Default)]
pub struct Durability {
    /// Receives each serialized [`SearchCheckpoint`] as the search
    /// progresses (the journal's `checkpoint` record writer).
    pub sink: Option<CheckpointWriter>,
    /// A serialized checkpoint recovered from the journal. Validated
    /// against the live search before use — a stale or foreign checkpoint
    /// is silently dropped (fresh search, always correct).
    pub resume: Option<String>,
}

/// A job's result plus its durability telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutput {
    /// The rendered result JSON (the cacheable replay unit).
    pub result: String,
    /// σ probes replayed from the resume checkpoint instead of
    /// recomputed (0 for fresh runs and non-obfuscate ops).
    pub resumed_probes: u64,
}

/// Why a job produced no result.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The request was malformed (unparsable graph, invalid parameters).
    Invalid(String),
    /// The pipeline ran but failed (e.g. no obfuscation exists).
    Failed(String),
    /// The job's cancellation token fired (deadline exceeded).
    Cancelled,
}

impl JobSpec {
    /// Short operation name (metrics labels, logs).
    pub fn op(&self) -> &'static str {
        match self {
            JobSpec::Obfuscate { .. } => "obfuscate",
            JobSpec::Check { .. } => "check",
            JobSpec::Reliability { .. } => "reliability",
        }
    }

    /// FNV-1a digest of the job's graph text — the gateway's routing key.
    /// Placement by graph digest gives cache affinity: every job on the
    /// same graph lands on the same backend, whose LRU then acts as that
    /// graph's shard of a distributed result cache.
    pub fn graph_digest(&self) -> u64 {
        match self {
            JobSpec::Obfuscate { graph, .. }
            | JobSpec::Check { graph, .. }
            | JobSpec::Reliability { graph, .. } => fnv1a64(graph.as_bytes()),
        }
    }

    /// Content-addressed cache key: operation, FNV-1a digest of the graph
    /// text, and the canonicalized parameters (defaults already applied by
    /// the protocol layer; `threads` deliberately excluded — the PR-1
    /// determinism contract makes results identical at every thread
    /// count, so a hit may serve a request submitted with different
    /// parallelism).
    pub(crate) fn cache_key(&self) -> String {
        match self {
            JobSpec::Obfuscate {
                graph,
                k,
                epsilon,
                method,
                worlds,
                trials,
                seed,
                threads: _,
                strip_worlds: _,
            } => format!(
                "obfuscate:{:016x}:k={k}:eps={}:method={}:worlds={worlds}:trials={trials}:seed={seed}",
                fnv1a64(graph.as_bytes()),
                json::number(*epsilon),
                method.name(),
            ),
            JobSpec::Check {
                graph,
                k,
                epsilon,
                tolerance,
            } => format!(
                "check:{:016x}:k={k}:eps={}:tol={tolerance}",
                fnv1a64(graph.as_bytes()),
                json::number(*epsilon),
            ),
            JobSpec::Reliability {
                graph,
                worlds,
                pairs,
                seed,
                threads: _,
            } => format!(
                "reliability:{:016x}:worlds={worlds}:pairs={pairs}:seed={seed}",
                fnv1a64(graph.as_bytes()),
            ),
        }
    }

    /// Runs the job, polling `cancel` cooperatively (between GenObf σ
    /// probes for `obfuscate`; before each heavy stage otherwise).
    ///
    /// # Errors
    /// See [`ExecError`].
    pub fn execute(&self, cancel: &CancelToken) -> Result<String, ExecError> {
        self.execute_durable(cancel, None).map(|out| out.result)
    }

    /// [`JobSpec::execute`] with durability plumbing: Chameleon
    /// `obfuscate` jobs emit checkpoints through `durability.sink` and
    /// resume from `durability.resume` when it matches the live search.
    /// Result bytes are identical with or without durability — the sink
    /// only observes, and a resumed search is bit-identical by the core's
    /// replay contract.
    ///
    /// # Errors
    /// See [`ExecError`].
    pub(crate) fn execute_durable(
        &self,
        cancel: &CancelToken,
        durability: Option<&Durability>,
    ) -> Result<ExecOutput, ExecError> {
        if cancel.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        match self {
            JobSpec::Obfuscate {
                graph,
                k,
                epsilon,
                method,
                worlds,
                trials,
                threads,
                strip_worlds,
                seed,
            } => {
                let g = parse_graph(graph)?;
                let mut config = ChameleonConfig {
                    k: *k,
                    epsilon: *epsilon,
                    num_world_samples: *worlds,
                    trials: *trials,
                    num_threads: *threads,
                    strip_worlds: *strip_worlds,
                    ..ChameleonConfig::default()
                };
                config.validate().map_err(ExecError::Invalid)?;
                let mut resumed_probes = 0u64;
                let (out, sigma, eps_hat, calls) = match method {
                    AnonymizeMethod::RepAn => {
                        let r = RepAn::new(config)
                            .anonymize(&g, *seed)
                            .map_err(|e| ExecError::Failed(e.to_string()))?;
                        (r.graph, r.sigma, r.eps_hat, 0usize)
                    }
                    AnonymizeMethod::Chameleon(m) => {
                        if let Some(d) = durability {
                            if let Some(sink) = &d.sink {
                                let sink = Arc::clone(sink);
                                config.checkpoint =
                                    Some(CheckpointHook::new(move |cp: &SearchCheckpoint| {
                                        sink(&cp.to_json())
                                    }));
                            }
                            // A checkpoint that fails to parse or belongs
                            // to a different search is dropped, not fatal:
                            // running fresh is always correct.
                            config.resume_from = d
                                .resume
                                .as_deref()
                                .and_then(|text| SearchCheckpoint::parse(text).ok())
                                .filter(|cp| cp.matches(&g, *m, *seed, &config));
                        }
                        let r = Chameleon::new(config)
                            .anonymize_cancellable(&g, *m, *seed, cancel)
                            .map_err(|e| match e {
                                ChameleonError::Cancelled => ExecError::Cancelled,
                                other => ExecError::Failed(other.to_string()),
                            })?;
                        resumed_probes = r.replayed_probes as u64;
                        (r.graph, r.sigma, r.eps_hat, r.genobf_calls)
                    }
                };
                let text = render_graph(&out)?;
                let mut res = String::with_capacity(text.len() + 160);
                let _ = write!(
                    res,
                    "{{\"sigma\":{},\"eps_hat\":{},\"method\":\"{}\",\"genobf_calls\":{calls},\
                     \"nodes\":{},\"edges\":{},\"graph\":{}}}",
                    json::number(sigma),
                    json::number(eps_hat),
                    method.name(),
                    out.num_nodes(),
                    out.num_edges(),
                    json::string(&text),
                );
                Ok(ExecOutput {
                    result: res,
                    resumed_probes,
                })
            }
            JobSpec::Check {
                graph,
                k,
                epsilon,
                tolerance,
            } => {
                let g = parse_graph(graph)?;
                let knowledge = AdversaryKnowledge::expected_degrees(&g);
                let report = anonymity_check_tolerant(&g, &knowledge, *k, *tolerance);
                Ok(ExecOutput {
                    result: format!(
                        "{{\"satisfied\":{},\"eps_hat\":{},\"k\":{k},\"epsilon\":{},\
                         \"unobfuscated\":{},\"nodes\":{}}}",
                        report.satisfies(*epsilon),
                        json::number(report.eps_hat),
                        json::number(*epsilon),
                        report.unobfuscated.len(),
                        g.num_nodes(),
                    ),
                    resumed_probes: 0,
                })
            }
            JobSpec::Reliability {
                graph,
                worlds,
                pairs,
                threads,
                seed,
            } => {
                let g = parse_graph(graph)?;
                if g.num_nodes() < 2 {
                    return Err(ExecError::Invalid(
                        "reliability needs at least 2 nodes".into(),
                    ));
                }
                let threads = parallel::resolve_threads(*threads);
                let seq = SeedSequence::new(*seed);
                let pair_set = sample_distinct_pairs(g.num_nodes(), *pairs, &mut seq.rng("pairs"));
                let ens = WorldEnsemble::sample_seeded(&g, *worlds, seq.derive("worlds"), threads);
                let rel = ens.reliability_many(&pair_set);
                let (mut lo, mut hi, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
                for &r in &rel {
                    lo = lo.min(r);
                    hi = hi.max(r);
                    sum += r;
                }
                let avg = if rel.is_empty() {
                    0.0
                } else {
                    sum / rel.len() as f64
                };
                Ok(ExecOutput {
                    result: format!(
                        "{{\"avg_reliability\":{},\"min_reliability\":{},\"max_reliability\":{},\
                         \"pairs\":{},\"worlds\":{worlds}}}",
                        json::number(avg),
                        json::number(if rel.is_empty() { 0.0 } else { lo }),
                        json::number(if rel.is_empty() { 0.0 } else { hi }),
                        rel.len(),
                    ),
                    resumed_probes: 0,
                })
            }
        }
    }
}

fn parse_graph(text: &str) -> Result<UncertainGraph, ExecError> {
    io::read_text(text.as_bytes(), DedupPolicy::KeepFirst)
        .map_err(|e| ExecError::Invalid(format!("graph: {e}")))
}

/// Renders a graph exactly as `io::write_file` would — the bytes a
/// `submit` client writes to disk must match the CLI's output file.
fn render_graph(g: &UncertainGraph) -> Result<String, ExecError> {
    let mut buf = Vec::new();
    io::write_text(g, &mut buf).map_err(|e| ExecError::Failed(e.to_string()))?;
    String::from_utf8(buf).map_err(|e| ExecError::Failed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> String {
        "nodes 6\n0 1 0.9\n1 2 0.8\n2 3 0.7\n3 4 0.6\n4 5 0.5\n0 5 0.4\n".to_string()
    }

    #[test]
    fn cache_key_ignores_threads_and_strips_but_not_seed() {
        let base = JobSpec::Obfuscate {
            graph: tiny_graph(),
            k: 2,
            epsilon: 0.1,
            method: AnonymizeMethod::Chameleon(Method::Me),
            worlds: 50,
            trials: 1,
            threads: 1,
            strip_worlds: 0,
            seed: 7,
        };
        let rebuild = |threads: usize, strip_worlds: usize, seed: u64| match base.clone() {
            JobSpec::Obfuscate {
                graph,
                k,
                epsilon,
                method,
                worlds,
                trials,
                ..
            } => JobSpec::Obfuscate {
                graph,
                k,
                epsilon,
                method,
                worlds,
                trials,
                threads,
                strip_worlds,
                seed,
            },
            _ => unreachable!(),
        };
        // Neither threads nor strip_worlds can change results (streamed
        // analysis is bit-identical), so neither may split the cache.
        assert_eq!(base.cache_key(), rebuild(8, 0, 7).cache_key());
        assert_eq!(base.cache_key(), rebuild(1, 128, 7).cache_key());
        assert_ne!(base.cache_key(), rebuild(1, 0, 8).cache_key());
    }

    #[test]
    fn cache_key_tracks_graph_content() {
        let a = JobSpec::Check {
            graph: tiny_graph(),
            k: 2,
            epsilon: 0.0,
            tolerance: 0,
        };
        let b = JobSpec::Check {
            graph: tiny_graph().replace("0.9", "0.91"),
            k: 2,
            epsilon: 0.0,
            tolerance: 0,
        };
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn check_job_executes() {
        let spec = JobSpec::Check {
            graph: tiny_graph(),
            k: 2,
            epsilon: 0.5,
            tolerance: 0,
        };
        let out = spec.execute(&CancelToken::new()).unwrap();
        assert!(out.contains("\"eps_hat\":"));
        assert!(out.contains("\"nodes\":6"));
    }

    #[test]
    fn reliability_job_is_deterministic() {
        let spec = JobSpec::Reliability {
            graph: tiny_graph(),
            worlds: 100,
            pairs: 10,
            threads: 1,
            seed: 3,
        };
        let a = spec.execute(&CancelToken::new()).unwrap();
        let b = spec.execute(&CancelToken::new()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"avg_reliability\":"));
    }

    #[test]
    fn invalid_graph_is_reported_not_panicked() {
        let spec = JobSpec::Check {
            graph: "0 1 notaprob\n".into(),
            k: 2,
            epsilon: 0.0,
            tolerance: 0,
        };
        assert!(matches!(
            spec.execute(&CancelToken::new()),
            Err(ExecError::Invalid(_))
        ));
    }

    #[test]
    fn cancelled_token_short_circuits() {
        let token = CancelToken::new();
        token.cancel();
        let spec = JobSpec::Check {
            graph: tiny_graph(),
            k: 2,
            epsilon: 0.0,
            tolerance: 0,
        };
        assert_eq!(spec.execute(&token), Err(ExecError::Cancelled));
    }

    /// The search fingerprint as an older build computed it: the same
    /// canonical string ending in `;rev={rev}`, or with no `rev` field at
    /// all (`None`, builds before search revision 2).
    fn fingerprint_at_revision(spec: &JobSpec, rev: Option<u64>) -> u64 {
        let JobSpec::Obfuscate {
            graph,
            k,
            epsilon,
            method: AnonymizeMethod::Chameleon(m),
            worlds,
            trials,
            seed,
            ..
        } = spec
        else {
            unreachable!()
        };
        let config = ChameleonConfig {
            k: *k,
            epsilon: *epsilon,
            num_world_samples: *worlds,
            trials: *trials,
            ..ChameleonConfig::default()
        };
        let digest = chameleon_core::graph_fingerprint(&parse_graph(graph).unwrap());
        let rev = rev.map(|r| format!(";rev={r}")).unwrap_or_default();
        fnv1a64(
            format!(
                "g={digest:016x};m={};seed={seed};k={};eps={:016x};c={:016x};q={:016x};t={};\
                 N={};s0={:016x};tol={:016x};d={};bw={:016x};inc={}{rev}",
                m.name(),
                config.k,
                config.epsilon.to_bits(),
                config.size_multiplier.to_bits(),
                config.white_noise.to_bits(),
                config.trials,
                config.num_world_samples,
                config.sigma_init.to_bits(),
                config.sigma_tolerance.to_bits(),
                config.max_doublings,
                config.bandwidth_scale.to_bits(),
                config.incremental,
            )
            .as_bytes(),
        )
    }

    #[test]
    fn checkpoint_from_an_older_search_revision_runs_fresh() {
        let spec = JobSpec::Obfuscate {
            graph: tiny_graph(),
            k: 2,
            epsilon: 0.1,
            method: AnonymizeMethod::Chameleon(Method::Me),
            worlds: 50,
            trials: 1,
            threads: 1,
            strip_worlds: 0,
            seed: 7,
        };
        let run = |resume: Option<String>| {
            let journal = Arc::new(std::sync::Mutex::new(Vec::new()));
            let sink = Arc::clone(&journal);
            let durability = Durability {
                sink: Some(Arc::new(move |cp: &str| {
                    sink.lock().unwrap().push(cp.to_string())
                })),
                resume,
            };
            let out = spec
                .execute_durable(&CancelToken::new(), Some(&durability))
                .unwrap();
            let last = journal.lock().unwrap().last().cloned();
            (out, last)
        };
        let (fresh, checkpoint) = run(None);
        let checkpoint = checkpoint.expect("the search journals its probes");

        // A current checkpoint is replayed.
        let (resumed, _) = run(Some(checkpoint.clone()));
        assert!(resumed.resumed_probes > 0);
        assert_eq!(resumed.result, fresh.result);

        // The fingerprint helper reproduces the current one at the current
        // revision, so the stale variants below differ only in `rev`.
        let mut current = SearchCheckpoint::parse(&checkpoint).unwrap();
        assert_eq!(fingerprint_at_revision(&spec, Some(4)), current.fingerprint);

        // The same probes fingerprinted by an older search (no revision
        // field: exact uniqueness KDE; revision 2: the series `erf`;
        // revision 3: the host's libm and Acklam + Halley) were observed
        // under different arithmetic: they must be dropped.
        for rev in [None, Some(2), Some(3)] {
            current.fingerprint = fingerprint_at_revision(&spec, rev);
            let (rerun, _) = run(Some(current.to_json()));
            assert_eq!(rerun.resumed_probes, 0, "revision {rev:?}");
            assert_eq!(rerun.result, fresh.result);
        }
    }

    #[test]
    fn method_names_parse_like_the_cli() {
        assert_eq!(AnonymizeMethod::parse("rsme").unwrap().name(), "RSME");
        assert_eq!(AnonymizeMethod::parse("RepAn").unwrap().name(), "REPAN");
        assert!(AnonymizeMethod::parse("nope").is_err());
    }
}
