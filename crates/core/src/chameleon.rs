//! The Chameleon anonymization driver: GenObf (paper Algorithm 3) wrapped
//! in the σ binary-search skeleton (paper Algorithm 1).

use crate::anonymity::AnonymityReport;
use crate::cancel::CancelToken;
use crate::candidate::VertexSampler;
use crate::config::ChameleonConfig;
use crate::genobf_checkpoint::{
    graph_fingerprint, search_fingerprint, CheckpointHook, ProbeRecord, SearchCheckpoint,
};
use crate::genobf_plan::{Perturbation, TrialInputs, TrialPlan};
use crate::method::Method;
use crate::relevance::{
    edge_reliability_relevance_streamed, min_max_normalize, vertex_reliability_relevance,
};
use crate::uniqueness::uniqueness_scores_scaled;
use chameleon_reliability::EnsembleStream;
use chameleon_stats::alloc_guard;
use chameleon_stats::{parallel, SeedSequence};
use chameleon_ugraph::{NodeId, UncertainGraph};
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};

/// Downward σ sweep length when the upward phase fails (σ_init · 2⁻²⁰ is
/// effectively zero noise; below that the graph is unchanged and further
/// halving cannot change the outcome).
const MAX_HALVINGS: usize = 20;

/// Errors from the anonymization pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ChameleonError {
    /// The configuration failed validation.
    Config(String),
    /// No (k, ε)-obfuscation was found even at the largest σ tried; the
    /// privacy demand is too strong for this graph (the paper notes very
    /// large k produces graphs "extremely different from the original").
    NoObfuscationFound {
        /// Largest noise level attempted.
        max_sigma: f64,
        /// Best (smallest) ε̂ observed across all attempts.
        best_eps_hat: f64,
    },
    /// The input graph is degenerate (no nodes or no edges to perturb).
    DegenerateInput(String),
    /// The run was cancelled cooperatively (explicit cancel or deadline)
    /// before a result was found; see [`crate::cancel::CancelToken`].
    Cancelled,
    /// A resume checkpoint does not belong to this search (fingerprint
    /// mismatch) or records a trajectory the deterministic search cannot
    /// reproduce. Callers holding persisted checkpoints should validate
    /// with [`SearchCheckpoint::matches`] and fall back to a fresh run.
    CheckpointInvalid(String),
    /// The run would exceed the configured ensemble memory ceiling
    /// (`chameleon_stats::alloc_guard::set_ensemble_limit`). Raise the
    /// ceiling or lower [`ChameleonConfig::strip_worlds`].
    ResourceLimit(String),
}

impl std::fmt::Display for ChameleonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChameleonError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            ChameleonError::NoObfuscationFound {
                max_sigma,
                best_eps_hat,
            } => write!(
                f,
                "no (k, eps)-obfuscation found up to sigma = {max_sigma} \
                 (best eps-hat = {best_eps_hat})"
            ),
            ChameleonError::DegenerateInput(msg) => write!(f, "degenerate input: {msg}"),
            ChameleonError::Cancelled => write!(f, "run cancelled before completion"),
            ChameleonError::CheckpointInvalid(msg) => write!(f, "invalid checkpoint: {msg}"),
            ChameleonError::ResourceLimit(msg) => write!(f, "resource limit: {msg}"),
        }
    }
}

impl std::error::Error for ChameleonError {}

/// Output of a successful anonymization.
#[derive(Debug, Clone)]
pub struct ObfuscationResult {
    /// The published (k, ε)-obfuscated uncertain graph.
    pub graph: UncertainGraph,
    /// The final (smallest successful) noise parameter σ.
    pub sigma: f64,
    /// Achieved fraction of unobfuscated vertices (≤ ε).
    pub eps_hat: f64,
    /// The method variant used.
    pub method: Method,
    /// Total GenObf invocations across the σ search.
    pub genobf_calls: usize,
    /// Anonymity report of the returned graph.
    pub report: AnonymityReport,
    /// Per-vertex uniqueness scores of the input (diagnostics).
    pub uniqueness: Vec<f64>,
    /// Per-vertex reliability relevance of the input (diagnostics; empty
    /// for methods that do not use it).
    pub vrr: Vec<f64>,
    /// σ-search telemetry: every GenObf invocation as
    /// `(sigma, best eps-hat observed at that sigma)` in call order —
    /// lets callers plot the search trajectory and the privacy-vs-noise
    /// response of their graph.
    pub sigma_trace: Vec<(f64, f64)>,
    /// Probes replayed from [`ChameleonConfig::resume_from`] instead of
    /// recomputed (0 for a fresh run). `genobf_calls` still counts them —
    /// the call counter is part of the deterministic trajectory.
    pub replayed_probes: usize,
}

/// Outcome of one GenObf call (paper Algorithm 3's `⟨ε̃, G̃⟩`). A passing
/// call leaves its winning trial's perturbation in
/// [`PlanSlots::winner`]; its graph is built only if the trial wins the
/// whole search.
#[derive(Debug, Clone)]
struct GenObfOutcome {
    /// ε̃ — fraction unobfuscated, or 1.0 when every trial failed.
    eps_hat: f64,
    /// Smallest ε̂ actually observed across trials, even when above the
    /// target (diagnostic; drives the near-miss report on failure).
    eps_nearest: f64,
    /// The winning trial's report, when a trial passed.
    report: Option<AnonymityReport>,
}

/// GenObf's winner rule, shared by both trial bodies: fed checked trials
/// in trial order, it keeps the first trial attaining the minimal passing
/// ε̂ (strict improvement), exactly as a serial loop over trials picks.
struct TrialFold<T> {
    epsilon: f64,
    eps_nearest: f64,
    best: Option<(f64, T)>,
}

impl<T> TrialFold<T> {
    fn new(epsilon: f64) -> Self {
        Self {
            epsilon,
            eps_nearest: 1.0,
            best: None,
        }
    }

    /// Folds one checked trial. Returns true once the winner has ε̂ = 0:
    /// no later trial can strictly beat it, and `eps_nearest` already sits
    /// at its minimum, so the caller may stop.
    fn push(&mut self, eps_hat: f64, trial: T) -> bool {
        self.eps_nearest = self.eps_nearest.min(eps_hat);
        let better = match &self.best {
            Some((best, _)) => eps_hat < *best,
            None => true,
        };
        if eps_hat <= self.epsilon && better {
            self.best = Some((eps_hat, trial));
        }
        matches!(self.best, Some((e, _)) if e == 0.0)
    }
}

thread_local! {
    /// The buffers this thread's last σ search left behind, for its next
    /// search to record into (see [`PlanSlots`]).
    static PLAN_POOL: RefCell<(Vec<TrialPlan>, Perturbation)> = RefCell::default();
}

/// Frees the buffers this thread pools for its next σ search (see
/// [`PlanSlots`]). A long-lived thread that goes idle calls it, so that
/// no past job's plans stay resident while it waits.
pub fn release_pooled_plans() {
    let _ = PLAN_POOL.try_with(|pool| drop(std::mem::take(&mut *pool.borrow_mut())));
}

/// The heap bytes this thread pools for its next σ search.
pub fn pooled_plan_bytes() -> usize {
    PLAN_POOL.with(|pool| {
        let (plans, winner) = &*pool.borrow();
        let plans: usize = plans.iter().map(|p| p.footprint().held).sum();
        plans + winner.footprint().held
    })
}

/// One σ search's trial plans, one per trial slot, and the buffer that
/// holds its latest passing probe's perturbation. They come from the
/// calling thread's pool and go back to it when the search ends, however
/// it ends, so back-to-back jobs write into buffers that are already
/// grown and touched rather than faulting in fresh ones. No bit depends
/// on where a buffer came from: recording overwrites everything a check
/// reads, as it already does when a slot re-records at every GenObf call,
/// and a perturbation is copied in whole.
///
/// The pool keeps at most the returning search's `trials` plans, and
/// drops any buffer that holds more than twice the most that search used,
/// so a big job's buffers outlive it only until the thread's next,
/// smaller search, or until [`release_pooled_plans`].
struct PlanSlots {
    plans: Vec<TrialPlan>,
    winner: Perturbation,
}

impl PlanSlots {
    fn take(trials: usize) -> Self {
        let (mut plans, mut winner) =
            PLAN_POOL.with(|pool| std::mem::take(&mut *pool.borrow_mut()));
        plans.truncate(trials);
        plans.iter_mut().for_each(TrialPlan::begin);
        plans.resize_with(trials, TrialPlan::default);
        winner.clear();
        Self { plans, winner }
    }
}

impl Drop for PlanSlots {
    fn drop(&mut self) {
        let mut plans = std::mem::take(&mut self.plans);
        plans.retain(TrialPlan::worth_keeping);
        let mut winner = std::mem::take(&mut self.winner);
        if !winner.worth_keeping() {
            winner = Perturbation::default();
        }
        // During thread teardown the pool may already be gone; the buffers
        // are then simply freed.
        let _ = PLAN_POOL.try_with(|pool| *pool.borrow_mut() = (plans, winner));
    }
}

/// Durability state threaded through one σ search: the queue of probes to
/// replay from a resume checkpoint, the cumulative record of probes seen
/// so far (replayed + live), and the sink to notify after live probes.
struct CheckpointState<'a> {
    replay: VecDeque<ProbeRecord>,
    probes: Vec<ProbeRecord>,
    fingerprint: u64,
    seed: u64,
    sink: Option<&'a CheckpointHook>,
    replayed: usize,
}

/// One anonymize run's σ search (paper Algorithm 1) and everything its
/// probes share, so that each phase of the search is one
/// [`SigmaSearch::probe`] call per σ.
struct SigmaSearch<'a> {
    trial: TrialInputs<'a>,
    seq: SeedSequence,
    threads: usize,
    cancel: &'a CancelToken,
    /// GenObf invocations so far; call `c` draws its trials from the
    /// streams `(seed, "genobf-trial", c, trial)`.
    calls: usize,
    /// One plan per trial slot, kept across GenObf calls. The plain body
    /// re-records each slot's tape at every call into the plan's buffers;
    /// in incremental mode (DESIGN.md §6d) the first GenObf call records
    /// every trial's randomness and later σ probes re-evaluate it.
    slots: PlanSlots,
    /// Whether the plans hold the incremental search's recorded tapes.
    recorded: bool,
    /// The call index and winning report of the latest live probe that
    /// passed; its perturbation is in `slots.winner`.
    passed: Option<(u64, AnonymityReport)>,
    ckpt: CheckpointState<'a>,
    /// Every probe as `(σ, eps_nearest)`, in call order.
    sigma_trace: Vec<(f64, f64)>,
    best_eps_seen: f64,
}

impl SigmaSearch<'_> {
    /// One σ probe of Algorithm 1, after polling the cancel token. If the
    /// front of the resume queue records exactly this `(call, σ)` probe,
    /// its outcome is taken from the checkpoint without recomputation;
    /// otherwise the probe runs live via [`SigmaSearch::gen_obf`] and —
    /// when a sink is configured — the cumulative probe history is emitted
    /// afterwards.
    ///
    /// A replay record that disagrees with the deterministic trajectory
    /// (wrong σ bits or call index) invalidates the rest of the queue: the
    /// remainder is dropped and the search continues live, which is always
    /// correct, merely slower.
    fn probe(&mut self, sigma: f64) -> Result<ProbeRecord, ChameleonError> {
        if self.cancel.is_cancelled() {
            return Err(ChameleonError::Cancelled);
        }
        let rec = match self.replay(sigma) {
            Some(rec) => rec,
            None => self.probe_live(sigma),
        };
        self.best_eps_seen = self.best_eps_seen.min(rec.eps_nearest);
        self.sigma_trace.push((sigma, rec.eps_nearest));
        Ok(rec)
    }

    fn replay(&mut self, sigma: f64) -> Option<ProbeRecord> {
        let ckpt = &mut self.ckpt;
        let front = ckpt.replay.front()?;
        if front.sigma.to_bits() != sigma.to_bits() || front.call != self.calls as u64 {
            ckpt.replay.clear();
            return None;
        }
        let rec = ckpt.replay.pop_front().expect("front exists");
        self.calls = rec.call as usize + 1;
        ckpt.replayed += 1;
        chameleon_obs::counter!("genobf.probes_replayed").add(1);
        ckpt.probes.push(rec.clone());
        Some(rec)
    }

    fn probe_live(&mut self, sigma: f64) -> ProbeRecord {
        let call = self.calls as u64;
        self.calls += 1;
        let outcome = self.gen_obf(sigma, call);
        let rec = ProbeRecord {
            call,
            sigma,
            eps_hat: outcome.eps_hat,
            eps_nearest: outcome.eps_nearest,
            passed: outcome.report.is_some(),
        };
        if let Some(report) = outcome.report {
            self.passed = Some((call, report));
        }
        let ckpt = &mut self.ckpt;
        ckpt.probes.push(rec.clone());
        if let Some(sink) = ckpt.sink {
            sink.emit(&SearchCheckpoint {
                fingerprint: ckpt.fingerprint,
                seed: ckpt.seed,
                probes: ckpt.probes.clone(),
            });
        }
        rec
    }

    /// The winning probe's graph and report. The search keeps the latest
    /// passing live probe's perturbation, and the winner is always the
    /// latest passing probe. A replayed winner kept none, but each probe
    /// is a pure function of (graph, config, seed, call index), so
    /// re-running its one call reproduces it bit for bit.
    fn release(
        &mut self,
        winner: &ProbeRecord,
    ) -> Result<(UncertainGraph, AnonymityReport), ChameleonError> {
        let ProbeRecord { call, sigma, .. } = *winner;
        let report = match self.passed.take() {
            Some((kept, report)) if kept == call => report,
            _ => self.gen_obf(sigma, call).report.ok_or_else(|| {
                ChameleonError::CheckpointInvalid(format!(
                    "checkpointed winning probe (call {call}, sigma {sigma}) \
                     did not reproduce a passing graph"
                ))
            })?,
        };
        Ok((self.slots.winner.materialize(self.trial.graph), report))
    }

    /// One GenObf invocation (paper Algorithm 3) as call number `call`:
    /// `t` randomized attempts at noise level σ, keeping the best
    /// (k, ε)-satisfying trial's perturbation in `slots.winner`.
    ///
    /// Both bodies check trial plans (DESIGN.md §6d) through the same wave
    /// loop. The plain body records fresh plans from this call's streams;
    /// with `incremental` set, the plans are recorded on the first call
    /// and re-checked at every later σ instead of being redrawn.
    fn gen_obf(&mut self, sigma: f64, call: u64) -> GenObfOutcome {
        let _span = chameleon_obs::span!("genobf.call");
        let (trial, seq, threads) = (&self.trial, &self.seq, self.threads);
        let trials = trial.cfg.trials;
        // Trials are independent: each owns the RNG stream
        // (seed, "genobf-trial", call, trial), so they can run in any
        // order on any number of threads and still reproduce the serial
        // result exactly. The (call, trial) pair seeds via
        // `rng_indexed2` — the flattened `call·1000 + trial` form used
        // previously collides once a config asks for ≥ 1000 trials.
        let record = |plan: &mut TrialPlan, call: u64, t: usize| {
            plan.record_into(trial, &mut seq.rng_indexed2("genobf-trial", call, t as u64))
        };
        let incremental = trial.cfg.incremental;
        if incremental && !self.recorded {
            // The tape is always recorded from the call-0 RNG streams, no
            // matter which call triggers recording: in a fresh run the
            // first call *is* call 0, and in a checkpoint-resumed run the
            // first live call comes later — pinning the stream index keeps
            // the recorded tape (and every downstream probe) identical to
            // the uninterrupted run's.
            let _s = chameleon_obs::span!("genobf.plan_record");
            let mut slots: Vec<_> = self.slots.plans.iter_mut().enumerate().collect();
            parallel::map_items_mut(&mut slots, threads, |(t, plan)| record(plan, 0, *t));
            self.recorded = true;
        }
        // Trials are checked `threads` at a time, and each wave's reports
        // are folded serially in trial order. The fold stops at the first
        // ε̂ = 0 winner and skips the remaining trials; only the trial
        // counters see fewer trials. A check is a pure function of
        // (plan, σ), so a wave-mate checked but never folded leaves no
        // trace in the result. A wave narrower than the pool hands the
        // spare threads to each check's pmf loop.
        let mut fold = TrialFold::new(trial.cfg.epsilon);
        'waves: for start in (0..trials).step_by(threads) {
            let wave = start..(start + threads).min(trials);
            let pmf_threads = (threads / wave.len()).max(1);
            let mut slots: Vec<_> = (start..).zip(&mut self.slots.plans[wave]).collect();
            let reports = parallel::map_items_mut(&mut slots, threads, |(t, plan)| {
                let _trial_span = chameleon_obs::span!("genobf.trial");
                if !incremental {
                    record(plan, call, *t);
                }
                plan.check_at_sigma(sigma, trial, pmf_threads)
            });
            for (t, report) in (start..).zip(reports) {
                chameleon_obs::counter!("genobf.trials").add(1);
                if fold.push(report.eps_hat, (t, report)) {
                    break 'waves;
                }
            }
        }
        // A winner's slot is not re-recorded before the fold finishes: later
        // waves use later slots.
        let (eps_hat, report) = match fold.best {
            Some((eps_hat, (t, report))) => {
                let slots = &mut self.slots;
                slots.plans[t].perturbation_into(&mut slots.winner);
                (eps_hat, Some(report))
            }
            None => (1.0, None),
        };
        GenObfOutcome {
            eps_hat,
            eps_nearest: fold.eps_nearest,
            report,
        }
    }
}

/// The anonymization engine. Construct with a [`ChameleonConfig`], then
/// call [`Chameleon::anonymize`].
#[derive(Debug, Clone)]
pub struct Chameleon {
    config: ChameleonConfig,
}

impl Chameleon {
    /// Creates an engine with the given configuration.
    pub fn new(config: ChameleonConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChameleonConfig {
        &self.config
    }

    /// Anonymizes `graph` with the given method variant; `seed` drives all
    /// randomness (same seed ⇒ identical output).
    ///
    /// Implements paper Algorithm 1: uniqueness and reliability relevance
    /// are computed once (they depend only on the input graph), then GenObf
    /// is invoked under an exponential-growth + bisection search for the
    /// smallest σ that yields a (k, ε)-obfuscation.
    ///
    /// # Errors
    /// [`ChameleonError::Config`] on invalid configuration,
    /// [`ChameleonError::DegenerateInput`] on an empty graph, and
    /// [`ChameleonError::NoObfuscationFound`] when the privacy target is
    /// unreachable within the σ budget.
    pub fn anonymize(
        &self,
        graph: &UncertainGraph,
        method: Method,
        seed: u64,
    ) -> Result<ObfuscationResult, ChameleonError> {
        self.anonymize_cancellable(graph, method, seed, &CancelToken::new())
    }

    /// [`Chameleon::anonymize`] with cooperative cancellation: the token is
    /// polled between GenObf invocations (each σ probe), and a fired token
    /// aborts the search with [`ChameleonError::Cancelled`]. A run whose
    /// token never fires is bit-identical to a plain `anonymize` call —
    /// polling reads a flag and a clock, nothing that feeds the pipeline.
    ///
    /// # Errors
    /// As [`Chameleon::anonymize`], plus [`ChameleonError::Cancelled`].
    pub fn anonymize_cancellable(
        &self,
        graph: &UncertainGraph,
        method: Method,
        seed: u64,
        cancel: &CancelToken,
    ) -> Result<ObfuscationResult, ChameleonError> {
        let _span = chameleon_obs::span!("anonymize.run");
        self.config.validate().map_err(ChameleonError::Config)?;
        if cancel.is_cancelled() {
            return Err(ChameleonError::Cancelled);
        }
        if graph.num_nodes() == 0 {
            return Err(ChameleonError::DegenerateInput("graph has no nodes".into()));
        }
        if graph.num_edges() == 0 {
            return Err(ChameleonError::DegenerateInput("graph has no edges".into()));
        }
        // Durability (DESIGN.md §11): a resume checkpoint must fingerprint
        // the exact same deterministic search — graph, method, seed and
        // every probe-affecting config knob — or its recorded trajectory is
        // meaningless here. Only checkpointing reads the fingerprint, so a
        // search without it skips hashing the graph.
        let durable = self.config.checkpoint.is_some() || self.config.resume_from.is_some();
        let fingerprint = if durable {
            search_fingerprint(graph_fingerprint(graph), method, seed, &self.config)
        } else {
            0
        };
        let mut replay: VecDeque<ProbeRecord> = VecDeque::new();
        if let Some(cp) = &self.config.resume_from {
            if cp.fingerprint != fingerprint {
                return Err(ChameleonError::CheckpointInvalid(format!(
                    "checkpoint fingerprint {:016x} does not match this search ({fingerprint:016x})",
                    cp.fingerprint
                )));
            }
            replay = cp.probes.iter().cloned().collect();
        }

        let seq = SeedSequence::new(seed);
        let threads = parallel::resolve_threads(self.config.num_threads);

        // ---- Lines 1–2 of Algorithm 3, hoisted: invariants of the input.
        let uniq = uniqueness_scores_scaled(graph, self.config.bandwidth_scale);
        let vrr = if method.reliability_oriented() {
            let ens_seed = seq.derive("relevance-ensemble");
            // DESIGN.md §12: the worlds are stored raw — in strips of
            // `strip_worlds`, or as one strip when it is 0 — and ERR folds
            // them world by world with no label arena, to the same bits
            // for every strip size.
            let strip_worlds = match self.config.strip_worlds {
                0 => usize::MAX,
                strip => strip,
            };
            let resource_limit =
                |e: alloc_guard::BudgetExceeded| ChameleonError::ResourceLimit(e.to_string());
            let stream = EnsembleStream::sample(
                graph,
                self.config.num_world_samples,
                ens_seed,
                threads,
                strip_worlds,
            )
            .map_err(resource_limit)?;
            let err = edge_reliability_relevance_streamed(graph, &stream, threads)
                .map_err(resource_limit)?;
            vertex_reliability_relevance(graph, &err)
        } else {
            Vec::new()
        };
        let (excluded, selection) = prepare_selection(graph, method, &uniq, &vrr, &self.config);
        let sampler = VertexSampler::new(&selection, &excluded);
        let mut search = SigmaSearch {
            trial: TrialInputs::new(
                graph,
                &self.config,
                method.perturbation(),
                selection,
                sampler,
            ),
            seq,
            threads,
            cancel,
            calls: 0,
            slots: PlanSlots::take(self.config.trials),
            recorded: false,
            passed: None,
            ckpt: CheckpointState {
                replay,
                probes: Vec::new(),
                fingerprint,
                seed,
                sink: self.config.checkpoint.as_ref(),
                replayed: 0,
            },
            sigma_trace: Vec::new(),
            best_eps_seen: 1.0,
        };

        // ---- Algorithm 1: exponential growth phase.
        //
        // Deviation from the paper (documented in DESIGN.md §3): Algorithm
        // 1 assumes privacy is monotone in sigma. That holds for
        // deterministic inputs (Boldi et al.), but with an *uncertain*
        // original, over-noising can RE-EXPOSE vertices: injected edges
        // shift every degree distribution away from the adversary's
        // recorded values, collapsing the entropy of low-degree classes. So
        // when the upward sweep fails we also sweep downward (halving) —
        // the feasible region is an interval, and the final bisection still
        // finds its lower (minimum-noise) edge.
        let mut sigma_l = 0.0f64;
        let mut sigma_u = self.config.sigma_init;
        let mut best: Option<ProbeRecord> = None;
        for _ in 0..=self.config.max_doublings {
            let probe = search.probe(sigma_u)?;
            if probe.passed {
                best = Some(probe);
                break;
            }
            sigma_l = sigma_u;
            sigma_u *= 2.0;
        }
        if best.is_none() {
            // Downward sweep: privacy may hold at noise levels below
            // sigma_init (e.g. when the raw graph is already nearly
            // compliant and large noise over-perturbs).
            let mut sigma = self.config.sigma_init / 2.0;
            for _ in 0..MAX_HALVINGS {
                let probe = search.probe(sigma)?;
                if probe.passed {
                    sigma_l = 0.0;
                    sigma_u = sigma;
                    best = Some(probe);
                    break;
                }
                sigma /= 2.0;
            }
        }
        let Some(mut best) = best else {
            return Err(ChameleonError::NoObfuscationFound {
                max_sigma: sigma_u,
                best_eps_hat: search.best_eps_seen,
            });
        };

        // ---- Algorithm 1: bisection phase (relative tolerance, so tiny
        // feasible edges are located precisely).
        while sigma_u - sigma_l > self.config.sigma_tolerance * sigma_u.max(1e-12) {
            let sigma = 0.5 * (sigma_u + sigma_l);
            let probe = search.probe(sigma)?;
            if probe.passed {
                sigma_u = sigma;
                best = probe;
            } else {
                sigma_l = sigma;
            }
        }

        let (graph_out, report) = search.release(&best)?;
        let (sigma, eps_hat) = (best.sigma, best.eps_hat);
        Ok(ObfuscationResult {
            graph: graph_out,
            sigma,
            eps_hat,
            method,
            genobf_calls: search.calls,
            report,
            uniqueness: uniq,
            vrr,
            sigma_trace: search.sigma_trace,
            replayed_probes: search.ckpt.replayed,
        })
    }
}

/// Lines 3–6 of Algorithm 3: pick the excluded set `H` (the ⌈ε/2·|V|⌉
/// vertices with the largest combined uniqueness × relevance — hopeless to
/// obfuscate, allowed to be skipped by the ε tolerance) and the selection
/// weights `Q^v` over `V \ H`.
fn prepare_selection(
    graph: &UncertainGraph,
    method: Method,
    uniq: &[f64],
    vrr: &[f64],
    cfg: &ChameleonConfig,
) -> (HashSet<NodeId>, Vec<f64>) {
    let n = graph.num_nodes();
    // Exclusion score: U · VRR when relevance is available, else U.
    let exclusion: Vec<f64> = if method.reliability_oriented() {
        uniq.iter().zip(vrr).map(|(u, r)| u * r).collect()
    } else {
        uniq.to_vec()
    };
    let h_size = ((cfg.epsilon / 2.0) * n as f64).ceil() as usize;
    // Keep at least 2 vertices samplable.
    let h_size = h_size.min(n.saturating_sub(2));
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        exclusion[b]
            .partial_cmp(&exclusion[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let excluded: HashSet<NodeId> = order[..h_size].iter().map(|&v| v as NodeId).collect();
    // Selection weights over V \ H (excluded vertices keep an entry but are
    // never sampled; slot content is irrelevant).
    // Selection weight floor: with a sharp VRR estimate, `1 − VRR̂` is
    // exactly 0 for the most reliability-critical vertex and near 0 for
    // its peers; if those vertices are also the unique ones that *must*
    // be obfuscated, GenObf can never succeed at any σ. The floor keeps
    // every vertex perturbable (at 20× lower priority) while preserving
    // the reliability-sensitive ordering.
    const SELECTION_FLOOR: f64 = 0.05;
    let selection: Vec<f64> = if method.reliability_oriented() {
        let vrr_norm = min_max_normalize(vrr);
        uniq.iter()
            .zip(&vrr_norm)
            .map(|(u, r)| u * (1.0 - r).max(SELECTION_FLOOR))
            .collect()
    } else {
        uniq.to_vec()
    };
    (excluded, selection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymity::{anonymity_check, AdversaryKnowledge};
    use crate::relevance::edge_reliability_relevance_threads;
    use chameleon_reliability::WorldEnsemble;
    use chameleon_ugraph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A graph where everyone has a near-identical neighborhood except a
    /// few unique hubs — obfuscatable with modest noise.
    fn test_graph(seed: u64) -> UncertainGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generators::gnm(80, 200, &mut rng);
        for e in 0..g.num_edges() as u32 {
            let p = 0.2 + 0.6 * ((e % 7) as f64 / 7.0);
            g.set_prob(e, p).unwrap();
        }
        g
    }

    fn quick_config(k: usize) -> ChameleonConfig {
        ChameleonConfig::builder()
            .k(k)
            .epsilon(0.1)
            .trials(3)
            .num_world_samples(150)
            .sigma_tolerance(0.2)
            .build()
    }

    #[test]
    fn anonymize_satisfies_privacy_target() {
        let g = test_graph(1);
        let cham = Chameleon::new(quick_config(8));
        for method in Method::ALL {
            let res = cham.anonymize(&g, method, 99).unwrap();
            assert!(res.eps_hat <= 0.1, "{method}: eps_hat = {}", res.eps_hat);
            assert_eq!(res.graph.num_nodes(), g.num_nodes());
            assert!(res.graph.num_edges() >= g.num_edges());
            assert!(res.sigma > 0.0);
            assert!(res.genobf_calls >= 1);
            // Returned report must match a fresh check.
            let knowledge = AdversaryKnowledge::expected_degrees(&g);
            let fresh = anonymity_check(&res.graph, &knowledge, 8);
            assert!((fresh.eps_hat - res.eps_hat).abs() < 1e-12);
        }
    }

    #[test]
    fn results_are_reproducible() {
        let g = test_graph(2);
        let cham = Chameleon::new(quick_config(6));
        let a = cham.anonymize(&g, Method::Rsme, 7).unwrap();
        let b = cham.anonymize(&g, Method::Rsme, 7).unwrap();
        assert_eq!(a.sigma, b.sigma);
        assert_eq!(a.eps_hat, b.eps_hat);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        for (x, y) in a.graph.edges().iter().zip(b.graph.edges()) {
            assert_eq!((x.u, x.v), (y.u, y.v));
            assert!((x.p - y.p).abs() < 1e-15);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = test_graph(12);
        let base = quick_config(6);
        let serial_cfg = ChameleonConfig {
            num_threads: 1,
            ..base.clone()
        };
        let serial = Chameleon::new(serial_cfg)
            .anonymize(&g, Method::Rsme, 17)
            .unwrap();
        for threads in [2, 8] {
            let cfg = ChameleonConfig {
                num_threads: threads,
                ..base.clone()
            };
            let par = Chameleon::new(cfg).anonymize(&g, Method::Rsme, 17).unwrap();
            assert_eq!(serial.sigma.to_bits(), par.sigma.to_bits());
            assert_eq!(serial.eps_hat.to_bits(), par.eps_hat.to_bits());
            assert_eq!(serial.genobf_calls, par.genobf_calls);
            assert_eq!(serial.graph.num_edges(), par.graph.num_edges());
            for (a, b) in serial.graph.edges().iter().zip(par.graph.edges()) {
                assert_eq!((a.u, a.v), (b.u, b.v));
                assert_eq!(a.p.to_bits(), b.p.to_bits());
            }
        }
    }

    #[test]
    fn strip_worlds_is_bit_identical_to_dense() {
        let g = test_graph(15);
        for incremental in [false, true] {
            let base = ChameleonConfig {
                incremental,
                ..quick_config(6)
            };
            let dense = Chameleon::new(base.clone())
                .anonymize(&g, Method::Rsme, 23)
                .unwrap();
            for strip in [1usize, 64, 500] {
                let cfg = ChameleonConfig {
                    strip_worlds: strip,
                    ..base.clone()
                };
                let streamed = Chameleon::new(cfg).anonymize(&g, Method::Rsme, 23).unwrap();
                let ctx = format!("strip {strip}, incremental {incremental}");
                assert_eq!(dense.sigma.to_bits(), streamed.sigma.to_bits(), "{ctx}");
                assert_eq!(dense.eps_hat.to_bits(), streamed.eps_hat.to_bits(), "{ctx}");
                assert_eq!(dense.genobf_calls, streamed.genobf_calls, "{ctx}");
                assert_eq!(dense.sigma_trace, streamed.sigma_trace, "{ctx}");
                assert_eq!(dense.graph.num_edges(), streamed.graph.num_edges());
                for (a, b) in dense.graph.edges().iter().zip(streamed.graph.edges()) {
                    assert_eq!((a.u, a.v), (b.u, b.v));
                    assert_eq!(a.p.to_bits(), b.p.to_bits(), "{ctx}");
                }
                for (a, b) in dense.vrr.iter().zip(&streamed.vrr) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g = test_graph(3);
        let cham = Chameleon::new(quick_config(6));
        let a = cham.anonymize(&g, Method::Rsme, 1).unwrap();
        let b = cham.anonymize(&g, Method::Rsme, 2).unwrap();
        let same = a.graph.num_edges() == b.graph.num_edges()
            && a.graph
                .edges()
                .iter()
                .zip(b.graph.edges())
                .all(|(x, y)| (x.p - y.p).abs() < 1e-15);
        assert!(!same, "independent seeds should differ");
    }

    #[test]
    fn impossible_target_reports_failure() {
        // k greater than |V| can never be met (entropy ≤ log2 n).
        let g = test_graph(4);
        let cfg = ChameleonConfig::builder()
            .k(1000)
            .epsilon(0.0)
            .trials(1)
            .num_world_samples(60)
            .max_doublings(2)
            .sigma_tolerance(0.5)
            .build();
        let cham = Chameleon::new(cfg);
        match cham.anonymize(&g, Method::Me, 5) {
            Err(ChameleonError::NoObfuscationFound { best_eps_hat, .. }) => {
                assert!(best_eps_hat > 0.0);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let cham = Chameleon::new(quick_config(2));
        let empty = UncertainGraph::with_nodes(0);
        assert!(matches!(
            cham.anonymize(&empty, Method::Rsme, 0),
            Err(ChameleonError::DegenerateInput(_))
        ));
        let edgeless = UncertainGraph::with_nodes(5);
        assert!(matches!(
            cham.anonymize(&edgeless, Method::Rsme, 0),
            Err(ChameleonError::DegenerateInput(_))
        ));
    }

    #[test]
    fn pre_cancelled_token_aborts_immediately() {
        let g = test_graph(13);
        let cham = Chameleon::new(quick_config(6));
        let token = CancelToken::new();
        token.cancel();
        assert!(matches!(
            cham.anonymize_cancellable(&g, Method::Rsme, 7, &token),
            Err(ChameleonError::Cancelled)
        ));
    }

    #[test]
    fn expired_deadline_aborts_the_search() {
        let g = test_graph(13);
        let cham = Chameleon::new(quick_config(6));
        let token = CancelToken::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        assert!(matches!(
            cham.anonymize_cancellable(&g, Method::Rsme, 7, &token),
            Err(ChameleonError::Cancelled)
        ));
    }

    #[test]
    fn uncancelled_token_is_bit_identical_to_plain_anonymize() {
        let g = test_graph(14);
        let cham = Chameleon::new(quick_config(6));
        let plain = cham.anonymize(&g, Method::Rsme, 7).unwrap();
        let tokened = cham
            .anonymize_cancellable(&g, Method::Rsme, 7, &CancelToken::new())
            .unwrap();
        assert_eq!(plain.sigma.to_bits(), tokened.sigma.to_bits());
        assert_eq!(plain.eps_hat.to_bits(), tokened.eps_hat.to_bits());
        assert_eq!(plain.graph.num_edges(), tokened.graph.num_edges());
        for (a, b) in plain.graph.edges().iter().zip(tokened.graph.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert_eq!(a.p.to_bits(), b.p.to_bits());
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = quick_config(2);
        cfg.epsilon = 2.0;
        let g = test_graph(5);
        assert!(matches!(
            Chameleon::new(cfg).anonymize(&g, Method::Rsme, 0),
            Err(ChameleonError::Config(_))
        ));
    }

    #[test]
    fn me_variant_skips_vrr() {
        let g = test_graph(6);
        let cham = Chameleon::new(quick_config(4));
        let res = cham.anonymize(&g, Method::Me, 11).unwrap();
        assert!(res.vrr.is_empty());
        let res = cham.anonymize(&g, Method::Rs, 11).unwrap();
        assert_eq!(res.vrr.len(), g.num_nodes());
    }

    #[test]
    fn stronger_k_needs_no_less_noise() {
        let g = test_graph(7);
        let weak = Chameleon::new(quick_config(3))
            .anonymize(&g, Method::Rsme, 13)
            .unwrap();
        let strong = Chameleon::new(quick_config(20))
            .anonymize(&g, Method::Rsme, 13)
            .unwrap();
        assert!(
            strong.sigma >= weak.sigma - 0.2,
            "strong k sigma {} should not be far below weak k sigma {}",
            strong.sigma,
            weak.sigma
        );
    }

    #[test]
    fn prepare_selection_excludes_top_combined() {
        let g = test_graph(8);
        let uniq = uniqueness_scores_scaled(&g, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let ens = WorldEnsemble::sample(&g, 100, &mut rng);
        let err = edge_reliability_relevance_threads(&g, &ens, 1);
        let vrr = vertex_reliability_relevance(&g, &err);
        let cfg = ChameleonConfig::builder().epsilon(0.2).build();
        let (excluded, selection) = prepare_selection(&g, Method::Rsme, &uniq, &vrr, &cfg);
        assert_eq!(excluded.len(), ((0.2 / 2.0) * 80.0f64).ceil() as usize);
        assert_eq!(selection.len(), 80);
        // Excluded vertices are exactly the top combined-score ones.
        let combined: Vec<f64> = uniq.iter().zip(&vrr).map(|(u, r)| u * r).collect();
        let min_excluded = excluded
            .iter()
            .map(|&v| combined[v as usize])
            .fold(f64::INFINITY, f64::min);
        let max_included = (0..80u32)
            .filter(|v| !excluded.contains(v))
            .map(|v| combined[v as usize])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(min_excluded >= max_included - 1e-12);
    }

    #[test]
    fn zero_epsilon_keeps_everyone() {
        let g = test_graph(9);
        let uniq = uniqueness_scores_scaled(&g, 1.0);
        let cfg = ChameleonConfig::builder().epsilon(0.0).build();
        let (excluded, _) = prepare_selection(&g, Method::Me, &uniq, &[], &cfg);
        assert!(excluded.is_empty());
    }

    #[test]
    fn downward_sweep_finds_tiny_sigma_when_raw_passes() {
        // A symmetric-ish graph that already satisfies (k, ε) raw: the
        // minimum-noise answer is σ ≈ 0 and must be found even though
        // σ_init = 1 may over-noise at the first probe.
        let mut g = UncertainGraph::with_nodes(40);
        for i in 0..20u32 {
            g.add_edge(2 * i, 2 * i + 1, 0.5).unwrap();
        }
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let raw = anonymity_check(&g, &knowledge, 4);
        assert_eq!(raw.eps_hat, 0.0, "raw graph must already pass");
        let cfg = ChameleonConfig::builder()
            .k(4)
            .epsilon(0.05)
            .trials(2)
            .num_world_samples(60)
            .sigma_tolerance(0.2)
            .build();
        let res = Chameleon::new(cfg).anonymize(&g, Method::Me, 8).unwrap();
        assert!(
            res.sigma < 0.2,
            "minimum-noise sigma should be near zero, got {}",
            res.sigma
        );
        // Utility: original probabilities barely move (white noise aside).
        let moved = res
            .graph
            .edges()
            .iter()
            .take(g.num_edges())
            .zip(g.edges())
            .filter(|(a, b)| (a.p - b.p).abs() > 0.2)
            .count();
        assert!(
            moved < g.num_edges() / 4,
            "{moved} of {} original edges moved by > 0.2",
            g.num_edges()
        );
    }

    #[test]
    fn sigma_trace_records_every_genobf_call() {
        let g = test_graph(11);
        let cham = Chameleon::new(quick_config(6));
        let res = cham.anonymize(&g, Method::Me, 21).unwrap();
        assert_eq!(res.sigma_trace.len(), res.genobf_calls);
        // Every recorded sigma is positive; eps values are in [0, 1].
        for &(s, e) in &res.sigma_trace {
            assert!(s > 0.0 && s.is_finite());
            assert!((0.0..=1.0).contains(&e));
        }
        // The final sigma appears in the trace.
        assert!(res
            .sigma_trace
            .iter()
            .any(|&(s, _)| (s - res.sigma).abs() < 1e-12));
    }

    /// The plans pooled on this thread: how many, the bytes they hold, and
    /// the most bytes the search that returned them used.
    fn pooled_bytes() -> (usize, usize, usize) {
        PLAN_POOL.with(|pool| {
            let plans = &pool.borrow().0;
            let held = plans.iter().map(|p| p.footprint().held).sum();
            let used = plans.iter().map(TrialPlan::used_peak).sum();
            (plans.len(), held, used)
        })
    }

    #[test]
    fn a_big_jobs_plans_do_not_outlive_the_next_small_job() {
        let graph = |n: usize, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = generators::gnm(n, 3 * n, &mut rng);
            for e in 0..g.num_edges() as u32 {
                g.set_prob(e, 0.3 + 0.1 * f64::from(e % 5)).unwrap();
            }
            g
        };
        let cham = Chameleon::new(ChameleonConfig {
            num_threads: 1,
            ..quick_config(4)
        });
        let trials = cham.config().trials;
        // A thread of its own starts with an empty pool.
        std::thread::spawn(move || {
            assert_eq!(pooled_bytes(), (0, 0, 0));
            cham.anonymize(&graph(2000, 1), Method::Me, 3).unwrap();
            let (plans, big_held, big_used) = pooled_bytes();
            assert_eq!(plans, trials);
            assert!(big_held <= 2 * big_used, "{big_held} held, {big_used} used");
            // The small job records into the big plans; what it returns is at
            // most twice what it used.
            for round in 0..2 {
                cham.anonymize(&graph(200, 2), Method::Me, 4).unwrap();
                let (plans, held, used) = pooled_bytes();
                assert!(plans <= trials);
                assert!(held <= 2 * used, "round {round}: {held} held, {used} used");
                assert!(held < big_held / 4, "round {round}: {held} of {big_held}");
            }
            // The second small job pooled its own plans again.
            assert_eq!(pooled_bytes().0, trials);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn selection_floor_keeps_critical_vertices_perturbable() {
        let g = test_graph(10);
        let uniq = uniqueness_scores_scaled(&g, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let ens = WorldEnsemble::sample(&g, 100, &mut rng);
        let err = edge_reliability_relevance_threads(&g, &ens, 1);
        let vrr = vertex_reliability_relevance(&g, &err);
        let cfg = ChameleonConfig::builder().epsilon(0.05).build();
        let (excluded, selection) = prepare_selection(&g, Method::Rsme, &uniq, &vrr, &cfg);
        for v in 0..g.num_nodes() as u32 {
            if !excluded.contains(&v) {
                assert!(
                    selection[v as usize] > 0.0,
                    "vertex {v} has zero selection weight"
                );
            }
        }
    }
}
