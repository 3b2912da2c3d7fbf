//! Checkpointing of the GenObf σ search (durability layer, DESIGN.md §11).
//!
//! The σ search of [`crate::Chameleon::anonymize`] is a deterministic
//! function of `(graph, config, method, seed)`: every probe draws its
//! randomness from the indexed stream `(seed, "genobf-trial", call, trial)`
//! (DESIGN.md §6d), so the *entire* trajectory — which σ values are probed,
//! in which order, and what each probe observes — is replayable from the
//! per-probe outcomes alone. A [`SearchCheckpoint`] is exactly that record:
//! the search fingerprint (seed, method, graph digest and every
//! search-relevant config knob, folded into one FNV-1a value) plus one
//! [`ProbeRecord`] per completed GenObf invocation, carrying the RNG-stream
//! cursor (`call`), the probed σ, and the observed ε̂ values as exact bits.
//!
//! A resumed search walks the same control flow but *consumes* the recorded
//! probes instead of recomputing them: brackets, the σ trace and the call
//! counter advance from the records, and only probes beyond the checkpoint
//! run GenObf. Because the winning probe's graph is a pure function of
//! `(call, σ)`, it is re-materialized with a single extra GenObf evaluation
//! when the winner lies inside the replayed prefix — the final output is
//! bit-identical to an uninterrupted run (pinned by
//! `tests/checkpoint_resume.rs` at every interrupt point).
//!
//! Serialization is the workspace's deterministic JSON with every `f64`
//! stored as its IEEE-754 bit pattern in hex — round-tripping is exact by
//! construction, never "close after parsing".

use crate::config::ChameleonConfig;
use crate::method::Method;
use chameleon_obs::json::Json;
use chameleon_ugraph::UncertainGraph;
use std::fmt::Write as _;
use std::sync::Arc;

/// Current serialization version; bumped if the record shape changes.
const CHECKPOINT_VERSION: u64 = 1;

/// Revision of the σ search's arithmetic, folded into every
/// [`search_fingerprint`]. A checkpoint records probe *outcomes*, so one
/// journaled by a build whose search computes different outcomes for the
/// same inputs must not be replayed into this one. Bump this whenever
/// `tests/golden_release.rs` is re-pinned.
///
/// History: 1 — exact O(n²) uniqueness KDE (fingerprints carried no
/// revision field); 2 — linear-binned uniqueness KDE; 3 — fdlibm rational
/// `erf` in the truncated-normal noise (last-ulp changes to the noise); 4 —
/// release-path `exp`/`ln` from `chameleon_stats::detmath` instead of the
/// host's libm, AS241 instead of Acklam + Halley for the noise quantile,
/// and the one-pass `ln T − S/T` entropy with its log₂k threshold.
pub(crate) const SEARCH_REVISION: u64 = 4;

/// One completed GenObf invocation of a σ search.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRecord {
    /// RNG-stream cursor: this probe consumed the trial streams
    /// `(seed, "genobf-trial", call, 0..trials)` (DESIGN.md §6d). The
    /// next live probe after a replayed prefix continues at `call + 1`.
    pub call: u64,
    /// The probed noise level σ (exact bits round-trip through
    /// serialization).
    pub sigma: f64,
    /// ε̂ of the probe's winning trial, or 1.0 when no trial passed.
    pub eps_hat: f64,
    /// Smallest ε̂ observed across the probe's trials (diagnostics; feeds
    /// the σ trace and the near-miss report).
    pub eps_nearest: f64,
    /// Whether the probe produced a (k, ε)-satisfying graph — the bit the
    /// bracket update logic branches on.
    pub passed: bool,
}

/// A serializable snapshot of a σ search taken at a probe boundary.
///
/// Emitted through [`CheckpointHook`] after every *live* probe; feeding it
/// back via [`ChameleonConfig::resume_from`] skips the recorded probes.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCheckpoint {
    /// FNV-1a fold of everything that pins the search trajectory: the
    /// graph digest, method, seed and every search-relevant config knob.
    /// A resume whose fingerprint does not match the live search is
    /// rejected ([`crate::ChameleonError::CheckpointInvalid`]).
    pub fingerprint: u64,
    /// The seed driving all randomness (informational; already folded
    /// into the fingerprint).
    pub seed: u64,
    /// Every completed probe, in call order.
    pub probes: Vec<ProbeRecord>,
}

impl SearchCheckpoint {
    /// Serializes to one line of deterministic JSON (floats as hex bit
    /// patterns, u64s as hex strings — exact round-trip).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.probes.len() * 96);
        let _ = write!(
            out,
            "{{\"v\":{CHECKPOINT_VERSION},\"fingerprint\":\"{:016x}\",\"seed\":\"{:016x}\",\"probes\":[",
            self.fingerprint, self.seed
        );
        for (i, p) in self.probes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"call\":{},\"sigma\":\"{:016x}\",\"eps_hat\":\"{:016x}\",\
                 \"eps_nearest\":\"{:016x}\",\"passed\":{}}}",
                p.call,
                p.sigma.to_bits(),
                p.eps_hat.to_bits(),
                p.eps_nearest.to_bits(),
                p.passed,
            );
        }
        out.push_str("]}");
        out
    }

    /// Parses a serialized checkpoint.
    ///
    /// # Errors
    /// Returns a description of the first malformed field. Parsing is
    /// strict about shape but does not validate the trajectory — that
    /// happens against the live search via the fingerprint and per-probe
    /// cursor checks.
    pub fn parse(text: &str) -> Result<SearchCheckpoint, String> {
        let v = Json::parse(text).map_err(|e| format!("checkpoint: {e}"))?;
        let version = v
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("checkpoint: missing version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!("checkpoint: unsupported version {version}"));
        }
        let fingerprint = hex_u64(&v, "fingerprint")?;
        let seed = hex_u64(&v, "seed")?;
        let probes = v
            .get("probes")
            .and_then(Json::as_array)
            .ok_or("checkpoint: missing probes array")?
            .iter()
            .map(|p| {
                Ok(ProbeRecord {
                    call: p
                        .get("call")
                        .and_then(Json::as_u64)
                        .ok_or("checkpoint probe: missing call")?,
                    sigma: f64::from_bits(hex_u64(p, "sigma")?),
                    eps_hat: f64::from_bits(hex_u64(p, "eps_hat")?),
                    eps_nearest: f64::from_bits(hex_u64(p, "eps_nearest")?),
                    passed: p
                        .get("passed")
                        .and_then(Json::as_bool)
                        .ok_or("checkpoint probe: missing passed")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SearchCheckpoint {
            fingerprint,
            seed,
            probes,
        })
    }

    /// Whether this checkpoint belongs to the search defined by
    /// `(graph, method, seed, config)` — callers that recover persisted
    /// checkpoints (e.g. a job journal) use this to drop stale state and
    /// fall back to a fresh search instead of failing.
    pub fn matches(
        &self,
        graph: &UncertainGraph,
        method: Method,
        seed: u64,
        config: &ChameleonConfig,
    ) -> bool {
        self.fingerprint == search_fingerprint(graph_fingerprint(graph), method, seed, config)
    }
}

/// A cloneable handle to the closure that receives checkpoints as a σ
/// search progresses, carried on [`ChameleonConfig::checkpoint`]. Equality
/// is handle identity (`Arc::ptr_eq`) so the config keeps its derived
/// `PartialEq`; the sink itself never participates in result bytes.
#[derive(Clone)]
pub struct CheckpointHook(Arc<dyn Fn(&SearchCheckpoint) + Send + Sync>);

impl CheckpointHook {
    /// Wraps a closure into a hook.
    pub fn new<F: Fn(&SearchCheckpoint) + Send + Sync + 'static>(sink: F) -> Self {
        CheckpointHook(Arc::new(sink))
    }

    /// Delivers one checkpoint to the sink. The search calls this after
    /// every live probe, on its own thread between probes, with the
    /// cumulative checkpoint — the sink should stay cheap (serialize and
    /// hand off) and must not feed randomness back.
    pub fn emit(&self, checkpoint: &SearchCheckpoint) {
        (self.0)(checkpoint);
    }
}

impl std::fmt::Debug for CheckpointHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CheckpointHook(..)")
    }
}

impl PartialEq for CheckpointHook {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// FNV-1a 64-bit (same parameters as the server's cache digest; duplicated
/// here because `chameleon_core` sits below the server crate).
fn fnv1a64(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Content digest of an uncertain graph: node count plus every edge's
/// endpoints and exact probability bits, in storage order.
pub fn graph_fingerprint(graph: &UncertainGraph) -> u64 {
    let mut h = fnv1a64(&(graph.num_nodes() as u64).to_le_bytes(), FNV_OFFSET);
    for e in graph.edges() {
        h = fnv1a64(&e.u.to_le_bytes(), h);
        h = fnv1a64(&e.v.to_le_bytes(), h);
        h = fnv1a64(&e.p.to_bits().to_le_bytes(), h);
    }
    h
}

/// Folds everything that pins a σ-search trajectory into one value: the
/// [`SEARCH_REVISION`], the graph digest, the method, the seed, and each
/// config knob the search consults. `num_threads` is deliberately
/// excluded (results are thread-count invariant); the durability hooks
/// themselves are excluded (they observe the search, they do not steer
/// it).
pub(crate) fn search_fingerprint(
    graph_digest: u64,
    method: Method,
    seed: u64,
    config: &ChameleonConfig,
) -> u64 {
    let mut canon = String::with_capacity(160);
    let _ = write!(
        canon,
        "g={graph_digest:016x};m={};seed={seed};k={};eps={:016x};c={:016x};q={:016x};t={};N={};\
         s0={:016x};tol={:016x};d={};bw={:016x};inc={};rev={SEARCH_REVISION}",
        method.name(),
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
    );
    fnv1a64(canon.as_bytes(), FNV_OFFSET)
}

fn hex_u64(v: &Json, key: &str) -> Result<u64, String> {
    let s = v
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("checkpoint: missing {key}"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("checkpoint: bad {key} {s:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SearchCheckpoint {
        SearchCheckpoint {
            fingerprint: 0xdead_beef_0123_4567,
            seed: u64::MAX - 3,
            probes: vec![
                ProbeRecord {
                    call: 0,
                    sigma: 1.0,
                    eps_hat: 1.0,
                    eps_nearest: 0.62,
                    passed: false,
                },
                ProbeRecord {
                    call: 1,
                    sigma: 2.0,
                    eps_hat: 0.012_345_678_901_234_5,
                    eps_nearest: 0.012_345_678_901_234_5,
                    passed: true,
                },
            ],
        }
    }

    #[test]
    fn serialization_round_trips_exactly() {
        let cp = sample();
        let parsed = SearchCheckpoint::parse(&cp.to_json()).unwrap();
        assert_eq!(cp, parsed);
        // Bit-exactness, not approximate equality.
        for (a, b) in cp.probes.iter().zip(&parsed.probes) {
            assert_eq!(a.sigma.to_bits(), b.sigma.to_bits());
            assert_eq!(a.eps_hat.to_bits(), b.eps_hat.to_bits());
            assert_eq!(a.eps_nearest.to_bits(), b.eps_nearest.to_bits());
        }
    }

    #[test]
    fn extreme_floats_survive() {
        let mut cp = sample();
        cp.probes[0].sigma = f64::MIN_POSITIVE;
        cp.probes[0].eps_hat = f64::from_bits(0x0000_0000_0000_0001);
        cp.probes[0].eps_nearest = 1.0 - f64::EPSILON;
        let parsed = SearchCheckpoint::parse(&cp.to_json()).unwrap();
        assert_eq!(cp, parsed);
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{}",
            "not json",
            r#"{"v":1}"#,
            r#"{"v":2,"fingerprint":"0","seed":"0","probes":[]}"#,
            r#"{"v":1,"fingerprint":"zzz","seed":"0","probes":[]}"#,
            r#"{"v":1,"fingerprint":"0","seed":"0","probes":[{"call":0}]}"#,
        ] {
            assert!(SearchCheckpoint::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let g = {
            let mut g = UncertainGraph::with_nodes(4);
            g.add_edge(0, 1, 0.5).unwrap();
            g.add_edge(1, 2, 0.25).unwrap();
            g
        };
        let cfg = ChameleonConfig::default();
        let base = search_fingerprint(graph_fingerprint(&g), Method::Rsme, 7, &cfg);
        assert_eq!(
            base,
            search_fingerprint(graph_fingerprint(&g), Method::Rsme, 7, &cfg)
        );
        let mut other = cfg.clone();
        other.k += 1;
        assert_ne!(
            base,
            search_fingerprint(graph_fingerprint(&g), Method::Rsme, 7, &other)
        );
        assert_ne!(
            base,
            search_fingerprint(graph_fingerprint(&g), Method::Me, 7, &cfg)
        );
        assert_ne!(
            base,
            search_fingerprint(graph_fingerprint(&g), Method::Rsme, 8, &cfg)
        );
        // Thread count is excluded: results are thread-count invariant.
        let mut threaded = cfg.clone();
        threaded.num_threads = 8;
        assert_eq!(
            base,
            search_fingerprint(graph_fingerprint(&g), Method::Rsme, 7, &threaded)
        );
        // Graph content matters down to probability bits.
        let mut g2 = g.clone();
        g2.set_prob(0, 0.5 + f64::EPSILON).unwrap();
        assert_ne!(graph_fingerprint(&g), graph_fingerprint(&g2));
    }

    #[test]
    fn hook_equality_is_identity() {
        let a = CheckpointHook::new(|_: &SearchCheckpoint| {});
        let b = CheckpointHook::new(|_: &SearchCheckpoint| {});
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
    }
}
