//! Configuration of the Chameleon anonymization pipeline.

use crate::genobf_checkpoint::{CheckpointHook, SearchCheckpoint};

/// Tunable parameters of [`crate::Chameleon`].
///
/// Field defaults follow the paper: `c = 2` candidate-set multiplier,
/// `q = 0.01` white-noise level, `t = 5` GenObf trials, `N = 1000` sampled
/// worlds (the paper's "1000 usually suffices" setting).
#[derive(Debug, Clone, PartialEq)]
pub struct ChameleonConfig {
    /// Desired obfuscation level `k` (paper Definition 3): every obfuscated
    /// vertex must hide in an entropy-≥ log₂k crowd.
    pub k: usize,
    /// Tolerance ε: up to `ε·|V|` vertices may remain unobfuscated.
    pub epsilon: f64,
    /// Candidate-set size multiplier `c` (Algorithm 3 line 16): the
    /// perturbation set grows to `c·|E|` edges.
    pub size_multiplier: f64,
    /// White-noise level `q` (Algorithm 3 line 20): with probability `q` an
    /// edge's noise is drawn from U(0,1) instead of the truncated normal.
    pub white_noise: f64,
    /// Number of randomized GenObf attempts `t` per σ value.
    pub trials: usize,
    /// Number of Monte-Carlo worlds `N` for reliability-relevance
    /// estimation.
    pub num_world_samples: usize,
    /// Initial upper bound for the σ search (Algorithm 1 starts at 1).
    pub sigma_init: f64,
    /// Stop the σ bisection once `σ_u − σ_l` falls below this.
    pub sigma_tolerance: f64,
    /// Hard cap on σ doubling steps (Algorithm 1 lines 2–5) to guarantee
    /// termination when no obfuscation exists at any noise level.
    pub max_doublings: usize,
    /// Uniqueness-bandwidth scale: θ = `bandwidth_scale`·σ_G (the paper's
    /// §V-C choice is 1.0; exposed for ablation).
    pub bandwidth_scale: f64,
    /// Worker threads for the Monte-Carlo hot paths (world sampling, ERR
    /// estimation, anonymity checks, GenObf trials). `0` uses all hardware
    /// threads. Results are bit-identical for every value — `1` runs the
    /// same chunked algorithms without thread machinery.
    pub num_threads: usize,
    /// Reuse each GenObf trial's randomness across the σ search instead of
    /// redrawing it (DESIGN.md §6d): candidate selections, noise coins and
    /// uniform draws are persisted per trial and re-transformed through
    /// each probe's σ-dependent inverse CDF, and degree pmfs are cached so
    /// an anonymity check only recomputes vertices whose incident edges
    /// moved. The first GenObf call is bit-identical to the non-incremental
    /// path; later probes legally consume their randomness differently, so
    /// the end-to-end result is a deterministic function of `(seed,
    /// config)` but can differ between the two settings once the σ search
    /// takes more than one probe. Composes with `strip_worlds`: neither
    /// GenObf path reads a world ensemble after ERR.
    pub incremental: bool,
    /// Durability hook (DESIGN.md §11): called with the cumulative
    /// [`SearchCheckpoint`] after every live GenObf probe. The sink only
    /// observes the search — it never feeds randomness back — so result
    /// bytes are identical with or without it. Excluded from config
    /// equality except by handle identity.
    pub checkpoint: Option<CheckpointHook>,
    /// Resume state: a checkpoint from an earlier run of the *same*
    /// search (graph, method, seed and config must match its
    /// fingerprint). Recorded probes are replayed without recomputation;
    /// the final output is bit-identical to an uninterrupted run.
    pub resume_from: Option<SearchCheckpoint>,
    /// Out-of-core ensemble analysis (DESIGN.md §12): when non-zero, the
    /// ERR/VRR ensemble is held as raw world strips and analyzed
    /// `strip_worlds` worlds at a time (rounded up to the 64-world
    /// alignment), so per-world labels and component sizes take O(strip)
    /// memory instead of O(N); only the world bits are held for all N
    /// worlds. Results are **bit-identical** to the in-RAM path for every
    /// strip size, with or without `incremental`. `0` keeps the dense
    /// in-RAM ensemble. The σ-probe anonymity checks use no sampled
    /// worlds, so this setting does not touch them.
    pub strip_worlds: usize,
}

impl Default for ChameleonConfig {
    fn default() -> Self {
        Self {
            k: 100,
            epsilon: 1e-3,
            size_multiplier: 2.0,
            white_noise: 0.01,
            trials: 5,
            num_world_samples: 1000,
            sigma_init: 1.0,
            sigma_tolerance: 0.05,
            max_doublings: 6,
            bandwidth_scale: 1.0,
            num_threads: 0,
            incremental: false,
            checkpoint: None,
            resume_from: None,
            strip_worlds: 0,
        }
    }
}

impl ChameleonConfig {
    /// Starts a builder with paper defaults.
    pub fn builder() -> ChameleonConfigBuilder {
        ChameleonConfigBuilder::default()
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.k < 1 {
            return Err("k must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.epsilon) {
            return Err(format!("epsilon {} must lie in [0, 1]", self.epsilon));
        }
        if self.size_multiplier <= 0.0 {
            return Err("size multiplier must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.white_noise) {
            return Err(format!(
                "white-noise level {} must lie in [0, 1]",
                self.white_noise
            ));
        }
        if self.trials == 0 {
            return Err("need at least one trial".into());
        }
        if self.num_world_samples == 0 {
            return Err("need at least one world sample".into());
        }
        if self.sigma_init <= 0.0 || !self.sigma_init.is_finite() {
            return Err("sigma_init must be positive and finite".into());
        }
        if self.sigma_tolerance <= 0.0 {
            return Err("sigma_tolerance must be positive".into());
        }
        if !(self.bandwidth_scale.is_finite() && self.bandwidth_scale > 0.0) {
            return Err("bandwidth_scale must be positive and finite".into());
        }
        Ok(())
    }
}

/// Builder for [`ChameleonConfig`].
#[derive(Debug, Clone, Default)]
pub struct ChameleonConfigBuilder {
    config: Option<ChameleonConfig>,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident : $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, value: $ty) -> Self {
            self.entry().$name = value;
            self
        }
    };
}

impl ChameleonConfigBuilder {
    fn entry(&mut self) -> &mut ChameleonConfig {
        self.config.get_or_insert_with(ChameleonConfig::default)
    }

    setter!(
        /// Sets the obfuscation level `k`.
        k: usize
    );
    setter!(
        /// Sets the tolerance ε.
        epsilon: f64
    );
    setter!(
        /// Sets the candidate-set multiplier `c`.
        size_multiplier: f64
    );
    setter!(
        /// Sets the white-noise level `q`.
        white_noise: f64
    );
    setter!(
        /// Sets the number of GenObf trials `t`.
        trials: usize
    );
    setter!(
        /// Sets the Monte-Carlo world count `N`.
        num_world_samples: usize
    );
    setter!(
        /// Sets the initial σ search bound.
        sigma_init: f64
    );
    setter!(
        /// Sets the σ bisection tolerance.
        sigma_tolerance: f64
    );
    setter!(
        /// Sets the doubling-step cap.
        max_doublings: usize
    );
    setter!(
        /// Sets the uniqueness-bandwidth scale (ablation; paper uses 1).
        bandwidth_scale: f64
    );
    setter!(
        /// Sets the worker-thread count (`0` = all hardware threads).
        num_threads: usize
    );
    setter!(
        /// Enables the incremental (randomness-reusing) GenObf σ search.
        incremental: bool
    );
    setter!(
        /// Sets the per-probe checkpoint sink (durability layer).
        checkpoint: Option<CheckpointHook>
    );
    setter!(
        /// Sets the checkpoint to resume the σ search from.
        resume_from: Option<SearchCheckpoint>
    );
    setter!(
        /// Sets the out-of-core analysis strip (`0` = dense in-RAM
        /// ensembles).
        strip_worlds: usize
    );

    /// Finalizes the configuration.
    ///
    /// # Panics
    /// Panics if the parameters are invalid (use [`ChameleonConfig::validate`]
    /// for fallible validation).
    pub fn build(mut self) -> ChameleonConfig {
        let config = self.entry().clone();
        config.validate().expect("invalid Chameleon configuration");
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ChameleonConfig::default();
        assert_eq!(c.k, 100);
        assert_eq!(c.trials, 5);
        assert_eq!(c.num_world_samples, 1000);
        assert!((c.size_multiplier - 2.0).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_overrides() {
        let c = ChameleonConfig::builder()
            .k(50)
            .epsilon(0.01)
            .trials(3)
            .num_world_samples(200)
            .sigma_tolerance(0.1)
            .num_threads(2)
            .build();
        assert_eq!(c.k, 50);
        assert_eq!(c.trials, 3);
        assert_eq!(c.num_world_samples, 200);
        assert_eq!(c.num_threads, 2);
        assert!((c.epsilon - 0.01).abs() < 1e-15);
    }

    #[test]
    fn threads_default_to_auto() {
        assert_eq!(ChameleonConfig::default().num_threads, 0);
        assert!(ChameleonConfig::default().validate().is_ok());
    }

    #[test]
    fn incremental_defaults_off_and_is_settable() {
        assert!(!ChameleonConfig::default().incremental);
        let c = ChameleonConfig::builder().incremental(true).build();
        assert!(c.incremental);
        assert!(c.validate().is_ok());
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validation_rejects_bad_values() {
        let mut c = ChameleonConfig::default();
        c.k = 0;
        assert!(c.validate().is_err());
        let mut c = ChameleonConfig::default();
        c.epsilon = 1.5;
        assert!(c.validate().is_err());
        let mut c = ChameleonConfig::default();
        c.size_multiplier = 0.0;
        assert!(c.validate().is_err());
        let mut c = ChameleonConfig::default();
        c.white_noise = -0.1;
        assert!(c.validate().is_err());
        let mut c = ChameleonConfig::default();
        c.trials = 0;
        assert!(c.validate().is_err());
        let mut c = ChameleonConfig::default();
        c.num_world_samples = 0;
        assert!(c.validate().is_err());
        let mut c = ChameleonConfig::default();
        c.sigma_init = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = ChameleonConfig::default();
        c.sigma_tolerance = 0.0;
        assert!(c.validate().is_err());
        let mut c = ChameleonConfig::default();
        c.bandwidth_scale = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn strip_worlds_defaults_off_and_composes_with_incremental() {
        assert_eq!(ChameleonConfig::default().strip_worlds, 0);
        let c = ChameleonConfig::builder().strip_worlds(256).build();
        assert_eq!(c.strip_worlds, 256);
        assert!(c.validate().is_ok());
        let c = ChameleonConfig::builder()
            .strip_worlds(64)
            .incremental(true)
            .build();
        assert!(c.strip_worlds == 64 && c.incremental);
        assert!(c.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid Chameleon configuration")]
    fn builder_panics_on_invalid() {
        let _ = ChameleonConfig::builder().k(0).build();
    }
}
