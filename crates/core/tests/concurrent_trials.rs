//! Incremental GenObf checks its trials concurrently, then folds them
//! serially in trial order with the ε̂ = 0 early exit. The fold must make
//! every thread count publish the same search: same σ trace, same call
//! count, same release bits, and the same number of trials folded.
//!
//! One `#[test]` in its own binary: the `genobf.trials` counter is
//! process-global, so no other test may run GenObf alongside it.

use chameleon_core::{AdversaryKnowledge, Chameleon, ChameleonConfig, Method};
use chameleon_ugraph::UncertainGraph;

#[test]
fn incremental_trials_fold_identically_at_every_thread_count() {
    // A perfect matching already passes (k, ε) raw, so the downward sweep
    // keeps meeting ε̂ = 0 probes and the fold stops early — while the
    // other trials of the same wave were checked anyway.
    let mut g = UncertainGraph::with_nodes(40);
    for i in 0..20u32 {
        g.add_edge(2 * i, 2 * i + 1, 0.5).unwrap();
    }
    let knowledge = AdversaryKnowledge::expected_degrees(&g);
    assert_eq!(
        chameleon_core::anonymity_check(&g, &knowledge, 4).eps_hat,
        0.0,
        "raw graph must already pass"
    );
    let run = |threads: usize| {
        let cfg = ChameleonConfig::builder()
            .k(4)
            .epsilon(0.05)
            .trials(3)
            .num_world_samples(60)
            .sigma_tolerance(0.2)
            .incremental(true)
            .num_threads(threads)
            .build();
        let before = chameleon_obs::counter_value("genobf.trials");
        let res = Chameleon::new(cfg).anonymize(&g, Method::Me, 8).unwrap();
        let trials = chameleon_obs::counter_value("genobf.trials") - before;
        let trace: Vec<(u64, u64)> = res
            .sigma_trace
            .iter()
            .map(|&(s, e)| (s.to_bits(), e.to_bits()))
            .collect();
        let release: Vec<(u32, u32, u64)> = res
            .graph
            .edges()
            .iter()
            .map(|e| (e.u, e.v, e.p.to_bits()))
            .collect();
        (trace, res.genobf_calls, release, trials)
    };
    let serial = run(1);
    assert!(
        serial.1 > 1,
        "the search must probe more than once to exercise later waves"
    );
    if chameleon_obs::is_enabled() {
        // The early exit fired: fewer trials folded than 3 per call.
        assert!(serial.3 > 0 && serial.3 < 3 * serial.1 as u64);
    }
    for threads in [2, 4] {
        let par = run(threads);
        assert_eq!(serial.0, par.0, "sigma_trace at {threads} threads");
        assert_eq!(serial.1, par.1, "genobf_calls at {threads} threads");
        assert_eq!(serial.2, par.2, "release at {threads} threads");
        assert_eq!(serial.3, par.3, "genobf.trials at {threads} threads");
    }
}
