//! Observability must never perturb results: the pipeline's output has to
//! be bit-identical whether metric recording is on or off, and the
//! recorded metrics themselves must be deterministic in their non-timing
//! fields for a fixed seed.
//!
//! Everything lives in one `#[test]` because the runtime kill-switch is
//! process-global — concurrent tests must not observe the disabled window.

use chameleon::prelude::*;

fn edges_bits(g: &UncertainGraph) -> Vec<(u32, u32, u64)> {
    g.edges()
        .iter()
        .map(|e| (e.u, e.v, e.p.to_bits()))
        .collect()
}

#[test]
fn recording_on_or_off_yields_bit_identical_output() {
    let g = brightkite_like(150, 3);
    let cfg = ChameleonConfig::builder()
        .k(10)
        .epsilon(0.05)
        .trials(2)
        .num_world_samples(120)
        .sigma_tolerance(0.2)
        .num_threads(2)
        .build();
    let run = || {
        Chameleon::new(cfg.clone())
            .anonymize(&g, Method::Rsme, 77)
            .unwrap()
    };

    let was_on = chameleon::obs::set_enabled(true);
    let with_obs = run();
    let counters_first = chameleon::obs::snapshot();

    chameleon::obs::set_enabled(false);
    let without_obs = run();

    chameleon::obs::set_enabled(true);
    let with_obs_again = run();
    let counters_second = chameleon::obs::snapshot();
    let incremental = ChameleonConfig {
        incremental: true,
        ..cfg.clone()
    };
    Chameleon::new(incremental)
        .anonymize(&g, Method::Rsme, 77)
        .unwrap();
    let after_incremental = chameleon::obs::snapshot();
    chameleon::obs::set_enabled(was_on);

    // 1. Toggling recording changes nothing about the pipeline output.
    assert_eq!(edges_bits(&with_obs.graph), edges_bits(&without_obs.graph));
    assert_eq!(with_obs.sigma.to_bits(), without_obs.sigma.to_bits());
    assert_eq!(with_obs.eps_hat.to_bits(), without_obs.eps_hat.to_bits());
    assert_eq!(with_obs.genobf_calls, without_obs.genobf_calls);

    // 2. Same seed, recording on: the run repeats exactly.
    assert_eq!(
        edges_bits(&with_obs.graph),
        edges_bits(&with_obs_again.graph)
    );

    // 3. The disabled run contributed nothing; the two enabled runs
    //    contributed identical counter deltas (counters are functions of
    //    the seeded work, not of timing or thread interleaving).
    if chameleon::obs::is_enabled() {
        for name in [
            "genobf.trials",
            "genobf.edges_perturbed",
            "anonymity.checks",
            "ensemble.worlds_sampled",
            "relevance.worlds_scanned",
        ] {
            let first = counters_first.counter(name);
            let second = counters_second.counter(name);
            assert!(first > 0, "{name} never recorded");
            assert_eq!(
                second,
                2 * first,
                "{name}: delta of the second enabled run differs from the first \
                 (or the disabled run recorded)"
            );
        }

        // 4. Both trial bodies time their noise transform and their pmf
        //    loop under the same spans, and every trial check builds one
        //    pmf per vertex, counted in `anonymity.pmfs_built`.
        let passes =
            |snap: &chameleon::obs::Snapshot, name: &str| snap.span(name).map_or(0, |s| s.count);
        for name in ["genobf.noise", "anonymity.degree_pmfs"] {
            assert!(passes(&counters_first, name) > 0, "{name}");
            assert!(
                passes(&after_incremental, name) > passes(&counters_second, name),
                "{name} never ran in the incremental body"
            );
        }
        let n = g.num_nodes() as u64;
        let delta = |name: &str| after_incremental.counter(name) - counters_second.counter(name);
        assert_eq!(
            counters_first.counter("anonymity.pmfs_built"),
            n * counters_first.counter("anonymity.checks")
        );
        assert_eq!(delta("anonymity.pmfs_built"), n * delta("anonymity.checks"));
        assert!(delta("anonymity.checks") > 0);
    }
}
