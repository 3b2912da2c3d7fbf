//! Equivalence gates for the incremental GenObf σ search (DESIGN.md §6d):
//! with `ChameleonConfig::incremental` the search is bit-identical to the
//! plain one whenever the preserved-RNG-stream contract applies (a single
//! GenObf call), and a deterministic, thread-count-invariant function of
//! `(seed, config)` always.

use chameleon_core::{Chameleon, ChameleonConfig, Method, ObfuscationResult};
use chameleon_ugraph::{generators, UncertainGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn test_graph(seed: u64, n: usize, m: usize) -> UncertainGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = generators::gnm(n, m, &mut rng);
    for e in 0..g.num_edges() as u32 {
        g.set_prob(e, 0.15 + 0.7 * rng.gen::<f64>()).unwrap();
    }
    g
}

fn assert_results_bit_identical(a: &ObfuscationResult, b: &ObfuscationResult) {
    assert_eq!(a.sigma.to_bits(), b.sigma.to_bits());
    assert_eq!(a.eps_hat.to_bits(), b.eps_hat.to_bits());
    assert_eq!(a.report.unobfuscated, b.report.unobfuscated);
    assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    for (x, y) in a.graph.edges().iter().zip(b.graph.edges()) {
        assert_eq!((x.u, x.v), (y.u, y.v));
        assert_eq!(x.p.to_bits(), y.p.to_bits());
    }
}

/// When the whole run is one GenObf call (first σ passes, tolerance ≥ 1
/// skips the bisection), the incremental toggle changes nothing: same RNG
/// stream, same trials, same winner — bit for bit.
#[test]
fn single_call_run_is_bit_identical_with_toggle_on_or_off() {
    let g = test_graph(5, 60, 140);
    let base = ChameleonConfig::builder()
        .k(4)
        .epsilon(0.3)
        .trials(4)
        .num_world_samples(60)
        .sigma_tolerance(1.0)
        .num_threads(1);
    for method in [Method::Me, Method::Rsme] {
        let off = Chameleon::new(base.clone().incremental(false).build())
            .anonymize(&g, method, 99)
            .expect("reference run should succeed");
        assert_eq!(
            off.genobf_calls, 1,
            "test premise: the whole search is one GenObf call"
        );
        let on = Chameleon::new(base.clone().incremental(true).build())
            .anonymize(&g, method, 99)
            .expect("incremental run should succeed");
        assert_eq!(on.genobf_calls, 1);
        assert_results_bit_identical(&off, &on);
    }
}

/// Multi-probe incremental runs are deterministic in `(seed, config)` and
/// invariant to the worker-thread count.
#[test]
fn incremental_runs_are_reproducible_and_thread_count_invariant() {
    let g = test_graph(8, 50, 120);
    let cfg = |threads: usize| {
        ChameleonConfig::builder()
            .k(6)
            .epsilon(0.25)
            .trials(3)
            .num_world_samples(50)
            .sigma_tolerance(0.2)
            .num_threads(threads)
            .incremental(true)
            .build()
    };
    let run1 = Chameleon::new(cfg(1))
        .anonymize(&g, Method::Rsme, 17)
        .unwrap();
    let run8 = Chameleon::new(cfg(8))
        .anonymize(&g, Method::Rsme, 17)
        .unwrap();
    let run1b = Chameleon::new(cfg(1))
        .anonymize(&g, Method::Rsme, 17)
        .unwrap();
    assert_eq!(run1.genobf_calls, run8.genobf_calls);
    assert_eq!(run1.genobf_calls, run1b.genobf_calls);
    assert_eq!(run1.sigma_trace, run8.sigma_trace);
    assert_eq!(run1.sigma_trace, run1b.sigma_trace);
    assert_results_bit_identical(&run1, &run8);
    assert_results_bit_identical(&run1, &run1b);
}

/// The incremental search must still find obfuscations the plain one does:
/// both settings succeed on the same workload and report passing ε̂.
#[test]
fn incremental_search_succeeds_where_plain_search_does() {
    let g = test_graph(21, 70, 160);
    for incremental in [false, true] {
        let cfg = ChameleonConfig::builder()
            .k(5)
            .epsilon(0.2)
            .trials(3)
            .num_world_samples(60)
            .incremental(incremental)
            .build();
        let res = Chameleon::new(cfg).anonymize(&g, Method::Rsme, 3).unwrap();
        assert!(res.eps_hat <= 0.2, "incremental={incremental}");
        assert_eq!(res.graph.num_nodes(), g.num_nodes());
    }
}
