//! Determinism guarantees across the whole pipeline: identical seeds must
//! yield bit-identical datasets, anonymizations and measurements — the
//! property every experiment table in EXPERIMENTS.md relies on.

use chameleon::prelude::*;

fn graphs_identical(a: &UncertainGraph, b: &UncertainGraph) -> bool {
    a.num_nodes() == b.num_nodes()
        && a.num_edges() == b.num_edges()
        && a.edges()
            .iter()
            .zip(b.edges())
            .all(|(x, y)| (x.u, x.v) == (y.u, y.v) && (x.p - y.p).abs() < 1e-15)
}

#[test]
fn datasets_are_deterministic() {
    assert!(graphs_identical(&dblp_like(200, 5), &dblp_like(200, 5)));
    assert!(graphs_identical(
        &brightkite_like(200, 5),
        &brightkite_like(200, 5)
    ));
    assert!(graphs_identical(&ppi_like(150, 5), &ppi_like(150, 5)));
    assert!(!graphs_identical(&dblp_like(200, 5), &dblp_like(200, 6)));
}

#[test]
fn anonymization_is_deterministic_per_seed() {
    let g = brightkite_like(180, 1);
    let cfg = ChameleonConfig::builder()
        .k(15)
        .epsilon(0.05)
        .trials(2)
        .num_world_samples(100)
        .sigma_tolerance(0.2)
        .build();
    for method in [Method::Rsme, Method::Rs, Method::Me] {
        let a = Chameleon::new(cfg.clone())
            .anonymize(&g, method, 33)
            .unwrap();
        let b = Chameleon::new(cfg.clone())
            .anonymize(&g, method, 33)
            .unwrap();
        assert!(
            graphs_identical(&a.graph, &b.graph),
            "{method} not deterministic"
        );
        assert_eq!(a.sigma, b.sigma);
        assert_eq!(a.eps_hat, b.eps_hat);
        assert_eq!(a.genobf_calls, b.genobf_calls);
    }
}

#[test]
fn repan_is_deterministic_per_seed() {
    let g = dblp_like(180, 2);
    let cfg = ChameleonConfig::builder()
        .k(8)
        .epsilon(0.06)
        .trials(2)
        .num_world_samples(100)
        .sigma_tolerance(0.2)
        .build();
    let a = RepAn::new(cfg.clone()).anonymize(&g, 4).unwrap();
    let b = RepAn::new(cfg).anonymize(&g, 4).unwrap();
    assert!(graphs_identical(&a.representative, &b.representative));
    assert!(graphs_identical(&a.graph, &b.graph));
}

#[test]
fn measurements_are_deterministic() {
    let g = ppi_like(150, 9);
    let mut h = g.clone();
    h.set_prob(0, 0.99).unwrap();
    let run = || {
        let seq = SeedSequence::new(77);
        let pairs = sample_distinct_pairs(g.num_nodes(), 200, &mut seq.rng("p"));
        let a = WorldEnsemble::sample(&g, 150, &mut seq.rng("a"));
        let b = WorldEnsemble::sample(&h, 150, &mut seq.rng("b"));
        avg_reliability_discrepancy(&a, &b, &pairs)
    };
    let r1 = run();
    let r2 = run();
    assert_eq!(r1.avg, r2.avg);
    assert_eq!(r1.max, r2.max);
}

#[test]
fn parallel_execution_matches_serial_at_every_site() {
    use chameleon::core::relevance::{
        edge_reliability_relevance_alg2_threads, edge_reliability_relevance_threads,
    };
    use chameleon::core::{anonymity_check_threads, anonymity_check_tolerant};

    let g = brightkite_like(220, 3);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    // Site 1: chunk-seeded world sampling and per-world analysis.
    let e1 = WorldEnsemble::sample_seeded(&g, 137, 99, 1);
    let e8 = WorldEnsemble::sample_seeded(&g, 137, 99, 8);
    assert_eq!(e1.matrix(), e8.matrix());
    for w in 0..e1.len() {
        assert_eq!(e1.labels(w), e8.labels(w));
        assert_eq!(e1.component_sizes(w), e8.component_sizes(w));
    }
    assert_eq!(e1.connected_pairs_all(), e8.connected_pairs_all());

    // Site 2: ERR estimators fold per-chunk partials in chunk order.
    assert_eq!(
        bits(&edge_reliability_relevance_threads(&g, &e1, 1)),
        bits(&edge_reliability_relevance_threads(&g, &e1, 8))
    );
    assert_eq!(
        bits(&edge_reliability_relevance_alg2_threads(&g, &e1, 1)),
        bits(&edge_reliability_relevance_alg2_threads(&g, &e1, 8))
    );

    // Site 3: per-vertex degree-pmf construction in the anonymity check,
    // which the zero-tolerance fuzzy check shares bit for bit.
    let knowledge = AdversaryKnowledge::expected_degrees(&g);
    let c1 = anonymity_check_threads(&g, &knowledge, 12, 1);
    let c8 = anonymity_check_threads(&g, &knowledge, 12, 8);
    let t0 = anonymity_check_tolerant(&g, &knowledge, 12, 0);
    for c in [&c8, &t0] {
        assert_eq!(c1.eps_hat.to_bits(), c.eps_hat.to_bits());
        assert_eq!(c1.unobfuscated, c.unobfuscated);
    }

    // Uniqueness scores are computed serially by linear binning; the KDE's
    // own tests hold them to the exact Definition 4 sum.
}

#[test]
fn full_anonymization_is_thread_count_invariant() {
    // Site 4 (parallel GenObf trials) plus everything upstream: the whole
    // pipeline must publish the same graph at every thread count.
    let g = brightkite_like(160, 4);
    let run = |threads: usize| {
        let cfg = ChameleonConfig::builder()
            .k(12)
            .epsilon(0.05)
            .trials(3)
            .num_world_samples(120)
            .sigma_tolerance(0.2)
            .num_threads(threads)
            .build();
        Chameleon::new(cfg).anonymize(&g, Method::Rsme, 7).unwrap()
    };
    let serial = run(1);
    let parallel = run(8);
    assert!(graphs_identical(&serial.graph, &parallel.graph));
    assert_eq!(serial.sigma.to_bits(), parallel.sigma.to_bits());
    assert_eq!(serial.eps_hat.to_bits(), parallel.eps_hat.to_bits());
    assert_eq!(serial.genobf_calls, parallel.genobf_calls);
}

#[test]
fn seed_sequence_isolates_components() {
    // Adding a new labelled consumer must not perturb existing streams —
    // the property that keeps experiment extensions from invalidating
    // recorded results.
    let seq = SeedSequence::new(123);
    let before = seq.derive("world-sampling");
    let _ = seq.derive("some-new-component");
    assert_eq!(before, seq.derive("world-sampling"));
}
