//! Developer diagnostic: dissect a single (dataset, method, k, sigma)
//! GenObf-style perturbation — who stays exposed and why.
//!
//! Usage: `diag [--scale N] [--dataset PPI] [--k K] [--sigma S] [--method RSME]`

use chameleon_bench::{build_dataset, Args, ExperimentConfig};
use chameleon_core::anonymity::{anonymity_check, AdversaryKnowledge};
use chameleon_core::candidate::{select_candidates, VertexSampler};
use chameleon_core::perturb::draw_noise;
use chameleon_core::relevance::{
    edge_reliability_relevance_threads, min_max_normalize, vertex_reliability_relevance,
};
use chameleon_core::uniqueness::uniqueness_scores;
use chameleon_core::Method;
use chameleon_datasets::DatasetKind;
use chameleon_reliability::WorldEnsemble;
use chameleon_stats::SeedSequence;
use std::collections::HashSet;

fn main() {
    let args = Args::from_env();
    let cfg = ExperimentConfig::from_args(&args);
    let dataset = match args
        .get("dataset", "PPI".to_string())
        .to_uppercase()
        .as_str()
    {
        "DBLP" => DatasetKind::Dblp,
        "BRIGHTKITE" => DatasetKind::Brightkite,
        _ => DatasetKind::Ppi,
    };
    let k: usize = args.get("k", 20);
    let sigma: f64 = args.get("sigma", 4.0);
    let method: Method = args.get("method", "RSME".to_string()).parse().unwrap();

    let g = build_dataset(dataset, &cfg);
    let seq = SeedSequence::new(cfg.seed);
    let knowledge = AdversaryKnowledge::expected_degrees(&g);

    let uniq = uniqueness_scores(&g);
    let vrr = if method.reliability_oriented() {
        let ens = WorldEnsemble::sample(&g, 200, &mut seq.rng("ens"));
        let err = edge_reliability_relevance_threads(&g, &ens, 1);
        vertex_reliability_relevance(&g, &err)
    } else {
        vec![0.0; g.num_nodes()]
    };
    let vrr_norm = min_max_normalize(&vrr);
    let selection: Vec<f64> = if method.reliability_oriented() {
        uniq.iter()
            .zip(&vrr_norm)
            .map(|(u, r)| u * (1.0 - r))
            .collect()
    } else {
        uniq.clone()
    };
    // Exclusion H.
    let n = g.num_nodes();
    let h_size = ((cfg.epsilon / 2.0) * n as f64).ceil() as usize;
    let excl_score: Vec<f64> = if method.reliability_oriented() {
        uniq.iter().zip(&vrr).map(|(u, r)| u * r).collect()
    } else {
        uniq.clone()
    };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| excl_score[b].partial_cmp(&excl_score[a]).unwrap());
    let excluded: HashSet<u32> = order[..h_size.min(n - 2)]
        .iter()
        .map(|&v| v as u32)
        .collect();

    let raw = anonymity_check(&g, &knowledge, k);
    println!(
        "{dataset} n={n} m={} | k={k} sigma={sigma} method={method} | raw exposed: {}",
        g.num_edges(),
        raw.unobfuscated.len()
    );

    // One perturbation trial at this sigma.
    let sampler = VertexSampler::new(&selection, &excluded);
    let mut rng = seq.rng("trial");
    let cands = select_candidates(&g, &sampler, 2.0, &mut rng);
    let q_edge: Vec<f64> = cands
        .iter()
        .map(|c| 0.5 * (selection[c.u as usize] + selection[c.v as usize]))
        .collect();
    let q_mean = q_edge.iter().sum::<f64>() / cands.len() as f64;
    let mut pert = g.clone();
    for (c, &qe) in cands.iter().zip(&q_edge) {
        let sigma_e = (sigma * qe / q_mean).clamp(1e-9, 3.0);
        let r = draw_noise(sigma_e, 0.01, &mut rng);
        let p_new = method.perturbation().apply(c.p, r, &mut rng);
        match c.existing {
            Some(e) => pert.set_prob(e, p_new).unwrap(),
            None => {
                pert.add_edge(c.u, c.v, p_new).unwrap();
            }
        }
    }
    let rep = anonymity_check(&pert, &knowledge, k);
    println!(
        "after perturbation: exposed {} (candidates: {}, injected: {})",
        rep.unobfuscated.len(),
        cands.len(),
        cands.iter().filter(|c| c.existing.is_none()).count()
    );
    println!("\nexposed nodes (top 25 by expected degree):");
    let mut exposed: Vec<u32> = rep.unobfuscated.clone();
    exposed.sort_by(|&a, &b| {
        g.expected_degree(b)
            .partial_cmp(&g.expected_degree(a))
            .unwrap()
    });
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>6}",
        "node", "E[deg]", "omega", "H(bits)", "uniq", "vrr_norm", "sel_w", "in_H"
    );
    for &v in exposed.iter().take(25) {
        let omega = knowledge.target(v);
        println!(
            "{:>6} {:>8.2} {:>8} {:>8.3} {:>10.3e} {:>10.3} {:>10.3e} {:>6}",
            v,
            g.expected_degree(v),
            omega,
            rep.entropy_by_omega[&omega],
            uniq[v as usize],
            vrr_norm[v as usize],
            selection[v as usize],
            excluded.contains(&v)
        );
    }
    // Class-size context.
    let mut class_sizes = std::collections::HashMap::new();
    for v in 0..n as u32 {
        *class_sizes.entry(knowledge.target(v)).or_insert(0usize) += 1;
    }
    let mut exposed_omegas: Vec<u32> = rep
        .unobfuscated
        .iter()
        .map(|&v| knowledge.target(v))
        .collect();
    exposed_omegas.sort_unstable();
    exposed_omegas.dedup();
    println!("\nexposed omega classes: {} distinct", exposed_omegas.len());
    for &w in exposed_omegas.iter().take(20) {
        println!(
            "  omega {w:>4}: class size {:>4}, H = {:.3} bits (need {:.3})",
            class_sizes[&w],
            rep.entropy_by_omega[&w],
            (k as f64).log2()
        );
    }
}
