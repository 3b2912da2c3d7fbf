//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! * `perturb` — max-entropy vs unguided perturbation at equal noise:
//!   degree-entropy gain (the Lemma 6 / Fig. 7 rationale) and achieved σ*
//!   when used inside the full pipeline.
//! * `bandwidth` — uniqueness-bandwidth θ = s·σ_G for s ∈ {0.25, 1, 4}.
//! * `candidates` — candidate-set multiplier c ∈ {1.0, 1.5, 2.0, 3.0}.
//! * `whitenoise` — white-noise level q ∈ {0, 0.01, 0.1, 0.5}.
//! * `errsamples` — ERR estimator convergence: rank correlation of the
//!   reused-sampling estimate at N worlds vs a 4000-world reference.
//!
//! Usage: `ablation [study ...] [--scale N] [--seed S] [--k K]`
//! (no positional study = run all).

use chameleon_bench::{build_dataset, utility_errors, Args, ExperimentConfig, TablePrinter};
use chameleon_core::relevance::{
    edge_reliability_relevance_alg2_threads, edge_reliability_relevance_threads,
};
use chameleon_core::{Chameleon, ChameleonConfig, Method, PerturbStrategy};
use chameleon_datasets::DatasetKind;
use chameleon_reliability::WorldEnsemble;
use chameleon_stats::{PoissonBinomial, SeedSequence};
use rand::Rng;

fn base_config(cfg: &ExperimentConfig, k: usize) -> ChameleonConfig {
    ChameleonConfig::builder()
        .k(k)
        .epsilon(cfg.epsilon)
        .trials(cfg.trials)
        .num_world_samples(cfg.worlds)
        .sigma_tolerance(0.05)
        .build()
}

/// Entropy gain of one perturbation strategy on a synthetic vertex with
/// `deg` incident edges at probability `p0`, noise magnitude budget `r`.
fn entropy_gain(strategy: PerturbStrategy, deg: usize, p0: f64, r: f64, seed: u64) -> f64 {
    let mut rng = SeedSequence::new(seed).rng("entropy-gain");
    let reps = 300;
    let base = PoissonBinomial::new(&vec![p0; deg]).entropy_nats();
    let mut total = 0.0;
    for _ in 0..reps {
        let perturbed: Vec<f64> = (0..deg)
            .map(|_| strategy.apply(p0, r * rng.gen::<f64>(), &mut rng))
            .collect();
        total += PoissonBinomial::new(&perturbed).entropy_nats();
    }
    total / reps as f64 - base
}

fn study_perturb(cfg: &ExperimentConfig) {
    println!("== ablation: perturbation rule (Lemma 6 / Fig. 7 rationale) ==");
    let mut t = TablePrinter::new(["p0", "deg", "budget r", "dH max-entropy", "dH unguided"]);
    for &p0 in &[0.1, 0.3, 0.5, 0.7, 0.9] {
        for &r in &[0.1, 0.3] {
            let me = entropy_gain(PerturbStrategy::MaxEntropy, 12, p0, r, cfg.seed);
            let un = entropy_gain(PerturbStrategy::Unguided, 12, p0, r, cfg.seed);
            t.row([
                format!("{p0:.1}"),
                "12".to_string(),
                format!("{r:.1}"),
                format!("{me:+.4}"),
                format!("{un:+.4}"),
            ]);
        }
    }
    print!("{}", t.render());
    let _ = t.write_csv(chameleon_bench::table::results_dir().join("ablation_perturb.csv"));
    println!();
}

fn run_variant(
    label: &str,
    graph: &chameleon_ugraph::UncertainGraph,
    original: &chameleon_ugraph::UncertainGraph,
    config: ChameleonConfig,
    cfg: &ExperimentConfig,
    table: &mut TablePrinter,
) {
    match Chameleon::new(config).anonymize(graph, Method::Rsme, cfg.seed) {
        Ok(result) => {
            let errors = utility_errors(original, &result.graph, cfg);
            table.row([
                label.to_string(),
                format!("{:.3e}", result.sigma),
                format!("{:.4}", result.eps_hat),
                format!("{:.4}", errors.reliability),
                format!("{:.4}", errors.avg_degree),
            ]);
        }
        Err(e) => {
            table.row([
                label.to_string(),
                "--".into(),
                "--".into(),
                "--".into(),
                format!("FAILED: {e}"),
            ]);
        }
    }
}

fn study_bandwidth(cfg: &ExperimentConfig, k: usize) {
    println!("== ablation: uniqueness bandwidth θ = s·σ_G ==");
    let g = build_dataset(DatasetKind::Brightkite, cfg);
    let mut t = TablePrinter::new(["s", "sigma*", "eps-hat", "rel-err", "deg-err"]);
    for &s in &[0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut config = base_config(cfg, k);
        config.bandwidth_scale = s;
        run_variant(&format!("{s:.2}"), &g, &g, config, cfg, &mut t);
    }
    print!("{}", t.render());
    let _ = t.write_csv(chameleon_bench::table::results_dir().join("ablation_bandwidth.csv"));
    println!();
}

fn study_candidates(cfg: &ExperimentConfig, k: usize) {
    println!("== ablation: candidate-set multiplier c ==");
    let g = build_dataset(DatasetKind::Brightkite, cfg);
    let mut t = TablePrinter::new(["c", "sigma*", "eps-hat", "rel-err", "deg-err"]);
    for &c in &[1.0, 1.5, 2.0, 3.0] {
        let mut config = base_config(cfg, k);
        config.size_multiplier = c;
        run_variant(&format!("{c:.1}"), &g, &g, config, cfg, &mut t);
    }
    print!("{}", t.render());
    let _ = t.write_csv(chameleon_bench::table::results_dir().join("ablation_candidates.csv"));
    println!();
}

fn study_whitenoise(cfg: &ExperimentConfig, k: usize) {
    println!("== ablation: white-noise level q ==");
    let g = build_dataset(DatasetKind::Brightkite, cfg);
    let mut t = TablePrinter::new(["q", "sigma*", "eps-hat", "rel-err", "deg-err"]);
    for &q in &[0.0, 0.01, 0.1, 0.5] {
        let mut config = base_config(cfg, k);
        config.white_noise = q;
        run_variant(&format!("{q:.2}"), &g, &g, config, cfg, &mut t);
    }
    print!("{}", t.render());
    let _ = t.write_csv(chameleon_bench::table::results_dir().join("ablation_whitenoise.csv"));
    println!();
}

/// Spearman rank correlation between two equal-length score vectors.
fn spearman(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(xs: &[f64]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.sort_by(|&i, &j| xs[i].partial_cmp(&xs[j]).unwrap());
        let mut r = vec![0.0; xs.len()];
        for (rank, &i) in order.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let mean = (n - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        num += (x - mean) * (y - mean);
        da += (x - mean) * (x - mean);
        db += (y - mean) * (y - mean);
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da * db).sqrt()
    }
}

fn study_errsamples(cfg: &ExperimentConfig) {
    println!("== ablation: ERR estimator convergence (N worlds) ==");
    let g = build_dataset(DatasetKind::Brightkite, cfg);
    let seq = SeedSequence::new(cfg.seed);
    let reference = {
        let mut rng = seq.rng("err-reference");
        let ens = WorldEnsemble::sample(&g, 4000, &mut rng);
        edge_reliability_relevance_threads(&g, &ens, 1)
    };
    let mut t = TablePrinter::new([
        "N",
        "coupled spearman",
        "coupled MAD",
        "alg2 spearman",
        "alg2 MAD",
    ]);
    for &n in &[25usize, 50, 100, 250, 500, 1000] {
        let mut rng = seq.rng_indexed("err-sample", n as u64);
        let ens = WorldEnsemble::sample(&g, n, &mut rng);
        let coupled = edge_reliability_relevance_threads(&g, &ens, 1);
        let alg2 = edge_reliability_relevance_alg2_threads(&g, &ens, 1);
        let mad = |est: &[f64]| -> f64 {
            est.iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / est.len().max(1) as f64
        };
        t.row([
            n.to_string(),
            format!("{:.4}", spearman(&coupled, &reference)),
            format!("{:.4}", mad(&coupled)),
            format!("{:.4}", spearman(&alg2, &reference)),
            format!("{:.4}", mad(&alg2)),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(chameleon_bench::table::results_dir().join("ablation_errsamples.csv"));
    println!();
}

fn main() {
    let args = Args::from_env();
    let mut cfg = ExperimentConfig::from_args(&args);
    // Ablations run on one dataset at a moderate size by default.
    if !args.has("scale") {
        cfg.scale = 500;
    }
    if !args.has("worlds") {
        cfg.worlds = 300;
    }
    if !args.has("epsilon") {
        // Tight tolerance so the k used below leaves real work (see probe).
        cfg.epsilon = 0.01;
    }
    let k: usize = args.get("k", (cfg.scale / 5).max(2));
    let studies: Vec<String> = if args.positional().is_empty() {
        vec![
            "perturb".into(),
            "bandwidth".into(),
            "candidates".into(),
            "whitenoise".into(),
            "errsamples".into(),
        ]
    } else {
        args.positional().to_vec()
    };
    for study in &studies {
        match study.as_str() {
            "perturb" => study_perturb(&cfg),
            "bandwidth" => study_bandwidth(&cfg, k),
            "candidates" => study_candidates(&cfg, k),
            "whitenoise" => study_whitenoise(&cfg, k),
            "errsamples" => study_errsamples(&cfg),
            other => eprintln!(
                "unknown study {other:?} (perturb|bandwidth|candidates|whitenoise|errsamples)"
            ),
        }
    }
}
