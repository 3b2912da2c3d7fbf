//! Population-scale efficiency sweep (DESIGN.md §12): out-of-core
//! ensemble analysis at n = 10⁴ … 10⁶ nodes.
//!
//! For each scale, generates a BRIGHTKITE-like synthetic graph
//! (`chameleon_datasets::synth`) and runs the strip-streamed ensemble
//! pipeline — strip-wise world sampling, expected connected pairs,
//! blocked pair reliability, and the coupled ERR estimator — recording
//! wall time, peak *tracked* ensemble bytes (the `alloc_guard` gauge the
//! `--max-ensemble-bytes` ceiling enforces), and the bytes of the stored
//! world strips into a JSON artifact (`scale-smoke.json`).
//!
//! With `--verify`, the same statistics are first computed through the
//! dense in-RAM path (with the ceiling lifted — the reference must be
//! allowed to exceed it) and every streamed output is compared
//! bit-for-bit. With `--max-ensemble-bytes`, the streamed pass runs
//! under a hard ceiling; a budget error or a gauge peak above the
//! ceiling is a failure. The CI `scale-smoke` job runs
//! `scaling --scales 100000 --verify --max-ensemble-bytes …` and relies
//! on the non-zero exit for both failure modes.
//!
//! Usage: `scaling [--scales 10000,100000,1000000] [--worlds 256]
//!         [--strip-worlds 64] [--seed 42] [--threads 0]
//!         [--max-ensemble-bytes 0] [--verify] [--out scale-smoke.json]`

use chameleon_bench::Args;
use chameleon_core::relevance::{
    edge_reliability_relevance_streamed, edge_reliability_relevance_threads,
};
use chameleon_datasets::synth;
use chameleon_reliability::{sample_distinct_pairs, EnsembleStream, WorldEnsemble};
use chameleon_stats::{alloc_guard, SeedSequence};
use std::fmt::Write as _;
use std::time::Instant;

/// Pairs for the blocked reliability statistic: few enough to stay
/// off the critical path, spread across the vertex range.
const SWEEP_PAIRS: usize = 64;

/// One scale's measurements; `dense_*` are present only under `--verify`.
struct Row {
    n: usize,
    m: usize,
    gen_s: f64,
    streamed_s: f64,
    streamed_peak_bytes: usize,
    stream_bytes: usize,
    dense_s: Option<f64>,
    dense_peak_bytes: Option<usize>,
    verified: bool,
}

/// The dense reference statistics compared bit-for-bit against the
/// streamed pass.
struct Reference {
    ecp: f64,
    rels: Vec<f64>,
    err: Vec<f64>,
}

fn main() {
    let args = Args::from_env();
    let scales: Vec<usize> = args.get_list("scales", vec![10_000, 100_000, 1_000_000]);
    let worlds: usize = args.get("worlds", 256usize);
    let strip: usize = args.get("strip-worlds", 64usize);
    let seed: u64 = args.get("seed", 42u64);
    let ceiling: usize = args.get("max-ensemble-bytes", 0usize);
    let verify = args.has("verify");
    let out: String = args.get("out", "scale-smoke.json".to_string());
    let threads: usize = match args.get("threads", 0usize) {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        t => t,
    };

    println!(
        "== out-of-core scale sweep: worlds={worlds} strip={strip} threads={threads} \
         ceiling={ceiling} verify={verify} =="
    );

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for &n in &scales {
        let seq = SeedSequence::new(seed);
        let ens_seed = seq.derive("scale-ensemble");
        let t = Instant::now();
        let g = synth::brightkite_like(n, seed);
        let gen_s = t.elapsed().as_secs_f64();
        let m = g.num_edges();
        let mut pair_rng = seq.rng("scale-pairs");
        let pairs = sample_distinct_pairs(n, SWEEP_PAIRS.min(n * (n - 1) / 2), &mut pair_rng);

        // Dense reference pass: the ceiling is lifted (the whole point of
        // the streamed mode is that the dense arenas may not fit it) and
        // restored before the measured streamed pass.
        let mut dense_s = None;
        let mut dense_peak_bytes = None;
        let reference = if verify {
            alloc_guard::set_ensemble_limit(0);
            alloc_guard::reset_ensemble_peak();
            let t = Instant::now();
            let ens = WorldEnsemble::sample_seeded(&g, worlds, ens_seed, threads);
            let r = Reference {
                ecp: ens.expected_connected_pairs(),
                rels: ens.reliability_many(&pairs),
                err: edge_reliability_relevance_threads(&g, &ens, threads),
            };
            dense_s = Some(t.elapsed().as_secs_f64());
            dense_peak_bytes = Some(alloc_guard::ensemble_peak_bytes());
            Some(r)
        } else {
            None
        };

        // Streamed pass, under the configured ceiling.
        alloc_guard::set_ensemble_limit(ceiling);
        alloc_guard::reset_ensemble_peak();
        let t = Instant::now();
        let streamed =
            (|| -> Result<(EnsembleStream<'_>, Reference), alloc_guard::BudgetExceeded> {
                let stream = EnsembleStream::sample(&g, worlds, ens_seed, threads, strip)?;
                let r = Reference {
                    ecp: stream.expected_connected_pairs()?,
                    rels: stream.reliability_many(&pairs)?,
                    err: edge_reliability_relevance_streamed(&g, &stream, threads)?,
                };
                Ok((stream, r))
            })();
        let streamed_s = t.elapsed().as_secs_f64();
        let streamed_peak_bytes = alloc_guard::ensemble_peak_bytes();
        alloc_guard::set_ensemble_limit(0);

        let (stream, got) = match streamed {
            Ok(pair) => pair,
            Err(e) => {
                failures.push(format!("n={n}: streamed pass hit the ceiling: {e}"));
                continue;
            }
        };
        if ceiling > 0 && streamed_peak_bytes > ceiling {
            failures.push(format!(
                "n={n}: tracked ensemble peak {streamed_peak_bytes} bytes breached the \
                 {ceiling}-byte ceiling"
            ));
        }
        let mut verified = false;
        if let Some(want) = &reference {
            let mismatch = want.ecp.to_bits() != got.ecp.to_bits()
                || want.rels.len() != got.rels.len()
                || want.err.len() != got.err.len()
                || want
                    .rels
                    .iter()
                    .zip(&got.rels)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
                || want
                    .err
                    .iter()
                    .zip(&got.err)
                    .any(|(a, b)| a.to_bits() != b.to_bits());
            if mismatch {
                failures.push(format!(
                    "n={n}: streamed outputs are not bit-identical to the in-RAM path"
                ));
            } else {
                verified = true;
            }
        }

        let row = Row {
            n,
            m,
            gen_s,
            streamed_s,
            streamed_peak_bytes,
            stream_bytes: stream.compressed_bytes(),
            dense_s,
            dense_peak_bytes,
            verified,
        };
        println!(
            "n={n} m={m}: gen {gen_s:.2}s, streamed {streamed_s:.2}s \
             (peak {streamed_peak_bytes} B, store {} B){}{}",
            row.stream_bytes,
            match (dense_s, dense_peak_bytes) {
                (Some(s), Some(p)) => format!(", dense {s:.2}s (peak {p} B)"),
                _ => String::new(),
            },
            if verified { ", bit-identical" } else { "" },
        );
        rows.push(row);
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"pr9 out-of-core scale sweep\",");
    let _ = writeln!(json, "  \"dataset\": \"brightkite_like\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"worlds\": {worlds},");
    let _ = writeln!(json, "  \"strip_worlds\": {strip},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"max_ensemble_bytes\": {ceiling},");
    let _ = writeln!(json, "  \"failures\": {},", failures.len());
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let opt_f = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.4}"));
        let opt_u = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"n\": {}, \"m\": {}, \"gen_s\": {:.4}, \"streamed_s\": {:.4}, \
             \"streamed_peak_bytes\": {}, \"stream_bytes\": {}, \
             \"dense_s\": {}, \"dense_peak_bytes\": {}, \"verified\": {} }}{sep}",
            r.n,
            r.m,
            r.gen_s,
            r.streamed_s,
            r.streamed_peak_bytes,
            r.stream_bytes,
            opt_f(r.dense_s),
            opt_u(r.dense_peak_bytes),
            r.verified,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("(json written to {out})"),
        Err(e) => eprintln!("warning: could not write {out}: {e}"),
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("scale sweep FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!("scale sweep passed");
}
