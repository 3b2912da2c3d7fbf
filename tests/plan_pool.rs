//! A σ search records its GenObf trial plans into buffers that the
//! previous search on the same thread left behind. That reuse must change
//! no output: a thread that runs very different jobs back to back — other
//! datasets and sizes, plain and incremental, other trial and thread
//! counts, one job cancelled mid-search — gives each job exactly what the
//! same job gives on a fresh thread.

use chameleon::core::{CancelToken, CheckpointHook};
use chameleon::prelude::*;
use chameleon::ugraph::io;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Job {
    graph: UncertainGraph,
    k: usize,
    incremental: bool,
    trials: usize,
    threads: usize,
    /// Cancel the search after this many live probes.
    cancel_after: Option<usize>,
    seed: u64,
}

/// What a job returns, as bits: σ, ε̂, the call count, the σ trace and the
/// release's text, or the error.
type Outcome = Result<(u64, u64, usize, Vec<(u64, u64)>, Vec<u8>), ChameleonError>;

fn run(job: &Job) -> Outcome {
    let token = CancelToken::new();
    let mut cfg = ChameleonConfig::builder()
        .k(job.k)
        .epsilon(0.05)
        .trials(job.trials)
        .num_world_samples(60)
        .sigma_tolerance(0.2)
        .num_threads(job.threads)
        .incremental(job.incremental)
        .build();
    if let Some(limit) = job.cancel_after {
        let (token, probes) = (token.clone(), AtomicUsize::new(0));
        cfg.checkpoint = Some(CheckpointHook::new(move |_| {
            if probes.fetch_add(1, Ordering::Relaxed) + 1 == limit {
                token.cancel();
            }
        }));
    }
    let r =
        Chameleon::new(cfg).anonymize_cancellable(&job.graph, Method::Rsme, job.seed, &token)?;
    let mut text = Vec::new();
    io::write_text(&r.graph, &mut text).unwrap();
    let trace = r
        .sigma_trace
        .iter()
        .map(|(s, e)| (s.to_bits(), e.to_bits()))
        .collect();
    Ok((
        r.sigma.to_bits(),
        r.eps_hat.to_bits(),
        r.genobf_calls,
        trace,
        text,
    ))
}

#[test]
fn pooled_plans_change_no_job_on_a_shared_thread() {
    let job = |graph, k, incremental, trials, threads, cancel_after, seed| Job {
        graph,
        k,
        incremental,
        trials,
        threads,
        cancel_after,
        seed,
    };
    let jobs = [
        job(dblp_like(200, 1), 10, false, 2, 1, None, 11),
        job(brightkite_like(2000, 2), 60, true, 3, 2, None, 12),
        job(dblp_like(200, 3), 10, false, 1, 2, None, 13),
        job(brightkite_like(200, 4), 10, true, 2, 1, Some(2), 14),
        job(dblp_like(200, 5), 10, true, 3, 2, None, 15),
        job(brightkite_like(200, 6), 10, false, 2, 2, None, 16),
    ];
    // Each job alone on a thread of its own: nothing pooled to reuse.
    let fresh: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs.iter().map(|j| s.spawn(|| run(j))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // All jobs back to back on one thread.
    let shared: Vec<Outcome> =
        std::thread::scope(|s| s.spawn(|| jobs.iter().map(run).collect()).join().unwrap());
    assert_eq!(
        fresh[3],
        Err(ChameleonError::Cancelled),
        "job 3 is cancelled"
    );
    for (i, (a, b)) in fresh.iter().zip(&shared).enumerate() {
        assert!(a.is_ok() || i == 3, "job {i} failed: {a:?}");
        assert!(a == b, "job {i} differs on a shared thread");
    }
}
