//! End-to-end benchmark of the Chameleon workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search|population|service> --seed <n> \
//!     --seconds <s> --trace <0|1> [--toy]
//! ```
//!
//! Every input is generated from `--seed`. The run sets up, measures for
//! `--seconds`, checks every output, prints each metric by name with its
//! unit and ends with one JSON line. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates untraced and traced rounds and prints
//! the per-layer metrics, an attribution table and the tracing overhead.
//! Any wrong output is named on stderr and makes the exit code 1.
//! `--toy` shrinks every input so that the self-test runs in seconds.
//! NOTES.md records why each workload exists and how it was sized.

mod fleet;
mod framing;
mod metrics;
mod population;
mod search;
mod service;
mod sys;
mod trace;

use chameleon_reliability::{avg_reliability_discrepancy, sample_distinct_pairs, WorldEnsemble};
use chameleon_stats::SeedSequence;
use chameleon_ugraph::{io, UncertainGraph};
use metrics::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Worker threads for in-process jobs, sized for a 2-core host: more
/// threads than cores would measure the scheduler.
pub const THREADS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Node pairs behind `rel_discrepancy`, fixed (as are the worlds each
/// caller passes) so that the metric repeats exactly for a given seed.
const REL_PAIRS: usize = 500;

/// A graph in the edge-list text format jobs carry inline.
pub fn graph_text(g: &UncertainGraph) -> String {
    let mut buf = Vec::new();
    io::write_text(g, &mut buf).expect("writing to memory cannot fail");
    String::from_utf8(buf).expect("edge-list text is ASCII")
}

/// Mean two-terminal reliability discrepancy between `original` and
/// `release` on fixed seeded pairs and `worlds` worlds each (paper
/// Δ(G̃) / pairs).
pub fn discrepancy(
    original: &UncertainGraph,
    release: &UncertainGraph,
    worlds: usize,
    seed: u64,
) -> f64 {
    let seq = SeedSequence::new(seed);
    let n = original.num_nodes();
    let pairs = sample_distinct_pairs(n, REL_PAIRS.min(n * (n - 1) / 2), &mut seq.rng("pairs"));
    let a = WorldEnsemble::sample_seeded(original, worlds, seq.derive("original"), THREADS);
    let b = WorldEnsemble::sample_seeded(release, worlds, seq.derive("release"), THREADS);
    avg_reliability_discrepancy(&a, &b, &pairs).avg
}

/// Settings shared by every workload.
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Alternate untraced and traced rounds and report per-layer metrics.
    pub traced: bool,
    /// Shrink every input (self-test).
    pub toy: bool,
    /// Scratch directory for journals and the span file.
    pub work_dir: PathBuf,
    /// Span sink.
    pub tracer: Tracer,
}

impl Ctx {
    /// Whether to start another round in a window opened at `start`:
    /// only if a round as long as the last one still ends within
    /// `--seconds`. A traced run needs an untraced and a traced round.
    pub fn another_round(&self, start: Instant, rounds_done: usize, last_s: f64) -> bool {
        let min = if self.traced { 2 } else { 1 };
        rounds_done < min || start.elapsed().as_secs_f64() + last_s <= self.seconds.as_secs_f64()
    }

    /// In a traced run, turns recording on for odd rounds so that traced
    /// and untraced rounds alternate; returns whether `round` is traced.
    pub fn trace_round(&self, round: usize) -> bool {
        let on = self.traced && round % 2 == 1;
        self.tracer.set_on(on);
        on
    }

    /// Reports set-up time as the median of [`SETUP_REPS`] repetitions of
    /// `setup`, keeping the last repetition's output.
    pub fn setup<T>(&self, report: &mut Report, mut setup: impl FnMut(usize) -> T) -> T {
        let mut times = Vec::new();
        let mut last = None;
        for rep in 0..SETUP_REPS {
            // Drop the previous repetition first: two live copies would
            // double the memory the program never needs at once.
            drop(last.take());
            let t = Instant::now();
            last = Some(setup(rep));
            times.push(t.elapsed().as_secs_f64());
        }
        report.set("setup_s", sys::median(&times));
        last.expect("SETUP_REPS > 0")
    }

    /// Records the attribution table of the traced rounds and the tracing
    /// overhead (`traced` vs `untraced` medians of the same unit of work).
    pub fn attribution(&self, report: &mut Report, root: &str, untraced: f64, traced: f64) {
        let a = self.tracer.attribute(root);
        report.set("trace.wall_s", a.wall_s);
        report.note(format!(
            "attribution over traced `{root}` spans: wall {:.4} s",
            a.wall_s
        ));
        for (layer, s) in &a.self_s {
            let share = s / a.wall_s.max(f64::MIN_POSITIVE);
            report.note(format!(
                "  self {layer:<12} {s:>10.4} s  {:>6.2}% of {:.4} s wall",
                100.0 * share,
                a.wall_s
            ));
            match *layer {
                "ugraph" => report.set("trace.self.ugraph_s", *s),
                "reliability" => report.set("trace.self.reliability_s", *s),
                "core" => report.set("trace.self.core_s", *s),
                "client" => report.set("trace.self.client_s", *s),
                other => panic!("span layer {other} is not catalogued"),
            }
        }
        let unattributed = a.unattributed_s / a.wall_s.max(f64::MIN_POSITIVE);
        report.set("trace.unattributed_frac", unattributed);
        report.note(format!(
            "  unattributed      {:>10.4} s  {:>6.2}% of {:.4} s wall",
            a.unattributed_s,
            100.0 * unattributed,
            a.wall_s
        ));
        let overhead = (traced - untraced) / untraced.max(f64::MIN_POSITIVE);
        report.set("trace.overhead_frac", overhead);
        report.note(format!(
            "  tracing overhead  {:>+9.2}% : traced median {traced:.6} vs untraced median \
             {untraced:.6} (base)",
            100.0 * overhead
        ));
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perfbench --workload <search|population|service> \
         --seed <n> --seconds <s> --trace <0|1> [--toy]"
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut toy = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed must be an integer")),
                )
            }
            "--seconds" => {
                seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds must be positive"))
            }
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--toy" => toy = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let work_dir = PathBuf::from(".bench_build").join("perfbench-work");
    let ctx = Ctx {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        traced,
        toy,
        work_dir,
        tracer: Tracer::new(false),
    };
    let mut report = Report::default();
    println!(
        "== perfbench {workload}: seed {seed}, {seconds} s, trace {}, {} thread(s) available ==",
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    match workload.as_str() {
        "search" => search::run(&ctx, &mut report),
        "population" => population::run(&ctx, &mut report),
        "service" => service::run(&ctx, &mut report),
        other => usage(&format!("unknown workload {other}")),
    }
    if traced {
        let path = ctx.work_dir.join(format!("trace-{workload}-{seed}.ndjson"));
        ctx.tracer.set_on(false);
        match ctx.tracer.write_ndjson(&path) {
            Ok(()) => println!("(spans written to {})", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    if !report.print(traced) {
        std::process::exit(1);
    }
}
