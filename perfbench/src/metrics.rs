//! The metric catalogue and the per-run report.
//!
//! `BENCHMARK.json` names the same metrics; the self-test checks that
//! every one of them is printed with its unit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload with `--trace 0`. The
/// latency tails are per-layer (`client.latency_p90_ms`, `_p99_ms`): no
/// workload gets ten samples beyond p90 in one run, too few to gate on.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("ingest_mb_per_s", "MB/s"),
    ("peak_rss_mb", "MB"),
    ("rel_discrepancy", "1"),
];

/// Payload size classes of the framing probes, by rung (see `framing.rs`).
pub const SIZE_CLASSES: [&str; 4] = ["tiny", "n6k", "n25k", "n100k"];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// a workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("peak_ensemble_bytes", "B"),
    ("ugraph.parse_s", "s"),
    ("ugraph.sample_s", "s"),
    ("ugraph.compressed_bytes", "B"),
    ("ugraph.compression_ratio", "x"),
    ("reliability.analyze_s", "s"),
    ("reliability.pairs_s", "s"),
    ("reliability.ecp_s", "s"),
    ("core.uniqueness_s", "s"),
    ("core.relevance.err_s", "s"),
    ("core.relevance.vrr_s", "s"),
    ("core.anonymity.check_s", "s"),
    ("core.anonymity.check_calls", "count"),
    ("core.chameleon.anonymize_s", "s"),
    ("core.chameleon.search_s", "s"),
    ("core.chameleon.genobf_calls", "count"),
    ("core.chameleon.probe_s", "s"),
    ("core.chameleon.sigma", "1"),
    ("core.chameleon.eps_hat", "1"),
    ("stats.parallel.cpu_util", "1"),
    ("server.protocol.parse_s.tiny", "s"),
    ("server.protocol.parse_s.n6k", "s"),
    ("server.protocol.parse_s.n25k", "s"),
    ("server.protocol.parse_s.n100k", "s"),
    ("server.cache.digest_s.tiny", "s"),
    ("server.cache.digest_s.n6k", "s"),
    ("server.cache.digest_s.n25k", "s"),
    ("server.cache.digest_s.n100k", "s"),
    ("server.reactor.ms_per_mb.n6k", "ms/MB"),
    ("server.reactor.ms_per_mb.n25k", "ms/MB"),
    ("server.reactor.ms_per_mb.n100k", "ms/MB"),
    ("server.gateway.hop_ms", "ms"),
    ("server.gateway.forwarded", "count"),
    ("server.gateway.redriven", "count"),
    ("server.job.execute_s.obfuscate", "s"),
    ("server.job.execute_s.check", "s"),
    ("server.job.execute_s.reliability", "s"),
    ("server.queue.wait_ms", "ms"),
    ("server.cache.hit_ratio", "1"),
    ("server.journal.appends", "count"),
    ("server.journal.bytes", "B"),
    ("client.late_ms", "ms"),
    ("client.latency_p90_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.self.ugraph_s", "s"),
    ("trace.self.reliability_s", "s"),
    ("trace.self.core_s", "s"),
    ("trace.self.client_s", "s"),
    ("trace.unattributed_frac", "1"),
    ("trace.overhead_frac", "1"),
    ("failed_frac", "1"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Units of work attempted (jobs, passes, requests).
    pub attempted: u64,
    /// Mismatches and failed or refused units, each naming its unit.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a catalogued metric.
    ///
    /// # Panics
    /// On a name missing from the catalogue: a typo here would silently
    /// drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Records a failed or mismatching unit of work.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints notes, failures and every metric of the chosen set by name
    /// with its unit, then the one-line JSON result. Returns whether the
    /// run was correct.
    ///
    /// # Panics
    /// When an end-to-end metric was never set: every workload must
    /// produce all of them.
    pub fn print(&mut self, traced: bool) -> bool {
        let failed = self.failures.len() as u64;
        let failed_frac = failed as f64 / self.attempted.max(1) as f64;
        self.set("failed_frac", failed_frac);
        for line in &self.notes {
            println!("{line}");
        }
        for f in &self.failures {
            eprintln!("MISMATCH: {f}");
        }
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            println!("{name:<36} {value:>16.6} {unit}");
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            );
        }
        println!(
            "failed_frac {failed_frac} ({failed} of {} attempted)",
            self.attempted
        );
        let correct = self.failures.is_empty();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
            self.attempted.max(1)
        );
        correct
    }
}

/// Every digit of `v` (Rust's shortest round-trip form), as a JSON number.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.1234567891234), "0.1234567891234");
    }
}
