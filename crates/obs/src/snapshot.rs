//! Point-in-time metric snapshots and their JSON rendering.
//!
//! The JSON is hand-rolled (this workspace carries no serialization
//! dependency) and fully deterministic for fixed metric values: maps are
//! `BTreeMap`s, so keys are emitted in sorted order, and floating-point
//! fields are printed with fixed precision. String escaping is delegated
//! to [`crate::json`], the shared encoder also used by the `chameleond`
//! wire protocol.

use crate::site::{CounterSite, HistogramSite, SpanSite};
use chameleon_stats::Log2Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate statistics of one span name (all sites sharing the name are
/// merged).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Completed passes.
    pub count: u64,
    /// Summed wall time in nanoseconds.
    pub total_ns: u64,
    /// Fastest pass in nanoseconds (0 when `count == 0`).
    pub min_ns: u64,
    /// Slowest pass in nanoseconds.
    pub max_ns: u64,
    /// Log₂ latency histogram of all passes.
    pub hist: Log2Histogram,
}

impl SpanStats {
    /// Mean nanoseconds per pass (0 when `count == 0`).
    pub(crate) fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Fastest pass in seconds.
    pub fn min_s(&self) -> f64 {
        self.min_ns as f64 / 1e9
    }
}

/// A point-in-time copy of every registered metric, merged by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Span aggregates by name.
    pub spans: BTreeMap<String, SpanStats>,
    /// Value histograms by name.
    pub histograms: BTreeMap<String, Log2Histogram>,
}

impl Snapshot {
    pub(crate) fn collect(
        counters: &[&'static CounterSite],
        spans: &[&'static SpanSite],
        histograms: &[&'static HistogramSite],
    ) -> Self {
        let mut out = Snapshot::default();
        for c in counters {
            *out.counters.entry(c.name().to_string()).or_insert(0) += c.value();
        }
        for s in spans {
            let (count, total_ns, min_ns, max_ns, hist) = s.load();
            let entry = out.spans.entry(s.name().to_string()).or_insert(SpanStats {
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
                hist: Log2Histogram::new(),
            });
            entry.count += count;
            entry.total_ns += total_ns;
            entry.min_ns = entry.min_ns.min(min_ns);
            entry.max_ns = entry.max_ns.max(max_ns);
            let merged: Vec<u64> = entry
                .hist
                .counts()
                .iter()
                .zip(hist.counts())
                .map(|(a, b)| a + b)
                .collect();
            entry.hist = Log2Histogram::from_counts(&merged, entry.hist.sum() + hist.sum());
        }
        // An untouched span keeps min = MAX sentinel; normalize to 0.
        for s in out.spans.values_mut() {
            if s.count == 0 {
                s.min_ns = 0;
            }
        }
        for h in histograms {
            let hist = h.materialize();
            out.histograms
                .entry(h.name().to_string())
                .and_modify(|existing| {
                    let merged: Vec<u64> = existing
                        .counts()
                        .iter()
                        .zip(hist.counts())
                        .map(|(a, b)| a + b)
                        .collect();
                    *existing = Log2Histogram::from_counts(&merged, existing.sum() + hist.sum());
                })
                .or_insert(hist);
        }
        out
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Span aggregate by name.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }

    /// Value histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// Renders the snapshot as a deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut j = String::with_capacity(4096);
        j.push_str("{\n");
        let _ = writeln!(
            j,
            "  \"recording_compiled_in\": {},",
            crate::registry::COMPILED_IN
        );
        j.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = write!(j, "\n    {}: {v}{sep}", crate::json::string(name));
        }
        j.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        j.push_str("  \"spans\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = write!(
                j,
                "\n    {name}: {{ \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"mean_ns\": {:.1}, \"p50_ns_ub\": {}, \"p99_ns_ub\": {}, \
                 \"buckets\": {} }}{sep}",
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns,
                s.mean_ns(),
                s.hist.quantile_upper_bound(0.5),
                s.hist.quantile_upper_bound(0.99),
                buckets_json(&s.hist),
                name = crate::json::string(name),
            );
        }
        j.push_str(if self.spans.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        j.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let _ = write!(
                j,
                "\n    {name}: {{ \"count\": {}, \"sum\": {}, \"mean\": {:.3}, \
                 \"p50_ub\": {}, \"buckets\": {} }}{sep}",
                h.total(),
                h.sum(),
                h.mean(),
                h.quantile_upper_bound(0.5),
                buckets_json(h),
                name = crate::json::string(name),
            );
        }
        j.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        j.push_str("}\n");
        j
    }
}

/// `[[lo, hi, count], ...]` for the non-empty buckets.
fn buckets_json(h: &Log2Histogram) -> String {
    let parts: Vec<String> = h
        .nonzero_buckets()
        .into_iter()
        .map(|(lo, hi, c)| format!("[{lo}, {hi}, {c}]"))
        .collect();
    format!("[{}]", parts.join(", "))
}
