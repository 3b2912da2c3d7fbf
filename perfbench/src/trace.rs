//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Nothing here reaches inside the crates: a span brackets one public call
//! (or one client-side step), carries the id of the job or request it
//! belongs to, and names its parent. Spans stay in memory and are written
//! out as NDJSON when the run ends.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Job or request id shared by every span of one unit of work.
    pub trace: u64,
    /// `layer.what`; the layer is the text before the first dot.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Span sink, shared by every thread of a run. While off, recording calls
/// only run the wrapped closure.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Wall time of the item roots split by layer self time.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Σ duration of the item roots.
    pub wall_s: f64,
    /// Self time per layer over every descendant of an item root.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Self time of the roots themselves: wall no layer span covers.
    pub unattributed_s: f64,
}

impl Tracer {
    /// A tracer that starts recording iff `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (traced and untraced rounds alternate in
    /// a traced run).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Allocates a span id, so a root can be named as a parent before its
    /// own interval is known.
    pub fn new_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` under a pre-allocated `id`.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        trace: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.is_on() {
            return;
        }
        let span = Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .push(span);
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, trace: u64, parent: u64, f: impl FnOnce() -> T) -> T {
        if !self.is_on() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(self.new_id(), parent, trace, name, start, Instant::now());
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Splits the wall time of the roots named `root` into layer self
    /// times. A span's self time is its duration minus its children's.
    pub fn attribute(&self, root: &str) -> Attribution {
        let spans = self.spans();
        let mut child_s: HashMap<u64, f64> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_s.entry(s.parent).or_default() += s.dur_s();
            }
        }
        // Spans descending from an item root, found by walking parents.
        let parent_of: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
        let roots: HashSet<u64> = spans
            .iter()
            .filter(|s| s.name == root && s.parent == 0)
            .map(|s| s.id)
            .collect();
        let under_root = |mut parent: u64| loop {
            if roots.contains(&parent) {
                return true;
            }
            match parent_of.get(&parent) {
                Some(&p) => parent = p,
                None => return false,
            }
        };
        let mut out = Attribution::default();
        for s in &spans {
            let self_s = (s.dur_s() - child_s.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            if roots.contains(&s.id) {
                out.wall_s += s.dur_s();
                out.unattributed_s += self_s;
            } else if under_root(s.parent) {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                *out.self_s.entry(layer).or_default() += self_s;
            }
        }
        out
    }

    /// Writes every span as one NDJSON line, then the `chameleon_obs`
    /// counters of this process as a final line.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        let _ = writeln!(
            out,
            "{{\"obs_counters\":{}}}",
            chameleon_obs::json::string(&chameleon_obs::metrics_json())
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_roots_are_unattributed() {
        let t = Tracer::new(true);
        let root = t.new_id();
        let t0 = Instant::now();
        t.time("core.a", 7, root, || {
            std::thread::sleep(Duration::from_millis(20))
        });
        std::thread::sleep(Duration::from_millis(10));
        t.record(root, 0, 7, "item", t0, Instant::now());
        t.time("core.outside", 8, 0, || ());
        let a = t.attribute("item");
        assert!(a.wall_s >= 0.030);
        assert!(a.self_s["core"] >= 0.020);
        assert!(a.unattributed_s >= 0.010 && a.unattributed_s < a.wall_s - 0.019);
        assert_eq!(
            a.self_s.len(),
            1,
            "spans outside item roots are not attributed"
        );
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.time("core.a", 1, 0, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
