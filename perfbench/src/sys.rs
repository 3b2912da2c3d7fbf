//! Process accounting and order statistics shared by the workloads.

use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` CPU times (`USER_HZ`,
/// fixed at 100 on Linux for every architecture the workspace targets).
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads) in seconds, read from
/// `/proc/self/stat` — the same totals `getrusage(RUSAGE_SELF)` reports,
/// without a foreign call. `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11 and
    // 12 after the state field that starts `rest`.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU utilisation of one phase: process CPU seconds over
/// `wall × threads`.
pub struct CpuMeter {
    cpu0: Option<f64>,
    t0: Instant,
}

impl CpuMeter {
    /// Starts measuring.
    pub fn start() -> Self {
        Self {
            cpu0: cpu_seconds(),
            t0: Instant::now(),
        }
    }

    /// `(cpu seconds, wall seconds)` since [`CpuMeter::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.t0.elapsed().as_secs_f64();
        let cpu = match (self.cpu0, cpu_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        (cpu, wall)
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Total size in bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn process_accounting_reads_proc() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mb() > 0.0);
    }
}
