//! Fixed-bin histograms for reproducing the paper's distribution plots
//! (Fig. 3: edge-probability distributions and degree distributions).

/// A histogram with `bins` equal-width bins over `[lo, hi)`; values exactly
/// equal to `hi` fall into the last bin, values outside the range are
//  counted separately.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "invalid range [{lo}, {hi})");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        if x > self.hi {
            self.overflow += 1;
            return;
        }
        let bins = self.counts.len();
        let idx = if x >= self.hi {
            bins - 1
        } else {
            (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize
        };
        self.counts[idx.min(bins - 1)] += 1;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total observations pushed (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Inclusive-lower bin edges, `bins + 1` values from `lo` to `hi`.
    pub fn edges(&self) -> Vec<f64> {
        let bins = self.counts.len();
        (0..=bins)
            .map(|i| self.lo + (self.hi - self.lo) * i as f64 / bins as f64)
            .collect()
    }

    /// Bin counts normalized to fractions of total in-range observations
    /// (empty histogram yields all zeros).
    pub fn fractions(&self) -> Vec<f64> {
        let in_range = self.total - self.underflow - self.overflow;
        if in_range == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / in_range as f64)
            .collect()
    }

    /// Renders an ASCII bar chart (one line per bin) — used by the figure
    /// binaries to print distribution plots into terminals and logs.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar_len = ((c as f64 / max as f64) * width as f64).round() as usize;
            let lo = self.lo + (self.hi - self.lo) * i as f64 / self.counts.len() as f64;
            let hi = self.lo + (self.hi - self.lo) * (i + 1) as f64 / self.counts.len() as f64;
            out.push_str(&format!(
                "[{lo:8.3},{hi:8.3}) {c:>8} {}\n",
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

/// Number of buckets of a [`Log2Histogram`]: one per possible bit-length
/// of a `u64` value, plus a dedicated zero bucket.
pub const LOG2_BUCKETS: usize = 65;

/// A power-of-two (log-scaled) histogram over non-negative integer values,
/// built for latency/magnitude telemetry: bucket 0 holds exact zeros and
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`. Sixty-five buckets
/// cover the full `u64` range, so recording never needs range
/// configuration and can never under/overflow — the properties the
/// observability layer (`chameleon_obs`) relies on when it mirrors these
/// buckets with relaxed atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; LOG2_BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    /// The bucket index of value `x`: 0 for 0, else `bit_length(x)`
    /// (so bucket `i` spans `[2^(i-1), 2^i)`).
    pub fn bucket_index(x: u64) -> usize {
        (u64::BITS - x.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi)` of bucket `i` (bucket 0 is the
    /// degenerate `[0, 1)`; the top bucket's `hi` saturates at `u64::MAX`).
    ///
    /// # Panics
    /// Panics if `i >= LOG2_BUCKETS`.
    pub(crate) fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < LOG2_BUCKETS, "bucket {i} out of range");
        match i {
            0 => (0, 1),
            _ => (1u64 << (i - 1), (1u128 << i).min(u64::MAX as u128) as u64),
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: u64) {
        self.counts[Self::bucket_index(x)] += 1;
        self.total += 1;
        self.sum += x as u128;
    }

    /// Rebuilds a histogram from externally accumulated per-bucket counts
    /// and a value sum — how `chameleon_obs` materializes its atomic
    /// bucket arrays into this shared representation at snapshot time.
    ///
    /// # Panics
    /// Panics if `counts` does not hold exactly [`LOG2_BUCKETS`] entries.
    pub fn from_counts(counts: &[u64], sum: u128) -> Self {
        assert_eq!(counts.len(), LOG2_BUCKETS, "need {LOG2_BUCKETS} buckets");
        Self {
            counts: counts.to_vec(),
            total: counts.iter().sum(),
            sum,
        }
    }

    /// Raw bucket counts ([`LOG2_BUCKETS`] entries).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of all recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0 ≤ q ≤ 1`)
    /// — an estimate with inherent power-of-two resolution. Returns 0 for
    /// an empty histogram.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bounds(i).1;
            }
        }
        Self::bucket_bounds(LOG2_BUCKETS - 1).1
    }

    /// Sparse `(bucket_lo, bucket_hi, count)` triples for the non-empty
    /// buckets, in ascending value order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }
}

/// An integer-valued exact frequency counter (for degree distributions,
/// where bins must align with integers).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntHistogram {
    counts: std::collections::BTreeMap<u64, u64>,
    total: u64,
}

impl IntHistogram {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: u64) {
        *self.counts.entry(x).or_insert(0) += 1;
        self.total += 1;
    }

    /// Frequency of value `x`.
    pub fn count(&self, x: u64) -> u64 {
        self.counts.get(&x).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sorted `(value, count)` pairs.
    pub fn items(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Largest observed value.
    pub fn max_value(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Complementary cumulative distribution `Pr[X >= x]` at each observed
    /// value, in ascending value order — the standard way heavy-tailed
    /// degree distributions are plotted.
    pub fn ccdf(&self) -> Vec<(u64, f64)> {
        let mut remaining = self.total as f64;
        let mut out = Vec::with_capacity(self.counts.len());
        for (&v, &c) in &self.counts {
            out.push((v, remaining / self.total.max(1) as f64));
            remaining -= c as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bins_partition_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for x in [0.0, 0.1, 0.3, 0.5, 0.74, 0.76, 0.99, 1.0] {
            h.push(x);
        }
        assert_eq!(h.counts(), &[2, 1, 2, 3]);
        assert_eq!(h.total(), 8);
        assert_eq!(h.underflow, 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn top_edge_goes_to_last_bin() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.push(1.0);
        assert_eq!(h.counts()[9], 1);
    }

    #[test]
    fn out_of_range_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(-0.5);
        h.push(1.5);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts(), &[0, 0]);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [1.0, 2.0, 3.0, 7.0, 9.0] {
            h.push(x);
        }
        let total: f64 = h.fractions().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_edges() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert_eq!(h.edges(), vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn ascii_render_nonempty() {
        let mut h = Histogram::new(0.0, 1.0, 3);
        for x in [0.1, 0.1, 0.9] {
            h.push(x);
        }
        let s = h.render_ascii(10);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains('#'));
    }

    #[test]
    fn int_histogram_counts() {
        let mut h = IntHistogram::new();
        for x in [3u64, 3, 3, 7, 9] {
            h.push(x);
        }
        assert_eq!(h.count(3), 3);
        assert_eq!(h.count(7), 1);
        assert_eq!(h.count(4), 0);
        assert_eq!(h.total(), 5);
        assert_eq!(h.max_value(), Some(9));
    }

    #[test]
    fn int_histogram_ccdf() {
        let mut h = IntHistogram::new();
        for x in [1u64, 2, 2, 3] {
            h.push(x);
        }
        let ccdf = h.ccdf();
        assert_eq!(ccdf[0], (1, 1.0));
        assert!((ccdf[1].1 - 0.75).abs() < 1e-12);
        assert!((ccdf[2].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn log2_bucket_boundaries() {
        // Zero gets its own bucket; each power of two starts a new bucket.
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(1023), 10);
        assert_eq!(Log2Histogram::bucket_index(1024), 11);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
        // Bounds partition the value space: bucket i ends where i+1 starts.
        for i in 0..LOG2_BUCKETS - 1 {
            let (lo, hi) = Log2Histogram::bucket_bounds(i);
            let (next_lo, _) = Log2Histogram::bucket_bounds(i + 1);
            assert!(lo < hi, "bucket {i}: [{lo}, {hi})");
            assert_eq!(hi, next_lo, "bucket {i} must abut bucket {}", i + 1);
        }
        // Every value lands inside its bucket's bounds.
        for x in [0u64, 1, 2, 3, 7, 8, 1_000_000, u64::MAX / 2] {
            let (lo, hi) = Log2Histogram::bucket_bounds(Log2Histogram::bucket_index(x));
            assert!(x >= lo && x < hi, "{x} outside [{lo}, {hi})");
        }
    }

    #[test]
    fn log2_record_and_stats() {
        let mut h = Log2Histogram::new();
        for x in [0u64, 1, 5, 5, 9] {
            h.record(x);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.sum(), 20);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(h.counts()[0], 1); // the zero
        assert_eq!(h.counts()[1], 1); // 1
        assert_eq!(h.counts()[3], 2); // 5, 5 in [4, 8)
        assert_eq!(h.counts()[4], 1); // 9 in [8, 16)
        let sparse = h.nonzero_buckets();
        assert_eq!(sparse.len(), 4);
        assert_eq!(sparse[0], (0, 1, 1));
    }

    #[test]
    fn log2_from_counts_round_trips() {
        let mut h = Log2Histogram::new();
        for x in [3u64, 100, 40_000] {
            h.record(x);
        }
        let rebuilt = Log2Histogram::from_counts(h.counts(), h.sum());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn log2_quantiles() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.quantile_upper_bound(0.5), 0);
        for _ in 0..99 {
            h.record(10); // bucket [8, 16)
        }
        h.record(1_000_000); // bucket [2^19, 2^20)
        assert_eq!(h.quantile_upper_bound(0.5), 16);
        assert_eq!(h.quantile_upper_bound(0.99), 16);
        assert_eq!(h.quantile_upper_bound(1.0), 1 << 20);
    }

    proptest! {
        #[test]
        fn log2_value_always_in_own_bucket(x in 0u64..=u64::MAX) {
            let i = Log2Histogram::bucket_index(x);
            let (lo, hi) = Log2Histogram::bucket_bounds(i);
            prop_assert!(x >= lo);
            prop_assert!(x < hi || (i == LOG2_BUCKETS - 1 && x == u64::MAX));
        }
    }

    proptest! {
        #[test]
        fn total_conserved(xs in proptest::collection::vec(-2.0f64..3.0, 0..200)) {
            let mut h = Histogram::new(0.0, 1.0, 7);
            for &x in &xs {
                h.push(x);
            }
            let binned: u64 = h.counts().iter().sum();
            prop_assert_eq!(binned + h.underflow + h.overflow(), xs.len() as u64);
        }

        #[test]
        fn ccdf_monotone_decreasing(xs in proptest::collection::vec(0u64..50, 1..100)) {
            let mut h = IntHistogram::new();
            for x in &xs { h.push(*x); }
            let ccdf = h.ccdf();
            for w in ccdf.windows(2) {
                prop_assert!(w[0].1 >= w[1].1);
            }
            prop_assert!((ccdf[0].1 - 1.0).abs() < 1e-12);
        }
    }
}
