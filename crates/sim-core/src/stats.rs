//! Statistics primitives used by the experiment harnesses.
//!
//! - [`OnlineStats`] — streaming count/mean/min/max/variance (Welford).
//! - [`Histogram`] — log-bucketed latency histogram with percentile queries.
//! - [`Cdf`] — exact empirical CDF built from retained samples, used where
//!   the paper plots CDFs (e.g. Figure 5, hotplug latency).

/// Streaming summary statistics (Welford's online algorithm).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Population variance (0.0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A log-bucketed histogram for non-negative values (typically latencies in
/// nanoseconds). Buckets grow geometrically, giving ~4% relative resolution
/// over 512 logical buckets, 16 per octave from 1 to 2^32; larger values
/// count in the top bucket. Only the range from the lowest to the highest
/// filled bucket is stored, one `u64` per bucket, so an empty histogram
/// holds no heap memory and one whose values span a few octaves holds a
/// few hundred bytes.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `counts[i]` counts values in bucket `lo + i`, which is
    /// `[floor(base^(lo+i)), floor(base^(lo+i+1)))`. Empty, or its first
    /// and last entries are non-zero.
    counts: Vec<u64>,
    lo: usize,
    zero_count: u64,
    total: u64,
    base_ln: f64,
}

const HISTOGRAM_BUCKETS: usize = 512;
/// Each bucket spans a factor of 2^(1/16) ≈ 4.4%.
const HISTOGRAM_BASE: f64 = 1.044_273_782_427_413_8;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram; it allocates nothing.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            lo: 0,
            zero_count: 0,
            total: 0,
            base_ln: HISTOGRAM_BASE.ln(),
        }
    }

    fn bucket_for(&self, value: u64) -> usize {
        debug_assert!(value >= 1);
        let idx = ((value as f64).ln() / self.base_ln) as usize;
        idx.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Grows the stored range to cover buckets `[lo, hi)`, `lo < hi`.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.lo = lo;
        } else if lo < self.lo {
            self.counts
                .splice(0..0, std::iter::repeat_n(0, self.lo - lo));
            self.lo = lo;
        }
        if hi > self.lo + self.counts.len() {
            self.counts.resize(hi - self.lo, 0);
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.total += 1;
        if value == 0 {
            self.zero_count += 1;
        } else {
            let idx = self.bucket_for(value);
            self.cover(idx, idx + 1);
            self.counts[idx - self.lo] += 1;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value at quantile `q` in `[0, 1]` (bucket lower bound; 0 when
    /// empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if rank <= self.zero_count {
            return 0;
        }
        let mut seen = self.zero_count;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return HISTOGRAM_BASE.powi((self.lo + i) as i32) as u64;
            }
        }
        HISTOGRAM_BASE.powi(HISTOGRAM_BUCKETS as i32) as u64
    }

    /// Median value.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if !other.counts.is_empty() {
            self.cover(other.lo, other.lo + other.counts.len());
            let from = other.lo - self.lo;
            for (a, b) in self.counts[from..].iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.zero_count += other.zero_count;
        self.total += other.total;
    }
}

/// An exact empirical CDF built from retained samples.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty CDF.
    pub fn new() -> Self {
        Cdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in CDF"));
            self.sorted = true;
        }
    }

    /// The fraction of samples `<= x`.
    pub fn fraction_below(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// The value at quantile `q` in `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        self.samples[idx.min(self.samples.len() - 1)]
    }

    /// Evaluates the CDF at `points`, returning `(x, F(x))` pairs — the
    /// series plotted in the paper's CDF figures.
    pub fn series(&mut self, points: &[f64]) -> Vec<(f64, f64)> {
        points
            .iter()
            .map(|&x| (x, self.fraction_below(x)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{just, one_of, prop_assert, prop_assert_eq, run_prop, tuple2, u64_in, usize_in};
    use testkit::{vec_of, Config, Gen, PropResult};

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_is_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.7 - 20.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.median();
        let p99 = h.quantile(0.99);
        // Log-bucket resolution is ~4.4%, allow 10%.
        assert!((p50 as f64 - 5_000.0).abs() / 5_000.0 < 0.1, "p50={p50}");
        assert!((p99 as f64 - 9_900.0).abs() / 9_900.0 < 0.1, "p99={p99}");
    }

    #[test]
    fn histogram_handles_zero() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        h.record(100);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.quantile(1.0) >= 90);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn empty_histogram_holds_no_buckets() {
        let mut h = Histogram::new();
        assert_eq!(h.counts.capacity(), 0, "new() allocates nothing");
        h.record(0);
        h.merge(&Histogram::default());
        assert_eq!(
            h.counts.capacity(),
            0,
            "zeros and empty merges store no bucket"
        );
        assert_eq!(h.quantile(1.0), 0);
    }

    /// The 512-bucket dense form the occupied range replaced: the same
    /// bucket rule and the same quantile walk, over every bucket.
    #[derive(Clone)]
    struct Dense {
        buckets: Vec<u64>,
        zero_count: u64,
        total: u64,
    }

    impl Dense {
        fn new() -> Self {
            Dense {
                buckets: vec![0; HISTOGRAM_BUCKETS],
                zero_count: 0,
                total: 0,
            }
        }

        fn record(&mut self, value: u64) {
            self.total += 1;
            if value == 0 {
                self.zero_count += 1;
            } else {
                let idx = ((value as f64).ln() / HISTOGRAM_BASE.ln()) as usize;
                self.buckets[idx.min(HISTOGRAM_BUCKETS - 1)] += 1;
            }
        }

        fn merge(&mut self, other: &Dense) {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
            self.zero_count += other.zero_count;
            self.total += other.total;
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
            if rank <= self.zero_count {
                return 0;
            }
            let mut seen = self.zero_count;
            for (i, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return HISTOGRAM_BASE.powi(i as i32) as u64;
                }
            }
            HISTOGRAM_BASE.powi(HISTOGRAM_BUCKETS as i32) as u64
        }
    }

    /// Histograms each op stream drives, side by side with their dense
    /// references.
    const HISTS: usize = 4;

    #[derive(Clone, Copy, Debug)]
    enum HistOp {
        /// `hists[h].record(value)`.
        Record(usize, u64),
        /// `hists[dst].merge(&hists[src])`; `src` may be empty or `dst`.
        Merge(usize, usize),
    }

    /// Values across the whole bucket range: zero, one, `u64::MAX` (the
    /// clamped top bucket), octave edges and every magnitude between, so
    /// a stream records below its stored range as often as above it.
    fn arb_value() -> Gen<u64> {
        one_of(vec![
            just(0),
            just(1),
            just(u64::MAX),
            u64_in(2..1_000),
            u64_in(1_000..1 << 24),
            u64_in(1 << 24..u64::MAX),
            u64_in(0..64).map(|e| 1 << e),
        ])
    }

    fn arb_hist_op() -> Gen<HistOp> {
        one_of(vec![
            tuple2(usize_in(0..HISTS), arb_value()).map(|(h, v)| HistOp::Record(h, v)),
            tuple2(usize_in(0..HISTS), arb_value()).map(|(h, v)| HistOp::Record(h, v)),
            tuple2(usize_in(0..HISTS), usize_in(0..HISTS)).map(|(d, s)| HistOp::Merge(d, s)),
        ])
    }

    /// Every bucket count, the zero and total counts and the reported
    /// quantiles equal the dense reference's, and the stored range is
    /// exactly the lowest to the highest filled bucket.
    fn matches_dense(h: &Histogram, d: &Dense) -> PropResult {
        for (i, &want) in d.buckets.iter().enumerate() {
            let got = i
                .checked_sub(h.lo)
                .and_then(|j| h.counts.get(j))
                .copied()
                .unwrap_or(0);
            prop_assert!(got == want, "bucket {i}: {got} stored, {want} dense");
        }
        let tight = |c: Option<&u64>| c.is_none_or(|&c| c > 0);
        prop_assert!(
            tight(h.counts.first()) && tight(h.counts.last()),
            "stored range {}..{} has an empty end",
            h.lo,
            h.lo + h.counts.len()
        );
        prop_assert_eq!(h.zero_count, d.zero_count);
        prop_assert_eq!(h.count(), d.total);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert!(
                h.quantile(q) == d.quantile(q),
                "q={q}: {} stored, {} dense",
                h.quantile(q),
                d.quantile(q)
            );
        }
        Ok(())
    }

    #[test]
    fn occupied_range_matches_the_dense_form() {
        let gen = vec_of(arb_hist_op(), 0..120);
        run_prop(
            "occupied_range_matches_the_dense_form",
            Config::default(),
            &gen,
            |ops| {
                let mut hists: Vec<Histogram> = (0..HISTS).map(|_| Histogram::new()).collect();
                let mut dense: Vec<Dense> = (0..HISTS).map(|_| Dense::new()).collect();
                for &op in ops {
                    let touched = match op {
                        HistOp::Record(h, v) => {
                            hists[h].record(v);
                            dense[h].record(v);
                            h
                        }
                        HistOp::Merge(dst, src) => {
                            let (h, d) = (hists[src].clone(), dense[src].clone());
                            hists[dst].merge(&h);
                            dense[dst].merge(&d);
                            dst
                        }
                    };
                    matches_dense(&hists[touched], &dense[touched])?;
                }
                // Fold everything into one fresh histogram, in stream order.
                let (mut all, mut all_dense) = (Histogram::new(), Dense::new());
                for (h, d) in hists.iter().zip(&dense) {
                    all.merge(h);
                    all_dense.merge(d);
                }
                matches_dense(&all, &all_dense)
            },
        );
    }

    #[test]
    fn cdf_fraction_and_quantile() {
        let mut c = Cdf::new();
        for x in 1..=100 {
            c.record(x as f64);
        }
        assert!((c.fraction_below(50.0) - 0.5).abs() < 1e-12);
        assert_eq!(c.quantile(0.25), 25.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert_eq!(c.quantile(0.0), 1.0);
    }

    #[test]
    fn cdf_series_matches_points() {
        let mut c = Cdf::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            c.record(x);
        }
        let s = c.series(&[0.5, 2.0, 10.0]);
        assert_eq!(s, vec![(0.5, 0.0), (2.0, 0.5), (10.0, 1.0)]);
    }
}
