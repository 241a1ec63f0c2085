//! Fixed-slot latency histogram with deterministic merge.
//!
//! Layout (HDR-style, all integer arithmetic, no heap):
//!
//! * values `0..=255` land in 256 exact linear buckets (one value per
//!   bucket), so small latencies — e.g. first-ack *round* counts —
//!   report exact percentiles;
//! * values `>= 256` use a log2 major bucket (bit length 9..=64) split
//!   into 32 linear sub-buckets, bounding the relative quantization
//!   error at 1/32 ≈ 3.1% across the whole `u64` range.
//!
//! Total: `256 + 56 * 32 = 2048` fixed `u64` slots (16 KiB, inline —
//! recording never allocates, which is what lets the engine keep the
//! PR 4 counting-allocator contract with telemetry enabled).
//!
//! `merge` is element-wise addition, hence commutative and associative:
//! merging per-trial or per-worker histograms yields byte-identical
//! state regardless of merge order — the property the cross-`--threads`
//! determinism tests pin.

/// Exact linear buckets below this value (one bucket per value).
const LINEAR_MAX: u64 = 256;
/// Sub-buckets per log2 major bucket above the linear range.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)
/// Smallest major (bit-length - 1) in the log range: values >= 2^8.
const FIRST_MAJOR: u32 = 8;
/// Majors 8..=63 inclusive.
const MAJORS: usize = 56;
/// Total fixed slot count.
pub const BUCKETS: usize = LINEAR_MAX as usize + MAJORS * SUB_BUCKETS;

/// Fixed-slot histogram over `u64` samples (typically nanoseconds or
/// round counts). Construction and recording are allocation-free.
#[derive(Clone)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.counts[..] == other.counts[..]
    }
}
impl Eq for Histogram {}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let major = 63 - v.leading_zeros(); // 8..=63
        let sub = ((v >> (major - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        LINEAR_MAX as usize + (major - FIRST_MAJOR) as usize * SUB_BUCKETS + sub
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        i as u64
    } else {
        let off = i - LINEAR_MAX as usize;
        let major = FIRST_MAJOR + (off / SUB_BUCKETS) as u32;
        let sub = (off % SUB_BUCKETS) as u64;
        (1u64 << major) + (sub << (major - SUB_BITS))
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        i as u64
    } else {
        let off = i - LINEAR_MAX as usize;
        let major = FIRST_MAJOR + (off / SUB_BUCKETS) as u32;
        bucket_lo(i) + (1u64 << (major - SUB_BITS)) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. Never allocates.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples. Never allocates.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Element-wise merge; commutative and associative, so any merge
    /// order over a set of histograms produces identical state.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (None when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (None when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile extraction: the lower bound of the bucket holding the
    /// sample of rank `ceil(q * count)`, clamped to the observed
    /// `[min, max]`. Exact for values below 256; at most 1/32 relative
    /// error above. Deterministic — a pure function of the bucket
    /// counts, so merged histograms report identical percentiles
    /// regardless of merge order.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_lo(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    pub fn p95(&self) -> Option<u64> {
        self.percentile(0.95)
    }

    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    /// Occupied buckets as `(lo, hi, count)`, ascending — the sparse
    /// form the run journal serializes.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lo(i), bucket_hi(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(10));
        assert_eq!(h.p50(), Some(5));
        assert_eq!(h.percentile(0.9), Some(9));
        assert_eq!(h.p99(), Some(10));
        assert!((h.mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn bucket_bounds_cover_value() {
        // Every value must land in a bucket whose [lo, hi] contains it,
        // with relative width <= 1/32 above the linear range.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + 1, v.saturating_mul(3) / 2] {
                let i = bucket_index(probe);
                assert!(bucket_lo(i) <= probe && probe <= bucket_hi(i), "v={probe} i={i}");
                if probe >= LINEAR_MAX {
                    let width = bucket_hi(i) - bucket_lo(i) + 1;
                    assert!(width as f64 / probe as f64 <= 1.0 / 16.0);
                }
            }
            v *= 2;
        }
        // Extremes.
        assert_eq!(bucket_index(0), 0);
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantization_error_bounded() {
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(1_000 + i * 37);
        }
        let p95 = h.p95().unwrap() as f64;
        let exact = 1_000.0 + (9_500.0 - 1.0) * 37.0;
        assert!((p95 - exact).abs() / exact < 1.0 / 16.0, "p95={p95} exact={exact}");
    }

    #[test]
    fn merge_matches_sequential_and_is_order_invariant() {
        let samples: Vec<u64> = (0..5_000u64).map(|i| (i * 2_654_435_761) % 1_000_000).collect();
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let parts: Vec<Histogram> = samples
            .chunks(617)
            .map(|c| {
                let mut h = Histogram::new();
                for &s in c {
                    h.record(s);
                }
                h
            })
            .collect();
        let mut fwd = Histogram::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Histogram::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
        assert_eq!(fwd.p99(), whole.p99());
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(123_456, 7);
        for _ in 0..7 {
            b.record(123_456);
        }
        assert_eq!(a, b);
        a.record_n(5, 0);
        assert_eq!(a, b);
    }
}
