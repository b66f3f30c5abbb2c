//! Log-linear latency histogram.
//!
//! Values (nanoseconds) below 128 get one bucket each; above that every
//! power-of-two octave is cut into 64 equal sub-buckets, so a bucket is
//! never wider than 1/64 ≈ 1.6% of its lower bound. Histograms are plain
//! (non-atomic) so each client thread owns one per slice and the slices
//! are merged afterwards. Percentiles interpolate inside the bucket, so a
//! steady metric does not read as the same bucket edge on every run.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// `index(u64::MAX) + 1`.
const BUCKETS: usize = ((63 - SUB_BITS as usize) * SUB as usize) + 2 * SUB as usize;

/// Samples that must lie beyond a percentile before it is reported.
const GUARD: u64 = 10;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

fn index(v: u64) -> usize {
    let e = 63 - (v | 1).leading_zeros();
    let shift = e.saturating_sub(SUB_BITS);
    (u64::from(shift) * SUB + (v >> shift)) as usize
}

/// `[lo, hi)` of bucket `idx` (as `u128`: the last bucket ends at 2^64).
fn bounds(idx: usize) -> (u128, u128) {
    let shift = (idx as u64 >> SUB_BITS).saturating_sub(1);
    let m = u128::from(idx as u64 - shift * SUB);
    (m << shift, (m + 1) << shift)
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile if at least [`GUARD`] samples lie beyond it (a p99
    /// of 200 samples is two samples' worth of noise); otherwise the
    /// highest quantile below `q` that has, or the median when even that
    /// is too much to ask. Returns the value and the quantile used.
    pub fn percentile_supported(&self, q: f64) -> (f64, f64) {
        if self.total == 0 {
            return (0.0, q);
        }
        let wanted = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let median = self.total.div_ceil(2);
        let rank = wanted.min(self.total.saturating_sub(GUARD)).max(median);
        let used = if rank == wanted {
            q
        } else {
            rank as f64 / self.total as f64
        };
        (self.at_rank(rank), used)
    }

    fn at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let (lo, hi) = bounds(idx);
                let frac = ((rank - seen) as f64 - 0.5) / c as f64;
                let v = lo as f64 + frac * (hi - lo) as f64;
                return v.min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_within_two_percent() {
        let mut probes: Vec<u64> = (0..4096).collect();
        for e in 12..64 {
            let base = 1u64 << e;
            probes.extend([base - 1, base, base + 1, base + base / 3, base + (base - 1)]);
        }
        probes.push(u64::MAX);
        for v in probes {
            let idx = index(v);
            assert!(idx < BUCKETS, "{v} -> {idx}");
            let (lo, hi) = bounds(idx);
            assert!(
                lo <= u128::from(v) && u128::from(v) < hi,
                "{v} not in [{lo},{hi})"
            );
            if idx + 1 < BUCKETS {
                assert_eq!(bounds(idx + 1).0, hi, "gap after bucket {idx}");
            }
            let width = (hi - lo) as f64;
            assert!(
                width == 1.0 || width / lo as f64 <= 0.02,
                "bucket {idx} too wide"
            );
        }
        assert_eq!(index(u64::MAX) + 1, BUCKETS);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut all) = (Hist::default(), Hist::default(), Hist::default());
        for i in 0..10_000u64 {
            let v = i * i % 977_123 + 50;
            if i % 3 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.counts, all.counts);
        assert_eq!(a.percentile_supported(0.99), all.percentile_supported(0.99));
    }

    #[test]
    fn percentile_is_close_and_guarded() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let (p50, used) = h.percentile_supported(0.5);
        assert!(
            used == 0.5 && (p50 - 500_000.0).abs() / 500_000.0 < 0.02,
            "{p50}"
        );
        // 1000 samples leave exactly 10 beyond rank 990: p99 is granted,
        let (p99, used) = h.percentile_supported(0.99);
        assert!(
            used == 0.99 && (p99 - 990_000.0).abs() / 990_000.0 < 0.02,
            "{p99}"
        );
        // p99.9 (one sample beyond) is not, and comes back as p99.
        assert_eq!(h.percentile_supported(0.999), (p99, 0.99));

        let mut few = Hist::default();
        for v in 0..15u64 {
            few.record(v);
        }
        let (_, used) = few.percentile_supported(0.99);
        assert!(
            (0.5..0.6).contains(&used),
            "falls back to the median: {used}"
        );
        assert_eq!(Hist::default().percentile_supported(0.5).0, 0.0);
    }
}
