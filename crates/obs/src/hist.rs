//! HDR-style log-bucketed integer histograms.
//!
//! Bucket selection uses only integer ops (leading-zero count, shifts,
//! masks) so histograms are byte-deterministic on every platform. The
//! layout is the classic octave/sub-bucket scheme: values below 16 get
//! exact unit buckets; above that, each power-of-two octave is split into
//! 8 sub-buckets, bounding relative error at 12.5% while covering the full
//! `u64` range in 496 buckets.

use serde::{Deserialize, Serialize};

/// Values below this have exact one-per-value buckets.
const LINEAR_MAX: u64 = 16;
/// log2 of sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total addressable buckets (value `u64::MAX` lands in the last one).
const NUM_BUCKETS: usize = LINEAR_MAX as usize + (64 - 1 - SUB_BITS as usize) * SUB as usize;

/// Bucket index for a value — integer ops only.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
        LINEAR_MAX as usize + (msb as usize - SUB_BITS as usize - 1) * SUB as usize + sub
    }
}

/// Inclusive lower bound of a bucket.
fn bucket_lo(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        i as u64
    } else {
        let oct = (i - LINEAR_MAX as usize) / SUB as usize;
        let sub = ((i - LINEAR_MAX as usize) % SUB as usize) as u64;
        (SUB + sub) << (oct + 1)
    }
}

/// Inclusive upper bound of a bucket.
fn bucket_hi(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lo(i + 1) - 1
    }
}

/// A log-bucketed histogram of `u64` samples.
///
/// `buckets` is trimmed to the highest occupied index, so an empty or
/// narrow histogram serializes compactly; [`Histogram::merge`] aligns
/// lengths automatically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket counts, index 0 upward, trimmed at the top.
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the recorded samples (0.0 when empty). Floating
    /// point is only used here, for reporting — never in bucket selection.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the bucket holding the `num/den` quantile sample
    /// (0 when empty). `num/den` must be a proportion in `[0, 1]`.
    pub fn quantile_lo(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0 && num <= den, "quantile must lie in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as u128 * num as u128).div_ceil(den as u128) as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lo(i);
            }
        }
        self.max
    }

    /// Lower bound of the most populated bucket (first wins ties; 0 when
    /// empty). For distributions concentrated below 16 this is exact —
    /// e.g. the modal queue depth of a PIS run.
    pub fn mode_lo(&self) -> u64 {
        let mut best: Option<(usize, u64)> = None;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && best.is_none_or(|(_, bc)| c > bc) {
                best = Some((i, c));
            }
        }
        best.map_or(0, |(i, _)| bucket_lo(i))
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
    }

    /// Iterate occupied buckets as `(lo, hi, count)` in ascending value
    /// order. `hi` is inclusive; the top bucket's `hi` is `u64::MAX`.
    pub fn occupied_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lo(i), bucket_hi(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_self_consistent() {
        // Every sampled value must land in a bucket whose [lo, hi] range
        // contains it, and bucket index must be monotone in the value.
        let mut prev_idx = 0usize;
        let samples: Vec<u64> = (0..100)
            .chain((1..40).map(|k| (1u64 << k) - 1))
            .chain((1..40).map(|k| 1u64 << k))
            .chain((1..40).map(|k| (1u64 << k) + 1))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for v in sorted {
            let i = bucket_index(v);
            assert!(bucket_lo(i) <= v && v <= bucket_hi(i), "v={v} i={i}");
            assert!(i >= prev_idx, "bucket index must be monotone at v={v}");
            assert!(i < NUM_BUCKETS);
            prev_idx = i;
        }
    }

    #[test]
    fn every_bucket_is_exactly_covered() {
        // Exhaustive audit over all 496 buckets: each bucket's own lo and
        // hi must index back to it, ranges must tile the u64 domain with no
        // gap or overlap, and the top bucket must absorb u64::MAX. This
        // pins the two seams where an off-by-one could hide: the
        // linear-to-octave boundary at 16 and each octave's sub-bucket
        // rollover.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_hi(NUM_BUCKETS - 1), u64::MAX);
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = (bucket_lo(i), bucket_hi(i));
            assert!(lo <= hi, "bucket {i} inverted: [{lo}, {hi}]");
            assert_eq!(bucket_index(lo), i, "lo of bucket {i} maps elsewhere");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i} maps elsewhere");
            if i + 1 < NUM_BUCKETS {
                assert_eq!(
                    bucket_lo(i + 1),
                    hi + 1,
                    "gap or overlap between buckets {i} and {}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn zero_and_max_edge_cases() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!((h.min, h.max, h.sum, h.count), (0, 0, 0, 1));
        assert_eq!(h.quantile_lo(99, 100), 0);
        assert_eq!(h.mode_lo(), 0);

        // u64::MAX lands in the final bucket and the sum saturates instead
        // of wrapping.
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count, 3);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.sum, u64::MAX, "sum must saturate at u64::MAX");
        assert_eq!(h.buckets.len(), NUM_BUCKETS);
        assert_eq!(h.buckets[NUM_BUCKETS - 1], 2);
        // The p99 of {0, MAX, MAX} sits in the top bucket; its reported
        // lower bound is that bucket's lo, and the bucket contains MAX.
        let p99 = h.quantile_lo(99, 100);
        assert_eq!(p99, bucket_lo(NUM_BUCKETS - 1));
        assert!(bucket_hi(bucket_index(p99)) == u64::MAX);

        // Merging a MAX-heavy histogram also saturates rather than wraps.
        let mut other = Histogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.buckets[NUM_BUCKETS - 1], 3);
    }

    #[test]
    fn linear_to_octave_seam_is_tight() {
        // 15 is the last exact linear bucket, 16 opens the first octave.
        assert_eq!(bucket_index(15), 15);
        assert_eq!((bucket_lo(15), bucket_hi(15)), (15, 15));
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_lo(16), 16);
        assert!(bucket_hi(16) >= 16);
        // First octave has width-2 buckets: 30 and 31 share one.
        assert_eq!(bucket_index(30), bucket_index(31));
        assert_ne!(bucket_index(29), bucket_index(30));
    }

    #[test]
    fn occupied_buckets_iterator_matches_csv() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 100, u64::MAX] {
            h.record(v);
        }
        let rows: Vec<(u64, u64, u64)> = h.occupied_buckets().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], (3, 3, 2));
        assert_eq!(rows[2].1, u64::MAX);
        let mut snapshot = crate::MetricsSnapshot::default();
        snapshot.hists.insert("x".to_string(), h);
        let csv = snapshot.hists_csv();
        assert_eq!(csv.lines().count(), rows.len() + 1, "header plus rows");
        for (lo, hi, c) in rows {
            assert!(csv.contains(&format!("x,{lo},{hi},{c}")));
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for v in 0..16u64 {
            assert_eq!(h.buckets[v as usize], 1);
        }
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 15);
        assert_eq!(h.count, 16);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 999, 12_345, 1 << 30, u64::MAX / 3] {
            let i = bucket_index(v);
            let width = bucket_hi(i) - bucket_lo(i);
            assert!(
                (width as f64) <= bucket_lo(i) as f64 * 0.125 + 1.0,
                "bucket at {v} too wide: [{}, {}]",
                bucket_lo(i),
                bucket_hi(i)
            );
        }
    }

    #[test]
    fn quantiles_and_mode() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(8);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.mode_lo(), 8);
        assert_eq!(h.quantile_lo(50, 100), 8);
        assert!(h.quantile_lo(99, 100) >= 960);
        assert_eq!(h.quantile_lo(0, 100), 8, "q0 is the first sample");
    }

    #[test]
    fn merge_matches_combined_recording() {
        let vals_a = [0u64, 5, 17, 300, 1 << 20];
        let vals_b = [3u64, 17, 999_999];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for &v in &vals_a {
            a.record(v);
            both.record(v);
        }
        for &v in &vals_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn serde_roundtrip_is_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 9, 1000, 1 << 33] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).expect("histogram serializes");
        let back: Histogram = serde_json::from_str(&json).expect("histogram deserializes");
        assert_eq!(h, back);
    }
}
