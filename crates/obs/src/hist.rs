//! Integer-only log-bucketed latency histograms and the operation
//! kinds they are keyed by.
//!
//! Every top-level kernel operation (mmap, munmap, an access that hit,
//! an access that faulted, …) records its simulated-cycle latency into
//! a [`Histogram`]: HDR-style logarithmic buckets at two buckets per
//! octave, so any recorded value is off by at most one half-octave
//! (≤ 33 % relative error at the bucket's upper bound) while the whole
//! histogram is a few hundred counters. Everything is integer
//! arithmetic over `u64` — no floats anywhere — which is what makes
//! percentile output byte-identical across runs and thread counts.

/// A top-level kernel operation whose latency distribution we track.
///
/// The hit/fault split on accesses is the paper's motivating case: an
/// access that walks a warm TLB and one that takes a demand fault are
/// three orders of magnitude apart, and only a distribution — never a
/// mean — can show it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
#[repr(u8)]
pub enum OpKind {
    /// Map a region (baseline `mmap` syscall path).
    Mmap,
    /// Unmap a region (baseline `munmap`).
    Munmap,
    /// 8-byte load/store whose translation hit (no fault taken).
    AccessHit,
    /// 8-byte load/store that took at least one demand fault.
    AccessFault,
    /// File-grain allocation (`falloc` on file-only memory).
    Alloc,
    /// File-grain release (`unmap` of a whole mapping on file-only
    /// memory).
    Free,
    /// Process creation.
    Launch,
    /// Process teardown.
    Teardown,
}

impl OpKind {
    /// Every kind, in declaration (= export) order.
    pub const ALL: [OpKind; 8] = [
        OpKind::Mmap,
        OpKind::Munmap,
        OpKind::AccessHit,
        OpKind::AccessFault,
        OpKind::Alloc,
        OpKind::Free,
        OpKind::Launch,
        OpKind::Teardown,
    ];

    /// Stable snake_case name used in tables and JSON.
    pub const fn name(self) -> &'static str {
        match self {
            OpKind::Mmap => "mmap",
            OpKind::Munmap => "munmap",
            OpKind::AccessHit => "access_hit",
            OpKind::AccessFault => "access_fault",
            OpKind::Alloc => "alloc",
            OpKind::Free => "free",
            OpKind::Launch => "launch",
            OpKind::Teardown => "teardown",
        }
    }
}

/// Bucket index for a value: 0 holds exactly 0, 1 holds exactly 1,
/// then two buckets per octave (`[2^m, 1.5·2^m)` and
/// `[1.5·2^m, 2^(m+1))`). Max index is 127 (`u64::MAX` lands there).
#[inline]
fn bucket_of(v: u64) -> usize {
    match v {
        0 => 0,
        1 => 1,
        _ => {
            let msb = 63 - v.leading_zeros() as usize; // ≥ 1
            2 * msb + ((v >> (msb - 1)) & 1) as usize
        }
    }
}

/// Inclusive upper bound of bucket `i` — the value percentiles report.
#[inline]
fn bucket_hi(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        _ => {
            // One below the next bucket's lower bound, (3 + s)·2^(m-1).
            // The top bucket's bound is 2^64 − 1: the shift drops the
            // 2^64 bit and the wrapping subtract yields u64::MAX.
            let (m, s) = (i / 2, (i % 2) as u64);
            ((3 + s) << (m - 1)).wrapping_sub(1)
        }
    }
}

/// Log-bucketed latency histogram over simulated nanoseconds.
///
/// Recording is O(1); the bucket vector grows lazily to the highest
/// bucket seen, so a histogram of sub-microsecond operations stays a
/// few dozen words. `sum` and `max` are exact; percentiles are
/// reported as the bucket upper bound, clamped to the exact maximum —
/// so single-valued distributions report every percentile exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one value. Counters saturate at `u64::MAX` instead of
    /// wrapping: a saturated histogram reports a too-small sum, never
    /// a corrupted one.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] = self.counts[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Record `n` identical values in O(1): exactly equivalent to
    /// calling [`record`](Self::record) `n` times — same bucket
    /// vector, count, sum and max — which is what lets run-compressed
    /// execution keep histograms byte-identical to the per-access
    /// interpreter.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = bucket_of(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] = self.counts[b].saturating_add(n);
        self.count = self.count.saturating_add(n);
        // v·n can overflow u64 even when neither factor does; widen so
        // the saturation point matches n individual `record` calls.
        let vn = u64::try_from(u128::from(v) * u128::from(n)).unwrap_or(u64::MAX);
        self.sum = self.sum.saturating_add(vn);
        self.max = self.max.max(v);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another histogram into this one. Addition is commutative
    /// and associative, so merge order never changes the result —
    /// the determinism guarantee for multi-machine aggregation.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `num/den` (e.g. `(999, 1000)` for p999):
    /// the upper bound of the bucket containing the rank-`⌈count·q⌉`
    /// value, clamped to the exact maximum. Returns 0 when empty.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0 && num <= den, "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let rank = (u128::from(self.count) * u128::from(num))
            .div_ceil(u128::from(den))
            .max(1) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// Shorthand percentiles for tables: (p50, p90, p99, p999).
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(1, 2),
            self.quantile(9, 10),
            self.quantile(99, 100),
            self.quantile(999, 1000),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0;
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            5,
            6,
            7,
            8,
            12,
            16,
            1000,
            1 << 20,
            u64::MAX,
        ] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of not monotone at {v}");
            assert!(v <= bucket_hi(b), "{v} above its bucket bound");
            prev = b;
        }
        assert_eq!(bucket_of(u64::MAX), 127);
        assert_eq!(bucket_hi(127), u64::MAX);
        // Every value is within 50% of its bucket's upper bound.
        for v in [2u64, 3, 5, 9, 100, 1 << 30] {
            let hi = bucket_hi(bucket_of(v));
            assert!(hi < v * 2, "bucket for {v} too wide (hi {hi})");
        }
    }

    #[test]
    fn single_value_reports_exactly() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(700);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 70_000);
        assert_eq!(h.max(), 700);
        assert_eq!(h.percentiles(), (700, 700, 700, 700));
    }

    #[test]
    fn tail_separates_from_body() {
        let mut h = Histogram::new();
        for _ in 0..990 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(40_000);
        }
        let (p50, p90, p99, p999) = h.percentiles();
        assert!(p50 < 128, "body stays in the 100ns bucket, got {p50}");
        assert!(p90 < 128);
        assert!(p99 < 128, "p99 rank 990 is still the body");
        assert!(p999 >= 40_000 / 2, "p999 sees the tail, got {p999}");
        assert_eq!(h.max(), 40_000);
        assert_eq!(h.quantile(1, 1), 40_000, "p100 is the exact max");
    }

    #[test]
    fn merge_equals_recording_everything_once() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [0u64, 1, 5, 900, 17, 1 << 40] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 3, 3, 123_456] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn record_n_equals_n_records() {
        for v in [0u64, 1, 7, 700, 40_000, 1 << 40] {
            for n in [0u64, 1, 3, 1000] {
                let mut bulk = Histogram::new();
                bulk.record(5); // nonempty prefix, exercises resize paths
                bulk.record_n(v, n);
                let mut looped = Histogram::new();
                looped.record(5);
                for _ in 0..n {
                    looped.record(v);
                }
                assert_eq!(bulk, looped, "v={v} n={n}");
            }
        }
    }

    #[test]
    fn record_n_at_bucket_boundaries() {
        // The exact values where bucket membership flips: each bucket's
        // inclusive upper bound and the next value (its neighbour's
        // lower bound) must land in adjacent buckets, via record_n and
        // record alike.
        for i in 1..127usize {
            let hi = bucket_hi(i);
            assert_eq!(bucket_of(hi), i, "upper bound of bucket {i}");
            assert_eq!(bucket_of(hi + 1), i + 1, "lower bound of bucket {}", i + 1);
            let mut h = Histogram::new();
            h.record_n(hi, 3);
            h.record_n(hi + 1, 2);
            assert_eq!(h.count(), 5);
            assert_eq!(h.max(), hi + 1);
            // p50 (rank 3) is still in bucket i; p100 is the exact max.
            assert_eq!(h.quantile(1, 2), hi);
            assert_eq!(h.quantile(1, 1), hi + 1);
        }
    }

    #[test]
    fn record_n_saturates_instead_of_wrapping() {
        // Count overflow: u64::MAX values plus more values.
        let mut h = Histogram::new();
        h.record_n(2, u64::MAX);
        h.record_n(2, 5);
        h.record(2);
        assert_eq!(h.count(), u64::MAX, "count saturates");
        assert_eq!(h.sum(), u64::MAX, "2·MAX overflows u64, sum saturates");
        assert_eq!(h.max(), 2);

        // Max-value bucket: u64::MAX lands in bucket 127 and sum
        // saturates on the second value rather than wrapping to small.
        let mut h = Histogram::new();
        h.record_n(u64::MAX, 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentiles(), (u64::MAX, u64::MAX, u64::MAX, u64::MAX));

        // Merge of two saturated histograms stays saturated.
        let mut a = Histogram::new();
        a.record_n(1, u64::MAX);
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.sum(), u64::MAX);
    }

    #[test]
    fn merge_is_commutative_on_random_histograms() {
        // Deterministic LCG so the property test needs no rng crate.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..200 {
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            for _ in 0..(next() % 64) {
                // Bias toward small values but keep huge ones in play.
                let v = next() >> (next() % 64);
                a.record_n(v, next() % 4);
            }
            for _ in 0..(next() % 64) {
                let v = next() >> (next() % 64);
                b.record_n(v, next() % 4);
            }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must be commutative");
            assert_eq!(ab.count(), a.count().saturating_add(b.count()));
            assert_eq!(ab.sum(), a.sum().saturating_add(b.sum()));
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentiles(), (0, 0, 0, 0));
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn op_kind_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in OpKind::ALL {
            assert!(seen.insert(k.name()), "duplicate op name {}", k.name());
        }
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "discriminants match ALL order");
        }
    }
}
