//! Deterministic gauge timelines over the *simulated* clock.
//!
//! A [`TimelineSampler`] turns point-in-time gauge readings (TLB
//! occupancy, live ASIDs, DRAM-pool bytes, …) into time series keyed
//! by simulated nanoseconds. Because the x axis is the machine's own
//! deterministic clock — never host time — the series are
//! byte-identical across runs and `--threads` values, and because
//! every gauge is sampled *at* a clock value (not accumulated), series
//! from different machines merge commutatively.
//!
//! Sampling is polled, not pushed: kernels call into the machine at
//! operation boundaries, and the sampler records one point per gauge
//! whenever the clock has crossed the next interval boundary since the
//! last sample. Under run-compressed execution the clock can jump by
//! arbitrarily many intervals at once; the sampler still records a
//! single point at the actual clock value, so timelines stay bounded
//! by the number of operations, not by clock span / interval.

use std::collections::BTreeMap;

/// One gauge's sampled time series: `(simulated ns, value)` points in
/// strictly increasing clock order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GaugeSeries {
    /// Gauge name (`"mmu.tlb_entries"`, `"kernel.procs_live"`, …).
    pub name: &'static str,
    /// `(clock_ns, value)` samples, clock strictly increasing.
    pub points: Vec<(u64, u64)>,
}

/// Merge per-machine gauge series name-wise: points of series with the
/// same name are interleaved by clock value. Commutative and
/// associative up to the ordering of equal-clock points, which the
/// stable sort keeps in argument order — callers that need strict
/// order independence (the exporters) merge machines in flush order,
/// which is itself deterministic.
pub fn merge_series(groups: &[&[GaugeSeries]]) -> Vec<GaugeSeries> {
    let mut merged: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    for group in groups {
        for s in *group {
            merged
                .entry(s.name)
                .or_default()
                .extend_from_slice(&s.points);
        }
    }
    merged
        .into_iter()
        .map(|(name, mut points)| {
            points.sort_by_key(|&(ns, _)| ns);
            GaugeSeries { name, points }
        })
        .collect()
}

/// The live sampler carried by an enabled ledger.
#[derive(Clone, Debug, Default)]
pub struct TimelineSampler {
    /// Sampling interval in simulated ns (never 0 on a live sampler).
    interval_ns: u64,
    /// Clock value at or after which the next sample is due.
    next_due_ns: u64,
    /// Gauge name → points; BTreeMap so [`finish`](Self::finish) is
    /// name-sorted regardless of registration order.
    series: BTreeMap<&'static str, Vec<(u64, u64)>>,
}

impl TimelineSampler {
    /// Sampler recording one point per gauge per `interval_ns` of
    /// simulated time, the first at clock 0.
    pub fn new(interval_ns: u64) -> TimelineSampler {
        assert!(interval_ns > 0, "timeline interval must be nonzero");
        TimelineSampler {
            interval_ns,
            next_due_ns: 0,
            series: BTreeMap::new(),
        }
    }

    /// True iff the clock has reached the next sampling point. Callers
    /// use this to skip gauge gathering entirely between samples.
    #[inline]
    pub fn due(&self, clock_ns: u64) -> bool {
        clock_ns >= self.next_due_ns
    }

    /// Record one point per gauge at `clock_ns` if a sample is due,
    /// then re-arm at the next interval boundary *after* `clock_ns`
    /// (one point per crossing, however far the clock jumped).
    pub fn sample(&mut self, clock_ns: u64, gauges: &[(&'static str, u64)]) {
        if !self.due(clock_ns) {
            return;
        }
        for &(name, value) in gauges {
            self.series.entry(name).or_default().push((clock_ns, value));
        }
        self.next_due_ns = (clock_ns / self.interval_ns)
            .saturating_add(1)
            .saturating_mul(self.interval_ns);
    }

    /// Close the sampler into name-sorted series.
    pub fn finish(self) -> Vec<GaugeSeries> {
        self.series
            .into_iter()
            .map(|(name, points)| GaugeSeries { name, points })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_once_per_interval_crossing() {
        let mut s = TimelineSampler::new(100);
        assert!(s.due(0), "first sample is due at clock 0");
        s.sample(0, &[("g", 1)]);
        assert!(!s.due(50));
        s.sample(50, &[("g", 2)]); // not due: dropped
        s.sample(120, &[("g", 3)]);
        s.sample(130, &[("g", 4)]); // not due until 200
                                    // A run-compressed jump across many intervals records one
                                    // point at the actual clock, not one per crossed boundary.
        s.sample(10_000, &[("g", 5)]);
        let out = s.finish();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name, "g");
        assert_eq!(out[0].points, vec![(0, 1), (120, 3), (10_000, 5)]);
    }

    #[test]
    fn series_are_name_sorted_and_gauges_may_come_and_go() {
        let mut s = TimelineSampler::new(10);
        s.sample(0, &[("z", 1), ("a", 2)]);
        s.sample(10, &[("a", 3), ("m", 4)]);
        let out = s.finish();
        let names: Vec<_> = out.iter().map(|g| g.name).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
        assert_eq!(out[0].points, vec![(0, 2), (10, 3)]);
        assert_eq!(out[1].points, vec![(10, 4)]);
    }

    #[test]
    fn merge_is_order_independent() {
        let a = vec![GaugeSeries {
            name: "g",
            points: vec![(0, 1), (20, 3)],
        }];
        let b = vec![GaugeSeries {
            name: "g",
            points: vec![(10, 2)],
        }];
        let ab = merge_series(&[&a, &b]);
        let ba = merge_series(&[&b, &a]);
        assert_eq!(ab, ba);
        assert_eq!(ab[0].points, vec![(0, 1), (10, 2), (20, 3)]);
    }
}
