//! The per-machine ledger: charges aggregated by `(phase, kind)`,
//! plus phase spans for timeline export.
//!
//! The ledger never computes a cost itself — it only observes what the
//! machine charges. That is what makes conservation (`Σ entries ==
//! clock delta`) hold *by construction*: every path that advances the
//! simulated clock records exactly what it added, tagged with the
//! [`CostKind`] it priced.

use std::collections::BTreeMap;

use crate::hist::{Histogram, OpKind};
use crate::kind::{CostKind, Subsystem};
use crate::timeline::{GaugeSeries, TimelineSampler};

/// Phase label a machine starts in before anyone calls `set_phase`.
pub const INITIAL_PHASE: &str = "main";

/// One closed phase interval on a machine's simulated clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase label (driver boundary name).
    pub label: &'static str,
    /// Simulated ns at which the phase began.
    pub start_ns: u64,
    /// Simulated ns at which the phase ended.
    pub end_ns: u64,
}

/// Live ledger carried by an enabled machine.
///
/// Aggregates rather than logs: the figure suite charges millions of
/// primitives, but only ever a few dozen distinct `(phase, kind)`
/// pairs per machine.
#[derive(Clone, Debug, Default)]
pub struct MachineTrace {
    /// Phase labels in order of first use; index is the row key.
    phases: Vec<&'static str>,
    /// Index of the current phase in `phases`.
    current: usize,
    /// Clock value when the current phase began.
    span_start_ns: u64,
    /// Closed spans, in time order.
    spans: Vec<PhaseSpan>,
    /// `(phase index, kind discriminant) → (count, ns)`.
    rows: BTreeMap<(usize, u8), (u64, u64)>,
    /// Running sum of everything recorded.
    charged_ns: u64,
    /// `(phase index, op discriminant, mechanism) → latency histogram`.
    ops: BTreeMap<(usize, u8, &'static str), Histogram>,
    /// Gauge timeline sampler; present only when the ledger was built
    /// with a nonzero interval ([`MachineTrace::with_timeline`]).
    timeline: Option<TimelineSampler>,
}

impl MachineTrace {
    /// Fresh ledger: clock 0, phase [`INITIAL_PHASE`], and a gauge
    /// sampler armed at `interval_ns` (0 = no sampler).
    pub fn with_timeline(interval_ns: u64) -> MachineTrace {
        MachineTrace {
            phases: vec![INITIAL_PHASE],
            timeline: (interval_ns > 0).then(|| TimelineSampler::new(interval_ns)),
            ..MachineTrace::default()
        }
    }

    /// True iff a gauge sample is due at clock value `clock_ns`.
    /// Always false without a sampler, so kernels skip gauge
    /// gathering entirely when timelines are off.
    #[inline]
    pub fn timeline_due(&self, clock_ns: u64) -> bool {
        self.timeline.as_ref().is_some_and(|t| t.due(clock_ns))
    }

    /// Record one point per gauge at `clock_ns` if a sample is due.
    pub fn timeline_sample(&mut self, clock_ns: u64, gauges: &[(&'static str, u64)]) {
        if let Some(t) = &mut self.timeline {
            t.sample(clock_ns, gauges);
        }
    }

    /// Record `count` primitives of `kind` costing `ns` total.
    #[inline]
    pub fn record(&mut self, kind: CostKind, count: u64, ns: u64) {
        let row = self
            .rows
            .entry((self.current, kind as u8))
            .or_insert((0, 0));
        row.0 += count;
        row.1 += ns;
        self.charged_ns += ns;
    }

    /// Record one completed top-level operation of `op` on mechanism
    /// `mech` that took `ns` simulated nanoseconds, under the current
    /// phase. Latencies are distribution data, not charges: they never
    /// count toward conservation (the underlying costs already did).
    #[inline]
    pub fn record_op(&mut self, op: OpKind, mech: &'static str, ns: u64) {
        self.ops
            .entry((self.current, op as u8, mech))
            .or_default()
            .record(ns);
    }

    /// Record `count` completed operations of `op` on `mech`, each
    /// taking `ns` simulated nanoseconds — the weighted ledger entry
    /// behind run-compressed execution. Exactly equivalent to `count`
    /// [`record_op`](Self::record_op) calls.
    #[inline]
    pub fn record_op_n(&mut self, op: OpKind, mech: &'static str, ns: u64, count: u64) {
        self.ops
            .entry((self.current, op as u8, mech))
            .or_default()
            .record_n(ns, count);
    }

    /// Enter phase `label` at simulated time `now_ns`. Re-entering the
    /// current phase is a no-op; zero-length spans are not kept.
    pub fn set_phase(&mut self, label: &'static str, now_ns: u64) {
        if self.phases[self.current] == label {
            return;
        }
        if now_ns > self.span_start_ns {
            self.spans.push(PhaseSpan {
                label: self.phases[self.current],
                start_ns: self.span_start_ns,
                end_ns: now_ns,
            });
        }
        self.current = match self.phases.iter().position(|&p| p == label) {
            Some(i) => i,
            None => {
                self.phases.push(label);
                self.phases.len() - 1
            }
        };
        self.span_start_ns = now_ns;
    }

    /// Total simulated ns recorded so far.
    pub fn charged_ns(&self) -> u64 {
        self.charged_ns
    }

    /// Close the ledger at final clock value `clock_ns`.
    pub fn finish(mut self, clock_ns: u64) -> MachineReport {
        if clock_ns > self.span_start_ns {
            self.spans.push(PhaseSpan {
                label: self.phases[self.current],
                start_ns: self.span_start_ns,
                end_ns: clock_ns,
            });
        }
        let rows = self
            .rows
            .iter()
            .map(|(&(phase, kind), &(count, ns))| TraceRow {
                phase: self.phases[phase],
                kind: CostKind::ALL[kind as usize],
                count,
                ns,
            })
            .collect();
        let ops = std::mem::take(&mut self.ops)
            .into_iter()
            .map(|((phase, op, mech), hist)| OpRow {
                phase: self.phases[phase],
                op: OpKind::ALL[op as usize],
                mech,
                hist,
            })
            .collect();
        MachineReport {
            spans: self.spans,
            rows,
            ops,
            timeline: self
                .timeline
                .map(TimelineSampler::finish)
                .unwrap_or_default(),
            clock_ns,
            charged_ns: self.charged_ns,
        }
    }
}

/// One aggregated ledger row of a finished machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRow {
    /// Phase the charges happened in.
    pub phase: &'static str,
    /// What was charged.
    pub kind: CostKind,
    /// How many primitives.
    pub count: u64,
    /// Their total simulated cost.
    pub ns: u64,
}

/// One operation's latency distribution on a finished machine.
#[derive(Clone, Debug)]
pub struct OpRow {
    /// Phase the operations completed in.
    pub phase: &'static str,
    /// Which operation.
    pub op: OpKind,
    /// Mechanism label (`"baseline"`, `"fom-ranges"`, …).
    pub mech: &'static str,
    /// Latency distribution in simulated ns.
    pub hist: Histogram,
}

/// A machine's closed ledger, as flushed to its run on drop.
#[derive(Clone, Debug)]
pub struct MachineReport {
    /// Phase timeline.
    pub spans: Vec<PhaseSpan>,
    /// Aggregated rows, ordered by (phase first-use, kind).
    pub rows: Vec<TraceRow>,
    /// Per-operation latency histograms, ordered by (phase first-use,
    /// op, mechanism).
    pub ops: Vec<OpRow>,
    /// Gauge timelines, name-sorted; empty unless the machine was
    /// built with a nonzero timeline interval.
    pub timeline: Vec<GaugeSeries>,
    /// Final simulated clock value (machines start at 0).
    pub clock_ns: u64,
    /// Sum of all recorded entries.
    pub charged_ns: u64,
}

impl MachineReport {
    /// True iff the ledger accounts for every clock tick.
    pub fn conserves(&self) -> bool {
        let row_sum: u64 = self.rows.iter().map(|r| r.ns).sum();
        row_sum == self.clock_ns && self.charged_ns == self.clock_ns
    }
}

/// Every machine ledger collected while one figure ran.
#[derive(Clone, Debug)]
pub struct FigureTrace {
    /// Canonical figure id.
    pub id: String,
    /// Machine reports in flush (= deterministic program) order.
    pub machines: Vec<MachineReport>,
}

impl FigureTrace {
    /// Total simulated ns across all the figure's machines.
    pub fn total_ns(&self) -> u64 {
        self.machines.iter().map(|m| m.clock_ns).sum()
    }
}

/// One merged latency distribution for a whole figure: every machine's
/// histogram for the same `(mechanism, op, phase)` key folded together.
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// Mechanism label (`"baseline"`, `"fom-ranges"`, …).
    pub mech: &'static str,
    /// Which operation.
    pub op: OpKind,
    /// Phase the operations completed in.
    pub phase: &'static str,
    /// Merged latency distribution in simulated ns.
    pub hist: Histogram,
}

/// Merge a figure's per-machine op histograms into one row per
/// `(mechanism, op, phase)`, sorted by that key. Histogram merging is
/// commutative, so the result is identical for any machine order —
/// and therefore for any `--threads` value.
pub fn latency_rows(trace: &FigureTrace) -> Vec<LatencyRow> {
    let mut merged: BTreeMap<(&'static str, u8, &'static str), Histogram> = BTreeMap::new();
    for m in &trace.machines {
        for row in &m.ops {
            merged
                .entry((row.mech, row.op as u8, row.phase))
                .or_default()
                .merge(&row.hist);
        }
    }
    merged
        .into_iter()
        .map(|((mech, op, phase), hist)| LatencyRow {
            mech,
            op: OpKind::ALL[op as usize],
            phase,
            hist,
        })
        .collect()
}

/// Check `Σ ledger == clock` for every machine of every figure.
/// Returns one human-readable line per violation; empty means the
/// whole run conserves simulated time.
pub fn conservation_errors(traces: &[FigureTrace]) -> Vec<String> {
    let mut errors = Vec::new();
    for t in traces {
        for (i, m) in t.machines.iter().enumerate() {
            if !m.conserves() {
                let row_sum: u64 = m.rows.iter().map(|r| r.ns).sum();
                errors.push(format!(
                    "{}: machine {}: ledger {} ns (running sum {}) != clock {} ns",
                    t.id, i, row_sum, m.charged_ns, m.clock_ns
                ));
            }
        }
    }
    errors
}

/// A figure's decomposition into counts × costs, ready for tables.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// Total simulated ns across the figure's machines.
    pub total_ns: u64,
    /// `(subsystem, count, ns)` in [`Subsystem::ALL`] order, zero
    /// subsystems omitted.
    pub by_subsystem: Vec<(Subsystem, u64, u64)>,
    /// `(kind, count, ns)` in [`CostKind::ALL`] order, zero kinds
    /// omitted.
    pub by_kind: Vec<(CostKind, u64, u64)>,
    /// `(phase, ns)` in first-appearance order.
    pub by_phase: Vec<(&'static str, u64)>,
}

/// Aggregate one figure's machine ledgers across machines.
pub fn attribute(trace: &FigureTrace) -> Attribution {
    let mut kind_totals = [(0u64, 0u64); CostKind::ALL.len()];
    let mut phases: Vec<(&'static str, u64)> = Vec::new();
    for m in &trace.machines {
        for r in &m.rows {
            let slot = &mut kind_totals[r.kind as usize];
            slot.0 += r.count;
            slot.1 += r.ns;
            match phases.iter_mut().find(|(p, _)| *p == r.phase) {
                Some((_, ns)) => *ns += r.ns,
                None => phases.push((r.phase, r.ns)),
            }
        }
    }
    let by_kind: Vec<_> = CostKind::ALL
        .iter()
        .map(|&k| {
            let (count, ns) = kind_totals[k as usize];
            (k, count, ns)
        })
        .filter(|&(_, count, ns)| count > 0 || ns > 0)
        .collect();
    let by_subsystem = Subsystem::ALL
        .iter()
        .map(|&s| {
            let (count, ns) = by_kind
                .iter()
                .filter(|(k, _, _)| k.subsystem() == s)
                .fold((0, 0), |(c, n), &(_, kc, kn)| (c + kc, n + kn));
            (s, count, ns)
        })
        .filter(|&(_, count, ns)| count > 0 || ns > 0)
        .collect();
    Attribution {
        total_ns: trace.total_ns(),
        by_subsystem,
        by_kind,
        by_phase: phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> MachineReport {
        let mut t = MachineTrace::with_timeline(0);
        t.record(CostKind::Syscall, 1, 500);
        t.record(CostKind::PteWrite, 10, 550);
        t.set_phase("access", 1050);
        t.record(CostKind::TlbFill, 3, 15);
        t.finish(1065)
    }

    #[test]
    fn rows_aggregate_and_conserve() {
        let r = report();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.charged_ns, 1065);
        assert!(r.conserves());
        assert_eq!(r.rows[0].phase, INITIAL_PHASE);
        assert_eq!(r.rows[2].phase, "access");
        assert_eq!(r.rows[2].kind, CostKind::TlbFill);
        assert_eq!(r.rows[2].count, 3);
    }

    #[test]
    fn spans_cover_the_clock() {
        let r = report();
        assert_eq!(
            r.spans,
            vec![
                PhaseSpan {
                    label: INITIAL_PHASE,
                    start_ns: 0,
                    end_ns: 1050
                },
                PhaseSpan {
                    label: "access",
                    start_ns: 1050,
                    end_ns: 1065
                },
            ]
        );
    }

    #[test]
    fn unaccounted_time_breaks_conservation() {
        let mut t = MachineTrace::with_timeline(0);
        t.record(CostKind::Syscall, 1, 500);
        let r = t.finish(501); // one ns advanced without being recorded
        assert!(!r.conserves());
        let trace = FigureTrace {
            id: "figX".into(),
            machines: vec![r],
        };
        let errs = conservation_errors(&[trace]);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("figX"), "{errs:?}");
    }

    #[test]
    fn attribution_groups_by_subsystem_and_phase() {
        let trace = FigureTrace {
            id: "f".into(),
            machines: vec![report(), report()],
        };
        let a = attribute(&trace);
        assert_eq!(a.total_ns, 2 * 1065);
        let (s, count, ns) = a.by_subsystem[0];
        assert_eq!(s, Subsystem::Cpu);
        assert_eq!((count, ns), (2, 1000));
        assert_eq!(a.by_phase, vec![(INITIAL_PHASE, 2100), ("access", 30)]);
        assert!(a
            .by_kind
            .iter()
            .any(|&(k, c, _)| k == CostKind::PteWrite && c == 20));
    }

    #[test]
    fn ops_key_by_phase_op_and_mech_and_merge_across_machines() {
        let mk = |n: u64| {
            let mut t = MachineTrace::with_timeline(0);
            t.record_op(OpKind::Mmap, "baseline", 100 * n);
            t.set_phase("access", 0);
            t.record_op(OpKind::AccessHit, "baseline", 7);
            t.record_op(OpKind::AccessFault, "baseline", 9000);
            t.finish(0)
        };
        let a = mk(1);
        assert_eq!(a.ops.len(), 3);
        assert_eq!(a.ops[0].phase, INITIAL_PHASE);
        assert_eq!(a.ops[0].op, OpKind::Mmap);
        assert_eq!(a.ops[0].mech, "baseline");
        let trace = FigureTrace {
            id: "f".into(),
            machines: vec![mk(1), mk(2)],
        };
        let rows = latency_rows(&trace);
        assert_eq!(rows.len(), 3, "same keys merge");
        let mmap = rows.iter().find(|r| r.op == OpKind::Mmap).unwrap();
        assert_eq!(mmap.hist.count(), 2);
        assert_eq!(mmap.hist.max(), 200);
        // Merge order never matters: reversing machines is identical.
        let rev = FigureTrace {
            id: "f".into(),
            machines: vec![mk(2), mk(1)],
        };
        let rows_rev = latency_rows(&rev);
        for (x, y) in rows.iter().zip(&rows_rev) {
            assert_eq!((x.mech, x.op, x.phase), (y.mech, y.op, y.phase));
            assert_eq!(x.hist, y.hist);
        }
    }

    #[test]
    fn record_op_n_equals_n_record_ops() {
        let mut bulk = MachineTrace::with_timeline(0);
        let mut looped = MachineTrace::with_timeline(0);
        for t in [&mut bulk, &mut looped] {
            t.record_op(OpKind::Mmap, "baseline", 50);
            t.set_phase("access", 0);
        }
        bulk.record_op_n(OpKind::AccessHit, "fom-ranges", 7, 1000);
        bulk.record_op_n(OpKind::AccessHit, "fom-ranges", 9, 0); // no-op
        for _ in 0..1000 {
            looped.record_op(OpKind::AccessHit, "fom-ranges", 7);
        }
        let (a, b) = (bulk.finish(0), looped.finish(0));
        assert_eq!(a.ops.len(), b.ops.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!((x.phase, x.op, x.mech), (y.phase, y.op, y.mech));
            assert_eq!(x.hist, y.hist);
        }
    }

    #[test]
    fn reentering_current_phase_is_noop() {
        let mut t = MachineTrace::with_timeline(0);
        t.set_phase(INITIAL_PHASE, 0);
        t.record(CostKind::Syscall, 1, 500);
        t.set_phase("a", 500);
        t.set_phase("a", 500);
        t.record(CostKind::Syscall, 1, 500);
        let r = t.finish(1000);
        assert_eq!(r.spans.len(), 2);
        assert!(r.conserves());
    }
}
