//! Tail-latency reporting over figure traces.
//!
//! A traced run records every top-level kernel operation's simulated
//! latency into a log-bucketed [`Histogram`] keyed by `(phase, op,
//! mechanism)`. This module merges those per-machine histograms into
//! one row per `(mechanism, op, phase)` per figure and renders the
//! operator-facing views: aligned percentile tables for stdout
//! (`--latency`) and a `"latency"` section inside the pretty figure
//! JSON. Histograms are integer-only and merging is commutative, so
//! both views are byte-identical for any `--threads` value.
//!
//! [`Histogram`]: o1_obs::Histogram

use std::fmt::Write as _;

use o1_obs::{
    attribute, latency_rows, merge_series, Attribution, FigureTrace, GaugeSeries, LatencyRow,
};

use crate::attrib::write_attribution_json;
use crate::json;
use crate::series::write_figures_pretty;
use crate::Figure;

/// Render one figure's merged latency rows (from
/// [`o1_obs::latency_rows`]) as an aligned text table: one row per
/// `(mechanism, op, phase)` with count, p50/p90/p99/p999, and the
/// exact maximum, all in simulated ns.
pub fn latency_table_with(trace: &FigureTrace, rows: &[LatencyRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## latency — {} ({} machines, {} op rows, simulated ns)",
        trace.id,
        trace.machines.len(),
        rows.len()
    );
    let _ = writeln!(
        out,
        "{:>12}  {:>12}  {:>14}  {:>10}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
        "mech", "op", "phase", "count", "p50", "p90", "p99", "p999", "max"
    );
    for r in rows {
        let (p50, p90, p99, p999) = r.hist.percentiles();
        let _ = writeln!(
            out,
            "{:>12}  {:>12}  {:>14}  {:>10}  {p50:>9}  {p90:>9}  {p99:>9}  {p999:>9}  {:>9}",
            r.mech,
            r.op.name(),
            r.phase,
            r.hist.count(),
            r.hist.max()
        );
    }
    out
}

/// Append a figure's `"latency"` JSON member: one object per merged
/// `(mechanism, op, phase)` row.
pub(crate) fn write_latency_json(out: &mut String, rows: &[LatencyRow], level: usize) {
    json::push_indent(out, level);
    out.push_str("\"latency\": [");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (p50, p90, p99, p999) = r.hist.percentiles();
        json::push_indent(out, level + 1);
        let _ = write!(
            out,
            "{{\"mech\": \"{}\", \"op\": \"{}\", \"phase\": ",
            r.mech,
            r.op.name()
        );
        json::push_str_escaped(out, r.phase);
        let _ = write!(
            out,
            ", \"count\": {}, \"sum_ns\": {}, \"p50\": {p50}, \"p90\": {p90}, \
             \"p99\": {p99}, \"p999\": {p999}, \"max\": {}}}",
            r.hist.count(),
            r.hist.sum(),
            r.hist.max()
        );
    }
    if !rows.is_empty() {
        json::push_indent(out, level);
    }
    out.push(']');
}

/// Append a figure's `"timeline"` JSON member: one summary object per
/// gauge of the figure's merged (order-independent) timeline — sample
/// count plus first/last/min/max values. The full point-by-point data
/// goes to `--timeline <dir>`; this section is the compact in-document
/// view diff tools can key on.
pub(crate) fn write_timeline_json(out: &mut String, series: &[GaugeSeries], level: usize) {
    json::push_indent(out, level);
    out.push_str("\"timeline\": [");
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_indent(out, level + 1);
        out.push_str("{\"gauge\": ");
        json::push_str_escaped(out, s.name);
        let values = s.points.iter().map(|&(_, v)| v);
        let _ = write!(
            out,
            ", \"samples\": {}, \"first\": {}, \"last\": {}, \"min\": {}, \"max\": {}}}",
            s.points.len(),
            s.points.first().map_or(0, |&(_, v)| v),
            s.points.last().map_or(0, |&(_, v)| v),
            values.clone().min().unwrap_or(0),
            values.max().unwrap_or(0),
        );
    }
    if !series.is_empty() {
        json::push_indent(out, level);
    }
    out.push(']');
}

/// The enrichment computed once per figure and shared by the stdout
/// tables and the JSON document, so the two views can never disagree
/// (each used to re-derive its own copy from the trace).
pub struct FigureExtras {
    /// Cost attribution, when `--attrib` requested it.
    pub attribution: Option<Attribution>,
    /// Merged latency rows, when `--latency` requested them.
    pub latency: Option<Vec<LatencyRow>>,
    /// Merged gauge timelines, when `--timeline` requested them.
    pub timeline: Option<Vec<GaugeSeries>>,
}

impl FigureExtras {
    fn is_empty(&self) -> bool {
        self.attribution.is_none() && self.latency.is_none() && self.timeline.is_none()
    }
}

/// Compute the requested enrichment for every figure, from its
/// matching trace (figures without a trace get empty extras).
pub fn figure_extras(
    figures: &[Figure],
    traces: &[FigureTrace],
    attrib: bool,
    latency: bool,
    timeline: bool,
) -> Vec<FigureExtras> {
    figures
        .iter()
        .map(|f| {
            let trace = traces.iter().find(|t| t.id == f.id);
            FigureExtras {
                attribution: trace.filter(|_| attrib).map(attribute),
                latency: trace.filter(|_| latency).map(latency_rows),
                timeline: trace.filter(|_| timeline).map(|t| {
                    let groups: Vec<&[GaugeSeries]> =
                        t.machines.iter().map(|m| m.timeline.as_slice()).collect();
                    merge_series(&groups)
                }),
            }
        })
        .collect()
}

/// [`figures_to_json_pretty`](crate::figures_to_json_pretty) plus
/// precomputed enrichment sections. A figure with non-empty extras
/// gains a `"schema_version"` marker — `2` for attribution/latency
/// only, `3` once a `"timeline"` member appears — followed by the
/// sections in attribution, latency, timeline order. Figures with
/// empty extras — and the whole document when every figure's are —
/// serialize byte-identically to the plain path, which is what keeps
/// untraced output stable across releases (implicit schema version 1).
pub fn figures_to_json_pretty_with_extras(figures: &[Figure], extras: &[FigureExtras]) -> String {
    assert_eq!(figures.len(), extras.len(), "one extras entry per figure");
    write_figures_pretty(figures, |out, fi| {
        let e = &extras[fi];
        if e.is_empty() {
            return;
        }
        out.push(',');
        json::push_indent(out, 2);
        let version = if e.timeline.is_some() { 3 } else { 2 };
        let _ = write!(out, "\"schema_version\": {version},");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
        };
        if let Some(a) = &e.attribution {
            sep(out);
            write_attribution_json(out, a, 2);
        }
        if let Some(l) = &e.latency {
            sep(out);
            write_latency_json(out, l, 2);
        }
        if let Some(t) = &e.timeline {
            sep(out);
            write_timeline_json(out, t, 2);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures_to_json_pretty;
    use crate::runner::{figure_fn, run_figures, RunnerOptions};

    fn traced(id: &str) -> (Vec<Figure>, Vec<FigureTrace>) {
        let fns = vec![figure_fn(id).unwrap()];
        let report = run_figures(
            &fns,
            &RunnerOptions {
                threads: 1,
                trace: true,
                ..Default::default()
            },
        );
        (report.figures, report.traces)
    }

    #[test]
    fn latency_table_has_both_mechanisms_and_alloc_rows() {
        let (_, traces) = traced("fig2");
        let table = latency_table_with(&traces[0], &latency_rows(&traces[0]));
        assert!(table.contains("## latency — fig2"));
        assert!(table.contains("baseline"), "fig2 runs the baseline kernel");
        assert!(table.contains("fom-"), "fig2 runs a fom kernel");
        assert!(table.contains(" alloc"), "fig2 drives the alloc phase");
    }

    #[test]
    fn fault_and_hit_accesses_separate() {
        // fig_faults touches fresh pages on the baseline kernel: its
        // first access per page demand-faults while fom never does.
        let (_, traces) = traced("fig_faults");
        let rows = latency_rows(&traces[0]);
        let fault = rows
            .iter()
            .find(|r| r.mech == "baseline" && r.op == o1_obs::OpKind::AccessFault)
            .expect("baseline access faults recorded");
        let hit = rows
            .iter()
            .find(|r| r.mech.starts_with("fom") && r.op == o1_obs::OpKind::AccessHit)
            .expect("fom access hits recorded");
        assert!(
            fault.hist.quantile(1, 2) > hit.hist.quantile(1, 2),
            "a faulting access is slower than a hit at the median"
        );
        assert!(
            !rows
                .iter()
                .any(|r| r.mech.starts_with("fom") && r.op == o1_obs::OpKind::AccessFault),
            "fom accesses never demand-fault"
        );
    }

    #[test]
    fn enriched_json_is_plain_json_plus_sections() {
        let (figures, traces) = traced("fig2");
        let plain = figures_to_json_pretty(&figures);
        let enriched_json = |traces: &[FigureTrace], attrib: bool, latency: bool| {
            let extras = figure_extras(&figures, traces, attrib, latency, false);
            figures_to_json_pretty_with_extras(&figures, &extras)
        };
        let enriched = enriched_json(&traces, true, true);
        assert!(enriched.contains("\"schema_version\": 2,"));
        assert!(enriched.contains("\"attribution\": {"));
        assert!(enriched.contains("\"latency\": ["));
        assert!(enriched.contains("\"p999\": "));
        let latency_only = enriched_json(&traces, false, true);
        assert!(latency_only.contains("\"schema_version\": 2,"));
        assert!(!latency_only.contains("\"attribution\""));
        // Both flags off, or no matching traces: bytes equal plain.
        assert_eq!(enriched_json(&traces, false, false), plain);
        assert_eq!(enriched_json(&[], true, true), plain);
    }
}
