//! Cost-attribution reporting over figure traces.
//!
//! A traced suite run ([`RunnerOptions::trace`]) yields one
//! [`FigureTrace`] per figure: every simulated nanosecond each machine
//! charged, keyed by `(phase, cost kind)`. This module turns those
//! ledgers into the operator-facing views: aligned text tables for
//! stdout (`--attrib`) and an `"attribution"` section inside the
//! pretty figure JSON. Everything here is integer arithmetic over
//! ledger rows, so output is deterministic byte-for-byte.
//!
//! [`RunnerOptions::trace`]: crate::runner::RunnerOptions

use std::fmt::Write as _;

use o1_obs::{Attribution, FigureTrace};

use crate::json;

/// Tenths of a percent of `total`, as integers — avoids float
/// formatting in deterministic output.
fn permille(ns: u64, total: u64) -> u64 {
    (ns * 1000).checked_div(total).unwrap_or(0)
}

fn push_pct(out: &mut String, ns: u64, total: u64) {
    let p = permille(ns, total);
    let _ = write!(out, "{:>4}.{}%", p / 10, p % 10);
}

/// Render one figure's [`Attribution`] (from [`o1_obs::attribute`]) as
/// an aligned text table: totals, per-subsystem and per-phase splits,
/// and every non-zero cost kind.
pub fn attribution_table_with(trace: &FigureTrace, a: &Attribution) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## attribution — {} ({} machines, {} simulated ns)",
        trace.id,
        trace.machines.len(),
        a.total_ns
    );
    let _ = writeln!(
        out,
        "{:>14}  {:>12}  {:>16}  {:>7}",
        "subsystem", "count", "ns", "share"
    );
    for &(sub, count, ns) in &a.by_subsystem {
        let _ = write!(out, "{:>14}  {count:>12}  {ns:>16}  ", sub.name());
        push_pct(&mut out, ns, a.total_ns);
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "{:>14}  {:>12}  {:>16}  {:>7}",
        "phase", "", "ns", "share"
    );
    for &(phase, ns) in &a.by_phase {
        let _ = write!(out, "{phase:>14}  {:>12}  {ns:>16}  ", "");
        push_pct(&mut out, ns, a.total_ns);
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "{:>24}  {:>12}  {:>16}  {:>7}",
        "kind", "count", "ns", "share"
    );
    for &(kind, count, ns) in &a.by_kind {
        let _ = write!(out, "{:>24}  {count:>12}  {ns:>16}  ", kind.name());
        push_pct(&mut out, ns, a.total_ns);
        let _ = writeln!(out);
    }
    out
}

pub(crate) fn write_attribution_json(out: &mut String, a: &Attribution, level: usize) {
    json::push_indent(out, level);
    out.push_str("\"attribution\": {");
    json::push_indent(out, level + 1);
    let _ = write!(out, "\"total_ns\": {},", a.total_ns);
    json::push_indent(out, level + 1);
    out.push_str("\"by_subsystem\": [");
    for (i, &(sub, count, ns)) in a.by_subsystem.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_indent(out, level + 2);
        let _ = write!(
            out,
            "{{\"subsystem\": \"{}\", \"count\": {count}, \"ns\": {ns}}}",
            sub.name()
        );
    }
    if !a.by_subsystem.is_empty() {
        json::push_indent(out, level + 1);
    }
    out.push_str("],");
    json::push_indent(out, level + 1);
    out.push_str("\"by_phase\": [");
    for (i, &(phase, ns)) in a.by_phase.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_indent(out, level + 2);
        out.push_str("{\"phase\": ");
        json::push_str_escaped(out, phase);
        let _ = write!(out, ", \"ns\": {ns}}}");
    }
    if !a.by_phase.is_empty() {
        json::push_indent(out, level + 1);
    }
    out.push_str("],");
    json::push_indent(out, level + 1);
    out.push_str("\"by_kind\": [");
    for (i, &(kind, count, ns)) in a.by_kind.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_indent(out, level + 2);
        let _ = write!(
            out,
            "{{\"kind\": \"{}\", \"count\": {count}, \"ns\": {ns}}}",
            kind.name()
        );
    }
    if !a.by_kind.is_empty() {
        json::push_indent(out, level + 1);
    }
    out.push(']');
    json::push_indent(out, level);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{figure_fn, run_figures, RunnerOptions};
    use crate::{
        figure_extras, figures_to_json_pretty, figures_to_json_pretty_with_extras, Figure,
    };
    use o1_obs::attribute;

    fn traced_fig2() -> (Vec<Figure>, Vec<FigureTrace>) {
        let fns = vec![figure_fn("fig2").unwrap()];
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
    fn attribution_table_accounts_all_time() {
        let (_, traces) = traced_fig2();
        assert_eq!(traces.len(), 1);
        let errors = o1_obs::conservation_errors(&traces);
        assert!(errors.is_empty(), "{errors:?}");
        let table = attribution_table_with(&traces[0], &attribute(&traces[0]));
        assert!(table.contains("## attribution — fig2"));
        assert!(table.contains("alloc"), "fig2 drives the alloc phase");
    }

    #[test]
    fn attributed_json_is_plain_json_plus_attribution() {
        let (figures, traces) = traced_fig2();
        let plain = figures_to_json_pretty(&figures);
        let with_attribution = |traces: &[FigureTrace]| {
            figures_to_json_pretty_with_extras(
                &figures,
                &figure_extras(&figures, traces, true, false, false),
            )
        };
        let attributed = with_attribution(&traces);
        assert_ne!(plain, attributed);
        assert!(attributed.contains("\"attribution\": {"));
        assert!(attributed.contains("\"by_subsystem\": ["));
        // Stripped of the attribution members, the documents agree:
        // the figure series themselves are untouched by tracing.
        let stripped = with_attribution(&[]);
        assert_eq!(plain, stripped);
    }
}
