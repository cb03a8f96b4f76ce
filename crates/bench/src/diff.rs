//! Perf-regression diffing over figure metrics.
//!
//! The simulator is deterministic, so any change in a simulated
//! number is a *behavioural* change — which makes an exact diff a
//! meaningful perf gate. This module defines the metric set both
//! sides of the gate share:
//!
//! * per-series **means** of the plotted y values (simulated ns);
//! * per-series **point counts**;
//! * per-`(mechanism, op, phase)` **latency percentiles** and **event
//!   counts** from a traced run.
//!
//! [`metrics_from_value`] extracts those metrics from either document
//! the harness emits — a `figures --json` array or a
//! `BENCH_figures.json` self-profile (whose `"metrics"` section
//! [`write_metrics_json`] produces from the same code) — so
//! `bench-diff` can compare any old/new pairing. [`diff_metrics`]
//! allows no drift: means and percentiles fail when they get worse at
//! all, counts on any change, and a figure, series, or latency row
//! that disappears is always a regression.

use std::fmt::Write as _;

use o1_obs::{latency_rows, FigureTrace};

use crate::json;
use crate::jsonval::Value;
use crate::Figure;

/// Metrics of one plotted series.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesMetric {
    /// Legend label.
    pub label: String,
    /// Number of plotted points.
    pub points: u64,
    /// Mean of the y values (simulated ns).
    pub mean: f64,
}

/// Metrics of one merged latency row.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyMetric {
    /// Mechanism label (`"baseline"`, `"fom-ranges"`, …).
    pub mech: String,
    /// Operation name (`"mmap"`, `"access_hit"`, …).
    pub op: String,
    /// Phase the operations completed in.
    pub phase: String,
    /// Operations recorded (the event count).
    pub count: u64,
    /// Exact sum of all latencies, simulated ns.
    pub sum_ns: u64,
    /// Median latency.
    pub p50: u64,
    /// 90th-percentile latency.
    pub p90: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// 99.9th-percentile latency.
    pub p999: u64,
    /// Exact maximum latency.
    pub max: u64,
}

/// Every metric of one figure.
#[derive(Clone, Debug, PartialEq)]
pub struct FigMetrics {
    /// Canonical figure id.
    pub id: String,
    /// One entry per series, in figure order.
    pub series: Vec<SeriesMetric>,
    /// One entry per `(mechanism, op, phase)` row; empty when the
    /// source run was untraced.
    pub latency: Vec<LatencyMetric>,
}

/// Compute the metric set from in-memory figures and (optional)
/// traces — the producer side of the schema `bench-diff` consumes.
pub fn figure_metrics(figures: &[Figure], traces: &[FigureTrace]) -> Vec<FigMetrics> {
    figures
        .iter()
        .map(|f| {
            let latency = traces
                .iter()
                .find(|t| t.id == f.id)
                .map(|t| {
                    latency_rows(t)
                        .iter()
                        .map(|r| {
                            let (p50, p90, p99, p999) = r.hist.percentiles();
                            LatencyMetric {
                                mech: r.mech.to_string(),
                                op: r.op.name().to_string(),
                                phase: r.phase.to_string(),
                                count: r.hist.count(),
                                sum_ns: r.hist.sum(),
                                p50,
                                p90,
                                p99,
                                p999,
                                max: r.hist.max(),
                            }
                        })
                        .collect()
                })
                .unwrap_or_default();
            FigMetrics {
                id: f.id.clone(),
                series: f.series.iter().map(series_metric).collect(),
                latency,
            }
        })
        .collect()
}

fn series_metric(s: &crate::Series) -> SeriesMetric {
    let n = s.points.len() as u64;
    let sum: f64 = s.points.iter().map(|&(_, y)| y).sum();
    SeriesMetric {
        label: s.label.clone(),
        points: n,
        mean: if n == 0 { 0.0 } else { sum / n as f64 },
    }
}

/// Append the `"metrics"` member of a `BENCH_figures.json` document.
pub fn write_metrics_json(out: &mut String, metrics: &[FigMetrics], level: usize) {
    json::push_indent(out, level);
    out.push_str("\"metrics\": {");
    json::push_indent(out, level + 1);
    out.push_str("\"figures\": [");
    for (i, f) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_indent(out, level + 2);
        out.push_str("{\"id\": ");
        json::push_str_escaped(out, &f.id);
        out.push_str(", \"series\": [");
        for (j, s) in f.series.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::push_indent(out, level + 3);
            out.push_str("{\"label\": ");
            json::push_str_escaped(out, &s.label);
            let _ = write!(out, ", \"points\": {}, \"mean\": ", s.points);
            json::push_f64(out, s.mean);
            out.push('}');
        }
        if !f.series.is_empty() {
            json::push_indent(out, level + 2);
        }
        out.push(']');
        if !f.latency.is_empty() {
            out.push_str(", \"latency\": [");
            for (j, l) in f.latency.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::push_indent(out, level + 3);
                let _ = write!(
                    out,
                    "{{\"mech\": \"{}\", \"op\": \"{}\", \"phase\": ",
                    l.mech, l.op
                );
                json::push_str_escaped(out, &l.phase);
                let _ = write!(
                    out,
                    ", \"count\": {}, \"sum_ns\": {}, \"p50\": {}, \"p90\": {}, \
                     \"p99\": {}, \"p999\": {}, \"max\": {}}}",
                    l.count, l.sum_ns, l.p50, l.p90, l.p99, l.p999, l.max
                );
            }
            json::push_indent(out, level + 2);
            out.push(']');
        }
        out.push('}');
    }
    if !metrics.is_empty() {
        json::push_indent(out, level + 1);
    }
    out.push(']');
    json::push_indent(out, level);
    out.push('}');
}

fn need_str(v: &Value, key: &str, what: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: missing string \"{key}\""))
}

fn need_u64(v: &Value, key: &str, what: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{what}: missing integer \"{key}\""))
}

fn latency_metric(v: &Value) -> Result<LatencyMetric, String> {
    let what = "latency row";
    Ok(LatencyMetric {
        mech: need_str(v, "mech", what)?,
        op: need_str(v, "op", what)?,
        phase: need_str(v, "phase", what)?,
        count: need_u64(v, "count", what)?,
        sum_ns: need_u64(v, "sum_ns", what)?,
        p50: need_u64(v, "p50", what)?,
        p90: need_u64(v, "p90", what)?,
        p99: need_u64(v, "p99", what)?,
        p999: need_u64(v, "p999", what)?,
        max: need_u64(v, "max", what)?,
    })
}

fn latency_metrics(fig: &Value) -> Result<Vec<LatencyMetric>, String> {
    match fig.get("latency").and_then(Value::as_arr) {
        Some(rows) => rows.iter().map(latency_metric).collect(),
        None => Ok(Vec::new()),
    }
}

/// Extract the comparable metric set from a parsed document: either a
/// `figures --json` array (metrics are derived from the raw points)
/// or a `BENCH_figures.json` object (metrics were precomputed into its
/// `"metrics"` section). Both paths yield identical values for the
/// same run, so the two shapes diff against each other freely.
pub fn metrics_from_value(doc: &Value) -> Result<Vec<FigMetrics>, String> {
    match doc {
        Value::Arr(figs) => figs
            .iter()
            .map(|fig| {
                let id = need_str(fig, "id", "figure")?;
                let series = fig
                    .get("series")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("figure {id}: missing \"series\""))?
                    .iter()
                    .map(|s| {
                        let label = need_str(s, "label", "series")?;
                        let points = s
                            .get("points")
                            .and_then(Value::as_arr)
                            .ok_or_else(|| format!("series {label}: missing \"points\""))?;
                        let mut sum = 0.0f64;
                        for p in points {
                            let xy = p.as_arr().filter(|xy| xy.len() == 2).ok_or_else(|| {
                                format!("series {label}: point is not an [x, y] pair")
                            })?;
                            sum += xy[1]
                                .as_f64()
                                .ok_or_else(|| format!("series {label}: non-numeric y"))?;
                        }
                        let n = points.len() as u64;
                        Ok(SeriesMetric {
                            label,
                            points: n,
                            mean: if n == 0 { 0.0 } else { sum / n as f64 },
                        })
                    })
                    .collect::<Result<_, String>>()?;
                Ok(FigMetrics {
                    id,
                    series,
                    latency: latency_metrics(fig)?,
                })
            })
            .collect(),
        Value::Obj(_) => {
            let figs = doc
                .get("metrics")
                .and_then(|m| m.get("figures"))
                .and_then(Value::as_arr)
                .ok_or("bench file has no \"metrics\".\"figures\" section (regenerate with a schema v2 `figures` binary)")?;
            figs.iter()
                .map(|fig| {
                    let id = need_str(fig, "id", "metrics figure")?;
                    let series = fig
                        .get("series")
                        .and_then(Value::as_arr)
                        .ok_or_else(|| format!("metrics figure {id}: missing \"series\""))?
                        .iter()
                        .map(|s| {
                            let label = need_str(s, "label", "metrics series")?;
                            Ok(SeriesMetric {
                                label,
                                points: need_u64(s, "points", "metrics series")?,
                                mean: s
                                    .get("mean")
                                    .and_then(Value::as_f64)
                                    .ok_or("metrics series: missing \"mean\"")?,
                            })
                        })
                        .collect::<Result<_, String>>()?;
                    Ok(FigMetrics {
                        id,
                        series,
                        latency: latency_metrics(fig)?,
                    })
                })
                .collect()
        }
        _ => Err("document is neither a figure array nor a bench object".into()),
    }
}

/// Outcome of a diff: every regression, one line each.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Individual metric comparisons performed.
    pub comparisons: u64,
    /// Human-readable regression lines; empty means the gate passes.
    pub regressions: Vec<String>,
    /// Non-gating observations (new figures, improvements).
    pub notes: Vec<String>,
}

impl DiffReport {
    /// True iff nothing regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn permille_change(old: f64, new: f64) -> i64 {
    if old == 0.0 {
        if new == 0.0 {
            0
        } else {
            i64::MAX
        }
    } else {
        ((new - old) / old * 1000.0).round() as i64
    }
}

/// Compare `new` against `old`. Simulated numbers are deterministic,
/// so any drift is a behavioural change: no metric may get worse and
/// no count may move. Every figure, series, and
/// latency row of `old` must still exist in `new`; items only in
/// `new` are reported as notes, never as regressions (growth is fine,
/// silent loss of coverage is not).
pub fn diff_metrics(old: &[FigMetrics], new: &[FigMetrics]) -> DiffReport {
    let mut r = DiffReport::default();
    for of in old {
        let Some(nf) = new.iter().find(|nf| nf.id == of.id) else {
            r.regressions
                .push(format!("{}: figure missing from new run", of.id));
            continue;
        };
        for os in &of.series {
            let Some(ns) = nf.series.iter().find(|ns| ns.label == os.label) else {
                r.regressions.push(format!(
                    "{}/{}: series missing from new run",
                    of.id, os.label
                ));
                continue;
            };
            r.comparisons += 2;
            if os.points != ns.points {
                r.regressions.push(format!(
                    "{}/{}: point count {} -> {}",
                    of.id, os.label, os.points, ns.points
                ));
            }
            if ns.mean > os.mean {
                r.regressions.push(format!(
                    "{}/{}: mean {} -> {} ({:+}‰)",
                    of.id,
                    os.label,
                    os.mean,
                    ns.mean,
                    permille_change(os.mean, ns.mean)
                ));
            } else if ns.mean < os.mean {
                r.notes.push(format!(
                    "{}/{}: mean improved {} -> {} ({:+}‰)",
                    of.id,
                    os.label,
                    os.mean,
                    ns.mean,
                    permille_change(os.mean, ns.mean)
                ));
            }
        }
        for ol in &of.latency {
            let key = format!(
                "{}/{}[{} {} {}]",
                of.id, "latency", ol.mech, ol.op, ol.phase
            );
            let Some(nl) = nf
                .latency
                .iter()
                .find(|nl| nl.mech == ol.mech && nl.op == ol.op && nl.phase == ol.phase)
            else {
                if nf.latency.is_empty() {
                    // The whole new run is untraced; one note, not a
                    // regression per row (the gate should trace).
                    continue;
                }
                r.regressions
                    .push(format!("{key}: latency row missing from new run"));
                continue;
            };
            r.comparisons += 5;
            if ol.count != nl.count {
                r.regressions
                    .push(format!("{key}: event count {} -> {}", ol.count, nl.count));
            }
            for (name, o, n) in [
                ("p50", ol.p50, nl.p50),
                ("p99", ol.p99, nl.p99),
                ("p999", ol.p999, nl.p999),
                ("max", ol.max, nl.max),
            ] {
                if n > o {
                    r.regressions.push(format!(
                        "{key}: {name} {o} -> {n} ns ({:+}‰)",
                        permille_change(o as f64, n as f64)
                    ));
                }
            }
        }
        if of.latency.is_empty() && !nf.latency.is_empty() {
            r.notes.push(format!(
                "{}: new run adds latency rows (old was untraced)",
                of.id
            ));
        }
        if !of.latency.is_empty() && nf.latency.is_empty() {
            r.notes.push(format!(
                "{}: new run is untraced; {} latency rows not compared",
                of.id,
                of.latency.len()
            ));
        }
    }
    for nf in new {
        if !old.iter().any(|of| of.id == nf.id) {
            r.notes
                .push(format!("{}: new figure (not in old run)", nf.id));
        }
    }
    r
}

/// One dated entry of the perf trajectory kept in
/// `BENCH_figures.json`.
#[derive(Clone, Debug)]
pub struct TrajectoryEntry {
    /// Civil date, `YYYY-MM-DD`.
    pub date: String,
    /// Path of the old (reference) document.
    pub old: String,
    /// Path of the new (candidate) document.
    pub new: String,
    /// Metric comparisons performed.
    pub comparisons: u64,
    /// Regressions found (0 on a passing gate).
    pub regressions: u64,
    /// Wall-clock milliseconds of the candidate run over the
    /// *comparable* figure set — see [`full_suite_ms`]. `None` when
    /// the candidate document carries no wall-clock samples.
    pub full_suite_ms: Option<f64>,
    /// Free-form note.
    pub note: String,
}

impl TrajectoryEntry {
    fn to_value(&self) -> Value {
        let mut members = vec![
            ("date".into(), Value::Str(self.date.clone())),
            ("old".into(), Value::Str(self.old.clone())),
            ("new".into(), Value::Str(self.new.clone())),
            ("comparisons".into(), Value::num_u64(self.comparisons)),
            ("regressions".into(), Value::num_u64(self.regressions)),
        ];
        if let Some(ms) = self.full_suite_ms {
            members.push(("full_suite_ms".into(), Value::num_f64(ms)));
        }
        members.push(("note".into(), Value::Str(self.note.clone())));
        Value::Obj(members)
    }
}

/// Full-suite wall clock of a candidate self-profile, scoped to the
/// figures the reference run also has: for every figure of `doc`
/// whose id appears in `old`, take the fastest wall-clock sample
/// across all runs and repeats, and sum those minima (milliseconds).
/// Restricting the sum to the comparable set keeps trajectory entries
/// meaningful across PRs that *add* figures — new figures add work on
/// top, they don't slow the figures both sides share. `None` when
/// `doc` is not a bench self-profile (e.g. a `figures --json` array)
/// or holds no samples for any comparable figure.
pub fn full_suite_ms(doc: &Value, old: &[FigMetrics]) -> Option<f64> {
    let runs = doc.get("runs")?.as_arr()?;
    let mut best: Vec<(&str, f64)> = Vec::new();
    for run in runs {
        for fig in run
            .get("figures")
            .and_then(Value::as_arr)
            .into_iter()
            .flatten()
        {
            let Some(id) = fig.get("id").and_then(Value::as_str) else {
                continue;
            };
            if !old.iter().any(|f| f.id == id) {
                continue;
            }
            for w in fig
                .get("wall_ms")
                .and_then(Value::as_arr)
                .into_iter()
                .flatten()
            {
                let Some(ms) = w.as_f64() else { continue };
                match best.iter_mut().find(|(b, _)| *b == id) {
                    Some((_, b)) => *b = b.min(ms),
                    None => best.push((id, ms)),
                }
            }
        }
    }
    if best.is_empty() {
        None
    } else {
        Some(best.iter().map(|&(_, ms)| ms).sum())
    }
}

/// Append `entry` to the `"trajectory"` array of the bench file at
/// `path` (creating the array if absent) and rewrite the file. All
/// other members round-trip through the parser untouched — numbers
/// keep their exact source text.
pub fn append_trajectory(path: &str, entry: &TrajectoryEntry) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut doc = crate::jsonval::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let Value::Obj(members) = &mut doc else {
        return Err(format!("{path}: not a JSON object"));
    };
    match members.iter_mut().find(|(k, _)| k == "trajectory") {
        Some((_, Value::Arr(items))) => items.push(entry.to_value()),
        Some(_) => return Err(format!("{path}: \"trajectory\" is not an array")),
        None => members.push(("trajectory".into(), Value::Arr(vec![entry.to_value()]))),
    }
    let mut out = String::new();
    write_bench_value(&mut out, &doc);
    out.push('\n');
    std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))
}

/// Pretty-print a bench document: top-level members one per line,
/// `"trajectory"` entries one compact object per line, everything
/// else compact. Matches the `": "` member separator the figures
/// writer (and the CI schema grep) relies on.
fn write_bench_value(out: &mut String, doc: &Value) {
    let Value::Obj(members) = doc else {
        crate::jsonval::write_compact(out, doc);
        return;
    };
    out.push('{');
    for (i, (k, v)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_indent(out, 1);
        json::push_str_escaped(out, k);
        out.push_str(": ");
        match (k.as_str(), v) {
            ("trajectory", Value::Arr(items)) => {
                out.push('[');
                for (j, item) in items.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    json::push_indent(out, 2);
                    crate::jsonval::write_compact(out, item);
                }
                if !items.is_empty() {
                    json::push_indent(out, 1);
                }
                out.push(']');
            }
            _ => crate::jsonval::write_compact(out, v),
        }
    }
    out.push_str("\n}");
}

/// Today's civil date in UTC as `YYYY-MM-DD` (no external crates; the
/// day boundary is all the trajectory needs).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch to (year, month, day); Howard Hinnant's
/// `civil_from_days` algorithm.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonval::parse;
    use crate::runner::{figure_fn, run_figures, RunnerOptions};

    fn fig_metrics(id: &str, trace: bool) -> Vec<FigMetrics> {
        let fns = vec![figure_fn(id).unwrap()];
        let report = run_figures(
            &fns,
            &RunnerOptions {
                threads: 1,
                trace,
                ..Default::default()
            },
        );
        figure_metrics(&report.figures, &report.traces)
    }

    #[test]
    fn figure_json_and_metrics_json_extract_identically() {
        let fns = vec![figure_fn("fig2").unwrap()];
        let report = run_figures(
            &fns,
            &RunnerOptions {
                threads: 1,
                trace: true,
                ..Default::default()
            },
        );
        let (figures, traces) = (report.figures, report.traces);
        let direct = figure_metrics(&figures, &traces);

        // Through the figure-array shape.
        let extras = crate::latency::figure_extras(&figures, &traces, false, true, false);
        let fig_json = crate::latency::figures_to_json_pretty_with_extras(&figures, &extras);
        let from_array = metrics_from_value(&parse(&fig_json).unwrap()).unwrap();
        assert_eq!(direct, from_array);

        // Through the bench-object shape.
        let mut bench = String::from("{");
        write_metrics_json(&mut bench, &direct, 1);
        bench.push_str("\n}");
        let from_obj = metrics_from_value(&parse(&bench).unwrap()).unwrap();
        assert_eq!(direct, from_obj);
        assert!(!direct[0].latency.is_empty(), "traced run has latency rows");
    }

    #[test]
    fn identical_runs_pass_and_injected_regressions_fail() {
        let old = fig_metrics("fig2", true);
        let same = diff_metrics(&old, &old);
        assert!(same.passed(), "{:?}", same.regressions);
        assert!(same.comparisons > 0);

        // Worsen one mean and one p99, drop one latency row.
        let mut new = old.clone();
        new[0].series[0].mean *= 1.10;
        new[0].latency[0].p99 += new[0].latency[0].p99 / 2 + 1;
        new[0].latency.pop();
        let bad = diff_metrics(&old, &new);
        assert!(!bad.passed());
        assert!(
            bad.regressions.iter().any(|l| l.contains("mean")),
            "{:?}",
            bad.regressions
        );
        assert!(
            bad.regressions.iter().any(|l| l.contains("p99 ")),
            "{:?}",
            bad.regressions
        );
        assert!(
            bad.regressions.iter().any(|l| l.contains("missing")),
            "{:?}",
            bad.regressions
        );

        // Improvements are notes, not regressions.
        let mut faster = old.clone();
        for s in &mut faster[0].series {
            s.mean *= 0.5;
        }
        let good = diff_metrics(&old, &faster);
        assert!(good.passed());
        assert!(good.notes.iter().any(|l| l.contains("improved")));
    }

    #[test]
    fn any_worsening_or_count_drift_fails() {
        let old = fig_metrics("fig2", true);
        let mut slower = old.clone();
        slower[0].series[0].mean *= 1.0001;
        assert!(!diff_metrics(&old, &slower).passed());
        let mut fewer = old.clone();
        fewer[0].series[0].points -= 1;
        assert!(
            !diff_metrics(&old, &fewer).passed(),
            "counts gate both ways"
        );
        let mut more = old.clone();
        more[0].latency[0].count += 1;
        assert!(!diff_metrics(&old, &more).passed());
    }

    #[test]
    fn missing_figure_is_a_regression_and_new_figure_is_a_note() {
        let old = fig_metrics("fig1a", false);
        let r = diff_metrics(&old, &[]);
        assert!(!r.passed());
        let r = diff_metrics(&[], &old);
        assert!(r.passed());
        assert_eq!(r.notes.len(), 1);
    }

    #[test]
    fn trajectory_appends_and_preserves_other_members() {
        let dir = std::env::temp_dir().join("o1mem-diff-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        std::fs::write(
            path,
            "{\n  \"schema\": \"o1mem/bench-figures/v2\",\n  \"repeat\": 1,\n  \"runs\": [{\"threads\": 2, \"total_wall_ms\": 1.5}]\n}\n",
        )
        .unwrap();
        let entry = TrajectoryEntry {
            date: "2026-08-05".into(),
            old: "BENCH_figures.json".into(),
            new: "new.json".into(),
            comparisons: 42,
            regressions: 0,
            full_suite_ms: Some(123.456),
            note: "unit test".into(),
        };
        append_trajectory(path, &entry).unwrap();
        append_trajectory(path, &entry).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(
            text.contains("\"schema\": \"o1mem/bench-figures/v2\""),
            "{text}"
        );
        assert!(
            text.contains("\"total_wall_ms\":1.5"),
            "exact number kept: {text}"
        );
        let doc = parse(&text).unwrap();
        let traj = doc.get("trajectory").unwrap().as_arr().unwrap();
        assert_eq!(traj.len(), 2);
        assert_eq!(traj[0].get("date").unwrap().as_str(), Some("2026-08-05"));
        assert_eq!(traj[1].get("comparisons").unwrap().as_u64(), Some(42));
        assert_eq!(
            traj[0].get("full_suite_ms").unwrap().as_f64(),
            Some(123.456),
            "wall clock is a structured member, not note prose: {text}"
        );
    }

    #[test]
    fn full_suite_ms_scopes_to_comparable_figures() {
        let doc = parse(
            "{\"runs\": [\
               {\"figures\": [{\"id\": \"fig1a\", \"wall_ms\": [5.0, 3.0]},\
                              {\"id\": \"fig_brand_new\", \"wall_ms\": [100.0]}]},\
               {\"figures\": [{\"id\": \"fig1a\", \"wall_ms\": [4.0]}]}]}",
        )
        .unwrap();
        let old = vec![FigMetrics {
            id: "fig1a".into(),
            series: Vec::new(),
            latency: Vec::new(),
        }];
        // min over runs × repeats of the comparable figure only.
        assert_eq!(full_suite_ms(&doc, &old), Some(3.0));
        // A raw figure array has no wall samples.
        assert_eq!(full_suite_ms(&parse("[]").unwrap(), &old), None);
        // No comparable figure ⇒ no number (not 0.0).
        assert_eq!(full_suite_ms(&doc, &[]), None);
    }

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(20_674), (2026, 8, 9));
        let today = today_utc();
        assert_eq!(today.len(), 10);
        assert_eq!(today.as_bytes()[4], b'-');
    }
}
