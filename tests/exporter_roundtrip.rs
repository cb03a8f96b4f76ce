//! Round-trip gate for the trace and timeline exporters: a formatting
//! bug in a write-only file could silently corrupt every downstream
//! analysis. Parse all four documents back (with the bench crate's
//! own JSON reader) and check them against the in-memory ledger:
//! event counts, per-figure cost sums, per-machine span coverage and
//! every gauge point must survive the trip exactly — including the
//! sub-microsecond digits Chrome timestamps split off.

use std::collections::BTreeSet;
use std::fmt;

use o1_bench::jsonval::{parse, Value};
use o1_bench::runner::{figure_fn, run_figures, RunnerOptions};
use o1_obs::{
    export_chrome_trace, export_jsonl, export_timeline_chrome, export_timeline_jsonl, FigureTrace,
};

/// Trace `ids` with gauge timelines sampled every `timeline_ns`
/// simulated ns (0 = none).
fn traced(ids: &[&str], timeline_ns: u64) -> Vec<FigureTrace> {
    let fns: Vec<_> = ids
        .iter()
        .map(|id| figure_fn(id).expect("known id"))
        .collect();
    run_figures(
        &fns,
        &RunnerOptions {
            threads: 2,
            trace: true,
            timeline_ns,
            ..Default::default()
        },
    )
    .traces
}

fn traced_subset() -> Vec<FigureTrace> {
    traced(&["fig1b", "fig2"], 0)
}

/// What `export` writes for `traces`, collected in a `String`.
fn render(
    export: fn(&mut dyn fmt::Write, &[FigureTrace]) -> fmt::Result,
    traces: &[FigureTrace],
) -> String {
    let mut out = String::new();
    export(&mut out, traces).expect("a String sink never fails");
    out
}

/// Parse a Chrome microsecond timestamp (`"12.345"` = 12345 ns) back
/// to exact nanoseconds, digit-wise — `f64` would round large clocks.
fn chrome_us_to_ns(raw: &str) -> u64 {
    let (us, frac) = raw.split_once('.').expect("chrome timestamps carry .nnn");
    assert_eq!(frac.len(), 3, "exactly three sub-microsecond digits: {raw}");
    us.parse::<u64>().unwrap() * 1000 + frac.parse::<u64>().unwrap()
}

#[test]
fn jsonl_round_trips_counts_and_cycle_sums() {
    let traces = traced_subset();
    let text = render(export_jsonl, &traces);

    // Every line is a standalone JSON object.
    let lines: Vec<Value> = text
        .lines()
        .map(|l| parse(l).expect("each JSONL line parses"))
        .collect();
    let expected_rows: usize = traces
        .iter()
        .flat_map(|t| &t.machines)
        .map(|m| m.rows.len())
        .sum();
    assert_eq!(
        lines.len(),
        traces.len() + expected_rows,
        "one summary line per figure plus one line per ledger row"
    );

    for t in &traces {
        // The summary line mirrors the in-memory totals.
        let summary = lines
            .iter()
            .find(|l| {
                l.get("fig").and_then(Value::as_str) == Some(&t.id) && l.get("machines").is_some()
            })
            .expect("summary line present");
        assert_eq!(
            summary.get("machines").unwrap().as_u64(),
            Some(t.machines.len() as u64)
        );
        assert_eq!(
            summary.get("total_ns").unwrap().as_u64(),
            Some(t.total_ns())
        );
        assert_eq!(summary.get("conserved"), Some(&Value::Bool(true)));

        // Row lines reproduce every ledger entry: equal event counts
        // and an ns sum equal to the figure's simulated time.
        let rows: Vec<&Value> = lines
            .iter()
            .filter(|l| {
                l.get("fig").and_then(Value::as_str) == Some(&t.id) && l.get("kind").is_some()
            })
            .collect();
        let ledger_rows: usize = t.machines.iter().map(|m| m.rows.len()).sum();
        assert_eq!(rows.len(), ledger_rows);
        let ns_sum: u64 = rows
            .iter()
            .map(|r| r.get("ns").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(
            ns_sum,
            t.total_ns(),
            "{}: exported ns sum == simulated clock",
            t.id
        );
        let count_sum: u64 = rows
            .iter()
            .map(|r| r.get("count").unwrap().as_u64().unwrap())
            .sum();
        let ledger_count: u64 = t
            .machines
            .iter()
            .flat_map(|m| &m.rows)
            .map(|r| r.count)
            .sum();
        assert_eq!(
            count_sum, ledger_count,
            "{}: exported event counts match",
            t.id
        );
    }
}

#[test]
fn chrome_trace_round_trips_spans_exactly() {
    let traces = traced_subset();
    let doc = parse(&render(export_chrome_trace, &traces)).expect("chrome trace is valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();

    let spans: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .collect();
    let expected_spans: usize = traces
        .iter()
        .flat_map(|t| &t.machines)
        .map(|m| m.spans.len())
        .sum();
    assert_eq!(
        spans.len(),
        expected_spans,
        "one complete event per phase span"
    );

    // Metadata maps pid -> figure id; check it covers every figure.
    for (pid, t) in traces.iter().enumerate() {
        let name = events
            .iter()
            .find(|e| {
                e.get("name").and_then(Value::as_str) == Some("process_name")
                    && e.get("pid").and_then(Value::as_u64) == Some(pid as u64)
            })
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get("name"))
            .and_then(Value::as_str);
        assert_eq!(name, Some(t.id.as_str()));

        // Per machine, the exported durations must sum back to the
        // exact simulated clock — ns precision through the µs split.
        for (tid, m) in t.machines.iter().enumerate() {
            let dur_ns: u64 = spans
                .iter()
                .filter(|e| {
                    e.get("pid").and_then(Value::as_u64) == Some(pid as u64)
                        && e.get("tid").and_then(Value::as_u64) == Some(tid as u64)
                })
                .map(|e| {
                    let Some(Value::Num { raw, .. }) = e.get("dur") else {
                        panic!("span without dur");
                    };
                    chrome_us_to_ns(raw)
                })
                .sum();
            assert_eq!(
                dur_ns, m.clock_ns,
                "{} machine {tid}: span durations cover the clock exactly",
                t.id
            );
        }
    }
}

/// The pid each `process_name` record in a Chrome document gives a
/// figure id.
fn process_pids(events: &[Value]) -> Vec<(String, u64)> {
    events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
        .map(|e| {
            let id = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str);
            let pid = e.get("pid").and_then(Value::as_u64);
            (id.unwrap().to_string(), pid.unwrap())
        })
        .collect()
}

#[test]
fn timeline_exports_round_trip_every_point() {
    // `fig_meta` builds no machines, so it samples nothing and has no
    // process in the timeline's Chrome document; `fig_churn` after it
    // keeps pid 1 there, as in the trace's.
    let traces = traced(&["fig_meta", "fig_churn"], 100_000);
    let series: Vec<_> = traces
        .iter()
        .flat_map(|t| {
            t.machines.iter().enumerate().flat_map(move |(mi, m)| {
                m.timeline
                    .iter()
                    .map(move |g| (t.id.as_str(), mi as u64, g))
            })
        })
        .collect();
    assert!(series.len() > 1, "fig_churn samples its gauges");

    // timeline.jsonl: one line per (figure, machine, gauge), in ledger
    // order, carrying every point exactly.
    let text = render(export_timeline_jsonl, &traces);
    let lines: Vec<Value> = text
        .lines()
        .map(|l| parse(l).expect("each JSONL line parses"))
        .collect();
    assert_eq!(lines.len(), series.len(), "one line per series");
    let mut keys = BTreeSet::new();
    for (line, &(fig, mi, g)) in lines.iter().zip(&series) {
        let key = (
            line.get("fig").and_then(Value::as_str).unwrap(),
            line.get("machine").and_then(Value::as_u64).unwrap(),
            line.get("gauge").and_then(Value::as_str).unwrap(),
        );
        assert_eq!(key, (fig, mi, g.name));
        assert!(keys.insert(key), "{key:?} has one line");
        let points: Vec<(u64, u64)> = line
            .get("points")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|p| match p.as_arr().unwrap() {
                [ns, v] => (ns.as_u64().unwrap(), v.as_u64().unwrap()),
                other => panic!("a point is [ns, value], got {other:?}"),
            })
            .collect();
        assert_eq!(points, g.points, "{key:?}: every point exact");
    }

    // timeline_chrome.json: one counter event per point, in the same
    // order, whose µs timestamp converts back to the point's ns.
    let doc = parse(&render(export_timeline_chrome, &traces)).expect("valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let counters: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
        .collect();
    let expected = series.iter().flat_map(|&(fig, mi, g)| {
        let pid = traces.iter().position(|t| t.id == fig).unwrap() as u64;
        g.points
            .iter()
            .map(move |&(ns, v)| (pid, mi, g.name, ns, v))
    });
    let mut n = 0;
    for (e, (pid, tid, name, ns, v)) in counters.iter().zip(expected) {
        let Some(Value::Num { raw, .. }) = e.get("ts") else {
            panic!("counter event without ts");
        };
        let got = (
            e.get("pid").and_then(Value::as_u64).unwrap(),
            e.get("tid").and_then(Value::as_u64).unwrap(),
            e.get("name").and_then(Value::as_str).unwrap(),
            chrome_us_to_ns(raw),
            e.get("args")
                .and_then(|a| a.get("value"))
                .and_then(Value::as_u64)
                .unwrap(),
        );
        assert_eq!(got, (pid, tid, name, ns, v));
        n += 1;
    }
    let points: usize = series.iter().map(|(_, _, g)| g.points.len()).sum();
    assert_eq!((counters.len(), n), (points, points), "one event per point");

    // Each figure with a timeline has the pid it has in the trace.
    let trace_doc = parse(&render(export_chrome_trace, &traces)).expect("valid JSON");
    let trace_pids = process_pids(trace_doc.get("traceEvents").unwrap().as_arr().unwrap());
    let timeline_pids = process_pids(events);
    assert_eq!(timeline_pids, [("fig_churn".to_string(), 1)]);
    for p in &timeline_pids {
        assert!(trace_pids.contains(p), "{p:?} is the trace's pid too");
    }
}
