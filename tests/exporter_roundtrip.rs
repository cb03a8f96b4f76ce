//! Round-trip gate for the trace exporters: `trace.jsonl` and
//! `chrome_trace.json` were write-only until now, so a formatting bug
//! could silently corrupt every downstream analysis. Parse both
//! documents back (with the bench crate's own JSON reader) and check
//! them against the in-memory ledger: event counts, per-figure cost
//! sums, and per-machine span coverage must all survive the trip
//! exactly — including the sub-microsecond digits Chrome timestamps
//! split off.

use o1_bench::jsonval::{parse, Value};
use o1_bench::runner::{figure_fn, run_figures, RunnerOptions};
use o1_obs::{export_chrome_trace, export_jsonl, FigureTrace};

fn traced_subset() -> Vec<FigureTrace> {
    let fns: Vec<_> = ["fig1b", "fig2"]
        .iter()
        .map(|id| figure_fn(id).expect("known id"))
        .collect();
    run_figures(
        &fns,
        &RunnerOptions {
            threads: 2,
            trace: true,
            ..Default::default()
        },
    )
    .traces()
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
    let text = export_jsonl(&traces);

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
    let doc = parse(&export_chrome_trace(&traces)).expect("chrome trace is valid JSON");
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
