//! Deterministic exporters: JSONL for grepping, Chrome trace-event
//! JSON for `chrome://tracing` / Perfetto.
//!
//! Everything here is a pure function of the collected traces, which
//! are themselves pure functions of the experiments — so both formats
//! are byte-identical across runs and `--threads` settings. All
//! numbers are integers (simulated ns, or ns split into µs + a
//! three-digit fraction for Chrome's microsecond timestamps); no float
//! formatting is involved.

use std::fmt::Write as _;

use crate::ledger::FigureTrace;

/// Escape `s` per RFC 8259 and append it, quoted.
pub fn json_escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Chrome wants microsecond timestamps; emit simulated ns exactly as
/// `µs.nnn` so no precision is lost and no float formatting runs.
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// One JSON line per figure summary, then one line per aggregated
/// ledger row: figure, machine index, phase, subsystem, kind, count,
/// simulated ns.
pub fn export_jsonl(traces: &[FigureTrace]) -> String {
    let mut out = String::new();
    for t in traces {
        let conserved = t.machines.iter().all(|m| m.conserves());
        out.push_str("{\"fig\":");
        json_escape(&mut out, &t.id);
        let _ = writeln!(
            out,
            ",\"machines\":{},\"total_ns\":{},\"conserved\":{}}}",
            t.machines.len(),
            t.total_ns(),
            conserved
        );
        for (mi, m) in t.machines.iter().enumerate() {
            for r in &m.rows {
                out.push_str("{\"fig\":");
                json_escape(&mut out, &t.id);
                let _ = write!(out, ",\"machine\":{mi},\"phase\":");
                json_escape(&mut out, r.phase);
                let _ = writeln!(
                    out,
                    ",\"subsystem\":\"{}\",\"kind\":\"{}\",\"count\":{},\"ns\":{}}}",
                    r.kind.subsystem().name(),
                    r.kind.name(),
                    r.count,
                    r.ns
                );
            }
        }
    }
    out
}

/// Chrome trace-event JSON: one process per figure, one thread per
/// machine, one complete (`"X"`) event per phase span on the simulated
/// clock, with the span's subsystem breakdown attached as args.
pub fn export_chrome_trace(traces: &[FigureTrace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut event = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n ");
    };
    for (pid, t) in traces.iter().enumerate() {
        event(&mut out);
        out.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
        let _ = write!(out, "{pid},\"tid\":0,\"args\":{{\"name\":");
        json_escape(&mut out, &t.id);
        out.push_str("}}");
        for (tid, m) in t.machines.iter().enumerate() {
            event(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"machine {tid}\"}}}}"
            );
            for span in &m.spans {
                event(&mut out);
                out.push_str("{\"ph\":\"X\",\"cat\":\"phase\",\"name\":");
                json_escape(&mut out, span.label);
                let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid},\"ts\":");
                push_us(&mut out, span.start_ns);
                out.push_str(",\"dur\":");
                push_us(&mut out, span.end_ns - span.start_ns);
                out.push_str(",\"args\":{");
                let mut first_arg = true;
                for r in m.rows.iter().filter(|r| r.phase == span.label) {
                    if !first_arg {
                        out.push(',');
                    }
                    first_arg = false;
                    let _ = write!(out, "\"{}\":{}", r.kind.name(), r.ns);
                }
                out.push_str("}}");
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// One JSON line per gauge series: figure, machine index, gauge name,
/// and the full `[[ns, value], …]` point list. Machines without
/// timelines contribute nothing, so the file is empty (not absent)
/// when sampling was off.
pub fn export_timeline_jsonl(traces: &[FigureTrace]) -> String {
    let mut out = String::new();
    for t in traces {
        for (mi, m) in t.machines.iter().enumerate() {
            for g in &m.timeline {
                out.push_str("{\"fig\":");
                json_escape(&mut out, &t.id);
                let _ = write!(out, ",\"machine\":{mi},\"gauge\":");
                json_escape(&mut out, g.name);
                out.push_str(",\"points\":[");
                for (i, &(ns, v)) in g.points.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{ns},{v}]");
                }
                out.push_str("]}\n");
            }
        }
    }
    out
}

/// Chrome trace-event JSON carrying the gauge timelines as counter
/// (`"C"`) events: same process-per-figure / thread-per-machine layout
/// as [`export_chrome_trace`], so the counter tracks line up under the
/// phase spans when both files are loaded.
pub fn export_timeline_chrome(traces: &[FigureTrace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut event = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n ");
    };
    for (pid, t) in traces.iter().enumerate() {
        if t.machines.iter().all(|m| m.timeline.is_empty()) {
            continue;
        }
        event(&mut out);
        out.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
        let _ = write!(out, "{pid},\"tid\":0,\"args\":{{\"name\":");
        json_escape(&mut out, &t.id);
        out.push_str("}}");
        for (tid, m) in t.machines.iter().enumerate() {
            for g in &m.timeline {
                for &(ns, v) in &g.points {
                    event(&mut out);
                    out.push_str("{\"ph\":\"C\",\"cat\":\"gauge\",\"name\":");
                    json_escape(&mut out, g.name);
                    let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid},\"ts\":");
                    push_us(&mut out, ns);
                    let _ = write!(out, ",\"args\":{{\"value\":{v}}}}}");
                }
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::CostKind;
    use crate::ledger::MachineTrace;

    fn sample() -> Vec<FigureTrace> {
        let mut t = MachineTrace::with_timeline(0);
        t.record(CostKind::Syscall, 1, 500);
        t.set_phase("access", 500);
        t.record(CostKind::TlbFill, 2, 10);
        vec![FigureTrace {
            id: "fig1a".into(),
            machines: vec![t.finish(510)],
        }]
    }

    #[test]
    fn jsonl_has_summary_then_rows_and_is_deterministic() {
        let traces = sample();
        let a = export_jsonl(&traces);
        let b = export_jsonl(&traces);
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"fig\":\"fig1a\",\"machines\":1,\"total_ns\":510,\"conserved\":true}"
        );
        assert!(
            lines[1].contains("\"subsystem\":\"cpu\",\"kind\":\"syscall\",\"count\":1,\"ns\":500")
        );
        assert!(lines[2].contains("\"phase\":\"access\""));
    }

    fn sample_with_timeline() -> Vec<FigureTrace> {
        let mut t = MachineTrace::with_timeline(100);
        t.record(CostKind::Syscall, 1, 500);
        t.timeline_sample(0, &[("mmu.tlb_entries", 0), ("kernel.procs_live", 1)]);
        t.timeline_sample(120, &[("mmu.tlb_entries", 7), ("kernel.procs_live", 1)]);
        t.timeline_sample(130, &[("mmu.tlb_entries", 9)]); // not due
        vec![FigureTrace {
            id: "figT".into(),
            machines: vec![t.finish(500)],
        }]
    }

    #[test]
    fn timeline_jsonl_lists_points_per_gauge() {
        let traces = sample_with_timeline();
        let a = export_timeline_jsonl(&traces);
        assert_eq!(a, export_timeline_jsonl(&traces));
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 2, "{a}");
        // Name-sorted: kernel.* before mmu.*.
        assert_eq!(
            lines[0],
            "{\"fig\":\"figT\",\"machine\":0,\"gauge\":\"kernel.procs_live\",\
             \"points\":[[0,1],[120,1]]}"
        );
        assert_eq!(
            lines[1],
            "{\"fig\":\"figT\",\"machine\":0,\"gauge\":\"mmu.tlb_entries\",\
             \"points\":[[0,0],[120,7]]}"
        );
        // Sampling off: empty file, not a partial one.
        assert_eq!(export_timeline_jsonl(&sample()), "");
    }

    #[test]
    fn timeline_chrome_is_counter_events() {
        let out = export_timeline_chrome(&sample_with_timeline());
        assert!(out.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(out.ends_with("]}\n"));
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.contains("\"name\":\"mmu.tlb_entries\",\"pid\":0,\"tid\":0,\"ts\":0.120"));
        assert!(out.contains("\"args\":{\"value\":7}"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(out.matches(open).count(), out.matches(close).count());
        }
        // No timelines: header and footer only, no stray comma.
        let empty = export_timeline_chrome(&sample());
        assert_eq!(empty, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let out = export_chrome_trace(&sample());
        assert!(out.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(out.ends_with("]}\n"));
        assert!(out.contains("\"process_name\""));
        assert!(out.contains("\"ts\":0.000,\"dur\":0.500"));
        assert!(out.contains("\"name\":\"access\""));
        assert!(out.contains("\"tlb_fill\":10"));
        // Balanced braces/brackets (cheap well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            let o = out.matches(open).count();
            let c = out.matches(close).count();
            assert_eq!(o, c, "unbalanced {open}{close}");
        }
    }
}
