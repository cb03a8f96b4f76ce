//! Deterministic exporters: JSONL for grepping, Chrome trace-event
//! JSON for `chrome://tracing` / Perfetto.
//!
//! Everything here is a pure function of the collected traces, which
//! are themselves pure functions of the experiments — so both formats
//! are byte-identical across runs and `--threads` settings. All
//! numbers are integers (simulated ns, or ns split into µs + a
//! three-digit fraction for Chrome's microsecond timestamps); no float
//! formatting is involved.
//!
//! Each exporter streams into the caller's [`fmt::Write`] sink (a
//! `String`, a buffered file, a hashing sink) and returns its error.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

use crate::ledger::FigureTrace;

/// Escape `s` per RFC 8259 and write it, quoted.
pub fn json_escape(out: &mut dyn Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut rest = s;
    while let Some(i) = rest.find(|c: char| c < ' ' || c == '"' || c == '\\') {
        out.write_str(&rest[..i])?;
        match rest.as_bytes()[i] {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            b => write!(out, "\\u{b:04x}")?,
        }
        rest = &rest[i + 1..];
    }
    out.write_str(rest)?;
    out.write_char('"')
}

/// Chrome wants microsecond timestamps; write simulated ns exactly as
/// `µs.nnn` so no precision is lost and no float formatting runs.
fn write_us(out: &mut dyn Write, ns: u64) -> fmt::Result {
    write!(out, "{}.{:03}", ns / 1000, ns % 1000)
}

/// One JSON line per figure summary, then one line per aggregated
/// ledger row: figure, machine index, phase, subsystem, kind, count,
/// simulated ns.
pub fn export_jsonl(out: &mut dyn Write, traces: &[FigureTrace]) -> fmt::Result {
    for t in traces {
        let conserved = t.machines.iter().all(|m| m.conserves());
        out.write_str("{\"fig\":")?;
        json_escape(out, &t.id)?;
        writeln!(
            out,
            ",\"machines\":{},\"total_ns\":{},\"conserved\":{conserved}}}",
            t.machines.len(),
            t.total_ns()
        )?;
        for (mi, m) in t.machines.iter().enumerate() {
            for r in &m.rows {
                out.write_str("{\"fig\":")?;
                json_escape(out, &t.id)?;
                write!(out, ",\"machine\":{mi},\"phase\":")?;
                json_escape(out, r.phase)?;
                writeln!(
                    out,
                    ",\"subsystem\":\"{}\",\"kind\":\"{}\",\"count\":{},\"ns\":{}}}",
                    r.kind.subsystem().name(),
                    r.kind.name(),
                    r.count,
                    r.ns
                )?;
            }
        }
    }
    Ok(())
}

/// The event writer both Chrome documents share: the header, one
/// event per line with commas between, and the footer. A process is a
/// figure (pid = its index in the traces), a thread a machine.
struct ChromeEvents<'a> {
    out: &'a mut dyn Write,
    /// What precedes the next event: no comma before the first.
    sep: &'static str,
}

impl<'a> ChromeEvents<'a> {
    fn begin(out: &'a mut dyn Write) -> Result<Self, fmt::Error> {
        out.write_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        Ok(ChromeEvents { out, sep: "\n " })
    }

    /// Frame the next event and hand back the sink to write it into.
    fn event(&mut self) -> Result<&mut dyn Write, fmt::Error> {
        self.out
            .write_str(std::mem::replace(&mut self.sep, ",\n "))?;
        Ok(&mut *self.out)
    }

    /// The metadata record naming process `pid` after its figure.
    fn process_name(&mut self, pid: usize, t: &FigureTrace) -> fmt::Result {
        let out = self.event()?;
        out.write_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":")?;
        write!(out, "{pid},\"tid\":0,\"args\":{{\"name\":")?;
        json_escape(out, &t.id)?;
        out.write_str("}}")
    }

    fn end(self) -> fmt::Result {
        self.out.write_str("\n]}\n")
    }
}

/// Chrome trace-event JSON: one process per figure, one thread per
/// machine, one complete (`"X"`) event per phase span on the simulated
/// clock. A span's args are its machine's whole-run totals for the
/// span's phase, simulated ns per cost kind, so every span of one
/// phase on one machine carries the same args.
pub fn export_chrome_trace(out: &mut dyn Write, traces: &[FigureTrace]) -> fmt::Result {
    let mut doc = ChromeEvents::begin(out)?;
    for (pid, t) in traces.iter().enumerate() {
        doc.process_name(pid, t)?;
        for (tid, m) in t.machines.iter().enumerate() {
            write!(
                doc.event()?,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"machine {tid}\"}}}}"
            )?;
            // Each phase's args object, built once per machine.
            let mut args = BTreeMap::<&str, String>::new();
            for r in &m.rows {
                let a = args.entry(r.phase).or_default();
                if !a.is_empty() {
                    a.push(',');
                }
                write!(a, "\"{}\":{}", r.kind.name(), r.ns)?;
            }
            for span in &m.spans {
                let out = doc.event()?;
                out.write_str("{\"ph\":\"X\",\"cat\":\"phase\",\"name\":")?;
                json_escape(out, span.label)?;
                write!(out, ",\"pid\":{pid},\"tid\":{tid},\"ts\":")?;
                write_us(out, span.start_ns)?;
                out.write_str(",\"dur\":")?;
                write_us(out, span.end_ns - span.start_ns)?;
                let args = args.get(span.label).map_or("", String::as_str);
                write!(out, ",\"args\":{{{args}}}}}")?;
            }
        }
    }
    doc.end()
}

/// One JSON line per gauge series: figure, machine index, gauge name,
/// and the full `[[ns, value], …]` point list. Machines without
/// timelines contribute nothing, so the file is empty (not absent)
/// when sampling was off.
pub fn export_timeline_jsonl(out: &mut dyn Write, traces: &[FigureTrace]) -> fmt::Result {
    for t in traces {
        for (mi, m) in t.machines.iter().enumerate() {
            for g in &m.timeline {
                out.write_str("{\"fig\":")?;
                json_escape(out, &t.id)?;
                write!(out, ",\"machine\":{mi},\"gauge\":")?;
                json_escape(out, g.name)?;
                out.write_str(",\"points\":[")?;
                for (i, &(ns, v)) in g.points.iter().enumerate() {
                    let sep = if i > 0 { "," } else { "" };
                    write!(out, "{sep}[{ns},{v}]")?;
                }
                out.write_str("]}\n")?;
            }
        }
    }
    Ok(())
}

/// Chrome trace-event JSON carrying the gauge timelines as counter
/// (`"C"`) events, in the same process-per-figure / thread-per-machine
/// layout as [`export_chrome_trace`], so the counter tracks line up
/// under the phase spans when both files are loaded. A figure without
/// timelines gets no process.
pub fn export_timeline_chrome(out: &mut dyn Write, traces: &[FigureTrace]) -> fmt::Result {
    let mut doc = ChromeEvents::begin(out)?;
    for (pid, t) in traces.iter().enumerate() {
        if t.machines.iter().all(|m| m.timeline.is_empty()) {
            continue;
        }
        doc.process_name(pid, t)?;
        for (tid, m) in t.machines.iter().enumerate() {
            for g in &m.timeline {
                for &(ns, v) in &g.points {
                    let out = doc.event()?;
                    out.write_str("{\"ph\":\"C\",\"cat\":\"gauge\",\"name\":")?;
                    json_escape(out, g.name)?;
                    write!(out, ",\"pid\":{pid},\"tid\":{tid},\"ts\":")?;
                    write_us(out, ns)?;
                    write!(out, ",\"args\":{{\"value\":{v}}}}}")?;
                }
            }
        }
    }
    doc.end()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::CostKind;
    use crate::ledger::MachineTrace;

    type Exporter = fn(&mut dyn Write, &[FigureTrace]) -> fmt::Result;

    /// What `export` writes into a `String`.
    fn render(export: Exporter, traces: &[FigureTrace]) -> String {
        let mut out = String::new();
        export(&mut out, traces).expect("a String sink never fails");
        out
    }

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
        let a = render(export_jsonl, &traces);
        assert_eq!(a, render(export_jsonl, &traces));
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
        let a = render(export_timeline_jsonl, &traces);
        assert_eq!(a, render(export_timeline_jsonl, &traces));
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
        assert_eq!(render(export_timeline_jsonl, &sample()), "");
    }

    #[test]
    fn timeline_chrome_is_counter_events() {
        let out = render(export_timeline_chrome, &sample_with_timeline());
        assert!(out.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(out.ends_with("]}\n"));
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.contains("\"name\":\"mmu.tlb_entries\",\"pid\":0,\"tid\":0,\"ts\":0.120"));
        assert!(out.contains("\"args\":{\"value\":7}"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(out.matches(open).count(), out.matches(close).count());
        }
        // No timelines: header and footer only, no stray comma.
        let empty = render(export_timeline_chrome, &sample());
        assert_eq!(empty, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let out = render(export_chrome_trace, &sample());
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

    /// A sink that refuses the one write that would take it past
    /// `budget` bytes and accepts every write after it, so an exporter
    /// that dropped that error would still finish with `Ok`.
    struct FailOnce {
        budget: usize,
        failed: bool,
    }

    impl Write for FailOnce {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            if !self.failed && s.len() > self.budget {
                self.failed = true;
                return Err(fmt::Error);
            }
            self.budget = self.budget.saturating_sub(s.len());
            Ok(())
        }
    }

    #[test]
    fn every_exporter_returns_the_sinks_error() {
        let exporters: [(&str, Exporter); 4] = [
            ("jsonl", export_jsonl),
            ("chrome trace", export_chrome_trace),
            ("timeline jsonl", export_timeline_jsonl),
            ("timeline chrome", export_timeline_chrome),
        ];
        let traces = sample_with_timeline();
        for (name, export) in exporters {
            let len = render(export, &traces).len();
            assert!(len > 0, "{name} writes something");
            for budget in 0..len {
                let mut sink = FailOnce {
                    budget,
                    failed: false,
                };
                assert_eq!(
                    export(&mut sink, &traces),
                    Err(fmt::Error),
                    "{name}: a write failing after {budget} of {len} bytes"
                );
                assert!(sink.failed);
            }
            let mut sink = FailOnce {
                budget: len,
                failed: false,
            };
            assert_eq!(
                export(&mut sink, &traces),
                Ok(()),
                "{name} fits {len} bytes"
            );
        }
    }
}
