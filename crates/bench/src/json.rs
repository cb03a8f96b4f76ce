//! Minimal deterministic JSON emission for figure data.
//!
//! The offline build environment has no serde, and figure output must
//! be *byte-stable* across runs and thread counts (the determinism
//! regression test compares whole files), so this module hand-rolls
//! the tiny subset of JSON the harness needs. Numbers are formatted
//! with `{:?}`, which round-trips `f64` exactly and always keeps a
//! decimal point, matching what serde_json used to emit.
//!
//! # The `figures --json` document schema
//!
//! The document is an array of figure objects. A plain (untraced) run
//! emits exactly these members — this shape is **schema version 1**
//! and is frozen: its bytes never change across releases, which is
//! what downstream plotting scripts and the determinism tests rely
//! on. Versioning is by presence: v1 documents carry no
//! `schema_version` member at all.
//!
//! ```json
//! [
//!   {
//!     "id": "fig2",              // canonical figure id
//!     "title": "...",            // paper caption
//!     "x_label": "...",
//!     "y_label": "...",
//!     "series": [
//!       {"label": "...", "points": [
//!         [4, 8000.0],           // [x (u64), y (f64, simulated ns)]
//!         [8, 16000.0]
//!       ]}
//!     ]
//!   }
//! ]
//! ```
//!
//! A traced run (`--attrib` and/or `--latency`) upgrades each figure
//! object that has a trace to **schema version 2** by appending, after
//! `"series"`:
//!
//! ```json
//!     "schema_version": 2,
//!     "attribution": {           // with --attrib
//!       "total_ns": 123,         // Σ over the figure's machines
//!       "by_subsystem": [{"subsystem": "cpu", "count": 1, "ns": 500}],
//!       "by_phase":     [{"phase": "alloc", "ns": 500}],
//!       "by_kind":      [{"kind": "syscall", "count": 1, "ns": 500}]
//!     },
//!     "latency": [               // with --latency; one row per
//!                                // (mechanism, op, phase), merged
//!                                // over all the figure's machines
//!       {"mech": "baseline", "op": "access_fault", "phase": "access",
//!        "count": 2178,          // operations recorded (event count)
//!        "sum_ns": 9061290,      // exact sum of latencies
//!        "p50": 4095, "p90": 4095, "p99": 12287, "p999": 12619,
//!        "max": 12619}           // percentiles are log-bucket upper
//!                                // bounds clamped to the exact max
//!     ]
//! ```
//!
//! A run with `--timeline` bumps enriched figures to **schema version
//! 3**, appending (after `"latency"`, when present) a `"timeline"`
//! array with one summary object per sampled gauge:
//!
//! ```json
//!     "schema_version": 3,
//!     "timeline": [
//!       {"gauge": "mmu.tlb_entries",  // dotted gauge name
//!        "samples": 412,              // points in the merged series
//!        "first": 0, "last": 37,      // value at first/last sample
//!        "min": 0, "max": 64}         // extremes over the series
//!     ]
//! ```
//!
//! The full point-by-point series (simulated-ns timestamp, value) go
//! to `--timeline <dir>` as JSONL plus a Chrome counter track; the
//! in-document summary is the compact view diff tools key on.
//!
//! All enriched values are integers derived from the deterministic
//! ledger, so v2 and v3 documents are byte-identical across
//! `--threads` values too. `bench-diff` consumes either this document or the
//! `BENCH_figures.json` self-profile (see `crate::diff`), whose
//! `"metrics"` section carries the same series/latency numbers in
//! precomputed form plus the dated `"trajectory"` array of past gate
//! runs. The full schema is also documented in EXPERIMENTS.md.

/// Escape a string per RFC 8259 and append it, quoted. One escaper
/// serves the whole workspace — this delegates to
/// [`o1_obs::json_escape`] so the figure JSON, the trace exporters,
/// and the [`jsonval`](crate::jsonval) writer can never drift apart.
pub fn push_str_escaped(out: &mut String, s: &str) {
    o1_obs::json_escape(out, s).expect("writing to a String cannot fail");
}

/// Append an `f64` as a JSON number (finite values only).
pub fn push_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "figure data must be finite, got {v}");
    out.push_str(&format!("{v:?}"));
}

/// Indent helper for the pretty printer: `level` two-space steps.
pub fn push_indent(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_str_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn escaped_strings_round_trip_through_the_parser() {
        // Every control character, the two mandatory escapes, and
        // non-ASCII text (multi-byte UTF-8 passes through unescaped)
        // must survive escape → parse exactly.
        let mut cases: Vec<String> = (0u32..0x20)
            .map(|c| format!("a{}b", char::from_u32(c).unwrap()))
            .collect();
        cases.extend(
            [
                "",
                "plain ascii",
                "quote\" backslash\\ slash/",
                "tab\there\nnewline\rreturn",
                "héllo wörld",
                "日本語のテキスト",
                "emoji 🦀 and combining é",
                "\u{7f}\u{80}\u{2028}\u{2029}",
            ]
            .map(String::from),
        );
        for case in &cases {
            let mut escaped = String::new();
            push_str_escaped(&mut escaped, case);
            let parsed = crate::jsonval::parse(&escaped)
                .unwrap_or_else(|e| panic!("parse {escaped:?}: {e}"));
            match parsed {
                crate::jsonval::Value::Str(s) => {
                    assert_eq!(&s, case, "round trip through {escaped:?}");
                }
                other => panic!("expected string, got {other:?}"),
            }
        }
    }

    #[test]
    fn floats_keep_decimal_point() {
        let mut s = String::new();
        push_f64(&mut s, 8000.0);
        assert_eq!(s, "8000.0");
        s.clear();
        push_f64(&mut s, 2.5);
        assert_eq!(s, "2.5");
    }
}
