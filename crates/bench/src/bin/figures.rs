//! Regenerate every figure of *Towards O(1) Memory* from the
//! simulator, in parallel, and print paper-style tables.
//!
//! Usage:
//! ```text
//! figures                    # all figures, text tables, all cores
//! figures --threads 4        # bounded worker pool
//! figures --repeat 3         # time each figure 3 times
//! figures --fig fig1a        # one figure
//! figures --json out.json    # also dump machine-readable series
//! figures --csv out_dir      # one CSV per figure
//! figures --profile          # 1-thread vs N-thread timing comparison
//! figures --latency          # per-operation tail-latency tables
//! figures --list             # list figure ids
//! ```
//!
//! Every run self-profiles host wall-clock per figure and writes
//! `BENCH_figures.json` (override with `--bench-out`, suppress with
//! `--no-bench`) so the repo accumulates a perf trajectory across
//! PRs. Simulated results are independent of `--threads`/`--repeat`:
//! the emitted tables, CSV, and JSON are byte-identical for any value.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write as _};

use o1_bench::diff::{figure_metrics, write_metrics_json};
use o1_bench::jsonval;
use o1_bench::runner::{figure_fn, run_figures, RunReport, RunnerOptions, SuiteScale, ALL_IDS};
use o1_bench::{
    attribution_table_with, figure_extras, figures_to_json_pretty,
    figures_to_json_pretty_with_extras, json, latency_table_with, Figure,
};

const USAGE: &str = "\
usage: figures [options]
  --list              list figure ids and exit
  --fig <id>          run a single figure (id, alias, or paper number)
  --threads <N>       worker threads (default: available cores)
  --repeat <K>        regenerate each figure K times for timing (default 1)
  --json <path>       write all series as pretty JSON
  --csv <dir>         write one CSV per figure
  --profile           run the suite at 1 thread and at --threads, assert
                      byte-identical output, and record the speedup
  --trace <dir>       collect the cost-attribution ledger, verify it
                      conserves the simulated clock (exit 1 on any
                      mismatch), and write <dir>/trace.jsonl plus
                      <dir>/chrome_trace.json
  --attrib            print per-figure attribution tables; with --json,
                      embed an \"attribution\" section per figure
  --timeline <dir>    sample gauge timelines on the simulated clock and
                      write <dir>/timeline.jsonl plus
                      <dir>/timeline_chrome.json (counter tracks); with
                      --json, embed a \"timeline\" summary per figure
  --timeline-interval <ns>
                      virtual-ns sampling period for --timeline
                      (default 100000)
  --latency           print per-figure tail-latency tables (p50/p90/p99/
                      p999/max per operation and mechanism); with --json,
                      embed a \"latency\" section per figure
  --no-fastforward    disable run-compressed fast-forward execution and
                      interpret every access individually (escape hatch;
                      slower, but emitted bytes never differ — the CI
                      gate byte-compares the two modes)
  --bench-out <path>  self-profiler output path (default BENCH_figures.json)
  --no-bench          do not write the self-profiler file
  --help              print this help

Figure output is deterministic: --threads/--repeat change wall-clock
only, never a simulated number. Traces are deterministic too: the
JSONL and Chrome-trace bytes are identical for any --threads value.";

struct Cli {
    want: Option<String>,
    threads: Option<usize>,
    repeat: usize,
    json_path: Option<String>,
    csv_dir: Option<String>,
    profile: bool,
    trace_dir: Option<String>,
    timeline_dir: Option<String>,
    timeline_interval: u64,
    attrib: bool,
    latency: bool,
    fastforward: bool,
    bench_out: Option<String>,
    write_bench: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        want: None,
        threads: None,
        repeat: 1,
        json_path: None,
        csv_dir: None,
        profile: false,
        trace_dir: None,
        timeline_dir: None,
        timeline_interval: 100_000,
        attrib: false,
        latency: false,
        fastforward: true,
        bench_out: None,
        write_bench: true,
    };
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        match args.get(*i) {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{flag} needs a value")),
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return Ok(None);
            }
            "--fig" => cli.want = Some(value(args, &mut i, "--fig")?),
            "--threads" => {
                let v = value(args, &mut i, "--threads")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads expects a positive integer, got '{v}'"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                cli.threads = Some(n);
            }
            "--repeat" => {
                let v = value(args, &mut i, "--repeat")?;
                let k: usize = v
                    .parse()
                    .map_err(|_| format!("--repeat expects a positive integer, got '{v}'"))?;
                if k == 0 {
                    return Err("--repeat must be at least 1".into());
                }
                cli.repeat = k;
            }
            "--json" => cli.json_path = Some(value(args, &mut i, "--json")?),
            "--csv" => cli.csv_dir = Some(value(args, &mut i, "--csv")?),
            "--profile" => cli.profile = true,
            "--trace" => cli.trace_dir = Some(value(args, &mut i, "--trace")?),
            "--timeline" => cli.timeline_dir = Some(value(args, &mut i, "--timeline")?),
            "--timeline-interval" => {
                let v = value(args, &mut i, "--timeline-interval")?;
                let ns: u64 = v.parse().map_err(|_| {
                    format!("--timeline-interval expects a positive integer (ns), got '{v}'")
                })?;
                if ns == 0 {
                    return Err("--timeline-interval must be at least 1".into());
                }
                cli.timeline_interval = ns;
            }
            "--attrib" => cli.attrib = true,
            "--latency" => cli.latency = true,
            "--no-fastforward" => cli.fastforward = false,
            "--bench-out" => cli.bench_out = Some(value(args, &mut i, "--bench-out")?),
            "--no-bench" => cli.write_bench = false,
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    Ok(Some(cli))
}

fn ms(ns: u64) -> f64 {
    // Three decimals keeps the profile file stable and readable.
    (ns as f64 / 1e6 * 1000.0).round() / 1000.0
}

fn report_json(out: &mut String, r: &RunReport, level: usize) {
    json::push_indent(out, level);
    out.push('{');
    json::push_indent(out, level + 1);
    out.push_str(&format!("\"threads\": {},", r.threads));
    json::push_indent(out, level + 1);
    out.push_str("\"total_wall_ms\": ");
    json::push_f64(out, ms(r.total_wall_ns));
    out.push(',');
    json::push_indent(out, level + 1);
    out.push_str("\"figures\": [");
    for (i, (f, wall_ns)) in r.figures.iter().zip(&r.wall_ns).enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_indent(out, level + 2);
        out.push_str("{\"id\": ");
        json::push_str_escaped(out, &f.id);
        out.push_str(", \"wall_ms\": [");
        for (j, &ns) in wall_ns.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            json::push_f64(out, ms(ns));
        }
        out.push_str("]}");
    }
    json::push_indent(out, level + 1);
    out.push(']');
    json::push_indent(out, level);
    out.push('}');
}

/// Carry the perf trajectory forward: entries appended by `bench-diff
/// --append` must survive every rewrite of the self-profile, so read
/// them back (exact number text preserved) before overwriting.
fn read_trajectory(path: &str) -> Vec<jsonval::Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    match jsonval::parse(&text) {
        Ok(doc) => doc
            .get("trajectory")
            .and_then(jsonval::Value::as_arr)
            .map(<[jsonval::Value]>::to_vec)
            .unwrap_or_default(),
        Err(e) => {
            eprintln!("warning: {path} is not valid JSON ({e}); dropping its trajectory");
            Vec::new()
        }
    }
}

fn write_bench_file(
    path: &str,
    repeat: usize,
    runs: &[&RunReport],
    identical: Option<bool>,
    figures: &[Figure],
    traces: &[o1_obs::FigureTrace],
) {
    let trajectory = read_trajectory(path);
    let mut out = String::from("{");
    json::push_indent(&mut out, 1);
    out.push_str("\"schema\": \"o1mem/bench-figures/v2\",");
    json::push_indent(&mut out, 1);
    out.push_str(&format!("\"repeat\": {repeat},"));
    json::push_indent(&mut out, 1);
    out.push_str("\"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        report_json(&mut out, r, 2);
    }
    json::push_indent(&mut out, 1);
    out.push_str("],");
    if let (Some(identical), [a, b]) = (identical, runs) {
        json::push_indent(&mut out, 1);
        out.push_str("\"speedup\": {");
        json::push_indent(&mut out, 2);
        out.push_str(&format!(
            "\"threads_base\": {}, \"threads_parallel\": {},",
            a.threads, b.threads
        ));
        json::push_indent(&mut out, 2);
        let ratio = a.total_wall_ns as f64 / b.total_wall_ns.max(1) as f64;
        out.push_str("\"ratio\": ");
        json::push_f64(&mut out, (ratio * 1000.0).round() / 1000.0);
        out.push(',');
        json::push_indent(&mut out, 2);
        out.push_str(&format!("\"figures_byte_identical\": {identical}"));
        json::push_indent(&mut out, 1);
        out.push_str("},");
    }
    write_metrics_json(&mut out, &figure_metrics(figures, traces), 1);
    out.push(',');
    json::push_indent(&mut out, 1);
    out.push_str("\"trajectory\": [");
    for (i, entry) in trajectory.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_indent(&mut out, 2);
        jsonval::write_compact(&mut out, entry);
    }
    if !trajectory.is_empty() {
        json::push_indent(&mut out, 1);
    }
    out.push(']');
    out.push_str("\n}\n");
    or_exit(path, fs::write(path, out));
    eprintln!("wrote self-profile to {path}");
}

fn write_csvs(dir: &str, figures: &[Figure]) {
    or_exit(dir, fs::create_dir_all(dir));
    for f in figures {
        let path = format!("{dir}/{}.csv", f.id);
        let mut out = String::new();
        out.push_str(&f.x_label.replace(',', ";"));
        for s in &f.series {
            out.push(',');
            out.push_str(&s.label.replace(',', ";"));
        }
        out.push('\n');
        let mut xs: Vec<u64> = f
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_unstable();
        xs.dedup();
        for x in xs {
            out.push_str(&x.to_string());
            for s in &f.series {
                out.push(',');
                if let Some(y) = s.y_at(x) {
                    out.push_str(&format!("{y}"));
                }
            }
            out.push('\n');
        }
        or_exit(&path, fs::write(&path, out));
    }
    eprintln!("wrote CSVs to {dir}/");
}

/// End the run on a failed output write: one line naming the path and
/// the io error, exit 1.
fn or_exit<T>(path: &str, result: io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1)
    })
}

type Exporter = fn(&mut dyn fmt::Write, &[o1_obs::FigureTrace]) -> fmt::Result;

/// Every export file and its exporter: `--trace <dir>` writes the
/// first two, `--timeline <dir>` the last two.
const EXPORTS: [(&str, Exporter); 4] = [
    ("trace.jsonl", o1_obs::export_jsonl),
    ("chrome_trace.json", o1_obs::export_chrome_trace),
    ("timeline.jsonl", o1_obs::export_timeline_jsonl),
    ("timeline_chrome.json", o1_obs::export_timeline_chrome),
];

/// Stream one export of `traces` into a new file at `path` through a
/// buffer, so the export is never held whole in memory.
fn write_export(path: &str, export: Exporter, traces: &[o1_obs::FigureTrace]) -> io::Result<()> {
    /// A buffered file as the exporters' sink, keeping the io error
    /// that the `fmt::Error` it returns cannot carry.
    struct Sink(BufWriter<File>, io::Result<()>);
    impl fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.1 = self.0.write_all(s.as_bytes());
            self.1.as_ref().map_err(|_| fmt::Error).copied()
        }
    }
    let mut sink = Sink(BufWriter::new(File::create(path)?), Ok(()));
    match export(&mut sink, traces) {
        Ok(()) => sink.0.flush(),
        Err(fmt::Error) => sink.1.and(Err(io::Error::other("export failed"))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return,
        Err(msg) => {
            eprintln!("{msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    let fns: Vec<o1_bench::runner::FigureEntry> = match &cli.want {
        Some(id) => match figure_fn(id) {
            Some(entry) => vec![entry],
            None => {
                eprintln!("unknown figure id '{id}'; try --list");
                std::process::exit(2);
            }
        },
        None => ALL_IDS
            .iter()
            .map(|id| figure_fn(id).expect("known id"))
            .collect(),
    };

    let threads = cli.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let tracing =
        cli.trace_dir.is_some() || cli.timeline_dir.is_some() || cli.attrib || cli.latency;
    let opts = RunnerOptions {
        threads,
        repeat: cli.repeat,
        trace: tracing,
        scale: SuiteScale::Full,
        fastforward: cli.fastforward,
        timeline_ns: cli
            .timeline_dir
            .as_ref()
            .map_or(0, |_| cli.timeline_interval),
    };

    let (reports, identical): (Vec<RunReport>, Option<bool>) = if cli.profile {
        let seq = run_figures(
            &fns,
            &RunnerOptions {
                threads: 1,
                ..opts.clone()
            },
        );
        let par = run_figures(&fns, &opts);
        let same = figures_to_json_pretty(&seq.figures) == figures_to_json_pretty(&par.figures);
        eprintln!(
            "profile: {} figures, 1 thread = {:.1} ms, {} threads = {:.1} ms, speedup {:.2}x, byte-identical: {same}",
            fns.len(),
            ms(seq.total_wall_ns),
            par.threads,
            ms(par.total_wall_ns),
            seq.total_wall_ns as f64 / par.total_wall_ns.max(1) as f64,
        );
        if !same {
            eprintln!("error: parallel run diverged from sequential run");
            std::process::exit(1);
        }
        (vec![seq, par], Some(same))
    } else {
        (vec![run_figures(&fns, &opts)], None)
    };

    let last = reports.last().expect("at least one run");
    let (figures, traces) = (&last.figures, &last.traces);

    if tracing {
        // The ledger must account for every simulated nanosecond: a
        // mismatch means a charge path bypassed the trace, which would
        // make every attribution table a lie. Fail loudly.
        let errors = o1_obs::conservation_errors(traces);
        if !errors.is_empty() {
            for e in &errors {
                eprintln!("conservation error: {e}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "trace: {} figures, ledger conserves the simulated clock",
            traces.len()
        );
    }

    // One traced run feeds every downstream view: the stdout tables,
    // the enriched JSON sections, and the trace/timeline exporters all
    // derive from the same `traces`, with attribution and latency rows
    // computed exactly once.
    let extras = figure_extras(
        figures,
        traces,
        cli.attrib,
        cli.latency,
        cli.timeline_dir.is_some(),
    );

    println!("# Towards O(1) Memory — regenerated figures (simulated ns, deterministic)\n");
    for f in figures {
        println!("{}", f.to_table());
    }

    // A traced run holds one trace per figure, in figure order.
    for (t, e) in traces.iter().zip(&extras) {
        if let Some(a) = &e.attribution {
            // The attribution and the raw trace are two projections of
            // one ledger; their clock totals agreeing is the cheap
            // invariant that catches the views drifting onto different
            // runs.
            assert_eq!(
                a.total_ns,
                t.total_ns(),
                "{}: attribution and trace disagree on total simulated ns",
                t.id
            );
            println!("{}", attribution_table_with(t, a));
        }
    }
    for (t, e) in traces.iter().zip(&extras) {
        if let Some(rows) = &e.latency {
            println!("{}", latency_table_with(t, rows));
        }
    }

    for (dir, files) in [&cli.trace_dir, &cli.timeline_dir]
        .iter()
        .zip(EXPORTS.chunks(2))
    {
        let Some(dir) = dir else { continue };
        or_exit(dir, fs::create_dir_all(dir));
        for &(name, export) in files {
            let path = format!("{dir}/{name}");
            or_exit(&path, write_export(&path, export, traces));
            eprintln!("wrote {path}");
        }
    }

    if let Some(dir) = &cli.csv_dir {
        write_csvs(dir, figures);
    }

    if let Some(path) = &cli.json_path {
        // Extras that are all empty give the plain (schema v1) bytes.
        let json = figures_to_json_pretty_with_extras(figures, &extras);
        or_exit(path, fs::write(path, json));
        eprintln!("wrote {path}");
    }

    if cli.write_bench {
        let path = cli.bench_out.as_deref().unwrap_or("BENCH_figures.json");
        let refs: Vec<&RunReport> = reports.iter().collect();
        write_bench_file(path, cli.repeat, &refs, identical, figures, traces);
    }
}
