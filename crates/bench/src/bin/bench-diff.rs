//! Compare two figure-metric documents and gate on regressions.
//!
//! ```text
//! bench-diff old.json new.json              # exact gate (exit 1 on any drift for the worse)
//! bench-diff BENCH_figures.json fresh.json --append BENCH_figures.json
//! ```
//!
//! Either side may be a `figures --json` array or a
//! `BENCH_figures.json` self-profile; the shared metric set (series
//! means, point counts, latency percentiles, event counts) is
//! extracted from both and compared with no budget: any worse mean or
//! percentile and any changed count is a regression. Exit status: 0 =
//! no regression, 1 = regression, 2 = bad usage or unreadable input.

use o1_bench::diff::{
    append_trajectory, diff_metrics, full_suite_ms, metrics_from_value, today_utc, TrajectoryEntry,
};
use o1_bench::jsonval;

const USAGE: &str = "\
usage: bench-diff <old.json> <new.json> [options]

Inputs may be `figures --json` arrays or BENCH_figures.json profiles.
Any worse series mean or latency percentile, and any changed event or
point count, is a regression.

  --append <path>      append a dated entry to <path>'s \"trajectory\"
  --date YYYY-MM-DD    date for that entry (default: today, UTC)
  --note <text>        note for that entry (default: gate verdict)
  --quiet              suppress per-metric notes (regressions always print)
  --help               print this help

Exit status: 0 within budget, 1 regression, 2 usage/input error.";

struct Cli {
    old: String,
    new: String,
    append: Option<String>,
    date: Option<String>,
    note: Option<String>,
    quiet: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut append = None;
    let mut date = None;
    let mut note = None;
    let mut quiet = false;
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--append" => append = Some(value(args, &mut i, "--append")?),
            "--date" => date = Some(value(args, &mut i, "--date")?),
            "--note" => note = Some(value(args, &mut i, "--note")?),
            "--quiet" => quiet = true,
            other if other.starts_with("--") => return Err(format!("unknown option: {other}")),
            path => paths.push(path.to_string()),
        }
        i += 1;
    }
    let [old, new] = <[String; 2]>::try_from(paths)
        .map_err(|p| format!("expected exactly two input paths, got {}", p.len()))?;
    Ok(Some(Cli {
        old,
        new,
        append,
        date,
        note,
        quiet,
    }))
}

fn load_metrics(path: &str) -> Result<Vec<o1_bench::diff::FigMetrics>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = jsonval::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    metrics_from_value(&doc).map_err(|e| format!("{path}: {e}"))
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

    let (old, new) = match (load_metrics(&cli.old), load_metrics(&cli.new)) {
        (Ok(old), Ok(new)) => (old, new),
        (old, new) => {
            for r in [old.err(), new.err()].into_iter().flatten() {
                eprintln!("error: {r}");
            }
            std::process::exit(2);
        }
    };

    let report = diff_metrics(&old, &new);
    if !cli.quiet {
        for n in &report.notes {
            println!("note: {n}");
        }
    }
    for r in &report.regressions {
        println!("REGRESSION: {r}");
    }
    let verdict = if report.passed() {
        "within budget"
    } else {
        "REGRESSED"
    };
    println!(
        "bench-diff: {} figures, {} comparisons, {} regressions — {verdict}",
        old.len(),
        report.comparisons,
        report.regressions.len()
    );

    if let Some(path) = &cli.append {
        // Wall clock over the comparable set (figures the reference
        // run also has), from the candidate's self-profile — absent
        // when the candidate is a raw figure array.
        let suite_ms = std::fs::read_to_string(&cli.new)
            .ok()
            .and_then(|text| jsonval::parse(&text).ok())
            .and_then(|doc| full_suite_ms(&doc, &old));
        let entry = TrajectoryEntry {
            date: cli.date.clone().unwrap_or_else(today_utc),
            old: cli.old.clone(),
            new: cli.new.clone(),
            comparisons: report.comparisons,
            regressions: report.regressions.len() as u64,
            full_suite_ms: suite_ms,
            note: cli.note.clone().unwrap_or_else(|| verdict.to_string()),
        };
        if let Err(e) = append_trajectory(path, &entry) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        eprintln!("appended trajectory entry to {path}");
    }

    std::process::exit(if report.passed() { 0 } else { 1 });
}
