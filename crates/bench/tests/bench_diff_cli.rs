//! End-to-end gate for the `bench-diff` binary: identical runs exit
//! 0, an injected regression exits 1, and `--append` records a dated
//! trajectory entry — the exact contract CI's perf-gate step relies
//! on.

use std::path::PathBuf;
use std::process::Command;

use o1_bench::diff::write_metrics_json;
use o1_bench::runner::{figure_fn, run_figures, RunnerOptions};
use o1_bench::{figure_extras, figure_metrics, figures_to_json_pretty_with_extras, Figure};
use o1_obs::FigureTrace;

const BIN: &str = env!("CARGO_BIN_EXE_bench-diff");

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

/// The figure-array JSON with latency sections, as `figures --latency
/// --json` writes it.
fn latency_json(figures: &[Figure], traces: &[FigureTrace]) -> String {
    figures_to_json_pretty_with_extras(figures, &figure_extras(figures, traces, false, true, false))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("o1mem-bench-diff-cli");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn bench-diff");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().expect("exit code"), stdout)
}

#[test]
fn identical_runs_pass_and_injected_regression_fails() {
    let (mut figures, traces) = traced_fig2();
    let json = latency_json(&figures, &traces);
    let old = tmp("old.json");
    let new_same = tmp("new_same.json");
    std::fs::write(&old, &json).unwrap();
    std::fs::write(&new_same, &json).unwrap();

    let (code, stdout) = run(&[old.to_str().unwrap(), new_same.to_str().unwrap()]);
    assert_eq!(code, 0, "identical runs must pass: {stdout}");
    assert!(stdout.contains("0 regressions"), "{stdout}");
    assert!(stdout.contains("within budget"), "{stdout}");

    // Inject a 10% slowdown into one point of one series and diff
    // again: the mean regresses, the gate must fail.
    let slow = &mut figures[0].series[0].points[0];
    slow.1 *= 1.10;
    let regressed = latency_json(&figures, &traces);
    let new_bad = tmp("new_bad.json");
    std::fs::write(&new_bad, regressed).unwrap();

    let (code, stdout) = run(&[old.to_str().unwrap(), new_bad.to_str().unwrap()]);
    assert_eq!(code, 1, "regression must fail the gate: {stdout}");
    assert!(stdout.contains("REGRESSION:"), "{stdout}");
    assert!(stdout.contains("mean"), "{stdout}");
}

#[test]
fn bench_file_shape_diffs_and_append_records_trajectory() {
    let (figures, traces) = traced_fig2();

    // A BENCH_figures.json-shaped old side, with precomputed metrics.
    let mut bench = String::from("{\n  \"schema\": \"o1mem/bench-figures/v2\",");
    write_metrics_json(&mut bench, &figure_metrics(&figures, &traces), 1);
    bench.push_str("\n}\n");
    let bench_path = tmp("bench.json");
    std::fs::write(&bench_path, &bench).unwrap();

    // A figure-array-shaped new side from the same run.
    let fresh = tmp("fresh.json");
    std::fs::write(&fresh, latency_json(&figures, &traces)).unwrap();

    let (code, stdout) = run(&[
        bench_path.to_str().unwrap(),
        fresh.to_str().unwrap(),
        "--append",
        bench_path.to_str().unwrap(),
        "--date",
        "2026-08-05",
        "--note",
        "cli test",
    ]);
    assert_eq!(code, 0, "same run through both shapes: {stdout}");

    let text = std::fs::read_to_string(&bench_path).unwrap();
    assert!(text.contains("\"trajectory\": ["), "{text}");
    assert!(text.contains("\"date\":\"2026-08-05\""), "{text}");
    assert!(text.contains("\"regressions\":0"), "{text}");
    assert!(text.contains("\"note\":\"cli test\""), "{text}");
}

#[test]
fn unreadable_input_is_a_usage_error() {
    let missing = tmp("does_not_exist.json");
    let _ = std::fs::remove_file(&missing);
    let out = Command::new(BIN)
        .args([missing.to_str().unwrap(), missing.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(BIN).arg("only_one.json").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "two paths are required");
}
