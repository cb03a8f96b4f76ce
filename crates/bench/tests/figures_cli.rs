//! End-to-end checks of the `figures` binary's output paths: a
//! destination it cannot write ends the run with exit 1 and one line
//! naming the path, and a path flag never takes another flag as its
//! value.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_figures");

/// A regular file, so `<file>/x` is a path no directory can be made at.
fn regular_file() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("figures-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").unwrap();
    file
}

/// Run `figures` with `args`; return its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn figures");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unwritable_destinations_exit_1_naming_the_path() {
    let file = regular_file();
    let bad = file.join("x");
    let bad = bad.to_str().unwrap();
    for flag in ["--trace", "--timeline", "--json", "--csv", "--bench-out"] {
        let mut args = vec!["--fig", "fig1a", flag, bad];
        if flag != "--bench-out" {
            args.push("--no-bench");
        }
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(1), "{flag} {bad}: {stderr}");
        assert!(
            stderr.contains(bad) && !stderr.contains("panicked"),
            "{flag}: stderr names the path without a panic: {stderr}"
        );
    }
}

#[test]
fn a_path_flag_does_not_take_a_flag_as_its_value() {
    let (code, stderr) = run(&["--fig", "fig1a", "--json", "--no-bench"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--json needs a value"), "{stderr}");
}
