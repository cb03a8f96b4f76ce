#!/usr/bin/env sh
# Tier-1 verification: exactly what CI runs, runnable locally.
#
#   scripts/ci.sh           # fmt check + build + test + figure smoke
#   scripts/ci.sh --full    # also regenerate every figure (slow)
#   scripts/ci.sh --gate    # release gates only:
#                           # - bench-diff a fresh `figures --latency`
#                           #   run against the committed
#                           #   BENCH_figures.json (exit 1 on any
#                           #   mean/percentile/count regression);
#                           # - BENCH_figures.json trajectory growth;
#                           # - GOLDEN_figures.json append-only;
#                           # - the suite matrix (tests/suite_matrix.rs)
#                           #   at full scale: thread counts,
#                           #   fast-forward off, tracing off, ledger
#                           #   conservation, and GOLDEN bytes;
#                           # - the fig_hostmem shape.
#
# Either way the run must leave the worktree as it found it: the
# script records `git status --porcelain` and a hash of every changed
# path at the start, compares at the end, and fails naming each path
# whose state changed. Uncommitted edits made before the run are fine.
#
# The repo builds offline: its only external dependencies, `rand` and
# `proptest`, resolve to the in-tree shims under crates/shims/, so no
# network access is needed.
set -eu

cd "$(dirname "$0")/.."

# One line per changed or untracked path: its status and a hash of its
# contents ("-" once deleted), plus the hash of the whole `git diff`.
worktree_state() {
    git status --porcelain --untracked-files=all | while IFS= read -r line; do
        path="${line#???}"
        path="${path#* -> }"
        sum="$(cksum <"$path" 2>/dev/null || echo -)"
        printf '%s %s\n' "$line" "$sum"
    done
    printf 'git diff %s\n' "$(git diff --no-ext-diff | cksum)"
}
worktree_before="$(worktree_state)"
check_worktree() {
    worktree_after="$(worktree_state)"
    if [ "$worktree_before" != "$worktree_after" ]; then
        echo "ci.sh: the run changed the worktree:" >&2
        printf '%s\n' "$worktree_before" >"${TMPDIR:-/tmp}/ci_worktree_before.$$"
        printf '%s\n' "$worktree_after" | diff "${TMPDIR:-/tmp}/ci_worktree_before.$$" - \
            | sed -n 's/^[<>] //p' | grep -v '^git diff ' | sort -u >&2 || true
        rm -f "${TMPDIR:-/tmp}/ci_worktree_before.$$"
        exit 1
    fi
}

if [ "${1:-}" = "--gate" ]; then
    echo "==> perf gate (figures --latency vs committed BENCH_figures.json)"
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
    cargo run --release -p o1-bench --bin figures -- \
        --latency --json "$out/fresh.json" --no-bench >/dev/null
    # The committed self-profile carries the reference metrics (series
    # means, latency percentiles, event counts); the simulator is
    # deterministic, so there is no budget: any drift for the worse
    # is a real behavioural change someone must re-baseline on purpose
    # (rerun `figures --latency` and commit BENCH_figures.json).
    cargo run --release -p o1-bench --bin bench-diff -- \
        BENCH_figures.json "$out/fresh.json"
    echo "==> trajectory gate (perf PRs must append a bench-diff entry)"
    # A perf-flavoured PR re-baselines BENCH_figures.json via
    # `bench-diff --append`; the gate checks the trajectory grew so
    # wall-clock history is never silently dropped. On the very first
    # commit (no parent copy) a non-empty trajectory suffices.
    count_entries() { grep -c '"date":"' "$1" || true; }
    new_entries="$(count_entries BENCH_figures.json)"
    if git show HEAD:BENCH_figures.json >"$out/head_bench.json" 2>/dev/null; then
        old_entries="$(count_entries "$out/head_bench.json")"
    else
        old_entries=0
    fi
    if [ "$new_entries" -lt 1 ]; then
        echo "ci.sh: BENCH_figures.json has no trajectory entries" >&2
        exit 1
    fi
    if ! cmp -s BENCH_figures.json "$out/head_bench.json" \
        && [ "$new_entries" -le "$old_entries" ]; then
        echo "ci.sh: BENCH_figures.json was re-baselined without" \
            "'bench-diff --append' ($old_entries -> $new_entries" \
            "trajectory entries)" >&2
        exit 1
    fi
    echo "trajectory: $new_entries entries (HEAD had $old_entries)"
    echo "==> golden append gate (committed figure bytes survive verbatim)"
    # A PR may append a new figure to GOLDEN_figures.json, but the
    # bytes of every figure already committed must survive: the HEAD
    # copy minus its closing "\n]\n" must be a byte-prefix of the new
    # document. Rewriting history means a simulated number changed.
    if git show HEAD:GOLDEN_figures.json >"$out/head_golden.json" 2>/dev/null \
        && ! cmp -s GOLDEN_figures.json "$out/head_golden.json"; then
        prefix_len=$(($(wc -c <"$out/head_golden.json") - 3))
        head -c "$prefix_len" "$out/head_golden.json" >"$out/golden_prefix_head"
        head -c "$prefix_len" GOLDEN_figures.json >"$out/golden_prefix_new"
        if ! cmp -s "$out/golden_prefix_head" "$out/golden_prefix_new"; then
            echo "ci.sh: GOLDEN_figures.json rewrote committed figure" \
                "bytes (the golden file is append-only)" >&2
            exit 1
        fi
        echo "golden: pure append over $prefix_len committed bytes"
    fi
    echo "==> suite matrix at full scale (tests/suite_matrix.rs)"
    # The whole suite four ways: sequential and on 4 threads x 2
    # repeats (traced, timelines armed), with fast-forward off, and
    # untraced. Every export must agree across threads; figure, enriched
    # JSON and trace bytes must agree with fast-forward off; tracing may
    # change only the two host-heap readers; every ledger conserves;
    # and the untraced figures must equal GOLDEN_figures.json byte for
    # byte. Regenerate and commit GOLDEN_figures.json only alongside an
    # intentional simulated-number change.
    cargo test -q --release --test suite_matrix -- --ignored
    echo "==> hostmem gate (fig_hostmem: baseline grows, fom stays flat)"
    # The 23rd figure measures the simulator's own peak heap per mapped
    # address space. The paper's shape claim, numerically: the baseline
    # column must grow strictly monotonically down the sweep and end
    # >= 100x above fom extent ranges (full thresholds live in
    # tests/figures_shapes.rs; this is the cheap end-to-end smoke).
    cargo run --release -p o1-bench --bin figures -- \
        --fig fig_hostmem --no-bench > "$out/hostmem.txt"
    awk '
        NF == 4 && $1 ~ /^[0-9]+$/ {
            rows++
            if (prev_base != "" && $2 <= prev_base) {
                printf "hostmem gate: baseline not monotone (%s -> %s)\n", prev_base, $2
                exit 1
            }
            prev_base = $2; last_base = $2; last_ranges = $4
        }
        END {
            if (rows < 4) { print "hostmem gate: expected 4 sweep rows, saw " rows; exit 1 }
            if (last_base < 100 * last_ranges) {
                printf "hostmem gate: baseline %s not >= 100x fom-ranges %s\n", last_base, last_ranges
                exit 1
            }
        }' "$out/hostmem.txt"
    check_worktree
    echo "ci.sh: perf gate OK"
    exit 0
fi

echo "==> cargo fmt --check (the workspace; hostbench is its own)"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy --workspace (warnings are errors)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo doc --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> hostbench smoke (every workload small; digests vs fast-forward off)"
# The benchmark package has its own workspace. Its tests replay the
# first rounds with fast-forward off and fail on any digest mismatch,
# so host-side changes are checked against the interpreter here too.
# Building it rewrites hostbench/Cargo.lock (the committed lock still
# lists a deleted shim), so the step puts back the copy it found and
# a passing run leaves the tree clean.
lock="$(mktemp)"
cp hostbench/Cargo.lock "$lock"
status=0
cargo test -q --offline --manifest-path hostbench/Cargo.toml || status=$?
cp "$lock" hostbench/Cargo.lock
rm -f "$lock"
[ "$status" -eq 0 ]

echo "==> figures smoke (--fig fig1a --json, deterministic output)"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cargo run --release -p o1-bench --bin figures -- \
    --fig fig1a --json "$out/fig1a.json" --bench-out "$out/bench.json" \
    >/dev/null
# The smoke figure's JSON must be non-empty and parse as the series
# schema (cheap sanity; byte-level determinism is enforced by
# tests/suite_matrix.rs above).
grep -q '"fig1a"' "$out/fig1a.json"
grep -q '"schema": "o1mem/bench-figures/v2"' "$out/bench.json"

echo "==> figures trace smoke (--fig fig2 --trace --timeline, conservation enforced)"
# The binary exits nonzero if any machine's ledger fails to account
# for every simulated nanosecond, so this line IS the conservation
# check; the greps confirm all four exports landed, and each Chrome
# document must end with its closing `]}` line, so a stream cut short
# fails here.
cargo run --release -p o1-bench --bin figures -- \
    --fig fig2 --trace "$out/trace" --timeline "$out/timeline" --no-bench >/dev/null
grep -q '"fig":"fig2"' "$out/trace/trace.jsonl"
grep -q '"fig":"fig2"' "$out/timeline/timeline.jsonl"
for doc in "$out/trace/chrome_trace.json" "$out/timeline/timeline_chrome.json"; do
    grep -q '"traceEvents"' "$doc"
    [ "$(tail -n 1 "$doc")" = "]}" ] || {
        echo "ci.sh: $doc does not end with its closing ]} line" >&2
        exit 1
    }
done

if [ "${1:-}" = "--full" ]; then
    echo "==> full figure suite"
    cargo run --release -p o1-bench --bin figures -- \
        --json "$out/all.json" --bench-out "$out/bench_all.json" >/dev/null
    grep -q '"fig_churn"' "$out/all.json"
fi

check_worktree
echo "ci.sh: OK"
