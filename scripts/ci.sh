#!/usr/bin/env sh
# Tier-1 verification: exactly what CI runs, runnable locally.
#
#   scripts/ci.sh           # build + test + figure smoke
#   scripts/ci.sh --full    # also regenerate every figure (slow)
#   scripts/ci.sh --gate    # perf gate only: regenerate the suite with
#                           # --latency and bench-diff it against the
#                           # committed BENCH_figures.json (exit 1 on
#                           # any mean/percentile/count regression)
#
# The repo builds offline: its only external dependencies, `rand` and
# `proptest`, resolve to the in-tree shims under crates/shims/, so no
# network access is needed.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--gate" ]; then
    echo "==> perf gate (figures --latency vs committed BENCH_figures.json)"
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
    cargo run --release -p o1-bench --bin figures -- \
        --latency --json "$out/fresh.json" --no-bench >/dev/null
    # The committed self-profile carries the reference metrics (series
    # means, latency percentiles, event counts); the simulator is
    # deterministic, so the budgets are zero: any drift for the worse
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
    echo "==> fast-forward gate (fig_sweep bytes, --no-fastforward vs default)"
    # Run-compressed execution is an escape-hatched optimisation: the
    # interpreted run must produce byte-identical enriched JSON. Any
    # difference means the fast path changed a simulated number.
    cargo run --release -p o1-bench --bin figures -- \
        --fig fig_sweep --latency --attrib --json "$out/ff.json" \
        --no-bench >/dev/null
    cargo run --release -p o1-bench --bin figures -- \
        --fig fig_sweep --latency --attrib --no-fastforward \
        --json "$out/noff.json" --no-bench >/dev/null
    cmp "$out/ff.json" "$out/noff.json"
    echo "==> bulk-fault gate (small-fleet fig_service, --no-fastforward vs default)"
    # The bulk-fault prover compresses cold-launch miss spans; a
    # reduced-tenant fleet must still byte-match the interpreter,
    # enriched JSON and all. (The latency fleets fault through the
    # fast path; the host-heap gauges are populate-only and therefore
    # fast-forward-independent by construction — see fig_hostmem.)
    O1_SERVICE_TENANTS=50000 cargo run --release -p o1-bench --bin figures -- \
        --fig fig_service --latency --attrib --json "$out/svc_ff.json" \
        --no-bench >/dev/null
    O1_SERVICE_TENANTS=50000 cargo run --release -p o1-bench --bin figures -- \
        --fig fig_service --latency --attrib --no-fastforward \
        --json "$out/svc_noff.json" --no-bench >/dev/null
    cmp "$out/svc_ff.json" "$out/svc_noff.json"
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
    echo "==> uniprocessor gate (plain figure bytes vs GOLDEN_figures.json)"
    # Every figure except fig_smp's inner sweep runs on one simulated
    # CPU, where the SMP machinery must be invisible: no IPI is ever
    # charged and the frozen v1 JSON is byte-identical to the
    # committed golden copy. Regenerate and commit GOLDEN_figures.json
    # only alongside an intentional simulated-number change.
    cargo run --release -p o1-bench --bin figures -- \
        --json "$out/plain.json" --no-bench >/dev/null
    cmp GOLDEN_figures.json "$out/plain.json"
    echo "==> smp determinism gate (fig_smp bytes across --threads)"
    cargo run --release -p o1-bench --bin figures -- \
        --fig fig_smp --latency --attrib --threads 1 \
        --json "$out/smp1.json" --no-bench >/dev/null
    cargo run --release -p o1-bench --bin figures -- \
        --fig fig_smp --latency --attrib --threads 4 \
        --json "$out/smp4.json" --no-bench >/dev/null
    cmp "$out/smp1.json" "$out/smp4.json"
    echo "==> tiering determinism gate (fig_tiering bytes across --threads)"
    # The tiering figure runs background migration between access
    # rounds; its bytes must not depend on host-side parallelism any
    # more than the rest of the suite.
    cargo run --release -p o1-bench --bin figures -- \
        --fig fig_tiering --latency --attrib --threads 1 \
        --json "$out/tier1.json" --no-bench >/dev/null
    cargo run --release -p o1-bench --bin figures -- \
        --fig fig_tiering --latency --attrib --threads 4 \
        --json "$out/tier4.json" --no-bench >/dev/null
    cmp "$out/tier1.json" "$out/tier4.json"
    echo "==> timeline determinism gate (full-suite --timeline across --threads)"
    # Gauge timelines are sampled on the simulated clock at op
    # boundaries, so both export formats must be byte-identical no
    # matter how many host threads regenerate the suite.
    cargo run --release -p o1-bench --bin figures -- \
        --timeline "$out/tl1" --threads 1 --no-bench >/dev/null
    cargo run --release -p o1-bench --bin figures -- \
        --timeline "$out/tl4" --threads 4 --no-bench >/dev/null
    cmp "$out/tl1/timeline.jsonl" "$out/tl4/timeline.jsonl"
    cmp "$out/tl1/timeline_chrome.json" "$out/tl4/timeline_chrome.json"
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
    echo "ci.sh: perf gate OK"
    exit 0
fi

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
cargo test -q --offline --manifest-path hostbench/Cargo.toml

echo "==> figures smoke (--fig fig1a --json, deterministic output)"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cargo run --release -p o1-bench --bin figures -- \
    --fig fig1a --json "$out/fig1a.json" --bench-out "$out/bench.json" \
    >/dev/null
# The smoke figure's JSON must be non-empty and parse as the series
# schema (cheap sanity; byte-level determinism is enforced by
# tests/figures_determinism.rs above).
grep -q '"fig1a"' "$out/fig1a.json"
grep -q '"schema": "o1mem/bench-figures/v2"' "$out/bench.json"

echo "==> figures trace smoke (--fig fig2 --trace, conservation enforced)"
# The binary exits nonzero if any machine's ledger fails to account
# for every simulated nanosecond, so this line IS the conservation
# check; the greps just confirm both exports landed.
cargo run --release -p o1-bench --bin figures -- \
    --fig fig2 --trace "$out/trace" --no-bench >/dev/null
grep -q '"fig":"fig2"' "$out/trace/trace.jsonl"
grep -q '"traceEvents"' "$out/trace/chrome_trace.json"

if [ "${1:-}" = "--full" ]; then
    echo "==> full figure suite"
    cargo run --release -p o1-bench --bin figures -- \
        --json "$out/all.json" --bench-out "$out/bench_all.json" >/dev/null
    grep -q '"fig_churn"' "$out/all.json"
fi

echo "ci.sh: OK"
