#!/usr/bin/env sh
# Compare two builds of the host-speed benchmark (`hostbench/`) in
# alternating pairs.
#
#   scripts/hostbench_pairs.sh OLD NEW WORKLOAD FIRST_SEED PAIRS [TRACE]
#   scripts/hostbench_pairs.sh OLD NEW all FIRST_SEED PAIRS [TRACE]
#
# OLD and NEW are built `o1mem-hostbench` binaries (for example the
# parent commit's and this tree's `hostbench/target/release/
# o1mem-hostbench`). Pair i runs seed FIRST_SEED+i on both for the
# benchmark's 20 s, with `--trace TRACE` (default 0; 1 adds the
# per-layer metrics); even pairs run OLD first, odd pairs NEW first,
# so drift in host speed lands on both sides alike.
#
# Per metric it prints each side's median and quartiles (Q1–Q3), the
# change of the median, and in how many pairs NEW beat OLD, reading
# which way is better from BENCHMARK.json ("-" where it does not say).
# For each end-to-end metric (one with a `bound` there) it also prints
# a verdict: `worse` when NEW's median is worse than OLD's by more than
# the bound (a fraction of OLD's median); otherwise `unresolved` when
# OLD's interquartile range exceeds the bound and not every NEW run
# beats every OLD run, since such a spread hides a change of that size;
# otherwise `ok`. Per-layer metrics print "-". A closing line names
# every end-to-end metric that NEW lost in every pair, whatever its
# verdict: a notice only, which does not change the exit status.
# It exits 1 if a run fails, reports `"correct": false`, or prints any
# `# digest` line that differs from the other side's for the same seed.
#
# With `all` in place of a workload it runs `fleet`, `sweep` and
# `scatter` in turn, on seeds FIRST_SEED, FIRST_SEED+100 and
# FIRST_SEED+200 on, printing each one's table, and ends with one line
# per workload naming every end-to-end metric whose verdict is not
# `ok`, then the workload's metrics NEW lost in every pair (notice
# only). It then exits 1 if any metric was named as not `ok`.
set -eu

usage() {
    echo "usage: $0 OLD NEW WORKLOAD FIRST_SEED PAIRS [TRACE]" >&2
    exit 2
}
[ $# -ge 5 ] && [ $# -le 6 ] || usage
old=$1 new=$2 workload=$3 seed0=$4 pairs=$5 trace=${6:-0}
seconds=20
for bin in "$old" "$new"; do
    [ -x "$bin" ] || { echo "$0: not an executable: $bin" >&2; exit 2; }
done
case "$seed0$pairs$trace" in
    *[!0-9]*) usage ;;
esac
[ "$pairs" -ge 1 ] || usage

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

if [ "$workload" = all ]; then
    seed=$seed0
    for w in fleet sweep scatter; do
        "$0" "$old" "$new" "$w" "$seed" "$pairs" "$trace" >"$out/$w" || exit 1
        cat "$out/$w"
        echo
        seed=$((seed + 100))
    done
    status=0
    for w in fleet sweep scatter; do
        # Table rows end in their verdict; `-` marks a per-layer metric.
        bad="$(awk 'NF > 0 && $1 != "metric" && $1 != "workload" && $1 != "lost" && $NF != "ok" && $NF != "-" {
            printf "%s%s (%s)", sep, $1, $NF; sep = ", "
        }' "$out/$w")"
        if [ -n "$bad" ]; then
            echo "$w: not ok: $bad"
            status=1
        else
            echo "$w: every end-to-end verdict ok"
        fi
        sed -n "s/^lost in every pair/$w: lost in every pair/p" "$out/$w"
    done
    exit "$status"
fi

fail() {
    echo "$0: $*" >&2
    exit 1
}

i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 0 ]; then order="old new"; else order="new old"; fi
    for side in $order; do
        if [ "$side" = old ]; then bin=$old; else bin=$new; fi
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" >"$out/$side.$i" 2>&1 \
            || fail "$side run failed (pair $i, seed $seed); see its output:
$(tail -n 5 "$out/$side.$i")"
        tail -n 1 "$out/$side.$i" | grep -q '"correct": true' \
            || fail "$side run not correct (pair $i, seed $seed)"
    done
    grep '^# digest' "$out/old.$i" >"$out/digests.old" || true
    grep '^# digest' "$out/new.$i" >"$out/digests.new" || true
    [ -s "$out/digests.old" ] || fail "no digest lines (pair $i, seed $seed)"
    cmp -s "$out/digests.old" "$out/digests.new" \
        || fail "digests differ (pair $i, seed $seed):
$(diff "$out/digests.old" "$out/digests.new" || true)"
    echo "pair $i (seed $seed, ${order%% *} first): digests equal" >&2
    i=$((i + 1))
done

# One "side pair metric value" line per metric of each run's JSON line.
i=0
while [ "$i" -lt "$pairs" ]; do
    for side in old new; do
        tail -n 1 "$out/$side.$i" | awk -v side="$side" -v pair="$i" '{
            s = $0
            while (match(s, /"[^"]+": \{"value": [-+0-9.eE]+/)) {
                m = substr(s, RSTART, RLENGTH)
                s = substr(s, RSTART + RLENGTH)
                name = m; sub(/^"/, "", name); sub(/".*/, "", name)
                value = m; sub(/.*"value": /, "", value)
                print side, pair, name, value
            }
        }'
    done
    i=$((i + 1))
done >"$out/values"

# Which way is better, and the bound of an end-to-end metric ("-" for
# none), per metric name, from BENCHMARK.json.
awk '/"name":/ && /"better":/ {
    name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
    better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
    bound = "-"
    if ($0 ~ /"bound":/) { bound = $0; sub(/.*"bound": */, "", bound); sub(/[^-+0-9.eE].*/, "", bound) }
    print "better", name, better, bound
}' "$root/BENCHMARK.json" >"$out/better"

echo "workload $workload, seeds $seed0..$((seed0 + pairs - 1)), $pairs pairs of ${seconds} s"
awk -v pairs="$pairs" '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
# Median of a[lo..hi] (sorted).
function med(a, lo, hi,    n, m) {
    n = hi - lo + 1
    m = lo + int((n - 1) / 2)
    return n % 2 ? a[m] : (a[m] + a[m + 1]) / 2
}
# "median [Q1, Q3]" of side s of metric k; Q1/Q3 are the medians of
# the lower and upper halves.
function stats(s, k,    a, i, n, h) {
    n = 0
    for (i = 0; i < pairs; i++) if ((s, k, i) in v) a[++n] = v[s, k, i]
    if (n == 0) return ""
    sort(a, n)
    least[s] = a[1]; most[s] = a[n]
    h = int(n / 2)
    mid[s] = med(a, 1, n)
    q1[s] = n > 1 ? med(a, 1, h) : a[1]
    q3[s] = n > 1 ? med(a, n - h + 1, n) : a[1]
    return sprintf("%.6g [%.6g, %.6g]", mid[s], q1[s], q3[s])
}
# Is `n` worse than `o` by more than `b` times |o|, the way
# metric k counts worse?
function worse(k, o, n, b) {
    return better[k] == "lower" ? n - o > b * abs(o) : o - n > b * abs(o)
}
function abs(x) { return x < 0 ? -x : x }
$1 == "better" { better[$2] = $3; if ($4 != "-") bound[$2] = $4; next }
{
    v[$1, $3, $2] = $4
    if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
}
END {
    printf "%-48s %-38s %-38s %8s %6s %s\n", "metric", "old median [Q1, Q3]", "new median [Q1, Q3]", "delta", "wins", "verdict"
    for (m = 1; m <= metrics; m++) {
        k = order[m]
        so = stats("old", k); sn = stats("new", k)
        delta = mid["old"] != 0 ? sprintf("%+.1f%%", (mid["new"] / mid["old"] - 1) * 100) : "-"
        wins = "-"
        if (k in better) {
            w = 0
            for (i = 0; i < pairs; i++) {
                if (!(("old", k, i) in v) || !(("new", k, i) in v)) continue
                d = v["new", k, i] - v["old", k, i]
                if ((better[k] == "lower" && d < 0) || (better[k] == "higher" && d > 0)) w++
            }
            wins = w "/" pairs
        }
        verdict = "-"
        if ((k in bound) && so != "" && sn != "") {
            b = bound[k]
            # Every NEW run beats every OLD run.
            apart = better[k] == "lower" ? most["new"] < least["old"] : least["new"] > most["old"]
            if (worse(k, mid["old"], mid["new"], b)) verdict = "worse"
            else if (q3["old"] - q1["old"] > b * abs(mid["old"]) && !apart) verdict = "unresolved"
            else verdict = "ok"
        }
        printf "%-48s %-38s %-38s %8s %6s %s\n", k, so, sn, delta, wins, verdict
        if (k in bound) {
            # Pairs in which NEW was worse than OLD.
            l = 0
            for (i = 0; i < pairs; i++) {
                if (!(("old", k, i) in v) || !(("new", k, i) in v)) continue
                d = v["new", k, i] - v["old", k, i]
                if ((better[k] == "lower" && d > 0) || (better[k] == "higher" && d < 0)) l++
            }
            if (l == pairs) { lost = lost sep k " (" verdict ")"; sep = ", " }
        }
    }
    printf "lost in every pair (notice only): %s\n", lost == "" ? "none" : lost
}' "$out/better" "$out/values"
