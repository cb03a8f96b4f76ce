#!/usr/bin/env sh
# Build the host-speed benchmark (`hostbench/`) of a git revision and
# print the path of its `o1mem-hostbench` binary.
#
#   scripts/hostbench_rev.sh REV
#
# REV is anything `git rev-parse` accepts (a commit, `HEAD~1`, a
# branch). The revision's committed files are exported with
# `git archive` into `${TMPDIR:-/tmp}/o1mem-hostbench-<commit>/`, a
# directory outside this checkout, and built there offline in release
# mode. A second call for the same commit reuses the built binary.
# Nothing in this checkout changes: no worktree is registered, and the
# build's lock-file rewrite happens in the exported copy.
#
# Only the path goes to stdout, so comparing this tree against its
# parent commit is one command:
#
#   scripts/hostbench_pairs.sh "$(scripts/hostbench_rev.sh HEAD~1)" \
#       hostbench/target/release/o1mem-hostbench sweep 1 10
set -eu

[ $# -eq 1 ] || { echo "usage: $0 REV" >&2; exit 2; }
cd "$(dirname "$0")/.."
commit="$(git rev-parse --verify --quiet "$1^{commit}")" \
    || { echo "$0: not a commit: $1" >&2; exit 2; }

dir="${TMPDIR:-/tmp}/o1mem-hostbench-$commit"
bin="$dir/hostbench/target/release/o1mem-hostbench"
if [ ! -x "$bin" ]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$commit" | tar -x -C "$dir"
    cargo build --release --quiet --offline \
        --manifest-path "$dir/hostbench/Cargo.toml" >&2
fi
echo "$bin"
