#!/usr/bin/env python3
"""Non-test library lines per crate, for a git revision and the working tree.

    scripts/loc.py [REV]

Counts every line of each `.rs` file under `crates/*/src` and `src/`
before its first `#[cfg(test)]`, per crate (`src/` counts as `src`),
for REV (default `HEAD`; pass the parent commit to measure a branch)
and for the working tree, and prints both with their difference.
Untracked files count on the tree side only. The shims under
`crates/shims/` are not `crates/*/src`, so they do not count.
"""

import collections
import pathlib
import subprocess
import sys


def code_lines(text):
    i = text.find("#[cfg(test)]")
    return (text if i < 0 else text[:i]).count("\n")


def crate_of(path):
    """`crates/core/src/fom.rs` -> `core`, `src/lib.rs` -> `src`."""
    parts = path.split("/")
    if parts[0] == "src":
        return "src"
    if parts[0] == "crates" and len(parts) > 3 and parts[2] == "src":
        return parts[1]
    return None


def tally(paths, read):
    t = collections.Counter()
    for p in paths:
        if p.endswith(".rs") and crate_of(p):
            t[crate_of(p)] += code_lines(read(p))
    return t


def git(*args):
    return subprocess.run(
        ["git", *args], capture_output=True, text=True, check=True
    ).stdout


def main():
    if len(sys.argv) > 2:
        sys.exit(f"usage: {sys.argv[0]} [REV]")
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    root = pathlib.Path(__file__).resolve().parent.parent
    old = tally(
        git("-C", str(root), "ls-tree", "-r", "--name-only", rev).split(),
        lambda p: git("-C", str(root), "show", f"{rev}:{p}"),
    )
    tree = [
        str(p.relative_to(root))
        for d in ("crates", "src")
        for p in (root / d).glob("**/*.rs")
    ]
    new = tally(tree, lambda p: (root / p).read_text())
    print(f"{'crate':<10}{rev[:10]:>11}{'tree':>8}{'delta':>8}")
    for c in sorted(set(old) | set(new)) + ["total"]:
        if c == "total":
            o, n = sum(old.values()), sum(new.values())
        else:
            o, n = old[c], new[c]
        print(f"{c:<10}{o:>11}{n:>8}{n - o:>+8}")


if __name__ == "__main__":
    main()
