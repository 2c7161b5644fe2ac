#!/usr/bin/env python3
"""Sum gcov function and line counts and gate on never-called functions.

Standard library only. Reads the `gcov -j -m` JSON reports of every
translation unit, sums each function's call count by demangled name
(an inline member is emitted, and counted, in every unit that uses it;
a coroutine's `[clone .actor]`/`[clone .destroy]` parts count as the
coroutine) and each line's count by (file, line).

Gated: functions defined under src/, tools/ or bench/, except
bench/perf/ (its own project, not built by the coverage build).

Usage: coverage_gate.py --root DIR --allowlist FILE --report DIR
                        REPORT.gcov.json.gz...

Exit status 0 when every gated function with 0 calls is on the
allowlist and every allowlist entry names a gated function with 0
calls; 1 otherwise; 2 on unreadable input.

Allowlist format: one demangled function name per line, exactly as
functions.txt prints it; blank lines and lines starting with '#' are
comments.
"""

import argparse
import gzip
import json
import os
import re
import sys
from collections import defaultdict

GATED = ("src/", "tools/", "bench/")
UNGATED = ("bench/perf/",)
CLONE = re.compile(r"(?: \[clone [^\]]*\])+$")


def source_path(root, name, cwd):
    """Repo-relative path of a gcov source entry, or None if outside."""
    path = os.path.realpath(os.path.join(cwd, name))
    rel = os.path.relpath(path, root)
    return None if rel.startswith("..") else rel


def load(paths, root):
    calls = defaultdict(int)
    where = {}
    lines = defaultdict(lambda: defaultdict(int))
    for p in paths:
        try:
            with gzip.open(p, "rt") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            print(f"error: {p}: {e}", file=sys.stderr)
            sys.exit(2)
        cwd = doc.get("current_working_directory", root)
        for entry in doc["files"]:
            rel = source_path(root, entry["file"], cwd)
            if rel is None:
                continue
            for fn in entry["functions"]:
                name = CLONE.sub("", fn["demangled_name"])
                calls[name] += fn["execution_count"]
                where.setdefault(name, (rel, fn["start_line"]))
            for ln in entry["lines"]:
                lines[rel][ln["line_number"]] += ln["count"]
    return calls, where, lines


def gated(rel):
    return rel.startswith(GATED) and not rel.startswith(UNGATED)


def read_allowlist(path):
    names = []
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if line and not line.startswith("#"):
                names.append(line)
    return names


def ranges(nums):
    """[1, 2, 3, 7] -> '1-3,7'."""
    out = []
    start = prev = nums[0]
    for n in nums[1:] + [None]:
        if n is not None and n == prev + 1:
            prev = n
            continue
        out.append(f"{start}" if start == prev else f"{start}-{prev}")
        if n is not None:
            start = prev = n
    return ",".join(out)


def write_reports(report, calls, where, lines):
    with open(os.path.join(report, "functions.txt"), "w") as f:
        for name in sorted(calls, key=lambda n: (where[n], n)):
            rel, line = where[name]
            f.write(f"{calls[name]:>12} {rel}:{line} {name}\n")
    with open(os.path.join(report, "unrun_lines.txt"), "w") as f:
        f.write("# file  lines-run/instrumented  never-run lines\n")
        for rel in sorted(r for r in lines if r.startswith("src/")):
            counts = lines[rel]
            unrun = sorted(n for n, c in counts.items() if c == 0)
            f.write(f"{rel}  {len(counts) - len(unrun)}/{len(counts)}")
            f.write(f"  {ranges(unrun)}\n" if unrun else "\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--allowlist", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("reports", nargs="+")
    args = ap.parse_args()

    root = os.path.realpath(args.root)
    calls, where, lines = load(args.reports, root)
    write_reports(args.report, calls, where, lines)

    allowed = read_allowlist(args.allowlist)
    allowed_set = set(allowed)
    errors = []
    for name in sorted(calls, key=lambda n: (where[n], n)):
        rel, line = where[name]
        if gated(rel) and calls[name] == 0 and name not in allowed_set:
            errors.append(f"never called: {rel}:{line} {name}")
    for name in allowed:
        if name not in calls or not gated(where[name][0]):
            errors.append(f"allowlisted but not found: {name}")
        elif calls[name] > 0:
            errors.append(f"allowlisted but called {calls[name]} times: "
                          f"{name}")

    zero = sum(1 for n in calls if gated(where[n][0]) and calls[n] == 0)
    total = sum(1 for n in calls if gated(where[n][0]))
    verdict = [f"coverage gate: {total} functions, {zero} never called, "
               f"{len(allowed)} allowlisted, {len(errors)} errors"]
    verdict += errors
    with open(os.path.join(args.report, "gate.txt"), "w") as f:
        f.write("\n".join(verdict) + "\n")
    print("\n".join(verdict), file=sys.stderr if errors else sys.stdout)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
