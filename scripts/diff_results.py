#!/usr/bin/env python3
"""Compare two psim-results-v1 documents cell by cell, exactly.

Standard library only. The golden document (first argument) is the
pinned BENCH_*.json snapshot; the fresh document is a regeneration of
the same spec. The run header (procs) and every simulated quantity --
cell ids, coordinates, all metrics, the characterizer report -- must
match EXACTLY: the simulator is deterministic, so any numeric drift is
a behaviour change, not noise. Each difference is named (cell, section,
metric). Host time is not part of a results document; bench/perf
measures it.

Usage: diff_results.py GOLDEN.json FRESH.json

Exit status: 0 identical, 1 any difference, 2 usage or
unreadable/invalid input.
"""

import json
import sys
from pathlib import Path


def load(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict) or doc.get("schema") != "psim-results-v1":
        print(f"error: {path}: not a psim-results-v1 document",
              file=sys.stderr)
        sys.exit(2)
    return doc


def diff_cell(idx, gold, fresh, errors):
    where = f"cells[{idx}] ({gold.get('id', '?')!r})"
    for key in ("id", "coords"):
        if gold.get(key) != fresh.get(key):
            errors.append(f"{where}.{key}: golden {gold.get(key)!r} "
                          f"!= fresh {fresh.get(key)!r}")
    for section in ("metrics", "characterizer"):
        g = gold.get(section)
        f = fresh.get(section)
        if g is None and f is None:
            continue
        if g is None or f is None:
            errors.append(f"{where}.{section}: present in "
                          f"{'fresh' if g is None else 'golden'} only")
            continue
        for key in sorted(set(g) | set(f)):
            if key not in g or key not in f:
                errors.append(f"{where}.{section}.{key}: present in "
                              f"{'fresh' if key not in g else 'golden'} "
                              f"only")
            elif g[key] != f[key]:
                errors.append(f"{where}.{section}.{key}: golden "
                              f"{g[key]!r} != fresh {f[key]!r}")


def main(argv):
    paths = argv[1:]
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    golden = load(paths[0])
    fresh = load(paths[1])
    errors = []

    for key in ("name", "report", "run"):
        if golden.get(key) != fresh.get(key):
            errors.append(f"{key}: golden {golden.get(key)!r} != fresh "
                          f"{fresh.get(key)!r}")

    gcells = golden.get("cells", [])
    fcells = fresh.get("cells", [])
    if len(gcells) != len(fcells):
        errors.append(f"cells: golden has {len(gcells)}, fresh has "
                      f"{len(fcells)}")
    else:
        for idx, (g, f) in enumerate(zip(gcells, fcells)):
            diff_cell(idx, g, f, errors)

    if errors:
        for e in errors:
            print(f"DIFF {e}", file=sys.stderr)
        print(f"FAIL {paths[1]} differs from {paths[0]} "
              f"({len(errors)} difference(s))", file=sys.stderr)
        return 1
    print(f"ok   {paths[1]} matches {paths[0]} "
          f"({len(gcells)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
