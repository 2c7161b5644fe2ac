#!/usr/bin/env python3
"""Compare two sets of psim_perf result files.

    agree.py [--bench BENCHMARK.json] PARENT CANDIDATE

PARENT and CANDIDATE are result files, or directories of them (run.py
leaves them in runs/ under its build directory). For every workload and end-to-end
metric it prints both medians, the parent's quartiles and spread
(quartile distance over median), and the candidate's win fraction over
all (parent, candidate) pairs, ties counting for neither.

A metric whose parent spread is wider than its BENCHMARK.json bound is
"unresolved": the parent's runs are too noisy to tell a change within
the bound from noise, so the medians decide nothing either way.

Exit status: 1 when a resolved candidate median is worse than the
parent's by more than its bound, when a work count differs between any
two files of the same workload and seed, or when a file reports a
failed cell; otherwise 3 when some metric is unresolved, and 0 when
every metric agrees. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    docs = []
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if doc.get("schema") == "psim-perf-v1":
            docs.append((f, doc))
    if not docs:
        sys.exit(f"agree.py: no psim-perf-v1 result files in {path}")
    return docs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default=os.path.join(HERE, "..", "..",
                                                    "BENCHMARK.json"))
    ap.add_argument("parent")
    ap.add_argument("candidate")
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    sides = {"parent": load(args.parent), "candidate": load(args.candidate)}
    ok = True
    unresolved = 0

    for docs in sides.values():
        for f, d in docs:
            if d["cells_failed"]:
                ok = False
                print(f"FAIL {f}: {d['cells_failed']} failed cells")

    first = {}
    for f, d in sides["parent"] + sides["candidate"]:
        key = (d["workload"], d["seed"])
        ref_file, ref = first.setdefault(key, (f, d["counts"]))
        diff = sorted(n for n in ref if ref[n] != d["counts"].get(n))
        if diff:
            ok = False
            print(f"FAIL counts differ for {key[0]} seed {key[1]} between "
                  f"{ref_file} and {f}: {', '.join(diff)}")
    print(f"counts compared over {len(first)} (workload, seed) pairs")

    print(f"{'workload':<15} {'metric':<12} {'n':>5} {'parent':>11} "
          f"{'candidate':>11} {'parent q1..q3':>23} {'spread':>7} "
          f"{'worse':>7} {'bound':>6} {'wins':>5}")
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        for m in bench["end_to_end"]:
            name = m["name"]
            va, vb = ([d["metrics"][name]["value"] for _, d in sides[s]
                       if d["workload"] == w and not d["traced"]]
                      for s in ("parent", "candidate"))
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            q1, q3 = quartiles(va)
            spread = (q3 - q1) / ma
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            wins = sum(1 for x in va for y in vb if sign * (y - x) < 0)
            if spread > m["bound"]:
                verdict = "unresolved"
                unresolved += 1
            elif worse > m["bound"]:
                verdict = "WORSE"
                ok = False
            else:
                verdict = "ok"
            print(f"{w:<15} {name:<12} {len(va):>2}/{len(vb):<2} "
                  f"{ma:>11.5g} {mb:>11.5g} {q1:>11.5g}..{q3:<11.5g} "
                  f"{spread:>7.2%} {worse:>+7.2%} "
                  f"{m['bound']:>6.0%} {wins / (len(va) * len(vb)):>5.2f} "
                  f"{verdict}")
    if not ok:
        print("DISAGREE")
        return 1
    if unresolved:
        print(f"UNRESOLVED: {unresolved} metrics have a parent spread "
              "wider than their bound")
        return 3
    print("agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
