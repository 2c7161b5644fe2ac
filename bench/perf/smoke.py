#!/usr/bin/env python3
"""perf_smoke: one cell per workload, one pass, untraced and traced.

    smoke.py PSIM_PERF WORKDIR

Checks that every cell passes, including --cross-check (the driver's
phase-by-phase run equals apps::runWorkload's, or check::runOneScheme's
for a fuzz cell); that the metric names and units are exactly
BENCHMARK.json's; that each cell's spans nest inside its cell span; and
that the driver refuses BENCH_*.json targets and PSIM_AUDIT runs.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# One short cell per workload; fig6 and server-nextgen pick pinned
# golden cells so the golden comparison runs too.
CELLS = {
    "fig6": ("lu-i-det", 1),
    "server-nextgen": ("bfs-chase", 1),
    "mesh64": ("lu-seq", 0),
    "fuzz-oracle": ("p12345-ptron", 0),
}
PHASES = ["sys.machine_ctor", "apps.attach", "sys.run", "apps.verify",
          "sys.invariants", "sim.export", "sys.teardown"]
SCHEMES = ["baseline", "seq", "i-det", "d-det", "adaptive", "m-stride",
           "chase", "ptron"]

errors = []


def expect(cond, msg):
    if not cond:
        errors.append(msg)


def psim_perf(exe, args, env=None):
    env = dict(os.environ if env is None else env)
    return subprocess.run([exe, *args], env=env, capture_output=True,
                          text=True)


def check_spans(path, cell, fuzz):
    with open(path) as f:
        spans = json.load(f)["spans"]
    expect(all(s["trace"] == cell for s in spans), f"{path}: foreign trace")
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    expect(len(roots) == 1 and roots[0]["name"] == "cell",
           f"{path}: want one root 'cell' span")
    children = {}
    for s in spans:
        expect(s["start_ns"] <= s["end_ns"], f"{path}: span {s['id']} ends "
               "before it starts")
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            expect(p["start_ns"] <= s["start_ns"] and
                   s["end_ns"] <= p["end_ns"],
                   f"{path}: {s['name']} outside its parent {p['name']}")
            children.setdefault(p["id"], []).append(s)
    for pid, kids in children.items():
        p = by_id[pid]
        busy = sum(k["end_ns"] - k["start_ns"] for k in kids)
        expect(busy <= p["end_ns"] - p["start_ns"],
               f"{path}: children of {p['name']} outlast it")
    names = [s["name"] for s in children.get(roots[0]["id"], [])]
    want = PHASES + ["replay"] + (["check.oracle"] if fuzz else [])
    expect(sorted(names) == sorted(want),
           f"{path}: cell children {names}, want {want}")
    replay = [s for s in spans if s["name"] == "replay"]
    if replay:
        names = [s["name"] for s in children.get(replay[0]["id"], [])]
        want = [f"core.observe.{s}" for s in SCHEMES] + ["mem.slc_probe"]
        expect(names == want, f"{path}: replay children {names}")


def main():
    exe, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "PSIM_AUDIT"}
    env["TMPDIR"] = work
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expect([w["name"] for w in bench["workloads"]] == list(CELLS),
           "BENCHMARK.json workloads differ from the driver's")

    for workload, (cell, goldens) in CELLS.items():
        for traced in (False, True):
            mode = "traced" if traced else "untraced"
            out = os.path.join(work, f"{workload}-{mode}.json")
            args = ["--workload", workload, "--cell", cell, "--passes", "1",
                    "--cross-check", "--golden-dir", ROOT, "--out", out]
            spans = os.path.join(work, f"{workload}-spans.json")
            if traced:
                args += ["--trace", spans]
            proc = psim_perf(exe, args, env)
            where = f"{workload} {mode}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}\n"
                              f"{proc.stdout}{proc.stderr}")
                continue
            with open(out) as f:
                doc = json.load(f)
            expect(doc["cells"] == 1 and doc["cells_failed"] == 0,
                   f"{where}: failures {doc['failures']}")
            expect(doc["cells_checked"] == goldens,
                   f"{where}: {doc['cells_checked']} cells checked against "
                   f"goldens, want {goldens}")
            for key in ("name", "cpu", "nproc"):
                expect(key in doc["host"], f"{where}: host lacks {key}")
            expect(doc["build"]["type"] and doc["exec"]["jobs"] == 1,
                   f"{where}: build/exec record incomplete")
            want = [(m["name"], m["unit"])
                    for m in bench["per_layer" if traced else "end_to_end"]]
            got = [(n, m["unit"]) for n, m in doc["metrics"].items()]
            expect(got == want, f"{where}: metrics {got}\n  want {want}")
            for name, m in doc["metrics"].items():
                expect(isinstance(m["value"], (int, float)),
                       f"{where}: {name} is {m['value']}")
            if traced:
                check_spans(spans, cell, workload == "fuzz-oracle")

    golden = os.path.join(work, "BENCH_smoke.json")
    proc = psim_perf(exe, ["--workload", "mesh64", "--out", golden], env)
    expect(proc.returncode != 0 and not os.path.exists(golden),
           "a BENCH_*.json --out target was not refused")
    proc = psim_perf(exe, ["--workload", "mesh64", "--out",
                           os.path.join(work, "audit.json")],
                     dict(env, PSIM_AUDIT="1"))
    expect(proc.returncode != 0, "a PSIM_AUDIT=1 run was not refused")

    for e in errors:
        print("FAIL:", e)
    print(f"perf_smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
