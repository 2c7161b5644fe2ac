#!/usr/bin/env python3
"""Build psim_perf and run one benchmark workload.

    python3 bench/perf/run.py --workload W [--seed N] [--trace 0|1]

Run from the root of a checkout. The first call configures and builds
bench/perf (a CMake project of its own) under $CARGO_TARGET_DIR, or
build-perf when that is unset; later calls only check the build. The
build directory also holds TMPDIR for the SLC-stream captures and every
result file (runs/<workload>-<seed>-<mode>.json, the input of agree.py).

Every run measures BENCHMARK.json's run_seconds, so two commits are
always compared over runs of the same length. --seconds is accepted
because the benchmark calling convention passes it, and refused unless
it equals run_seconds.

The last line of standard output is one JSON object: "correct",
"attempted" and "failed" count cells, and "metrics" holds every
BENCHMARK.json end_to_end metric (--trace 0) or per_layer metric
(--trace 1). Any error exits non-zero without that line.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# psim_perf must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group. On a timeout or a signal, kill
    the whole group (compilers under cmake included) and wait for it."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException as e:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(e, subprocess.TimeoutExpired):
                fail(f"timed out after {timeout} s: {' '.join(cmd)}")
            raise
        return proc.returncode, out


def build(build_dir):
    """Configure (once) and build psim_perf; return its path."""
    for need in ("CMakeLists.txt", "src", "tests"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{os.path.join(ROOT, need)} is missing: run from a full "
                 "psim checkout")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "psim_perf",
                  "-j", "4"])
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if run(cmd, BUILD_TIMEOUT_S, stdout=log,
                   stderr=subprocess.STDOUT)[0] != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "psim_perf")


def main():
    # A terminated run still reaps its children (see run()).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=int,
                    help="must equal BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    if args.seconds not in (None, seconds):
        fail(f"--seconds {args.seconds}: runs measure BENCHMARK.json's "
             f"run_seconds ({seconds})")
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, "build-perf"))
    exe = build(os.path.join(target, "psim_perf"))
    runs = os.path.join(target, "runs")
    tmp = os.path.join(target, "tmp")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)

    mode = "traced" if args.trace else "untraced"
    out = os.path.join(runs, f"{args.workload}-{args.seed}-{mode}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--out", out,
           "--golden-dir", ROOT]
    if args.trace:
        cmd += ["--trace",
                os.path.join(runs, f"{args.workload}-{args.seed}-spans.json")]
    if os.path.exists(out):
        os.remove(out)
    status, summary = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                          text=True, env=dict(os.environ, TMPDIR=tmp))
    sys.stdout.write(summary)
    # 2: the result was written but some cell failed.
    if status not in (0, 2) or not os.path.isfile(out):
        fail(f"psim_perf exited with {status}")
    with open(out) as f:
        doc = json.load(f)

    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"psim_perf did not report {m['name']} in {m['unit']}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail(f"{m['name']} is not a finite number: {got['value']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(f"cells {doc['cells']}, failed {doc['cells_failed']}, "
          f"cells_checked {doc['cells_checked']}, "
          f"cells_unchecked {doc['cells_unchecked']}, "
          f"passes {doc['exec']['passes']}; result file {out}")
    print(json.dumps({"correct": doc["cells_failed"] == 0,
                      "attempted": doc["cells"],
                      "failed": doc["cells_failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
