#!/bin/sh
# Coverage gate: build psim with gcov instrumentation, drive it with
# every documented run, and fail when a function in src/, tools/ or
# bench/ (bench/perf/ aside) is never called and is not on
# scripts/coverage_allowlist.txt, or when an allowlist entry names a
# function that now runs or no longer exists.
#
# The traffic (docs/ARCHITECTURE.md §9 "The coverage gate"):
#   - all 13 specs under specs/ at --jobs 4, each writing its results
#     document;
#   - README's extra-kernel commands: fig6 on fft, radix and barnes, and
#     psim_cli on matmul with --characterize under i-det;
#   - README's "drive everything from the CLI" commands: ocean under
#     i-det with --stats, water with a 16 KB SLC and --characterize,
#     and an fft capture analysed by trace_tool;
#   - one 64-processor psim_cli run (a non-default mesh shape);
#   - psim_cli fuzz over bench/fuzz_corpus.txt, plain and under
#     PSIM_AUDIT=1, and each --mutant on 4 seeds (the shrinker runs);
#   - run_spec --stats-json on fig6 (lu and mp3d), as CI's
#     observability job exports it;
#   - psim_cli on lu, kvstore and mp3d with every output flag;
#   - trace_tool in its default, --node, stats, check and --salvage
#     modes on the lu capture.
#
# Usage: scripts/coverage.sh   (from anywhere; takes about 2 minutes on
# 4 cores after the build)
#
# Writes into build-coverage/report/:
#   functions.txt    every instrumented function's call count;
#   unrun_lines.txt  the src/ lines no run executed, per file;
#   gate.txt         the gate's verdict (also printed).
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
build=$root/build-coverage

cmake -S . -B "$build" -G Ninja -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O1" > /dev/null
cmake --build "$build" --target psim_cli run_spec trace_tool

# Counters accumulate across runs; start from zero.
find "$build" -name '*.gcda' -delete
work=$build/traffic
rm -rf "$work" "$build/gcov" "$build/report"
mkdir -p "$work" "$build/gcov" "$build/report"
cli=$build/tools/psim_cli
spec=$build/bench/run_spec
tool=$build/tools/trace_tool

for s in specs/*.json; do
    n=$(basename "$s" .json)
    "$spec" --spec "$s" --jobs 4 --out "$work/BENCH_$n.json" > /dev/null
done
"$spec" --spec fig6 --apps fft,radix,barnes --jobs 4 > /dev/null
"$cli" --workload matmul --characterize --scheme idet > /dev/null
"$cli" --workload lu --scheme seq --procs 64 > /dev/null
"$cli" --workload ocean --scheme idet --stats > /dev/null
"$cli" --workload water --scheme seq --slc 16384 --characterize > /dev/null
"$cli" --workload fft --trace "$work/fft.psimtrace" > /dev/null
"$tool" "$work/fft.psimtrace" > /dev/null

corpus=bench/fuzz_corpus.txt
"$cli" fuzz --corpus $corpus --jobs 4 > /dev/null
PSIM_AUDIT=1 "$cli" fuzz --corpus $corpus --jobs 4 > /dev/null
for m in corrupt-load drop-store page-cross; do
    # A mutant must be caught: fuzz exits 1 on a divergence.
    if "$cli" fuzz --seeds 4 --jobs 4 --mutant $m \
            --repro-out "$work/repro-$m.txt" > /dev/null 2>&1; then
        echo "coverage: --mutant $m was not caught" >&2
        exit 1
    fi
done

# The statistics export CI's observability job runs.
"$spec" --spec fig6 --apps lu,mp3d --jobs 4 --stats-json "$work/stats-" \
    > /dev/null

for w in lu kvstore mp3d; do
    "$cli" --workload $w --scheme seq --stats --characterize \
        --stats-json "$work/$w.stats.json" --sample-interval 5000 \
        --sample-csv "$work/$w.samples.csv" \
        --chrome-trace "$work/$w.chrome.json" \
        --trace "$work/$w.psimtrace" > /dev/null
done
trace=$work/lu.psimtrace
"$tool" "$trace" > /dev/null
"$tool" "$trace" --node 3 > /dev/null
"$tool" stats "$trace" > /dev/null
"$tool" check "$trace" > /dev/null
"$tool" "$trace" --salvage > /dev/null

# Only the three front ends ran; counts from a test binary built here
# by hand would not be traffic, so tests/ is skipped.
cd "$build/gcov"
find "$build" -name '*.gcda' ! -path '*/tests/*' -print0 \
    | xargs -0 gcov -j -m -p > /dev/null
cd "$root"
python3 scripts/coverage_gate.py --root "$root" \
    --allowlist scripts/coverage_allowlist.txt \
    --report "$build/report" "$build"/gcov/*.gcov.json.gz
