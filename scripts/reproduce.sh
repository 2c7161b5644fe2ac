#!/bin/sh
# Build everything, run the full test suite, regenerate every
# table/figure of the paper plus the extension studies from their
# declarative specs, and diff each against its pinned golden snapshot.
#
# Grids run their cells in parallel; output is byte-identical to a
# serial run. The job count defaults to all hardware threads; override
# it per spec with --jobs n.
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

python3 scripts/check_stats_schema.py \
    --schema scripts/spec_schema.json specs/*.json

mkdir -p out
for s in specs/*.json; do
    n=$(basename "$s" .json)
    echo "==== $n ===="
    ./build/bench/run_spec --spec "$s" --out "out/BENCH_$n.json"
    python3 scripts/diff_results.py "BENCH_$n.json" "out/BENCH_$n.json"
done
python3 scripts/check_stats_schema.py \
    --schema scripts/results_schema.json out/BENCH_*.json
