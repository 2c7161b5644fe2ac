#!/bin/sh
# Mutation gate: show that each check catches the bug it is for.
#
# scripts/mutants/NAME.patch is one small unified diff against src/.
# Its preamble, the lines before the diff, names the step expected to
# kill it ("Kill: STEP") and, optionally, the text that step's standard
# output must contain ("Expect: TEXT"). The steps:
#   ctest        the whole test suite;
#   test_NAME    one test binary;
#   fuzz         psim_cli fuzz over bench/fuzz_corpus.txt;
#   fuzz-audit   the same under PSIM_AUDIT=1;
#   golden       run_spec fig6 and table3 on --apps lu,mp3d, compared
#                with diff_results.py against the unmutated tree.
# A step kills a mutant when it exits non-zero with the expected text
# in its output. A fuzz step's text must be in its report (stdout), and
# is "DIVERGED" by default, so a mutant that crashes the fuzzer is not
# killed by it.
#
# The tree (tracked and untracked files, no build directory) is copied
# once under $TMPDIR and configured with its own -S and -B; a copied
# build/ would keep compiling the original sources. The unmutated copy
# must pass every step. Then, for each patch: git apply --check, apply,
# rebuild the named step's targets, run it, and reverse the patch.
# When the named step does not kill, the rest of the kill set (ctest,
# fuzz, fuzz-audit, golden) runs, and the mutant is reported "caught
# only by" those that fail, or "survived". For a mutant killed by a
# fuzz step, the first divergent seed is replayed with --seed at
# --jobs 1 and --jobs 4, and must print the same divergence line.
#
# The gate fails on a patch that no longer applies or builds, on a
# mutant not killed by its named step unless scripts/mutants/SURVIVORS
# lists it with a reason, on a SURVIVORS entry whose mutant is killed
# or does not exist, and on a replay that differs.
#
# Usage: scripts/mutate.sh   (from anywhere; about 4 minutes on 4
# cores, a third of it building and checking the unmutated tree)
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
start=$(date +%s)
jobs=$(nproc)
[ "$jobs" -le 4 ] || jobs=4

tmp=$(mktemp -d "${TMPDIR:-/tmp}/psim-mutate.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
tree=$tmp/tree
b=$tmp/build
mkdir -p "$tree"
git ls-files -z --cached --others --exclude-standard \
    | xargs -0 cp --parents -t "$tree"
git -C "$tree" init -q
cd "$tree"
mutants=$root/scripts/mutants
survivors=$mutants/SURVIVORS

echo "mutate: building the unmutated tree in $b"
cmake -S "$tree" -B "$b" -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    > "$tmp/cmake.log"
cmake --build "$b" -j "$jobs" > "$tmp/build.log"

# golden DIR: fig6 and table3 on lu and mp3d, one results document each.
golden() {
    mkdir -p "$1"
    for s in fig6 table3; do
        timeout 600 "$b/bench/run_spec" --spec "specs/$s.json" \
            --apps lu,mp3d --jobs "$jobs" --out "$1/$s.json" || return 1
    done
}

# run_step STEP OUT: run STEP, stdout to OUT and stderr to OUT.err.
run_step() {
    case $1 in
      ctest)
        ctest --test-dir "$b" -j "$jobs" --timeout 300 \
            --output-on-failure ;;
      fuzz)
        timeout 600 "$b/tools/psim_cli" fuzz \
            --corpus bench/fuzz_corpus.txt --jobs "$jobs" ;;
      fuzz-audit)
        PSIM_AUDIT=1 timeout 600 "$b/tools/psim_cli" fuzz \
            --corpus bench/fuzz_corpus.txt --jobs "$jobs" ;;
      golden)
        rm -rf "$tmp/mut"
        golden "$tmp/mut" || return 1
        for s in fig6 table3; do
            python3 scripts/diff_results.py "$tmp/base/$s.json" \
                "$tmp/mut/$s.json" || return 1
        done ;;
      test_*)
        timeout 600 "$b/tests/$1" ;;
      *)
        echo "unknown step '$1'" >&2; return 2 ;;
    esac > "$2" 2> "$2.err"
}

# build_for STEP: rebuild only what STEP runs.
build_for() {
    case $1 in
      fuzz|fuzz-audit) t=psim_cli ;;
      golden)          t=run_spec ;;
      test_*)          t=$1 ;;
      *)               t=all ;;
    esac
    cmake --build "$b" -j "$jobs" --target "$t" > "$tmp/build.log" 2>&1
}

kill_set="ctest fuzz fuzz-audit golden"
golden "$tmp/base" > /dev/null
for step in $kill_set; do
    if ! run_step "$step" "$tmp/out"; then
        echo "mutate: the unmutated tree fails $step:" >&2
        tail -20 "$tmp/out" "$tmp/out.err" >&2
        exit 1
    fi
done
echo "mutate: the unmutated tree passes $kill_set" \
     "($(($(date +%s) - start)) s)"

names=$(cd "$mutants" && ls -- *.patch | sed 's/\.patch$//')

failures=0
fail() {
    echo "mutate: FAIL $name: $*"
    failures=$((failures + 1))
}
failed_tests() { # OUT: the test binaries a ctest run lists as failed
    sed -n '/tests FAILED:/,$s/^.* - \([^ ]*\) .*$/ \1/p' "$1" | tr -d '\n'
}
header() { # FIELD PATCH: the preamble's "FIELD: value"
    awk -v f="$1: " '/^(diff|---) /{exit}
        index($0, f) == 1 {print substr($0, length(f) + 1); exit}' "$2"
}

for name in $names; do
    t0=$(date +%s)
    patch=$mutants/$name.patch
    listed=$(awk -v n="$name" '$1 == n' "$survivors")
    step=$(header Kill "$patch")
    expect=$(header Expect "$patch")
    case $step in
      fuzz|fuzz-audit) [ -n "$expect" ] || expect=DIVERGED ;;
    esac
    if ! git apply --check "$patch" 2> "$tmp/apply.log"; then
        fail "the patch no longer applies"; sed 's/^/    /' "$tmp/apply.log"
        continue
    fi
    git apply "$patch"
    verdict=
    out=$tmp/$name.out
    : > "$out"; : > "$out.err"
    if ! build_for "$step"; then
        git apply -R "$patch"
        fail "the mutant does not build"
        tail -20 "$tmp/build.log"
        continue
    fi
    # A fuzz step's expected text must be in its report, on stdout;
    # any other step's may be in a panic message, on stderr.
    texts=$out
    case $step in fuzz*) ;; *) texts="$out $out.err" ;; esac
    if ! run_step "$step" "$out" && cat $texts | grep -qF -- "$expect"
    then
        verdict="killed by $step${expect:+ (\"$expect\")}"
        [ "$step" = ctest ] && verdict="$verdict:$(failed_tests "$out")"
    fi
    if [ -n "$verdict" ]; then
        case $step in fuzz*)
            line=$(grep -m1 '^seed [0-9]* DIVERGED: ' "$out")
            seed=${line#seed }
            seed=${seed%% *}
            audit=; [ "$step" = fuzz-audit ] && audit=1
            for j in 1 4; do
                env ${audit:+PSIM_AUDIT=1} "$b/tools/psim_cli" fuzz \
                    --seed "$seed" --jobs $j > "$tmp/replay" 2>&1 || :
                if [ "$(grep -m1 '^seed ' "$tmp/replay")" != "$line" ]
                then
                    fail "--seed $seed at --jobs $j does not replay:"
                    sed 's/^/    /' "$tmp/replay" | head -5
                fi
            done
            verdict="$verdict; seed $seed replays at --jobs 1 and 4"
        esac
        if [ -n "$listed" ]; then
            fail "$verdict, but SURVIVORS still lists it"
        fi
    elif ! build_for all; then
        verdict="does not build"
        fail "$verdict"
        tail -20 "$tmp/build.log"
    else
        caught=
        for s in $kill_set; do
            [ "$s" = "$step" ] && continue
            if ! run_step "$s" "$tmp/rest.out"; then
                caught="$caught $s"
                [ "$s" = ctest ] &&
                    caught="$caught ($(failed_tests "$tmp/rest.out" | cut -c2-))"
            fi
        done
        if [ -n "$caught" ]; then
            verdict="not killed by $step; caught only by$caught"
        else
            verdict="not killed by $step; survived"
        fi
        if [ -n "$listed" ]; then
            verdict="$verdict; listed in SURVIVORS"
        else
            fail "$verdict"
        fi
    fi
    git apply -R "$patch"
    printf 'mutate: %-28s %s (%d s)\n' "$name" "$verdict" \
        $(($(date +%s) - t0))
    # The first divergence and its shrunk repro: the evidence a fuzz
    # report gives.
    grep -m1 -A3 '^seed [0-9]* DIVERGED: ' "$out" | sed 's/^/    /' || :
done

for name in $(awk '!/^#/ && NF {print $1}' "$survivors"); do
    [ -f "$mutants/$name.patch" ] || fail "SURVIVORS names no patch"
done
echo "mutate: $(echo $names | wc -w) mutants, $failures failures," \
     "$(($(date +%s) - start)) s in all"
[ "$failures" -eq 0 ]
