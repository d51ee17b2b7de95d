#!/usr/bin/env bash
# Build the tree under ASan+UBSan and under TSan, each in its own build
# directory, and run `ctest -L sanitize` in both with halt_on_error=1.
# Exits non-zero if a configure, a build or any test fails.
#
#   tools/sanitize.sh [BUILD_ROOT]
#
# BUILD_ROOT (default: ${TMPDIR:-/tmp}/spikesim-sanitize) gets one
# subdirectory per tree, asan-ubsan/ and tsan/, plus each step's log
# beside it. Builds and ctest run at nproc jobs, capped at 4; TSan
# runs ctest at half of that, since its runs are slow and memory-hungry.
set -uo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
root=${1:-${TMPDIR:-/tmp}/spikesim-sanitize}
jobs=$(nproc 2>/dev/null || echo 2)
((jobs > 4)) && jobs=4

# run_tree NAME SANITIZERS CTEST_JOBS ENV...
run_tree() {
    local name=$1 sanitizers=$2 ctest_jobs=$3
    shift 3
    local dir=$root/$name
    echo "== $name: configure ($sanitizers) in $dir"
    cmake -B "$dir" -S "$repo" -DSPIKESIM_SANITIZE="$sanitizers" \
        > "$dir.configure.log" 2>&1 || {
        echo "configure failed, see $dir.configure.log"
        return 1
    }
    # Everything: the labelled gtest cases are only known to ctest once
    # their binaries exist, and the golden compares run most benches.
    echo "== $name: build (-j$jobs)"
    cmake --build "$dir" -j"$jobs" > "$dir.build.log" 2>&1 || {
        tail -n 30 "$dir.build.log"
        echo "build failed, see $dir.build.log"
        return 1
    }
    echo "== $name: ctest -L sanitize (-j$ctest_jobs)"
    env "$@" ctest --test-dir "$dir" -L sanitize -j"$ctest_jobs" \
        --output-on-failure
}

mkdir -p "$root"
status=0
run_tree asan-ubsan "address;undefined" "$jobs" \
    ASAN_OPTIONS=halt_on_error=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 || status=1
run_tree tsan thread "$(((jobs + 1) / 2))" \
    TSAN_OPTIONS=halt_on_error=1 || status=1
if ((status != 0)); then
    echo "sanitize: FAILED"
else
    echo "sanitize: all clean"
fi
exit "$status"
