#!/usr/bin/env bash
# Sanitized fuzzing + VM differential smoke.
#
# Part 1: builds the asan preset (-fsanitize=address,undefined) and runs
# psaflow-fuzz under it with a wall-clock budget — including the tree-vs-VM
# engine differential (--check-vm) — so memory errors anywhere in the
# generate -> transform -> interpret (both engines) -> emit -> flow
# pipeline surface as sanitizer reports rather than silent corruption. The
# seed is fixed, so a failure here is reproducible with:
#
#   build-asan/tools/psaflow-fuzz --seed <reported seed> --runs 1 \
#       --check-vm --shrink
#
# Part 2: runs the bytecode-VM suite (test_vm: lowering snapshots, dispatch
# edge cases, cancellation, tree-vs-VM app profile identity, flow
# byte-identity at jobs=1 vs jobs=3) under both the asan and tsan presets;
# the flow-level tests drive jobs=3, so data races between the VM and the
# branch-path pool are tsan-visible.
#
# usage: scripts/fuzz_smoke.sh [seconds] [jobs]
set -euo pipefail

SECONDS_BUDGET=${1:-60}
JOBS=${2:-$(nproc)}
cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j "$JOBS" --target psaflow-fuzz test_vm

export ASAN_OPTIONS=detect_leaks=0
export UBSAN_OPTIONS=halt_on_error=1

echo "== psaflow-fuzz (asan/ubsan, ${SECONDS_BUDGET}s budget, --check-vm) =="
build-asan/tools/psaflow-fuzz --seed 1 --runs 1000000 \
    --max-seconds "$SECONDS_BUDGET" --check-vm \
    --shrink --corpus-dir build-asan/fuzz-failures

echo "== test_vm (asan/ubsan) =="
build-asan/tests/test_vm

cmake --preset tsan
cmake --build --preset tsan -j "$JOBS" --target test_vm

echo "== test_vm (tsan) =="
build-tsan/tests/test_vm

echo "fuzz smoke passed"
