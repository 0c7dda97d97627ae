#!/usr/bin/env bash
# Reproduce every exhibit of the paper: build, test, and run all experiment
# drivers, collecting outputs under results/.
#
# Usage: scripts/reproduce_all.sh [build-dir]
# Env:   VBR_BENCH_FRAMES=20000  for a quick smoke run at reduced scale.
set -euo pipefail

BUILD_DIR="${1:-build}"
RESULTS_DIR="results"

cmake -B "$BUILD_DIR" -G Ninja
cmake --build "$BUILD_DIR"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# Every bench runs even if one fails; the script fails at the end, naming
# the ones that did.
mkdir -p "$RESULTS_DIR"
failed=()
for bench in "$BUILD_DIR"/bench/bench_*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  echo "== $name"
  if ! "$bench" | tee "$RESULTS_DIR/$name.txt"; then
    echo "== $name FAILED" >&2
    failed+=("$name")
  fi
done

echo
if ((${#failed[@]} > 0)); then
  echo "${#failed[@]} bench(es) failed: ${failed[*]}; outputs in $RESULTS_DIR/" >&2
  exit 1
fi
echo "All exhibits reproduced; outputs in $RESULTS_DIR/"
