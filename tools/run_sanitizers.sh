#!/usr/bin/env bash
# Builds and runs the tier-1 suite under the sanitizers:
#   GEREL_SANITIZE=thread   (TSan — data races in the saturation lanes
#                            and the server's worker pool)
#   GEREL_SANITIZE=address  (ASan+UBSan — memory and UB, incl. the
#                            snapshot reader's bounds checks)
#
# Usage: tools/run_sanitizers.sh [thread|address|all] [ctest-args...]
#
# Each configuration builds into its own directory (build-tsan/,
# build-asan/) so the sanitized trees never pollute the primary build/.
# By default the full ctest suite runs; pass extra ctest args to narrow,
# e.g. `tools/run_sanitizers.sh all -L robustness` for just the
# fault/budget/snapshot tests, or `thread -L serving` to put the
# socket server's worker pool, the 8-client query/assert/retract socket
# hammer and the 4-reader, 1-writer dispatcher test on one tenant (whose
# mutex is the only lock a request takes inside the tenant) under the
# race detector (the loadgen smoke drops its throughput floor in
# sanitized builds). Exits non-zero if any configuration fails to
# build or any selected test fails.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
which="${1:-all}"
shift || true

case "$which" in
  thread|address|all) ;;
  *)
    echo "run_sanitizers: unknown mode '$which' (thread|address|all)" >&2
    exit 64
    ;;
esac

run_one() {
  local mode="$1"; shift
  local build="$repo/build-${mode:0:1}san"
  echo "== GEREL_SANITIZE=$mode ($build)"
  # run_one is called as `run_one ... || status=1`, where errexit is off:
  # a failed build must stop here, not test whatever built last time.
  cmake -B "$build" -S "$repo" -DGEREL_SANITIZE="$mode" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null || return 1
  cmake --build "$build" -j "$(nproc)" || return 1
  # Second-guessing the sanitizer runtime helps nobody: abort on the
  # first finding so the failing test names the defect.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$build" --output-on-failure -j "$(nproc)" "$@"
}

status=0
if [ "$which" = "thread" ] || [ "$which" = "all" ]; then
  run_one thread "$@" || status=1
fi
if [ "$which" = "address" ] || [ "$which" = "all" ]; then
  run_one address "$@" || status=1
fi
exit $status
