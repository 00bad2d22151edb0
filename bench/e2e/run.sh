#!/usr/bin/env bash
# Builds the end-to-end benchmark (README.md) and runs it.
#
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One workload. The last stdout line is the JSON result.
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       Every workload in turn. With --trace 1 each workload also runs
#       untraced first, and the tracing overhead is printed.
#
# Build output goes to stderr; the build tree is build-e2e/ at the
# repository root, traced runs write their spans to build-e2e/traces/.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-e2e"
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -gt 4 ] && jobs=4

{
  if [ ! -f "$build/CMakeCache.txt" ]; then
    generator=()
    command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
    cmake -S "$here" -B "$build" "${generator[@]}" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "$build" --target palb_e2e -j "$jobs"
} >&2
mkdir -p "$build/traces"
bin=("$build/palb_e2e" --trace-dir "$build/traces")

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then exec "${bin[@]}" "$@"; fi
done

trace=0
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  [ "${args[i]}" = "--trace" ] && trace=${args[i + 1]}
done
for workload in paper_hourly fleet_hourly paper_faults; do
  echo "==== $workload" >&2
  if [ "$trace" = "1" ]; then
    untraced=$("${bin[@]}" --workload "$workload" "$@" --trace 0 | tail -n 1)
    traced=$("${bin[@]}" --workload "$workload" "$@")
    printf '%s\n' "$traced"
    python3 "$here/e2e_stats.py" overhead "$untraced" "$traced"
  else
    "${bin[@]}" --workload "$workload" "$@"
  fi
done
