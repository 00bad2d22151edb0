#!/usr/bin/env bash
# Runs N full sets of the end-to-end benchmark and prints median, quartiles
# and spread (IQR / median) of every metric on every workload, flagging a
# spread above the metric's BENCHMARK.json bound.
#
#   bench/e2e/repeat.sh N [FIRST_SEED] [SECONDS]
#
# Set i uses seed FIRST_SEED + i (default 1) and runs the workloads in
# the default order on even i and in reverse on odd i. Results land in
# build-e2e/repeat/seed<FIRST_SEED>/; compare two such sets with
#   python3 bench/e2e/e2e_stats.py compare BENCHMARK.json DIR_A DIR_B
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
runs=${1:?usage: repeat.sh N [FIRST_SEED] [SECONDS]}
first_seed=${2:-1}
seconds=${3:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}
out="$root/build-e2e/repeat/seed$first_seed"
rm -rf "$out"
mkdir -p "$out"

workloads=(paper_hourly fleet_hourly paper_faults)
for ((i = 0; i < runs; i++)); do
  seed=$((first_seed + i))
  order=("${workloads[@]}")
  if ((i % 2 == 1)); then
    order=(paper_faults fleet_hourly paper_hourly)
  fi
  for workload in "${order[@]}"; do
    echo "set $((i + 1))/$runs: $workload seed $seed" >&2
    "$here/run.sh" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 \
        > "$out/$workload.$seed.json"
  done
done
python3 "$here/e2e_stats.py" summary "$root/BENCHMARK.json" "$out"
