#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json once for each of seeds 1..10, saves
# each run's output as OUT_DIR/<workload>.<seed>.json, then prints the spread
# report:
#   bash perfbench/sweep.sh OUT_DIR
# Compare two sweeps with: bash perfbench/run.sh compare OLD_DIR NEW_DIR
# Run from the repository root.
set -euo pipefail
out=$1
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
wls=$(grep -o '"name": *"[a-z-]*", *"why"' BENCHMARK.json | sed 's/"name": *"\([a-z-]*\)".*/\1/')
mkdir -p "$out"
for s in 1 2 3 4 5 6 7 8 9 10; do
  for w in $wls; do
    bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$secs" --trace 0 \
      > "$out/$w.$s.json" 2> "$out/$w.$s.log" || echo "run $w seed $s exited $?" >&2
  done
done
bash perfbench/run.sh compare "$out"
