#!/usr/bin/env bash
# Record the baseline: ten untraced runs per workload (seeds 1 to 10) and one
# traced run (seed 1). Run from the repository root:
#
#     bash perfbench/baseline/record.sh
#
# Each <workload>.log holds the full output of its runs, each preceded by its
# command line; the last line of each run, starting with "{", is its result.
set -euo pipefail
out=perfbench/baseline
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for workload in conjugacy linearize stability attractor cli; do
  : > "$out/$workload.log"
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    echo "# python3 perfbench/run.py --workload $workload --seed $seed --seconds $seconds --trace 0" >> "$out/$workload.log"
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >> "$out/$workload.log"
  done
  echo "# python3 perfbench/run.py --workload $workload --seed 1 --seconds $seconds --trace 1" >> "$out/$workload.log"
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds "$seconds" --trace 1 >> "$out/$workload.log"
done
