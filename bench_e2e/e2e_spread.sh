#!/usr/bin/env bash
# Run one bench_e2e workload K times, each in a fresh process, and print
# for every end-to-end metric the median, the quartiles, the interquartile
# range over the median and (max-min)/median. Use it to set the bounds in
# BENCHMARK.json and to recheck them.
#
#   bench_e2e/e2e_spread.sh <workload> [K=5] [seed=1] [seconds=10] [same|vary]
#
# `same` (the default) repeats one seed, so the spread is host noise alone;
# `vary` uses seeds seed..seed+K-1, as an acceptance run across seeds does.
# Run from the repository root; the output of every run is kept under
# .bench_build/spread/.
set -euo pipefail

workload=${1:?usage: e2e_spread.sh <workload> [K] [seed] [seconds] [same|vary]}
runs=${2:-5}
seed=${3:-1}
secs=${4:-10}
mode=${5:-same}
here=$(cd "$(dirname "$0")" && pwd)
out=.bench_build/spread/$workload
mkdir -p "$out"

for ((i = 0; i < runs; i++)); do
  s=$seed
  [[ $mode == vary ]] && s=$((seed + i))
  python3 "$here/run.py" --workload "$workload" --seed "$s" \
    --seconds "$secs" --trace 0 > "$out/run$i.txt"
  tail -n 1 "$out/run$i.txt" > "$out/run$i.json"
done

python3 - "$out" "$runs" <<'EOF'
import json, statistics, sys
out, runs = sys.argv[1], int(sys.argv[2])
results = [json.load(open("%s/run%d.json" % (out, i))) for i in range(runs)]
bad = [i for i, r in enumerate(results) if not r["correct"] or r["failed"]]
if bad:
    print("runs with failed self-checks: %s" % bad)
print("%-20s %14s %14s %14s %9s %9s" % ("metric", "median", "q1", "q3",
                                       "iqr/med", "rng/med"))
for name, first in results[0]["metrics"].items():
    v = [r["metrics"][name]["value"] for r in results]
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, 0, med)
    rel = (lambda x: x / med) if med else (lambda x: 0.0)
    print("%-20s %14.6g %14.6g %14.6g %9.4f %9.4f %s" % (
        name, med, q1, q3, rel(q3 - q1), rel(max(v) - min(v)),
        first["unit"]))
EOF
