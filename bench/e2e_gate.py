#!/usr/bin/env python3
"""Gate bench_e2e against the committed BENCH_<workload>.json trajectory.

    python3 bench/e2e_gate.py

For each workload of BENCHMARK.json it runs

    python3 bench_e2e/run.py --workload W --seed 1 --seconds S --trace 0

where S is the `seconds` of the trajectory row it compares against, and
checks run.py's final JSON line and its `fingerprint = ...` report line:

- `correct` is true and `failed` is 0;
- the seed-1 fingerprint equals the row's `fingerprint["1"]` exactly;
- each end_to_end metric stays inside its BENCHMARK.json `bound`, in its
  `better` direction: with `better: higher` it must not fall below
  (1 - bound) x the row's value, with `better: lower` it must not rise
  above (1 + bound) x.

A metric compares with the last row that has a value for it (backfilled
rows may carry null). Exits 1 naming the workload, metric, row and
ratio of every failure, and 0 when all workloads pass.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINT = re.compile(r"^\s*fingerprint = (\S+)\s*$")


def last_row_with(rows, value_of):
    """Index and row of the last row whose value_of(row) is not None."""
    for i in range(len(rows) - 1, -1, -1):
        if value_of(rows[i]) is not None:
            return i, rows[i]
    return None, None


def row_name(index, row):
    return "row %d (commit %s, PR %s)" % (index, row.get("commit"),
                                          row.get("pr"))


def reference_seconds(rows, end_to_end):
    """--seconds of the newest row any end_to_end metric compares with."""
    found = [last_row_with(rows, lambda r, m=m["name"]: r["metrics"].get(m))[0]
             for m in end_to_end]
    found = [i for i in found if i is not None]
    if not found:
        raise ValueError("no trajectory row has an end_to_end value")
    return rows[max(found)]["seconds"]


def compare(workload, end_to_end, rows, result, fingerprint):
    """Failures of one run against the trajectory rows, as strings.

    end_to_end is BENCHMARK.json's list, rows the trajectory's rows,
    result run.py's final JSON object and fingerprint the seed-1
    fingerprint its report printed (None when it printed none).
    """
    failures = []
    if not result.get("correct"):
        failures.append("%s: correct is false" % workload)
    if result.get("failed") != 0:
        failures.append("%s: failed = %s, expected 0"
                        % (workload, result.get("failed")))

    i, row = last_row_with(rows, lambda r: r["fingerprint"].get("1"))
    if row is None:
        failures.append("%s: no trajectory row has a seed-1 fingerprint"
                        % workload)
    elif fingerprint != row["fingerprint"]["1"]:
        failures.append("%s: fingerprint %s != %s of %s"
                        % (workload, fingerprint, row["fingerprint"]["1"],
                           row_name(i, row)))

    for metric in end_to_end:
        name = metric["name"]
        i, row = last_row_with(rows, lambda r: r["metrics"].get(name))
        if row is None:
            continue
        value = result["metrics"][name]["value"]
        ratio = value / row["metrics"][name]
        if metric["better"] == "higher":
            ok = ratio >= 1.0 - metric["bound"]
            limit = ">= %.2fx" % (1.0 - metric["bound"])
        else:
            ok = ratio <= 1.0 + metric["bound"]
            limit = "<= %.2fx" % (1.0 + metric["bound"])
        if not ok:
            failures.append("%s: %s = %.6g is %.3fx %s's %.6g (bound %s)"
                            % (workload, name, value, ratio,
                               row_name(i, row), row["metrics"][name],
                               limit))
    return failures


def run_workload(workload, seconds):
    """run.py's final JSON object and the fingerprint its report printed."""
    command = [sys.executable, os.path.join(ROOT, "bench_e2e", "run.py"),
               "--workload", workload, "--seed", "1",
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("run.py exited %d" % done.returncode)
    fingerprint = None
    for line in lines[:-1]:
        match = FINGERPRINT.match(line)
        if match:
            fingerprint = match.group(1)
    return json.loads(lines[-1]), fingerprint


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        with open(os.path.join(ROOT, "BENCH_%s.json" % workload)) as f:
            rows = json.load(f)["rows"]
        try:
            result, fingerprint = run_workload(
                workload, reference_seconds(rows, spec["end_to_end"]))
        except (RuntimeError, ValueError) as e:
            failures.append("%s: %s" % (workload, e))
            continue
        failures += compare(workload, spec["end_to_end"], rows, result,
                            fingerprint)
    for failure in failures:
        print("e2e_gate: FAIL " + failure)
    print("e2e_gate: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
