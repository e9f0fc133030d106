#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload of BENCHMARK.json.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
bench_e2e under .bench_build/; later calls rebuild incrementally. Its own
report goes to stdout, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list
(and the traced run's Chrome trace is written to
.bench_build/bench_e2e/trace-<workload>.json and checked to load).
Exits non-zero without a result when the sources are missing, the build
fails, or bench_e2e crashes or times out.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def cached_source_dir():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    for needed in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("repository sources not found (no %s at %s)" % (needed, ROOT))
    commands = []
    if cached_source_dir() != HERE:
        # A build tree configured for another checkout cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
        commands.append(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    commands.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                     "-j", jobs])
    for command in commands:
        try:
            done = subprocess.run(command, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (command[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (command[:2], done.returncode))


def chrome_trace_loads(path):
    try:
        with open(path) as f:
            return len(json.load(f)["traceEvents"]) > 0
    except (OSError, ValueError, KeyError, TypeError):
        return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 0:
        fail("--seconds must be non-negative")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build()
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed % 2**64),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = os.path.join(BUILD, "trace-%s.json" % args.workload)
    if args.trace:
        if os.path.exists(trace_path):
            os.remove(trace_path)
        command += ["--trace-out", trace_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("bench_e2e did not finish: %s" % e)
    lines = done.stdout.strip().splitlines()
    # Exit 1 is a failed self-check, reported as correct=false below.
    if done.returncode not in (0, 1) or not lines:
        fail("bench_e2e exited %d" % done.returncode)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail("bench_e2e printed no JSON result")
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail("bench_e2e did not report %s" % m["name"])
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    correct = bool(report["correct"]) and done.returncode == 0
    if args.trace and not chrome_trace_loads(trace_path):
        print("run.py: the Chrome trace %s does not load" % trace_path,
              file=sys.stderr)
        correct = False
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
