/**
 * @file
 * CLI front-end for the bench-artifact regression gate
 * (src/obs/regression_gate.h): diff a freshly generated JSONL bench
 * artifact against its committed baseline and exit non-zero on any
 * violation — the CI step that keeps the deterministic fleet and chaos
 * outputs byte-for-byte ratcheted. Host speed is not its job;
 * bench/e2e_gate.py gates that against the BENCH_*.json trajectory.
 *
 * Usage:
 *   bench_regression_gate --baseline bench/baselines/X.jsonl \
 *                         --current perf/X.jsonl
 *
 * Exit codes: 0 gate passed, 1 violations found, 2 usage/IO error.
 *
 * Refreshing baselines after an intentional change (CI compares the
 * --smoke artifacts, so baselines are generated the same way):
 *   ./build/bench_fleet_autoscaling --smoke | grep '^{' > bench/baselines/fleet_autoscaling_smoke.jsonl
 *   ./build/bench_chaos_suite --smoke       | grep '^{' > bench/baselines/chaos_suite_smoke.jsonl
 * then commit the diff alongside the change that caused it.
 */
#include <iostream>
#include <string>

#include "obs/regression_gate.h"

namespace {

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --baseline <file.jsonl> --current <file.jsonl>\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_path;
    std::string current_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        if (arg == "--baseline") {
            baseline_path = argv[++i];
        } else if (arg == "--current") {
            current_path = argv[++i];
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return usage(argv[0]);
        }
    }
    if (baseline_path.empty() || current_path.empty())
        return usage(argv[0]);

    try {
        const auto baseline =
            dri::obs::parseArtifactFile(baseline_path);
        const auto current = dri::obs::parseArtifactFile(current_path);
        const dri::obs::GateReport report =
            dri::obs::compareArtifacts(baseline, current);
        dri::obs::writeReport(std::cout, report, baseline_path,
                              current_path);
        return report.pass() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "bench_regression_gate: " << e.what() << "\n";
        return 2;
    }
}
