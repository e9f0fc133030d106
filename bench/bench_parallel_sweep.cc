/**
 * @file
 * Parallel fleet sweep: the canonical diurnal study's (policy x seed)
 * grid through fleet::ParallelSweep, sequentially and across a thread
 * pool, with per-cell ledgers emitted as JSONL (grep "^{").
 *
 * Self-checking (exit 1 on violation): every cell's
 * FleetStats::fingerprint() AND telemetryFingerprint() must be
 * byte-identical between the sequential and the parallel sweep — the
 * determinism contract that makes a thread pool a pure wall-clock
 * optimization. The pool has a fixed kThreads workers, so stdout is the
 * same on every host; the two wall times and the speedup go to stderr.
 * `--smoke` runs the one-day reduced study.
 */
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fleet/parallel_sweep.h"
#include "fleet/study.h"
#include "stats/table_printer.h"

namespace {

using namespace dri;

constexpr int kThreads = 4;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    using stats::TablePrinter;
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    std::cout << stats::banner(
        "Parallel fleet sweep: (policy x seed) grid across a thread pool");

    const auto study = fleet::makeFleetStudy(smoke);
    const std::vector<std::string> policies{"static-peak", "reactive",
                                            "predictive"};
    // Seeds are diurnal load realizations; 0xd1a1 is the canonical
    // study's own trace, so cell 0 of each policy row reproduces the
    // bench_fleet_autoscaling ledger exactly.
    const std::vector<std::uint64_t> seeds =
        smoke ? std::vector<std::uint64_t>{0xd1a1, 0xd1a2}
              : std::vector<std::uint64_t>{0xd1a1, 0xd1a2, 0xd1a3};
    const auto cells = fleet::sweepGrid(policies, seeds);
    const auto runner = [&study](const fleet::SweepCell &cell) {
        return fleet::runStudyCell(study, cell);
    };

    const auto t_seq = std::chrono::steady_clock::now();
    const auto sequential = fleet::ParallelSweep(1).run(cells, runner);
    const double seq_s = secondsSince(t_seq);

    const auto t_par = std::chrono::steady_clock::now();
    const auto parallel = fleet::ParallelSweep(kThreads).run(cells, runner);
    const double par_s = secondsSince(t_par);

    TablePrinter table({"policy", "seed", "machine-h", "watt-h",
                        "steady viol", "fingerprint"});
    bool ok = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &s = sequential[i];
        const auto &p = parallel[i];
        const bool cell_ok =
            s.stats.fingerprint() == p.stats.fingerprint() &&
            s.stats.telemetryFingerprint() ==
                p.stats.telemetryFingerprint() &&
            s.cell.policy == p.cell.policy && s.cell.seed == p.cell.seed;
        if (!cell_ok) {
            std::cerr << "FAIL: parallel ledger diverged from sequential"
                      << " at cell " << i << " (" << s.cell.policy
                      << ", seed " << s.cell.seed << ")\n";
            ok = false;
        }
        std::cout
            << bench::JsonRow("parallel_sweep")
                   .field("policy", s.cell.policy)
                   .field("seed", s.cell.seed)
                   .field("machine_hours", s.stats.totalMachineHours())
                   .field("watt_hours", s.stats.totalWattHours())
                   .field("steady_slo_violation_epochs",
                          static_cast<std::int64_t>(
                              s.stats.steadySloViolationEpochs()))
                   .field("shed_requests", s.stats.totalShedRequests())
                   .field("reconfigurations",
                          static_cast<std::int64_t>(
                              s.stats.reconfigurations()))
                   .field("fingerprint", s.stats.fingerprint())
                   .field("telemetry_fingerprint",
                          s.stats.telemetryFingerprint())
                   .field("parallel_match", static_cast<int>(cell_ok));
        table.addRow({s.cell.policy, std::to_string(s.cell.seed),
                      TablePrinter::num(s.stats.totalMachineHours()),
                      TablePrinter::num(s.stats.totalWattHours(), 0),
                      std::to_string(s.stats.steadySloViolationEpochs()),
                      std::to_string(s.stats.fingerprint())});
    }
    std::cout << table.render() << "\n";

    std::cout << bench::JsonRow("parallel_sweep_summary")
                     .field("cells",
                            static_cast<std::int64_t>(cells.size()))
                     .field("threads", kThreads)
                     .field("all_match", static_cast<int>(ok));
    std::cerr << bench::JsonRow("parallel_sweep_timing")
                     .field("sequential_s", seq_s)
                     .field("parallel_s", par_s)
                     .field("speedup", par_s > 0.0 ? seq_s / par_s : 0.0);

    if (!ok)
        return 1;
    std::cout << "\nSELF-CHECK PASSED: " << cells.size()
              << " cells byte-identical across sequential and " << kThreads
              << "-thread sweeps\n";
    return 0;
}
