#include "fleet/parallel_sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>

#include "core/concurrency.h"

namespace dri::fleet {

std::vector<SweepCell>
sweepGrid(const std::vector<std::string> &policies,
          const std::vector<std::uint64_t> &seeds)
{
    std::vector<SweepCell> cells;
    cells.reserve(policies.size() * seeds.size());
    for (const std::string &p : policies)
        for (const std::uint64_t s : seeds)
            cells.push_back(SweepCell{p, s});
    return cells;
}

FleetStats
runStudyCell(const FleetStudy &study, const SweepCell &cell)
{
    // The seed axis varies the *diurnal load realization* (burst draws,
    // request streams): each seed is one seeded day of traffic, which
    // is what a (policy x seed) grid averages over. Everything —
    // planner, policy, load model, FleetSim — is built fresh here so a
    // cell shares nothing mutable with its siblings.
    workload::DiurnalLoadConfig load_cfg = study.load;
    load_cfg.seed = cell.seed;
    const workload::DiurnalLoadModel load(study.spec, load_cfg);
    const AutoscalerInputs inputs = studyAutoscalerInputs(study, load);
    const auto policy = makeAutoscaler(cell.policy, inputs);

    FleetSim sim(study.spec, study.plan, study.serving, load, study.fleet);
    return sim.run(*policy);
}

std::vector<SweepResult>
ParallelSweep::run(const std::vector<SweepCell> &cells,
                   const CellRunner &runner) const
{
    std::vector<SweepResult> results(cells.size());
    if (cells.empty())
        return results;

    // Each worker claims the next unstarted cell and writes its result
    // at that cell's grid index: execution order is racy, the merged
    // output is not.
    std::atomic<std::size_t> cursor{0};
    std::mutex error_mu;
    std::exception_ptr first_error;

    const auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= cells.size())
                return;
            try {
                results[i].cell = cells[i];
                results[i].stats = runner(cells[i]);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    const std::size_t pool =
        threads_ <= 1
            ? 1
            : std::min(static_cast<std::size_t>(threads_), cells.size());
    core::runConcurrently(pool, [&](std::size_t) { worker(); });
    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

} // namespace dri::fleet
