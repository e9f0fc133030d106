/**
 * @file
 * Parallel fleet sweeps: run a grid of (policy, seed) cells across a
 * thread pool and merge the ledgers deterministically.
 *
 * A sweep cell is one complete fleet run. Cells are independent by
 * construction — every thread builds its OWN DiurnalLoadModel, FleetSim,
 * CapacityPlanner, and Autoscaler from the shared immutable study, so no
 * simulation state crosses a thread boundary. The merge is positional:
 * results land at their cell's canonical grid index no matter which
 * thread ran them or in what order they finished, so the output vector
 * is byte-identical to a sequential sweep over the same grid.
 *
 * That equivalence is a *checkable* contract, not a hope:
 * FleetStats::fingerprint() and telemetryFingerprint() hash every
 * numeric field of every epoch, so `parallel == sequential` reduces to
 * comparing two integers per cell — which bench_parallel_sweep asserts
 * on every run and sim_perf_test pins at thread counts {1, 2, 8}.
 *
 * Thread-safety ground rule for callers: the CellRunner must touch only
 * the cell it is given plus immutable shared inputs.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet/fleet_sim.h"
#include "fleet/study.h"

namespace dri::fleet {

/** One grid cell: a policy name (a makeAutoscaler() name) and a diurnal
 *  load seed (one seeded realization of the study's traffic). */
struct SweepCell
{
    std::string policy;
    std::uint64_t seed = 0;
};

/** One cell's ledger, tagged with the cell that produced it. */
struct SweepResult
{
    SweepCell cell;
    FleetStats stats;
};

/** The (policy x seed) cross product, policies major — the canonical
 *  cell order every sweep (sequential or parallel) merges into. */
std::vector<SweepCell> sweepGrid(const std::vector<std::string> &policies,
                                 const std::vector<std::uint64_t> &seeds);

/**
 * Run one cell of the canonical study, thread-confined: constructs a
 * fresh load model, planner bundle, policy, and FleetSim, with the
 * cell's seed replacing the study's diurnal load seed. Deterministic
 * in (study, cell) alone.
 */
FleetStats runStudyCell(const FleetStudy &study, const SweepCell &cell);

/** Fan a cell grid across a fixed-size thread pool. */
class ParallelSweep
{
  public:
    /** Produces the ledger for one cell; must be thread-confined. */
    using CellRunner = std::function<FleetStats(const SweepCell &)>;

    /** `threads` <= 1 runs the grid inline on the calling thread. */
    explicit ParallelSweep(int threads) : threads_(threads) {}

    /**
     * Run every cell and return results in grid order. The calling
     * thread and up to the constructor's `threads` - 1 others
     * (core::runConcurrently) claim cells from a shared atomic cursor
     * (so a slow cell never serializes the pool) and write results by
     * cell index. The first exception any cell throws is rethrown here
     * after all threads join.
     */
    std::vector<SweepResult> run(const std::vector<SweepCell> &cells,
                                 const CellRunner &runner) const;

  private:
    int threads_;
};

} // namespace dri::fleet
