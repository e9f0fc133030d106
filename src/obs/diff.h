/**
 * @file
 * Differential critical-path attribution: explain *why* a latency
 * metric moved between two runs, not just that it did.
 *
 * The paper's contribution is per-stage attribution of serving latency;
 * the regression gate (obs/regression_gate.h) detects that an E2E or
 * P99 metric shifted between a committed baseline and a fresh run. This
 * module closes the loop between the two: given both runs' flattened
 * artifact rows, it produces a per-stage delta table over the paper's
 * decomposition buckets (Queue / Compute / Serde / Network / Wait /
 * Other), names the stage responsible for the largest share of the
 * shift, and — when the rows carry histogram exemplars — surfaces the
 * concrete exemplar request pair so the investigation starts from two
 * retained traces instead of two aggregates.
 *
 * The inputs are the `path_<bucket>_ns` mean-attribution fields
 * bench_sim_throughput emits; this is what
 * `bench_regression_gate --explain` drives on failure.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/regression_gate.h"

namespace dri::obs {

/** One row of the differential table. */
struct StageDelta
{
    PathBucket bucket = PathBucket::Other;
    double base_ns = 0.0; //!< per-request mean attribution, baseline
    double cur_ns = 0.0;  //!< per-request mean attribution, current

    double delta() const { return cur_ns - base_ns; }
};

/** The explanation: who moved, by how much, and the trace pair. */
struct AttributionReport
{
    /** Rows sorted by |delta| descending (ties: bucket order). */
    std::vector<StageDelta> rows;
    /** Stage with the largest aggregate positive delta. */
    PathBucket blamed = PathBucket::Other;
    /** blamed stage's share of the total positive delta (0..1). */
    double blamed_share = 0.0;
    /** Per-request mean E2E in each run (ns). */
    double base_e2e_ns = 0.0;
    double cur_e2e_ns = 0.0;
    /** Exemplar request pair for the worst bucket (0 = unknown). */
    std::uint64_t base_exemplar_request = 0;
    std::uint64_t cur_exemplar_request = 0;
    /** True when attribution inputs were actually present. */
    bool has_attribution = false;

    /** One-line verdict ("serde +31.2us/req (78% of +40.1us e2e)"). */
    std::string headline() const;
};

/**
 * Gate-side differential attribution from two matched artifact rows,
 * using `path_<bucket>_ns` (per-request mean attribution) and
 * `tail_exemplar_request` fields when present. Rows lacking path
 * fields produce has_attribution == false (the gate then reports that
 * the artifact carries no attribution rather than guessing).
 */
AttributionReport explainArtifacts(const ArtifactRow &base,
                                   const ArtifactRow &current);

/**
 * Human-readable attribution report: the headline, the delta table
 * (largest movers first), and the exemplar pair.
 */
void writeAttributionReport(std::ostream &os,
                            const AttributionReport &report);

} // namespace dri::obs
