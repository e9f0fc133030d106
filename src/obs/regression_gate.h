/**
 * @file
 * Bench-artifact regression gate: compare a freshly produced JSONL
 * bench artifact against a committed baseline and fail loudly when a
 * deterministic output (machine-hours, sim-time P99s, fingerprints)
 * moved.
 *
 * The benches already emit one flat JSON object per result row on
 * stdout (grep '^{' in CI). This gate closes the loop: baselines
 * produced on a pinned seed live under bench/baselines/ as JSONL,
 * every CI run regenerates the artifacts and diffs them here. Every
 * gated artifact is a pure function of its seed, so no metric is
 * machine-dependent; host speed is gated by bench/e2e_gate.py instead.
 * Metrics are classified BY NAME:
 *
 *  - "*fingerprint*": determinism contract — compared as raw token
 *    strings (64-bit fingerprints exceed double precision), must be
 *    EXACTLY equal.
 *  - other numbers: deterministic simulation outputs (sim-time P99s,
 *    machine-hours, hit rates) — a kValueTolerance relative band that
 *    absorbs only the 6-significant-digit printing round-trip.
 *  - strings/booleans: identity (config labels, policy names).
 *
 * Rows are matched by index: bench output order is deterministic, and
 * a reordering IS a diff worth failing on. The parser accepts exactly
 * the flat one-line objects bench_common's JsonRow writes; anything
 * else on stdout was never part of the artifact contract.
 */
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace dri::obs {

/** Failure-semantics class a metric name maps to. */
enum class MetricClass : int {
    Fingerprint, //!< exact raw-token equality
    Value,       //!< kValueTolerance relative band
    Label        //!< string/boolean identity
};

/** Classify by name + whether the raw token parses as a number. */
MetricClass classifyMetric(const std::string &name, bool numeric);

/** Relative band for deterministic numeric metrics. */
constexpr double kValueTolerance = 2e-5;

/** One gate failure. */
struct GateViolation
{
    std::size_t row = 0; //!< row index in the baseline artifact
    std::string key;
    std::string kind; //!< "rows"|"missing"|"fingerprint"|"value"|"label"
    std::string baseline;
    std::string current;
    std::string detail;
};

struct GateReport
{
    std::size_t rows_compared = 0;
    std::size_t metrics_compared = 0;
    std::vector<GateViolation> violations;

    bool pass() const { return violations.empty(); }
};

/** One parsed artifact row: ordered (key, raw value token) pairs. */
struct ArtifactRow
{
    std::vector<std::pair<std::string, std::string>> fields;

    /** Raw token for a key, or nullptr. */
    const std::string *find(const std::string &key) const;
};

/**
 * Parse flat one-line JSON objects from a stream; non-object lines
 * (logs, self-check chatter) are ignored, malformed object lines
 * throw std::runtime_error naming the line.
 */
std::vector<ArtifactRow> parseArtifact(std::istream &in);

/** parseArtifact over a file; throws std::runtime_error if unreadable. */
std::vector<ArtifactRow> parseArtifactFile(const std::string &path);

/** Diff current against baseline, row by row. */
GateReport compareArtifacts(const std::vector<ArtifactRow> &baseline,
                            const std::vector<ArtifactRow> &current);

/** Human-readable report (one line per violation + a summary line). */
void writeReport(std::ostream &os, const GateReport &report,
                 const std::string &baseline_name,
                 const std::string &current_name);

} // namespace dri::obs
