/**
 * @file
 * Bench-artifact regression gate: compare a freshly produced JSONL
 * bench artifact against a committed baseline, with per-metric-class
 * noise-tolerance bands, and fail loudly when the fleet got slower,
 * costlier, or nondeterministic.
 *
 * The benches already emit one flat JSON object per result row on
 * stdout (grep '^{' in CI). This gate closes the loop: baselines
 * produced on a pinned seed live under bench/baselines/ as JSONL,
 * every CI run regenerates the artifacts and diffs them here. Metrics
 * are classified BY NAME, because their failure semantics differ:
 *
 *  - "*wall*": wall-clock milliseconds — machine-dependent, skipped
 *    (opt in via GateConfig::check_wall_clock).
 *  - "*per_sec*": throughput — machine-dependent but directional; a
 *    LOWER bound with a generous tolerance (faster is never a
 *    regression, CI runners are slower than dev boxes).
 *  - "*fingerprint*": determinism contract — compared as raw token
 *    strings (64-bit fingerprints exceed double precision), must be
 *    EXACTLY equal.
 *  - other numbers: deterministic simulation outputs (sim-time P99s,
 *    machine-hours, hit rates) — tight relative band that absorbs only
 *    the 6-significant-digit printing round-trip.
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
    SkipWallClock, //!< machine-dependent absolute time: not gated
    Throughput,    //!< lower-bound with generous tolerance
    Fingerprint,   //!< exact raw-token equality
    Value,         //!< tight relative band (printing round-trip only)
    Label          //!< string/boolean identity
};

/** Classify by name + whether the raw token parses as a number. */
MetricClass classifyMetric(const std::string &name, bool numeric);

/** Gate tolerances. */
struct GateConfig
{
    /**
     * Throughput lower bound: current >= tolerance * baseline. The
     * default absorbs CI-runner jitter; a perf-regression canary test
     * can tighten it (0.9 catches a 20% drop).
     */
    double throughput_tolerance = 0.75;
    /** Relative band for deterministic numeric metrics. */
    double value_tolerance = 2e-5;
    /** Gate "*wall*" metrics too (same bound as throughput, inverted). */
    bool check_wall_clock = false;
    /**
     * Skip throughput (and wall) checks entirely — for sanitizer CI
     * entries whose builds are legitimately an order of magnitude
     * slower than any baseline machine.
     */
    bool skip_machine_dependent = false;
};

/** One gate failure. */
struct GateViolation
{
    std::size_t row = 0; //!< row index in the baseline artifact
    std::string key;
    std::string kind; //!< "rows"|"missing"|"throughput"|"value"|...
    std::string baseline;
    std::string current;
    std::string detail;
};

struct GateReport
{
    std::size_t rows_compared = 0;
    std::size_t metrics_compared = 0;
    std::size_t metrics_skipped = 0;
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

/** Diff current against baseline under the config's bands. */
GateReport compareArtifacts(const std::vector<ArtifactRow> &baseline,
                            const std::vector<ArtifactRow> &current,
                            const GateConfig &config = {});

/** Human-readable report (one line per violation + a summary line). */
void writeReport(std::ostream &os, const GateReport &report,
                 const std::string &baseline_name,
                 const std::string &current_name);

} // namespace dri::obs
