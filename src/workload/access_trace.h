/**
 * @file
 * Embedding-table access traces (Section IX): the paper points academics
 * at trace-driven experimentation — "Bandana used embedding table access
 * traces, which can be collected offline, to reduce effective DRAM
 * requirements... explorations [of] table placement and frequency-based
 * caching are also valuable directions enabled with trace-based analyses."
 *
 * This module records per-table access streams from generated requests
 * (with Zipf-skewed row ids), synthesizes a mixed recency/frequency trace
 * for the eviction-policy studies, and measures a trace's distinct-row
 * footprint, the universe cache capacities are sized against.
 *
 * Streaming contract: forEachAccess is the one generator of
 * request-driven accesses. It stores nothing, and rerunning it with the
 * same arguments replays the identical stream, so a consumer that keeps
 * only aggregates (per-shard cache models) can read it in two passes
 * and hold memory bounded by those aggregates; its table filter lets a
 * consumer of some tables skip sampling the rest without changing any
 * record it keeps. recordTrace collects the same stream for callers that
 * need the records themselves, at 24 B per access.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/model_spec.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "workload/request_generator.h"

namespace dri::workload {

/** One recorded embedding access. */
struct AccessRecord
{
    std::uint64_t request_id = 0;
    int table_id = 0;
    std::int64_t row = 0;
};

/** An offline embedding-access trace. */
class AccessTrace
{
  public:
    AccessTrace() = default;

    void add(const AccessRecord &record) { records_.push_back(record); }
    void reserve(std::size_t records) { records_.reserve(records); }
    const std::vector<AccessRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }

  private:
    std::vector<AccessRecord> records_;
};

/**
 * Distinct-row footprint of a trace: rows counted per (table, row) pair,
 * bytes via each table's stored row size — the cacheable universe that
 * capacity fractions and analytic-vs-measured comparisons are taken
 * against. Records naming tables outside the spec are ignored, matching
 * TieredCacheSim::replay.
 */
struct TraceFootprint
{
    std::int64_t distinct_rows = 0;
    std::int64_t universe_bytes = 0;
};

TraceFootprint traceFootprint(const model::ModelSpec &spec,
                              const AccessTrace &trace);

namespace detail {
/**
 * Throws std::invalid_argument unless every request carries one lookup
 * count per spec table, every table has rows > 0 and popularity_skew is
 * not NaN.
 */
void checkAccessSource(const model::ModelSpec &spec,
                       const std::vector<Request> &requests,
                       double popularity_skew);
} // namespace detail

/** forEachAccess's default table predicate: every table is wanted. */
struct AllTables
{
    constexpr bool operator()(std::size_t) const { return true; }
};

/**
 * Expand requests into row accesses and hand each to `fn` as a
 * `const AccessRecord &`, in request order, then table order, storing
 * none of them. Row ids within each table follow a Zipf(popularity_skew)
 * distribution over the table's logical rows: embedding traffic is
 * popularity-skewed but heavy-tailed. Throws std::invalid_argument,
 * before emitting anything, when a request's table_lookups does not match
 * spec.tables, a table has rows <= 0 or popularity_skew is NaN.
 *
 * `want(t)` selects the tables whose accesses are emitted (default:
 * every table). Each lookup of an unwanted table still advances the
 * generator by exactly the one engine word its Zipf draw would take, and
 * emits nothing, so every emitted record is identical to its
 * counterpart in the unfiltered stream: the filtered stream is the
 * unfiltered one restricted to the wanted tables.
 */
template <class Fn, class Want = AllTables>
void
forEachAccess(const model::ModelSpec &spec,
              const std::vector<Request> &requests, double popularity_skew,
              std::uint64_t seed, Fn &&fn, Want &&want = Want{})
{
    detail::checkAccessSource(spec, requests, popularity_skew);
    stats::Rng rng(seed);

    // One Zipf sampler over a bounded popularity universe, shared by every
    // table: rank r maps to a deterministic pseudo-random row of the
    // table, so popular rows are stable across requests.
    constexpr std::size_t kRanks = 4096;
    const stats::ZipfSampler zipf(kRanks, popularity_skew);

    for (const auto &req : requests) {
        for (std::size_t t = 0; t < spec.tables.size(); ++t) {
            const std::int32_t lookups = req.table_lookups[t];
            if (!want(t)) {
                // ZipfSampler::sample takes one engine word per draw.
                for (std::int32_t k = 0; k < lookups; ++k)
                    rng();
                continue;
            }
            const auto rows = static_cast<std::uint64_t>(spec.tables[t].rows);
            for (std::int32_t k = 0; k < lookups; ++k) {
                const std::size_t rank = zipf.sample(rng);
                // Spread ranks over the table's logical rows via a fixed
                // multiplicative hash (same rank -> same row).
                const auto row = static_cast<std::int64_t>(
                    (static_cast<std::uint64_t>(rank + 1) *
                     0x9e3779b97f4a7c15ULL) %
                    rows);
                fn(AccessRecord{req.id, static_cast<int>(t), row});
            }
        }
    }
}

/**
 * Materialize forEachAccess's stream as a trace, reserved to the exact
 * access count up front. Use it when the records themselves are needed
 * (footprints, repeated replays); to build cache
 * models only, core::buildShardCacheModels's request overload streams.
 */
AccessTrace recordTrace(const model::ModelSpec &spec,
                        const std::vector<Request> &requests,
                        double popularity_skew, std::uint64_t seed);

/**
 * Parameters of the synthetic mixed recency/frequency trace — the
 * workload that separates adaptive eviction (ARC) from the pure-recency
 * and pure-frequency policies it interpolates between.
 */
struct MixedTraceConfig
{
    std::size_t accesses = 60000;
    int table_id = 0;
    /**
     * Fraction of accesses drawn from the *recency* component: a dense
     * working-set window of 512 rows that drifts forward one row every 8
     * accesses, so rows are re-referenced heavily while the window covers
     * them and never again after it passes. The rest come from a static
     * Zipf(0.8) over 4096 ranks (access_trace.cc's kWindowRows,
     * kDriftStride, kZipfSkew and kZipfRanks). 0 = pure frequency, 1 =
     * pure recency.
     */
    double recency_fraction = 0.5;
    std::uint64_t seed = 1;
};

/**
 * Synthesize a single-table trace blending a drifting-window recency
 * stream with a static-Zipf frequency stream (per MixedTraceConfig). The
 * two components address disjoint row ranges of the table, so their hit
 * opportunities never alias. Used by the ARC property tests and
 * examples/cache_v2_study.
 */
AccessTrace synthesizeMixedTrace(const model::ModelSpec &spec,
                                 const MixedTraceConfig &config);

} // namespace dri::workload
