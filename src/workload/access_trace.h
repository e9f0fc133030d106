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
 * Streaming contract: forEachRank is the one generator of request-driven
 * accesses, as (request, table, Zipf rank) draws; forEachAccess views
 * the same stream as rows through rowOfRank. It stores nothing, and
 * rerunning it with the same arguments replays the identical stream, so
 * a consumer that keeps only aggregates (per-shard cache models) can
 * read it in two passes and hold memory bounded by those aggregates. A
 * consumer that only counts can count ranks: a table's whole key space
 * is kPopularityRanks ranks, whatever its row count. The table filter
 * lets a consumer of some tables skip the rest without changing any draw
 * it keeps: unwanted tables' engine words are advanced by
 * stats::Rng::discard, which twists whole generator blocks without
 * tempering or sampling them. recordTrace collects the row stream for
 * callers that need the records themselves, at 24 B per access.
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

/** forEachRank's default table predicate: every table is wanted. */
struct AllTables
{
    constexpr bool operator()(std::size_t) const { return true; }
};

/**
 * The popularity universe of request-driven accesses: every table's
 * lookups draw a Zipf rank in [0, kPopularityRanks), and rowOfRank maps
 * it onto one of the table's rows.
 */
inline constexpr std::size_t kPopularityRanks = 4096;

/**
 * The row of a `rows`-row table that popularity rank `rank` lands on: a
 * fixed multiplicative hash, so the same rank always names the same row
 * and popular rows are stable across requests. Several ranks can land on
 * one row (always when rows < kPopularityRanks).
 */
inline std::int64_t
rowOfRank(std::size_t rank, std::int64_t rows)
{
    return static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(rank + 1) * 0x9e3779b97f4a7c15ULL) %
        static_cast<std::uint64_t>(rows));
}

/**
 * Expand requests into Zipf(popularity_skew) rank draws and hand each to
 * `fn(const Request &, std::size_t table, std::size_t rank)`, in request
 * order, then table order, storing none of them. One Zipf sampler over
 * kPopularityRanks ranks is shared by every table: embedding traffic is
 * popularity-skewed but heavy-tailed. Throws std::invalid_argument,
 * before calling fn, when a request's table_lookups does not match
 * spec.tables, a table has rows <= 0 or popularity_skew is NaN.
 *
 * `want(t)` selects the tables whose draws reach fn (default: every
 * table). Each lookup of an unwanted table still advances the generator
 * by exactly the one engine word its draw would take: the words of a run
 * of unwanted lookups are skipped in one stats::Rng::discard call just
 * before the next wanted draw, without being tempered or sampled. So
 * every draw fn sees is identical to its counterpart in the unfiltered
 * stream: the filtered stream is the unfiltered one restricted to the
 * wanted tables.
 */
template <class Fn, class Want = AllTables>
void
forEachRank(const model::ModelSpec &spec,
            const std::vector<Request> &requests, double popularity_skew,
            std::uint64_t seed, Fn &&fn, Want &&want = Want{})
{
    detail::checkAccessSource(spec, requests, popularity_skew);
    stats::Rng rng(seed);
    const stats::ZipfSampler zipf(kPopularityRanks, popularity_skew);

    std::uint64_t skipped = 0; // unwanted lookups not yet discarded
    for (const auto &req : requests) {
        for (std::size_t t = 0; t < spec.tables.size(); ++t) {
            const std::int32_t lookups = req.table_lookups[t];
            if (lookups <= 0)
                continue;
            if (!want(t)) {
                // ZipfSampler::sample takes one engine word per draw.
                skipped += static_cast<std::uint64_t>(lookups);
                continue;
            }
            if (skipped > 0) {
                rng.discard(skipped);
                skipped = 0;
            }
            for (std::int32_t k = 0; k < lookups; ++k)
                fn(req, t, zipf.sample(rng));
        }
    }
}

/**
 * forEachRank's stream as row accesses: each draw reaches `fn` as a
 * `const AccessRecord &` naming rowOfRank(rank, table rows). Same order,
 * errors and table filter as forEachRank.
 */
template <class Fn, class Want = AllTables>
void
forEachAccess(const model::ModelSpec &spec,
              const std::vector<Request> &requests, double popularity_skew,
              std::uint64_t seed, Fn &&fn, Want &&want = Want{})
{
    forEachRank(
        spec, requests, popularity_skew, seed,
        [&](const Request &req, std::size_t t, std::size_t rank) {
            fn(AccessRecord{req.id, static_cast<int>(t),
                            rowOfRank(rank, spec.tables[t].rows)});
        },
        want);
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
