#include "workload/access_trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace dri::workload {

namespace detail {

void
checkAccessSource(const model::ModelSpec &spec,
                  const std::vector<Request> &requests,
                  double popularity_skew)
{
    if (std::isnan(popularity_skew))
        throw std::invalid_argument("access trace: popularity_skew is NaN");
    for (const auto &table : spec.tables)
        if (table.rows <= 0)
            throw std::invalid_argument("access trace: table '" +
                                        table.name + "' has rows <= 0");
    for (const auto &req : requests)
        if (req.table_lookups.size() != spec.tables.size())
            throw std::invalid_argument(
                "access trace: request " + std::to_string(req.id) +
                " has " + std::to_string(req.table_lookups.size()) +
                " table lookup counts, the spec has " +
                std::to_string(spec.tables.size()) + " tables");
}

} // namespace detail

AccessTrace
recordTrace(const model::ModelSpec &spec,
            const std::vector<Request> &requests, double popularity_skew,
            std::uint64_t seed)
{
    std::size_t accesses = 0;
    for (const auto &req : requests)
        for (const std::int32_t lookups : req.table_lookups)
            accesses += static_cast<std::size_t>(std::max(lookups, 0));

    AccessTrace trace;
    trace.reserve(accesses);
    forEachAccess(spec, requests, popularity_skew, seed,
                  [&trace](const AccessRecord &rec) { trace.add(rec); });
    return trace;
}

namespace {

/** Rows the drifting recency window covers at any one time. */
constexpr std::size_t kWindowRows = 512;
/** Accesses per one-row forward drift of the recency window. */
constexpr std::size_t kDriftStride = 8;
static_assert(kDriftStride >= 1);
/** Frequency component: static Zipf over a bounded rank universe. */
constexpr double kZipfSkew = 0.8;
constexpr std::size_t kZipfRanks = 4096;

} // namespace

AccessTrace
synthesizeMixedTrace(const model::ModelSpec &spec,
                     const MixedTraceConfig &config)
{
    if (config.table_id < 0 ||
        static_cast<std::size_t>(config.table_id) >= spec.tables.size())
        throw std::invalid_argument(
            "synthesizeMixedTrace: table_id " +
            std::to_string(config.table_id) + " is outside the spec's " +
            std::to_string(spec.tables.size()) + " tables");
    const auto &table =
        spec.tables[static_cast<std::size_t>(config.table_id)];
    // Disjoint row ranges: the drifting recency window walks the lower
    // half of the table's row space, the Zipf head hashes into the upper
    // half, so neither component pollutes the other's reuse signal.
    const auto half = std::max<std::int64_t>(1, table.rows / 2);
    const auto upper = std::max<std::int64_t>(1, table.rows - half);

    AccessTrace trace;
    stats::Rng rng(config.seed);
    stats::ZipfSampler zipf(kZipfRanks, kZipfSkew);

    for (std::size_t i = 0; i < config.accesses; ++i) {
        std::int64_t row = 0;
        if (rng.bernoulli(config.recency_fraction)) {
            const auto base = static_cast<std::int64_t>(i / kDriftStride);
            const auto offset = rng.uniformInt(
                0, static_cast<std::int64_t>(kWindowRows) - 1);
            row = (base + offset) % half;
        } else {
            row = half + rowOfRank(zipf.sample(rng), upper);
        }
        trace.add(AccessRecord{static_cast<std::uint64_t>(i),
                               config.table_id, row});
    }
    return trace;
}

TraceFootprint
traceFootprint(const model::ModelSpec &spec, const AccessTrace &trace)
{
    std::vector<std::unordered_set<std::int64_t>> distinct(
        spec.tables.size());
    for (const auto &rec : trace.records())
        if (rec.table_id >= 0 &&
            static_cast<std::size_t>(rec.table_id) < distinct.size())
            distinct[static_cast<std::size_t>(rec.table_id)].insert(rec.row);

    TraceFootprint footprint;
    for (std::size_t t = 0; t < distinct.size(); ++t) {
        const auto rows = static_cast<std::int64_t>(distinct[t].size());
        footprint.distinct_rows += rows;
        footprint.universe_bytes += rows * spec.tables[t].storedRowBytes();
    }
    return footprint;
}

} // namespace dri::workload
