#include "workload/access_trace.h"

#include <algorithm>
#include <cassert>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace dri::workload {

void
AccessTrace::write(std::ostream &os) const
{
    for (const auto &r : records_)
        os << r.request_id << " " << r.table_id << " " << r.row << "\n";
}

bool
AccessTrace::read(std::istream &is, AccessTrace *out)
{
    assert(out);
    out->records_.clear();
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        AccessRecord rec;
        if (!(ls >> rec.request_id >> rec.table_id >> rec.row))
            return false;
        out->records_.push_back(rec);
    }
    return true;
}

std::vector<std::int64_t>
AccessTrace::accessCounts(std::size_t num_tables) const
{
    std::vector<std::int64_t> counts(num_tables, 0);
    for (const auto &r : records_)
        if (r.table_id >= 0 &&
            static_cast<std::size_t>(r.table_id) < num_tables)
            ++counts[static_cast<std::size_t>(r.table_id)];
    return counts;
}

std::vector<std::int64_t>
AccessTrace::workingSetCurve(int table_id, std::size_t stride) const
{
    assert(stride > 0);
    std::vector<std::int64_t> curve;
    std::set<std::int64_t> seen;
    std::size_t accesses = 0;
    for (const auto &r : records_) {
        if (r.table_id != table_id)
            continue;
        seen.insert(r.row);
        ++accesses;
        if (accesses % stride == 0)
            curve.push_back(static_cast<std::int64_t>(seen.size()));
    }
    return curve;
}

double
AccessTrace::topRowCoverage(int table_id, std::size_t top_n) const
{
    std::map<std::int64_t, std::int64_t> counts;
    std::int64_t total = 0;
    for (const auto &r : records_) {
        if (r.table_id != table_id)
            continue;
        ++counts[r.row];
        ++total;
    }
    if (total == 0)
        return 0.0;
    std::vector<std::int64_t> sorted;
    sorted.reserve(counts.size());
    for (const auto &kv : counts)
        sorted.push_back(kv.second);
    std::sort(sorted.rbegin(), sorted.rend());
    std::int64_t covered = 0;
    for (std::size_t i = 0; i < std::min(top_n, sorted.size()); ++i)
        covered += sorted[i];
    return static_cast<double>(covered) / static_cast<double>(total);
}

namespace detail {

void
checkAccessSource(const model::ModelSpec &spec,
                  const std::vector<Request> &requests)
{
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
            const std::size_t rank = zipf.sample(rng);
            row = half + static_cast<std::int64_t>(
                             (static_cast<std::uint64_t>(rank + 1) *
                              0x9e3779b97f4a7c15ULL) %
                             static_cast<std::uint64_t>(upper));
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
