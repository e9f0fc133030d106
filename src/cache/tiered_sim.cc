#include "cache/tiered_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace dri::cache {

TieredCacheSim::TieredCacheSim(const model::ModelSpec &spec,
                               TieredCacheConfig config)
    : config_(config)
{
    row_bytes_.reserve(spec.tables.size());
    for (const auto &t : spec.tables)
        row_bytes_.push_back(t.storedRowBytes());
    cache_ = makeCacheWithAdmission(config_.policy, config_.capacity_bytes,
                                    config_.admission);
    // Attribute evictions to the table losing the row.
    cache_->setEvictionHook([this](int table, std::int64_t, std::int64_t) {
        if (table >= 0 && static_cast<std::size_t>(table) < evictions_.size())
            ++evictions_[static_cast<std::size_t>(table)];
    });
}

CacheSimResult
TieredCacheSim::replay(const workload::AccessTrace &trace)
{
    begin(trace.size());
    for (const auto &rec : trace.records())
        access(rec.table_id, rec.row);
    return result();
}

void
TieredCacheSim::begin(std::size_t total_accesses)
{
    total_ = total_accesses;
    seen_ = 0;
    const double clamped_warmup =
        std::clamp(config_.warmup_fraction, 0.0, 1.0);
    warm_ = static_cast<std::size_t>(
        std::llround(clamped_warmup * static_cast<double>(total_)));
    result_ = CacheSimResult{};
    result_.per_table.resize(row_bytes_.size());
    evictions_.assign(row_bytes_.size(), 0);
    cache_->resetStats();
}

void
TieredCacheSim::access(int table, std::int64_t row)
{
    const std::size_t i = seen_++;
    if (i == warm_ && i > 0) {
        // Warmup boundary: discard counters, keep the resident set.
        cache_->resetStats();
        std::fill(evictions_.begin(), evictions_.end(), 0);
    }
    if (table < 0 || static_cast<std::size_t>(table) >= row_bytes_.size())
        return; // accesses to tables this model does not define
    const auto t = static_cast<std::size_t>(table);
    const bool hit = cache_->access(table, row, row_bytes_[t]);
    if (i < warm_)
        return; // warm the resident set without counting
    auto &ts = result_.per_table[t];
    ++ts.accesses;
    if (hit)
        ++ts.hits;
    else
        ++ts.misses;
}

CacheSimResult
TieredCacheSim::result()
{
    if (seen_ != total_)
        throw std::logic_error(
            "TieredCacheSim: begin() announced " + std::to_string(total_) +
            " accesses, access() ran " + std::to_string(seen_) + " times");
    if (warm_ >= total_) {
        // The whole stream was warmup: the boundary reset never fired, so
        // discard the warmup-window evictions too — the post-warmup
        // window is empty and must report all-zero statistics.
        std::fill(evictions_.begin(), evictions_.end(), 0);
    }

    CacheSimResult result = std::move(result_);
    for (std::size_t t = 0; t < result.per_table.size(); ++t) {
        result.per_table[t].evictions = evictions_[t];
        result.total.merge(result.per_table[t]);
    }
    // Admission vetoes are tracked by the (possibly wrapped) cache, not
    // per table; counters were reset at the warmup boundary, so this is
    // the post-warmup figure (zero when the whole stream was warmup).
    if (warm_ < total_)
        result.total.admission_rejects = cache_->stats().admission_rejects;
    return result;
}

CacheSimResult
replayTrace(const model::ModelSpec &spec,
            const workload::AccessTrace &trace, Policy policy,
            std::int64_t capacity_bytes, double warmup_fraction,
            Admission admission)
{
    TieredCacheConfig config;
    config.policy = policy;
    config.capacity_bytes = capacity_bytes;
    config.warmup_fraction = warmup_fraction;
    config.admission = admission;
    TieredCacheSim sim(spec, config);
    return sim.replay(trace);
}

} // namespace dri::cache
