/**
 * @file
 * Unit tests for the embedding-cache subsystem: per-policy behavior
 * (capacity enforcement, eviction order, frequency retention, scan
 * resistance), trace replay bookkeeping, the hit-rate -> cost conversion,
 * and the serving-simulation integration.
 */
#include <gtest/gtest.h>

#include <list>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/lookup_model.h"
#include "cache/tiered_sim.h"
#include "core/serving.h"
#include "core/strategies.h"
#include "dc/paging_traced.h"
#include "stats/rng.h"
#include "workload/access_trace.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;
using cache::Policy;

constexpr std::int64_t kRow = 128; // uniform row size for policy tests

model::ModelSpec
smallSpec(int tables = 1)
{
    model::ModelSpec spec;
    spec.name = "cache-test";
    spec.mean_items = 16.0;
    spec.items_alpha = 1.3;
    spec.items_min = 4.0;
    spec.items_max = 64.0;
    spec.nets = {{0, "net", 1.0, 0.0}};
    for (int i = 0; i < tables; ++i) {
        model::TableSpec t;
        t.id = i;
        t.name = "t" + std::to_string(i);
        t.rows = 50000;
        t.dim = 32; // fp32 -> 128 B stored rows
        t.pooling_per_item = 2.0;
        spec.tables.push_back(t);
    }
    return spec;
}

// ---------------------------------------------------------------------------
// Policy behavior
// ---------------------------------------------------------------------------

TEST(EmbeddingCache, CapacityNeverExceeded)
{
    for (const auto policy :
         {Policy::Lru, Policy::Lfu, Policy::TwoQueue}) {
        auto cache = cache::makeCache(policy, 4 * kRow);
        for (std::int64_t row = 0; row < 100; ++row) {
            cache->access(0, row % 13, kRow);
            ASSERT_LE(cache->usedBytes(), cache->capacityBytes())
                << cache::policyName(policy);
        }
        EXPECT_LE(cache->residentRows(), 4u);
        const auto &st = cache->stats();
        EXPECT_EQ(st.accesses, 100);
        EXPECT_EQ(st.hits + st.misses, st.accesses);
        EXPECT_GT(st.evictions, 0);
    }
}

TEST(EmbeddingCache, LruEvictsLeastRecentlyUsed)
{
    auto cache = cache::makeCache(Policy::Lru, 3 * kRow);
    cache->access(0, 1, kRow);
    cache->access(0, 2, kRow);
    cache->access(0, 3, kRow);
    cache->access(0, 1, kRow); // 2 is now the coldest
    cache->access(0, 4, kRow); // evicts 2
    EXPECT_TRUE(cache->contains(0, 1));
    EXPECT_FALSE(cache->contains(0, 2));
    EXPECT_TRUE(cache->contains(0, 3));
    EXPECT_TRUE(cache->contains(0, 4));
    EXPECT_EQ(cache->stats().evictions, 1);
}

TEST(EmbeddingCache, LfuKeepsFrequentRows)
{
    auto cache = cache::makeCache(Policy::Lfu, 3 * kRow);
    for (int i = 0; i < 5; ++i) {
        cache->access(0, 100, kRow);
        cache->access(0, 200, kRow);
    }
    // A stream of one-touch rows churns through the third slot but can
    // never displace the two frequent rows.
    for (std::int64_t row = 0; row < 50; ++row)
        cache->access(0, row, kRow);
    EXPECT_TRUE(cache->contains(0, 100));
    EXPECT_TRUE(cache->contains(0, 200));
}

TEST(EmbeddingCache, LfuEvictionOrderBreaksTiesByAge)
{
    auto cache = cache::makeCache(Policy::Lfu, 2 * kRow);
    cache->access(0, 1, kRow); // freq 1, older
    cache->access(0, 2, kRow); // freq 1, newer
    cache->access(0, 3, kRow); // evicts 1 (oldest of the freq-1 bucket)
    EXPECT_FALSE(cache->contains(0, 1));
    EXPECT_TRUE(cache->contains(0, 2));
    EXPECT_TRUE(cache->contains(0, 3));
}

TEST(EmbeddingCache, TwoQueueResistsScans)
{
    const std::int64_t capacity = 8 * kRow;
    auto two_q = cache::makeCache(Policy::TwoQueue, capacity);
    auto lru = cache::makeCache(Policy::Lru, capacity);

    // Establish a re-referenced hot set (promoted to Am under 2Q).
    for (int pass = 0; pass < 3; ++pass)
        for (std::int64_t row = 0; row < 4; ++row) {
            two_q->access(0, row, kRow);
            lru->access(0, row, kRow);
        }
    // One-touch scan over many cold rows.
    for (std::int64_t row = 1000; row < 1100; ++row) {
        two_q->access(0, row, kRow);
        lru->access(0, row, kRow);
    }
    // 2Q: the scan flowed through the probation FIFO; the hot set
    // survives. LRU: the scan flushed everything.
    for (std::int64_t row = 0; row < 4; ++row) {
        EXPECT_TRUE(two_q->contains(0, row)) << "2q lost hot row " << row;
        EXPECT_FALSE(lru->contains(0, row)) << "lru kept hot row " << row;
    }
}

TEST(EmbeddingCache, TwoQueueGhostPromotesOnReadmission)
{
    auto cache = cache::makeCache(Policy::TwoQueue, 4 * kRow);
    cache->access(0, 7, kRow); // probation
    // Push 7 out of probation into the ghost list. The ghost remembers
    // half a capacity's worth of identities, so stay within that window.
    for (std::int64_t row = 100; row < 105; ++row)
        cache->access(0, row, kRow);
    EXPECT_FALSE(cache->contains(0, 7));
    // Re-reference within ghost memory: readmitted straight to Am...
    cache->access(0, 7, kRow);
    EXPECT_TRUE(cache->contains(0, 7));
    // ...where a subsequent one-touch scan cannot displace it.
    for (std::int64_t row = 200; row < 260; ++row)
        cache->access(0, row, kRow);
    EXPECT_TRUE(cache->contains(0, 7));
}

TEST(EmbeddingCache, OversizedRowBypassesCache)
{
    for (const auto policy :
         {Policy::Lru, Policy::Lfu, Policy::TwoQueue}) {
        auto cache = cache::makeCache(policy, kRow);
        EXPECT_FALSE(cache->access(0, 1, 2 * kRow));
        EXPECT_FALSE(cache->contains(0, 1));
        EXPECT_EQ(cache->usedBytes(), 0);
        EXPECT_EQ(cache->stats().evictions, 0);
    }
}

TEST(EmbeddingCache, KeysAreScopedPerTable)
{
    auto cache = cache::makeCache(Policy::Lru, 4 * kRow);
    cache->access(0, 42, kRow);
    EXPECT_FALSE(cache->access(1, 42, kRow)); // same row, other table
    EXPECT_TRUE(cache->contains(0, 42));
    EXPECT_TRUE(cache->contains(1, 42));
    EXPECT_EQ(cache->residentRows(), 2u);
}

/**
 * Reference LRU: a plain list with linear search, front = most recently
 * used. The arena LRU must match it access for access.
 */
class OracleLru
{
  public:
    explicit OracleLru(std::int64_t capacity) : capacity_(capacity) {}

    struct Row
    {
        int table;
        std::int64_t row;
        std::int64_t bytes;
    };

    bool
    access(int table, std::int64_t row, std::int64_t bytes)
    {
        for (auto it = lru_.begin(); it != lru_.end(); ++it)
            if (it->table == table && it->row == row) {
                lru_.splice(lru_.begin(), lru_, it);
                return true;
            }
        if (bytes > capacity_)
            return false;
        while (used_ + bytes > capacity_) {
            used_ -= lru_.back().bytes;
            evicted.push_back(lru_.back());
            lru_.pop_back();
        }
        lru_.push_front(Row{table, row, bytes});
        used_ += bytes;
        return false;
    }

    bool
    contains(int table, std::int64_t row) const
    {
        for (const auto &r : lru_)
            if (r.table == table && r.row == row)
                return true;
        return false;
    }

    void setCapacity(std::int64_t capacity) { capacity_ = capacity; }
    std::int64_t used() const { return used_; }
    std::size_t rows() const { return lru_.size(); }

    std::vector<Row> evicted;

  private:
    std::int64_t capacity_;
    std::int64_t used_ = 0;
    std::list<Row> lru_;
};

TEST(EmbeddingCache, LruMatchesListOracle)
{
    // Table t stores (t + 1) * kRow bytes per row; table 3's rows exceed
    // every budget below 4 * kRow and must bypass the cache.
    constexpr int kTables = 4;
    constexpr std::int64_t kRows = 24;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        stats::Rng rng(seed);
        std::int64_t capacity = 8 * kRow;
        auto cache = cache::makeCache(Policy::Lru, capacity);
        OracleLru oracle(capacity);
        std::vector<OracleLru::Row> hooked;
        cache->setEvictionHook(
            [&hooked](int table, std::int64_t row, std::int64_t bytes) {
                hooked.push_back({table, row, bytes});
            });

        for (int i = 0; i < 4000; ++i) {
            if (i % 97 == 0) {
                // Lazy resize, shrinking as often as growing: the
                // resident set trims only on the next admitting miss.
                capacity = rng.uniformInt(0, 12) * kRow;
                cache->setCapacityBytes(capacity);
                oracle.setCapacity(capacity);
            }
            // Skewed row draws so repeats (hits) are common.
            const int table = static_cast<int>(rng.uniformInt(0, kTables - 1));
            const std::int64_t row =
                rng.uniformInt(0, 3) == 0 ? rng.uniformInt(0, kRows - 1)
                                          : rng.uniformInt(0, 3);
            const std::int64_t bytes = (table + 1) * kRow;
            ASSERT_EQ(cache->access(table, row, bytes),
                      oracle.access(table, row, bytes))
                << "seed=" << seed << " i=" << i;
            ASSERT_EQ(cache->usedBytes(), oracle.used()) << i;
            ASSERT_EQ(cache->residentRows(), oracle.rows()) << i;
            for (int t = 0; t < kTables; ++t)
                for (std::int64_t r = 0; r < kRows; ++r)
                    ASSERT_EQ(cache->contains(t, r), oracle.contains(t, r))
                        << "seed=" << seed << " i=" << i << " (" << t
                        << ", " << r << ")";
        }
        // Same victims, in the same order, reported with their bytes.
        ASSERT_EQ(hooked.size(), oracle.evicted.size());
        for (std::size_t k = 0; k < hooked.size(); ++k) {
            EXPECT_EQ(hooked[k].table, oracle.evicted[k].table) << k;
            EXPECT_EQ(hooked[k].row, oracle.evicted[k].row) << k;
            EXPECT_EQ(hooked[k].bytes, oracle.evicted[k].bytes) << k;
        }
        EXPECT_EQ(cache->stats().evictions,
                  static_cast<std::int64_t>(oracle.evicted.size()));
        EXPECT_GT(cache->stats().hits, 0);
        EXPECT_GT(cache->stats().evictions, 0);
    }
}

TEST(EmbeddingCache, LruRejectsKeysOutsidePackedDomain)
{
    auto cache = cache::makeCache(Policy::Lru, 4 * kRow);
    EXPECT_THROW(cache->access(-1, 0, kRow), std::out_of_range);
    EXPECT_THROW(cache->access(1 << 16, 0, kRow), std::out_of_range);
    EXPECT_THROW(cache->access(0, -1, kRow), std::out_of_range);
    EXPECT_THROW(cache->access(0, std::int64_t{1} << 48, kRow),
                 std::out_of_range);
    EXPECT_THROW(cache->contains(0, -1), std::out_of_range);
    // The domain's edges are distinct keys.
    EXPECT_FALSE(cache->access((1 << 16) - 1, (std::int64_t{1} << 48) - 1,
                               kRow));
    EXPECT_FALSE(cache->access(0, 0, kRow));
    EXPECT_TRUE(cache->contains((1 << 16) - 1, (std::int64_t{1} << 48) - 1));
    EXPECT_EQ(cache->residentRows(), 2u);
}

// ---------------------------------------------------------------------------
// Trace replay
// ---------------------------------------------------------------------------

TEST(TieredCacheSim, PerTableStatsSumToTotal)
{
    const auto spec = smallSpec(3);
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{7});
    const auto trace =
        workload::recordTrace(spec, gen.generate(80), 0.8, 7);

    cache::TieredCacheConfig config;
    config.policy = Policy::Lru;
    config.capacity_bytes = 64 * kRow;
    cache::TieredCacheSim sim(spec, config);
    const auto result = sim.replay(trace);

    cache::CacheStats summed;
    for (const auto &ts : result.per_table)
        summed.merge(ts);
    EXPECT_EQ(summed.accesses, result.total.accesses);
    EXPECT_EQ(summed.hits, result.total.hits);
    EXPECT_EQ(summed.misses, result.total.misses);
    EXPECT_EQ(summed.evictions, result.total.evictions);
    EXPECT_EQ(result.total.accesses,
              static_cast<std::int64_t>(trace.size()));
    EXPECT_GT(result.total.evictions, 0);
    for (const auto &ts : result.per_table)
        EXPECT_GT(ts.accesses, 0);
}

TEST(TieredCacheSim, WarmupExcludesColdMisses)
{
    const auto spec = smallSpec();
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{9});
    const auto trace =
        workload::recordTrace(spec, gen.generate(200), 0.8, 9);

    cache::TieredCacheConfig cold;
    cold.policy = Policy::Lru;
    cold.capacity_bytes = 1024 * kRow;
    cache::TieredCacheSim cold_sim(spec, cold);
    const auto cold_rate = cold_sim.replay(trace).overallHitRate();

    auto warm = cold;
    warm.warmup_fraction = 0.5;
    cache::TieredCacheSim warm_sim(spec, warm);
    const auto warm_result = warm_sim.replay(trace);
    EXPECT_GT(warm_result.overallHitRate(), cold_rate);
    // Post-warmup window only: roughly half the records are counted.
    EXPECT_LT(warm_result.total.accesses,
              static_cast<std::int64_t>(trace.size()));
}

TEST(TieredCacheSim, SkipsRecordsOutsideModel)
{
    const auto spec = smallSpec(1);
    workload::AccessTrace trace;
    trace.add(workload::AccessRecord{0, 0, 5});
    trace.add(workload::AccessRecord{0, 9, 5}); // no table 9 in the model
    trace.add(workload::AccessRecord{0, -1, 5});

    cache::TieredCacheConfig config;
    config.capacity_bytes = 16 * kRow;
    cache::TieredCacheSim sim(spec, config);
    const auto result = sim.replay(trace);
    EXPECT_EQ(result.total.accesses, 1);
}

TEST(TieredCacheSim, StreamedReplayMustDeliverAnnouncedCount)
{
    const auto spec = smallSpec(1);
    cache::TieredCacheConfig config;
    config.capacity_bytes = 16 * kRow;
    cache::TieredCacheSim sim(spec, config);
    sim.begin(3);
    sim.access(0, 1);
    sim.access(0, 2);
    EXPECT_THROW(sim.result(), std::logic_error);

    // The resident set survives into the next replay.
    sim.begin(2);
    sim.access(0, 1);
    sim.access(0, 2);
    const auto result = sim.result();
    EXPECT_EQ(result.total.accesses, 2);
    EXPECT_EQ(result.total.hits, 2);
}

// ---------------------------------------------------------------------------
// Lookup-cost conversion
// ---------------------------------------------------------------------------

TEST(CachedLookupModel, BlendsTierCosts)
{
    const cache::TierCosts costs{20.0, 1000.0};
    const auto all_hit =
        cache::CachedLookupModel::fromHitRate(2, 1.0, costs);
    const auto all_miss =
        cache::CachedLookupModel::fromHitRate(2, 0.0, costs);
    const auto half = cache::CachedLookupModel::fromHitRate(2, 0.5, costs);
    EXPECT_DOUBLE_EQ(all_hit.lookupNs(0), 20.0);
    EXPECT_DOUBLE_EQ(all_miss.lookupNs(0), 1000.0);
    EXPECT_DOUBLE_EQ(half.lookupNs(1), 510.0);
    // Caller-calibrated hit cost replaces only the hit term.
    EXPECT_DOUBLE_EQ(half.lookupNs(1, 40.0), 520.0);
    EXPECT_FALSE(half.hasTable(2));
    EXPECT_FALSE(half.hasTable(-1));
}

TEST(CachedLookupModel, TracksPerTableRatesFromReplay)
{
    const auto spec = smallSpec(2);
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{11});
    const auto trace =
        workload::recordTrace(spec, gen.generate(120), 0.9, 11);

    cache::TieredCacheConfig config;
    config.policy = Policy::Lfu;
    config.capacity_bytes = 256 * kRow;
    cache::TieredCacheSim sim(spec, config);
    const auto result = sim.replay(trace);

    const cache::CachedLookupModel model(result, {25.0, 90000.0});
    for (int t = 0; t < 2; ++t) {
        EXPECT_TRUE(model.hasTable(t));
        EXPECT_NEAR(model.hitRate(t), result.hitRate(t), 1e-12);
        const double expected = result.hitRate(t) * 25.0 +
                                (1.0 - result.hitRate(t)) * 90000.0;
        EXPECT_NEAR(model.lookupNs(t), expected, 1e-6);
    }
}

// ---------------------------------------------------------------------------
// Integration: paging + serving
// ---------------------------------------------------------------------------

TEST(Integration, TracedPagingMatchesAnalyticWhenEverythingFits)
{
    const auto spec = smallSpec();
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{3});
    // Long enough that first-touch (compulsory) misses amortize away in
    // the post-warmup window.
    const auto trace =
        workload::recordTrace(spec, gen.generate(3000), 0.6, 3);

    const auto platform = dc::scLarge();
    dc::PagingConfig config;
    // Model fits in DRAM: both paths must report the pure-DRAM cost.
    const auto result = dc::pagedLookupNsTraced(
        platform.usableModelBytes() / 2, platform, config, spec, trace,
        Policy::Lru, 0.5);
    EXPECT_DOUBLE_EQ(result.resident_fraction, 1.0);
    EXPECT_GT(result.hit_rate, 0.99);
    EXPECT_NEAR(result.lookup_ns, config.dram_lookup_ns,
                0.01 * dc::kSsdLookupNs);
    EXPECT_EQ(result.cache_bytes, result.universe_bytes);
}

TEST(Integration, TracedPagingFallsBackToAnalyticOnEmptyWindow)
{
    const auto spec = smallSpec();
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{3});
    const auto trace =
        workload::recordTrace(spec, gen.generate(300), 0.6, 3);
    const auto platform = dc::scLarge();
    dc::PagingConfig config;

    // warmup_fraction == 1 leaves no post-warmup window to measure; the
    // hit rate must fall back to the analytic curve, not an all-miss 0.
    const auto warmed = dc::pagedLookupNsTraced(
        platform.usableModelBytes() / 2, platform, config, spec, trace,
        Policy::Lru, 1.0);
    EXPECT_DOUBLE_EQ(warmed.hit_rate,
                     dc::hitRate(1.0, config.access_skew));
    EXPECT_NEAR(warmed.lookup_ns, config.dram_lookup_ns, 1e-9);
    // An empty post-warmup window reports all-zero statistics — warmup
    // evictions must not leak into the result. A tiny cache guarantees
    // evictions happened during warmup.
    const auto warmed_sim =
        cache::replayTrace(spec, trace, Policy::Lru, 1024, 1.0);
    EXPECT_EQ(warmed_sim.total.accesses, 0);
    EXPECT_EQ(warmed_sim.total.evictions, 0);

    // Same for a trace with no rows for the model's tables.
    const auto empty = dc::pagedLookupNsTraced(
        2 * platform.usableModelBytes(), platform, config, spec,
        workload::AccessTrace{}, Policy::Lru, 0.5);
    EXPECT_DOUBLE_EQ(
        empty.hit_rate,
        dc::hitRate(empty.resident_fraction, config.access_skew));
}

TEST(Integration, TracedPagingDegradesWithSmallerResidency)
{
    const auto spec = smallSpec();
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{3});
    const auto trace =
        workload::recordTrace(spec, gen.generate(300), 0.6, 3);
    const auto platform = dc::scLarge();
    dc::PagingConfig config;

    double prev_ns = 0.0;
    for (const std::int64_t scale : {1, 4, 16}) {
        const auto result = dc::pagedLookupNsTraced(
            scale * platform.usableModelBytes(), platform, config, spec,
            trace, Policy::Lru, 0.5);
        EXPECT_GE(result.lookup_ns, prev_ns);
        prev_ns = result.lookup_ns;
    }
    EXPECT_GT(prev_ns, config.dram_lookup_ns * 10);
}

TEST(Integration, ServingLatencyReflectsCacheModel)
{
    const auto spec = smallSpec();
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{5});
    const auto requests = gen.generate(30);

    core::ServingConfig base;
    base.worker_threads = 4;

    // A singular plan's inline SLS is priced from shard_cache_models[0].
    // Low hit rate -> expensive lookups -> strictly slower than both the
    // flat model and a perfect cache.
    auto degraded = base;
    degraded.shard_cache_models = {std::make_shared<cache::CachedLookupModel>(
        cache::CachedLookupModel::fromHitRate(spec.tables.size(), 0.2,
                                              {25.0, 20000.0}))};
    auto perfect = base;
    perfect.shard_cache_models = {std::make_shared<cache::CachedLookupModel>(
        cache::CachedLookupModel::fromHitRate(spec.tables.size(), 1.0,
                                              {25.0, 20000.0}))};

    const auto plan = core::makeSingular(spec);
    core::ServingSimulation flat_sim(spec, plan, base);
    core::ServingSimulation degraded_sim(spec, plan, degraded);
    core::ServingSimulation perfect_sim(spec, plan, perfect);

    const auto flat = flat_sim.replaySerial(requests);
    const auto slow = degraded_sim.replaySerial(requests);
    const auto fast = perfect_sim.replaySerial(requests);

    double flat_e2e = 0.0, slow_e2e = 0.0, fast_e2e = 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        flat_e2e += static_cast<double>(flat[i].e2e);
        slow_e2e += static_cast<double>(slow[i].e2e);
        fast_e2e += static_cast<double>(fast[i].e2e);
    }
    EXPECT_GT(slow_e2e, flat_e2e);
    // Perfect cache: hit cost equals the flat per-table coefficient, so
    // latencies must agree exactly.
    EXPECT_DOUBLE_EQ(fast_e2e, flat_e2e);
}

/** Hit-rate model over every table of `spec`. */
std::shared_ptr<const cache::CachedLookupModel>
hitRateModel(const model::ModelSpec &spec, double hit_rate)
{
    return std::make_shared<cache::CachedLookupModel>(
        cache::CachedLookupModel::fromHitRate(spec.tables.size(), hit_rate,
                                              {25.0, 50000.0}));
}

/**
 * Each shard's op time summed over a serial replay of a two-shard plan,
 * priced with the given per-shard models.
 */
std::vector<double>
twoShardOpTotals(
    std::vector<std::shared_ptr<const cache::CachedLookupModel>> models)
{
    const auto spec = smallSpec(4);
    const auto requests =
        workload::RequestGenerator(spec, workload::GeneratorConfig{5})
            .generate(20);
    const auto pooling =
        workload::RequestGenerator(spec, workload::GeneratorConfig{5})
            .estimatePoolingFactors(200);
    const auto plan = core::makeLoadBalanced(spec, 2, pooling);

    core::ServingConfig config;
    config.worker_threads = 4;
    config.shard_cache_models = std::move(models);
    core::ServingSimulation sim(spec, plan, config);
    std::vector<double> totals(2, 0.0);
    for (const auto &st : sim.replaySerial(requests))
        for (std::size_t s = 0; s < totals.size(); ++s)
            totals[s] += st.shard_op_ns[s];
    return totals;
}

TEST(Integration, PerShardCacheModelsPriceTheirOwnShard)
{
    const auto spec = smallSpec(4);
    // Both shards perfect, then shard 1 degraded: only shard 1 slows.
    const auto uniform = twoShardOpTotals(
        {hitRateModel(spec, 1.0), hitRateModel(spec, 1.0)});
    const auto skewed = twoShardOpTotals(
        {hitRateModel(spec, 1.0), hitRateModel(spec, 0.1)});
    EXPECT_DOUBLE_EQ(skewed[0], uniform[0]);
    EXPECT_GT(skewed[1], uniform[1] * 5.0);
}

TEST(Integration, NullOrMissingShardCacheModelIsPricedFlat)
{
    const auto spec = smallSpec(4);
    const auto flat = twoShardOpTotals({});
    // A shard without a model matches the no-model run exactly, while
    // its degraded sibling slows down.
    const auto null_entry =
        twoShardOpTotals({nullptr, hitRateModel(spec, 0.1)});
    EXPECT_DOUBLE_EQ(null_entry[0], flat[0]);
    EXPECT_GT(null_entry[1], flat[1] * 5.0);

    const auto short_vector = twoShardOpTotals({hitRateModel(spec, 0.1)});
    EXPECT_GT(short_vector[0], flat[0] * 5.0);
    EXPECT_DOUBLE_EQ(short_vector[1], flat[1]);
}

} // namespace
