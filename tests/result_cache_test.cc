/**
 * @file
 * Pooled-result cache tests: the rpc::ResultCache unit behavior (LRU
 * byte budget, TTL expiry, invalidation, accounting identities) and its
 * serving integration — repeated batch shapes short-circuit sparse RPCs,
 * per-request counters aggregate to the cache's totals, TTL bounds
 * staleness, and the refresh hook empties the cache.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <list>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "core/analysis.h"
#include "core/serving.h"
#include "core/strategies.h"
#include "model/generators.h"
#include "rpc/result_cache.h"
#include "sched/capacity_search.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

TEST(ResultCache, DisabledCacheNeverHitsOrCounts)
{
    rpc::ResultCache cache(rpc::ResultCacheConfig{});
    const rpc::ResultCache::Key key{0, 0, rpc::resultSignature(64, 128)};
    EXPECT_FALSE(cache.lookup(key, 0));
    cache.insert(key, 1024, 0, cache.epoch());
    EXPECT_FALSE(cache.lookup(key, 0));
    EXPECT_EQ(cache.stats().lookups, 0u);
    EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCache, HitsBumpRecencyAndCreditBytes)
{
    rpc::ResultCacheConfig cfg;
    cfg.enabled = true;
    rpc::ResultCache cache(cfg);
    const rpc::ResultCache::Key a{0, 0, rpc::resultSignature(64, 128)};
    const rpc::ResultCache::Key b{0, 1, rpc::resultSignature(64, 128)};

    EXPECT_FALSE(cache.lookup(a, 10));
    cache.insert(a, 1000, 10, cache.epoch());
    cache.insert(b, 500, 11, cache.epoch());
    EXPECT_TRUE(cache.lookup(a, 20));
    EXPECT_TRUE(cache.lookup(a, 21));
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().bytes_saved, 2000);
    EXPECT_EQ(cache.usedBytes(), 1500);
}

TEST(ResultCache, ByteBudgetEvictsLeastRecentlyUsed)
{
    rpc::ResultCacheConfig cfg;
    cfg.enabled = true;
    rpc::ResultCache cache(cfg);
    // Two entries fit the budget, a third does not.
    const std::int64_t entry = rpc::kResultCacheCapacityBytes * 2 / 5;
    const rpc::ResultCache::Key k1{0, 0, 1};
    const rpc::ResultCache::Key k2{0, 0, 2};
    const rpc::ResultCache::Key k3{0, 0, 3};
    cache.insert(k1, entry, 0, cache.epoch());
    cache.insert(k2, entry, 1, cache.epoch());
    EXPECT_TRUE(cache.lookup(k1, 2)); // k2 is now the LRU entry
    cache.insert(k3, entry, 3, cache.epoch()); // over budget: k2 must go
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(cache.lookup(k1, 4));
    EXPECT_FALSE(cache.lookup(k2, 5));
    EXPECT_TRUE(cache.lookup(k3, 6));
    EXPECT_LE(cache.usedBytes(), rpc::kResultCacheCapacityBytes);

    // A response larger than the whole budget is never cached.
    const rpc::ResultCache::Key huge{0, 0, 4};
    cache.insert(huge, rpc::kResultCacheCapacityBytes + 1, 7, cache.epoch());
    EXPECT_FALSE(cache.lookup(huge, 8));
    EXPECT_EQ(cache.stats().insertions, 3u);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, TtlExpiresStaleEntries)
{
    rpc::ResultCacheConfig cfg;
    cfg.enabled = true;
    cfg.ttl_ns = 100;
    rpc::ResultCache cache(cfg);
    const rpc::ResultCache::Key k{1, 2, 42};
    cache.insert(k, 1000, 0, cache.epoch());
    EXPECT_TRUE(cache.lookup(k, 100));   // exactly at the TTL: fresh
    EXPECT_FALSE(cache.lookup(k, 201));  // stale: dropped + miss
    EXPECT_EQ(cache.stats().expirations, 1u);
    EXPECT_EQ(cache.entries(), 0u);
    // Re-insertion after expiry restarts the clock.
    cache.insert(k, 1000, 300, cache.epoch());
    EXPECT_TRUE(cache.lookup(k, 350));
}

TEST(ResultCache, InvalidateDropsEverything)
{
    rpc::ResultCacheConfig cfg;
    cfg.enabled = true;
    rpc::ResultCache cache(cfg);
    for (int g = 0; g < 5; ++g)
        cache.insert(rpc::ResultCache::Key{0, g, 7}, 100, 0, cache.epoch());
    EXPECT_EQ(cache.entries(), 5u);
    cache.invalidate();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.usedBytes(), 0);
    EXPECT_EQ(cache.stats().invalidations, 1u);
    EXPECT_FALSE(cache.lookup(rpc::ResultCache::Key{0, 0, 7}, 1));
}

TEST(ResultCache, StaleEpochInsertIsDropped)
{
    // An RPC dispatched before an invalidation carries the old epoch;
    // its response arriving after the invalidation must NOT repopulate
    // the cache with a pooled result from the stale embedding snapshot.
    rpc::ResultCacheConfig cfg;
    cfg.enabled = true;
    rpc::ResultCache cache(cfg);
    const rpc::ResultCache::Key k{0, 0, 11};
    const std::uint64_t dispatch_epoch = cache.epoch();
    cache.invalidate(); // refresh boundary while the RPC is on the wire
    cache.insert(k, 1000, 5, dispatch_epoch);
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_FALSE(cache.lookup(k, 6));
    // A post-refresh dispatch inserts normally.
    cache.insert(k, 1000, 7, cache.epoch());
    EXPECT_TRUE(cache.lookup(k, 8));
}

/** std::list + std::map model of ResultCache's LRU/TTL/epoch semantics. */
class ReferenceResultCache
{
  public:
    explicit ReferenceResultCache(sim::Duration ttl_ns) : ttl_ns_(ttl_ns) {}

    bool
    lookup(const rpc::ResultCache::Key &key, sim::SimTime now)
    {
        ++stats.lookups;
        const auto it = map_.find(id(key));
        if (it == map_.end()) {
            ++stats.misses;
            return false;
        }
        if (ttl_ns_ > 0 && now - it->second.inserted > ttl_ns_) {
            erase(it);
            ++stats.expirations;
            ++stats.misses;
            return false;
        }
        lru_.splice(lru_.begin(), lru_, it->second.pos);
        ++stats.hits;
        stats.bytes_saved += it->second.bytes;
        return true;
    }

    void
    insert(const rpc::ResultCache::Key &key, std::int64_t bytes,
           sim::SimTime now, std::uint64_t dispatch_epoch)
    {
        if (dispatch_epoch != epoch || bytes > rpc::kResultCacheCapacityBytes)
            return;
        const auto it = map_.find(id(key));
        if (it != map_.end()) {
            used += bytes - it->second.bytes;
            it->second.bytes = bytes;
            it->second.inserted = now;
            lru_.splice(lru_.begin(), lru_, it->second.pos);
        } else {
            lru_.push_front(id(key));
            map_[id(key)] = Entry{bytes, now, lru_.begin()};
            used += bytes;
            ++stats.insertions;
        }
        while (used > rpc::kResultCacheCapacityBytes && !lru_.empty()) {
            erase(map_.find(lru_.back()));
            ++stats.evictions;
        }
    }

    void
    invalidate()
    {
        ++stats.invalidations;
        ++epoch;
        map_.clear();
        lru_.clear();
        used = 0;
    }

    std::size_t entries() const { return map_.size(); }

    rpc::ResultCacheStats stats;
    std::int64_t used = 0;
    std::uint64_t epoch = 0;

  private:
    using Id = std::tuple<int, int, std::uint64_t>;
    struct Entry
    {
        std::int64_t bytes;
        sim::SimTime inserted;
        std::list<Id>::iterator pos;
    };

    static Id
    id(const rpc::ResultCache::Key &k)
    {
        return {k.net, k.group, k.signature};
    }

    void
    erase(std::map<Id, Entry>::iterator it)
    {
        used -= it->second.bytes;
        lru_.erase(it->second.pos);
        map_.erase(it);
    }

    sim::Duration ttl_ns_;
    std::list<Id> lru_; //!< front = most recently used
    std::map<Id, Entry> map_;
};

/**
 * Random lookups, inserts (fresh, refresh-in-place, stale-epoch and
 * over-budget) and invalidations, with TTL on and off: after every
 * operation the cache's stats(), entries() and usedBytes() equal the
 * reference model's.
 */
TEST(ResultCache, MatchesListAndMapReferenceModel)
{
    for (const sim::Duration ttl_ns : {sim::Duration{0}, sim::Duration{5'000'000}}) {
        rpc::ResultCacheConfig cfg;
        cfg.enabled = true;
        cfg.ttl_ns = ttl_ns;
        rpc::ResultCache cache(cfg);
        ReferenceResultCache ref(ttl_ns);
        std::mt19937_64 rng(ttl_ns + 7);
        sim::SimTime now = 0;
        for (int op = 0; op < 40000; ++op) {
            now += static_cast<sim::Duration>(rng() % 200'000);
            // 400 keys: with ~140 live entries a third of the inserts
            // refresh in place and a third of the lookups hit.
            const auto k = static_cast<std::uint64_t>(rng() % 400);
            const rpc::ResultCache::Key key{static_cast<int>(k % 3),
                                            static_cast<int>(k / 3 % 5),
                                            k};
            // Log-uniform response sizes, 1 KiB .. 4 MiB.
            const auto bytes = static_cast<std::int64_t>(
                std::exp2(10.0 + 12.0 * static_cast<double>(rng() % 4096) /
                                     4096.0));
            const std::uint64_t r = rng() % 1000;
            if (r < 450) {
                ASSERT_EQ(cache.lookup(key, now), ref.lookup(key, now))
                    << "op " << op;
            } else if (r < 920) {
                cache.insert(key, bytes, now, cache.epoch());
                ref.insert(key, bytes, now, ref.epoch);
            } else if (r < 960) {
                // Dispatched before the last invalidation (or, at epoch
                // 0, carrying an epoch that never existed).
                const std::uint64_t stale =
                    cache.epoch() > 0 ? cache.epoch() - 1 : 1;
                cache.insert(key, bytes, now, stale);
                ref.insert(key, bytes, now, stale);
            } else if (r < 999) {
                cache.insert(key, rpc::kResultCacheCapacityBytes + 1, now,
                             cache.epoch());
                ref.insert(key, rpc::kResultCacheCapacityBytes + 1, now,
                           ref.epoch);
            } else {
                cache.invalidate();
                ref.invalidate();
            }
            const rpc::ResultCacheStats &a = cache.stats();
            const rpc::ResultCacheStats &b = ref.stats;
            ASSERT_EQ(a.lookups, b.lookups) << "op " << op;
            ASSERT_EQ(a.hits, b.hits) << "op " << op;
            ASSERT_EQ(a.misses, b.misses) << "op " << op;
            ASSERT_EQ(a.insertions, b.insertions) << "op " << op;
            ASSERT_EQ(a.expirations, b.expirations) << "op " << op;
            ASSERT_EQ(a.evictions, b.evictions) << "op " << op;
            ASSERT_EQ(a.invalidations, b.invalidations) << "op " << op;
            ASSERT_EQ(a.bytes_saved, b.bytes_saved) << "op " << op;
            ASSERT_EQ(cache.entries(), ref.entries()) << "op " << op;
            ASSERT_EQ(cache.usedBytes(), ref.used) << "op " << op;
            ASSERT_EQ(cache.epoch(), ref.epoch) << "op " << op;
        }
        // The run reached eviction, expiry and refresh regimes.
        EXPECT_GT(cache.stats().evictions, 0u);
        EXPECT_GT(cache.stats().hits, 0u);
        EXPECT_EQ(cache.stats().expirations > 0, ttl_ns > 0);
    }
}

/**
 * Regression for the KeyHash shift-packing bug. The old hash was
 * `signature ^ (net << 40) ^ (group << 20)`: group occupied bits
 * 20..51 and net bits 40..63 BEFORE any mixing, so whole families of
 * distinct keys collided algebraically — for every signature. The
 * replacement chains each field through a full mix64 finalizer; these
 * are the exact families that used to collide.
 */
TEST(ResultCacheKeyHash, OldShiftPackingCollisionFamiliesNowSeparate)
{
    const rpc::ResultCache::KeyHash h;
    const std::uint64_t sig = rpc::resultSignature(64, 128);

    // (net=1, group=0) vs (net=0, group=2^20): 1<<40 == (2^20)<<20.
    EXPECT_NE(h({1, 0, sig}), h({0, 1 << 20, sig}));
    // net bit k aliased group bit 20+k in general.
    EXPECT_NE(h({2, 0, sig}), h({0, 2 << 20, sig}));
    EXPECT_NE(h({3, 5, sig}), h({0, (3 << 20) | 5, sig}));
    // Signature bits 40+ aliased net, and bits 20+ aliased group.
    EXPECT_NE(h({1, 7, sig}), h({0, 7, sig ^ (1ULL << 40)}));
    EXPECT_NE(h({0, 1, sig}), h({0, 0, sig ^ (1ULL << 20)}));

    // Bulk structure check: a dense (net, group) grid at one signature
    // hashes all-distinct (the packing made grid diagonals alias).
    std::set<std::size_t> seen;
    for (int net = 0; net < 64; ++net)
        for (int group = 0; group < 64; ++group)
            seen.insert(h({net, group, sig}));
    EXPECT_EQ(seen.size(), 64u * 64u);
}

TEST(ResultCache, SignatureSeparatesShapes)
{
    EXPECT_EQ(rpc::resultSignature(64, 128), rpc::resultSignature(64, 128));
    EXPECT_NE(rpc::resultSignature(64, 128), rpc::resultSignature(64, 129));
    EXPECT_NE(rpc::resultSignature(64, 128), rpc::resultSignature(65, 128));
}

TEST(ResultCache, ContentSignatureSeparatesContentNotUsers)
{
    // Equal shape + equal content + equal batch index: shared.
    EXPECT_EQ(rpc::resultSignature(64, 128, 0xabcdu, 0),
              rpc::resultSignature(64, 128, 0xabcdu, 0));
    // Equal shape, distinct feature vectors: never aliased.
    EXPECT_NE(rpc::resultSignature(64, 128, 0xabcdu, 0),
              rpc::resultSignature(64, 128, 0xef01u, 0));
    // Distinct batch slices of the same request: never aliased.
    EXPECT_NE(rpc::resultSignature(64, 128, 0xabcdu, 0),
              rpc::resultSignature(64, 128, 0xabcdu, 1));
    // Zero content hash degrades to the legacy shape-only signature.
    EXPECT_EQ(rpc::resultSignature(64, 128, 0u, 3),
              rpc::resultSignature(64, 128));
}

TEST(RequestContentHash, HashesFeatureVectorNotId)
{
    const auto spec = model::makeDrm2();
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{7});
    auto a = gen.generate(1)[0];
    ASSERT_NE(a.content_hash, 0u);
    EXPECT_EQ(a.content_hash, a.computeContentHash());

    // Different user, identical feature vector: identical hash.
    auto b = a;
    b.id = a.id + 1000;
    EXPECT_EQ(b.computeContentHash(), a.content_hash);

    // Shift one lookup between two tables: totals (shape) unchanged,
    // content different.
    auto c = a;
    std::size_t t1 = 0;
    while (t1 < c.table_lookups.size() && c.table_lookups[t1] == 0)
        ++t1;
    ASSERT_LT(t1 + 1, c.table_lookups.size());
    c.table_lookups[t1] -= 1;
    c.table_lookups[t1 + 1] += 1;
    c.content_hash = c.computeContentHash();
    EXPECT_EQ(c.totalLookups(), a.totalLookups());
    EXPECT_NE(c.content_hash, a.content_hash);

    // The batcher's merge derives content identity from the merged
    // vector, so merge order does not matter.
    const auto m1 = workload::mergeRequests({a, b});
    auto b2 = b, a2 = a;
    const auto m2 = workload::mergeRequests({b2, a2});
    EXPECT_EQ(m1.content_hash, m2.content_hash);
    EXPECT_NE(m1.content_hash, 0u);
}

// ---------------------------------------------------------------------------
// Serving integration.
// ---------------------------------------------------------------------------

/** A stream tiling a few canonical request shapes (repeat traffic). */
std::vector<workload::Request>
repeatedRequests(const model::ModelSpec &spec, std::size_t distinct,
                 std::size_t total)
{
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{0xbeef});
    const auto base = gen.generate(distinct);
    std::vector<workload::Request> out;
    out.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        auto r = base[i % distinct];
        r.id = 1000 + i;
        out.push_back(r);
    }
    return out;
}

struct ServingFixture
{
    model::ModelSpec spec = model::makeDrm2();
    core::ShardingPlan plan = core::makeCapacityBalanced(spec, 4);
    std::vector<workload::Request> requests =
        repeatedRequests(spec, 12, 240);

    core::ServingConfig
    config(bool cached) const
    {
        auto cfg = sched::sparseBoundStudyConfig(
            rpc::LoadBalancePolicy::LeastOutstanding, 2);
        cfg.result_cache.enabled = cached;
        return cfg;
    }
};

TEST(ResultCacheServing, RepeatedShapesShortCircuitRpcs)
{
    const ServingFixture fx;
    core::ServingSimulation sim(fx.spec, fx.plan, fx.config(true));
    const auto stats = sim.replayOpenLoop(fx.requests, 300.0);
    const auto &rcs = sim.resultCacheStats();

    ASSERT_GT(rcs.hits, 0u);
    EXPECT_GT(rcs.hitRate(), 0.5); // 12 shapes tiled 20x: mostly repeats
    EXPECT_GT(rcs.bytes_saved, 0);
    EXPECT_EQ(rcs.lookups, rcs.hits + rcs.misses);

    // Per-request counters aggregate to the cache totals, and a cache
    // hit means one fewer RPC dispatched.
    std::uint64_t hits = 0, misses = 0;
    for (const auto &s : stats) {
        hits += static_cast<std::uint64_t>(s.result_cache_hits);
        misses += static_cast<std::uint64_t>(s.result_cache_misses);
        EXPECT_EQ(s.result_cache_misses, s.rpc_count);
    }
    EXPECT_EQ(hits, rcs.hits);
    EXPECT_EQ(misses, rcs.misses);
}

/**
 * The content-addressing regression, both directions: a different user
 * with the identical feature vector shares every pooled entry; a request
 * with the same *shape* (identical per-group lookup totals) but a
 * different per-table feature vector shares none.
 */
TEST(ResultCacheServing, ContentHashSharesVectorsNotShapes)
{
    const ServingFixture fx;
    core::ServingSimulation sim(fx.spec, fx.plan, fx.config(true));

    auto r1 = fx.requests[0];
    ASSERT_NE(r1.content_hash, 0u);

    // Same-user-content twin under a different id.
    auto twin = r1;
    twin.id = 777777;

    // Equal-shape impostor: shift one lookup between two whole tables
    // that live on the same shard and net, so every (net, group, batch)
    // lookup total — the legacy key — is unchanged.
    auto impostor = r1;
    impostor.id = 888888;
    int ta = -1, tb = -1;
    for (std::size_t i = 0;
         i < fx.spec.tables.size() && ta < 0; ++i) {
        if (impostor.table_lookups[i] <= 0)
            continue;
        const auto &ai = fx.plan.assignmentFor(static_cast<int>(i));
        if (ai.isSplit())
            continue;
        for (std::size_t j = i + 1; j < fx.spec.tables.size(); ++j) {
            const auto &aj = fx.plan.assignmentFor(static_cast<int>(j));
            if (aj.isSplit() || aj.shards[0] != ai.shards[0] ||
                fx.spec.tables[j].net_id != fx.spec.tables[i].net_id)
                continue;
            ta = static_cast<int>(i);
            tb = static_cast<int>(j);
            break;
        }
    }
    ASSERT_GE(ta, 0) << "fixture plan lost its co-located whole tables";
    impostor.table_lookups[static_cast<std::size_t>(ta)] -= 1;
    impostor.table_lookups[static_cast<std::size_t>(tb)] += 1;
    impostor.content_hash = impostor.computeContentHash();
    ASSERT_NE(impostor.content_hash, r1.content_hash);

    auto run = [&](const workload::Request &r) {
        core::RequestStats out;
        sim.inject(r, [&out](const core::RequestStats &s) { out = s; });
        sim.engine().run();
        return out;
    };

    const auto first = run(r1);
    EXPECT_EQ(first.result_cache_hits, 0);
    EXPECT_GT(first.result_cache_misses, 0);

    // Identical feature vector, different user: every probe hits.
    const auto s_twin = run(twin);
    EXPECT_EQ(s_twin.result_cache_misses, 0);
    EXPECT_EQ(s_twin.result_cache_hits, first.result_cache_misses);

    // Identical shape, different feature vector: no probe hits.
    const auto s_imp = run(impostor);
    EXPECT_EQ(s_imp.result_cache_hits, 0);
    EXPECT_GT(s_imp.result_cache_misses, 0);
}

TEST(ResultCacheServing, DisabledLeavesCountersZero)
{
    const ServingFixture fx;
    core::ServingSimulation sim(fx.spec, fx.plan, fx.config(false));
    const auto stats = sim.replayOpenLoop(fx.requests, 300.0);
    EXPECT_EQ(sim.resultCacheStats().lookups, 0u);
    for (const auto &s : stats) {
        EXPECT_EQ(s.result_cache_hits, 0);
        EXPECT_EQ(s.result_cache_misses, 0);
        EXPECT_EQ(s.result_cache_bytes_saved, 0);
    }
}

TEST(ResultCacheServing, CachingImprovesServedLatencyOnRepeatTraffic)
{
    const ServingFixture fx;
    double p99[2] = {0, 0};
    for (const bool cached : {false, true}) {
        core::ServingSimulation sim(fx.spec, fx.plan, fx.config(cached));
        const auto stats = sim.replayOpenLoop(fx.requests, 300.0);
        p99[cached ? 1 : 0] = core::latencyQuantiles(stats).p99_ms;
    }
    // Skipping the wire + remote gather on most fan-outs must show up.
    EXPECT_LT(p99[1], p99[0]);
}

TEST(ResultCacheServing, InvalidateHookEmptiesAndRepopulates)
{
    const ServingFixture fx;
    core::ServingSimulation sim(fx.spec, fx.plan, fx.config(true));
    const auto r1 = fx.requests[0];
    sim.inject(r1, nullptr);
    sim.engine().run();
    ASSERT_GT(sim.resultCacheStats().insertions, 0u);

    sim.invalidateResultCache();
    EXPECT_EQ(sim.resultCacheStats().invalidations, 1u);

    // The same shape re-fetches (miss) after the refresh boundary.
    const auto before = sim.resultCacheStats().misses;
    auto r2 = r1;
    r2.id = 9999;
    sim.inject(r2, nullptr);
    sim.engine().run();
    EXPECT_GT(sim.resultCacheStats().misses, before);
}

TEST(ResultCacheServing, TtlBoundsStalenessAcrossReplay)
{
    const ServingFixture fx;
    auto cfg = fx.config(true);
    cfg.result_cache.ttl_ns = 5 * sim::kMillisecond;
    core::ServingSimulation sim(fx.spec, fx.plan, cfg);
    sim.replayOpenLoop(fx.requests, 300.0); // ~0.8 s of traffic
    const auto &rcs = sim.resultCacheStats();
    // At a 5 ms TTL and ~3.3 ms mean inter-arrival, entries keep
    // expiring: expirations must be visible and hits still happen
    // between refreshes.
    EXPECT_GT(rcs.expirations, 0u);
    EXPECT_GT(rcs.hits, 0u);
}

} // namespace
