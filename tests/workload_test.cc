/**
 * @file
 * Tests for the workload generator: determinism, request-size bounds,
 * pooling-factor estimation (the Section III-B2 sampling methodology), and
 * the per-table semantics (item-scaled vs per-request pooling).
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "model/generators.h"
#include "stats/quantile.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;
using workload::GeneratorConfig;
using workload::Request;
using workload::RequestGenerator;

TEST(RequestGenerator, DeterministicForSeed)
{
    const auto spec = model::makeDrm1();
    RequestGenerator g1(spec, GeneratorConfig{42, 0.0});
    RequestGenerator g2(spec, GeneratorConfig{42, 0.0});
    const auto a = g1.generate(50);
    const auto b = g2.generate(50);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].items, b[i].items);
        EXPECT_EQ(a[i].table_lookups, b[i].table_lookups);
    }
}

TEST(RequestGenerator, DifferentSeedsDiffer)
{
    const auto spec = model::makeDrm2();
    RequestGenerator g1(spec, GeneratorConfig{1, 0.0});
    RequestGenerator g2(spec, GeneratorConfig{2, 0.0});
    EXPECT_NE(g1.next().items, g2.next().items);
}

TEST(RequestGenerator, ItemsWithinSpecBounds)
{
    const auto spec = model::makeDrm1();
    RequestGenerator gen(spec, GeneratorConfig{7, 0.0});
    for (const auto &req : gen.generate(2000)) {
        EXPECT_GE(req.items,
                  static_cast<std::int64_t>(spec.items_min) - 1);
        EXPECT_LE(req.items,
                  static_cast<std::int64_t>(spec.items_max) + 1);
        EXPECT_EQ(req.table_lookups.size(), spec.tables.size());
    }
}

TEST(RequestGenerator, IdsAreSequential)
{
    const auto spec = model::makeDrm3();
    RequestGenerator gen(spec, GeneratorConfig{9, 0.0});
    const auto reqs = gen.generate(10);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(reqs[i].id, i);
}

TEST(RequestGenerator, Drm3DominantTableExactlyOneLookup)
{
    const auto spec = model::makeDrm3();
    RequestGenerator gen(spec, GeneratorConfig{11, 0.0});
    for (const auto &req : gen.generate(200))
        EXPECT_EQ(req.table_lookups[0], 1); // pooling factor 1 per request
}

TEST(RequestGenerator, LookupsScaleWithItems)
{
    const auto spec = model::makeDrm1();
    RequestGenerator gen(spec, GeneratorConfig{13, 0.0});
    const auto reqs = gen.generate(3000);
    const Request *small = &reqs[0];
    const Request *big = &reqs[0];
    for (const auto &r : reqs) {
        if (r.items < small->items)
            small = &r;
        if (r.items > big->items)
            big = &r;
    }
    ASSERT_GT(big->items, small->items * 4);
    EXPECT_GT(big->totalLookups(), small->totalLookups() * 3);
}

TEST(RequestGenerator, PoolingEstimateMatchesSpec)
{
    const auto spec = model::makeDrm1();
    RequestGenerator gen(spec, GeneratorConfig{17, 0.0});
    const auto pooling = gen.estimatePoolingFactors(1000);
    ASSERT_EQ(pooling.size(), spec.tables.size());
    double total = 0.0;
    for (double p : pooling)
        total += p;
    // Sampled total pooling per request should be near the spec's
    // analytic expectation (Table II: ~138943 summed over shards).
    EXPECT_NEAR(total, spec.expectedPoolingPerRequest(),
                spec.expectedPoolingPerRequest() * 0.15);
}

TEST(RequestGenerator, PoolingEstimateDoesNotPerturbStream)
{
    const auto spec = model::makeDrm2();
    RequestGenerator g1(spec, GeneratorConfig{21, 0.0});
    RequestGenerator g2(spec, GeneratorConfig{21, 0.0});
    (void)g2.estimatePoolingFactors(100);
    EXPECT_EQ(g1.next().items, g2.next().items);
}

TEST(RequestGenerator, DiurnalModulationChangesSizes)
{
    const auto spec = model::makeDrm1();
    RequestGenerator flat(spec, GeneratorConfig{31, 0.0});
    RequestGenerator wavy(spec, GeneratorConfig{31, 0.5});
    const auto a = flat.generate(1000);
    const auto b = wavy.generate(1000);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_diff = any_diff || a[i].items != b[i].items;
    EXPECT_TRUE(any_diff);
}

TEST(RequestGenerator, HeavyTailP99OverP50)
{
    const auto spec = model::makeDrm1();
    RequestGenerator gen(spec, GeneratorConfig{37, 0.0});
    stats::QuantileEstimator q;
    for (const auto &r : gen.generate(5000))
        q.add(static_cast<double>(r.items));
    EXPECT_GT(q.p99() / q.p50(), 4.0);
}

// Misuse throws in every build type, Release included.

TEST(WorkloadMisuse, MergeRequestsRejectsNoParts)
{
    EXPECT_THROW(workload::mergeRequests({}), std::invalid_argument);
}

TEST(WorkloadMisuse, MergeRequestsRejectsPartsOfDifferentModels)
{
    const auto spec = model::makeDrm1();
    RequestGenerator gen(spec, GeneratorConfig{5, 0.0});
    const auto parts = gen.generate(3);
    auto shorter = parts;
    shorter[2].table_lookups.pop_back();
    EXPECT_THROW(workload::mergeRequests(shorter), std::invalid_argument);
    auto longer = parts;
    longer[1].table_lookups.push_back(1);
    EXPECT_THROW(workload::mergeRequests(longer), std::invalid_argument);
    EXPECT_NO_THROW(workload::mergeRequests(parts));
}

} // namespace
