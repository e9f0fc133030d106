/**
 * @file
 * Tests for the offline embedding-access trace module (Section IX's
 * trace-driven methodology): recording, serialization round-trip, and the
 * cache-study statistics (access counts, working sets, top-row coverage).
 */
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "model/generators.h"
#include "workload/access_trace.h"

namespace {

using namespace dri;
using workload::AccessTrace;

model::ModelSpec
smallSpec()
{
    model::ModelSpec spec;
    spec.name = "t";
    spec.mean_items = 10.0;
    spec.items_min = 4.0;
    spec.items_max = 40.0;
    spec.nets = {{0, "n", 1.0, 0.0}};
    for (int i = 0; i < 3; ++i) {
        model::TableSpec t;
        t.id = i;
        t.name = "t" + std::to_string(i);
        t.rows = 100000;
        t.dim = 8;
        t.pooling_per_item = 2.0;
        spec.tables.push_back(t);
    }
    return spec;
}

workload::AccessTrace
makeTrace(const model::ModelSpec &spec, std::size_t n_requests,
          double skew = 0.9)
{
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{21, 0.0});
    return workload::recordTrace(spec, gen.generate(n_requests), skew, 5);
}

TEST(AccessTrace, RecordsMatchRequestLookups)
{
    const auto spec = smallSpec();
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{21, 0.0});
    const auto requests = gen.generate(20);
    const auto trace = workload::recordTrace(spec, requests, 0.9, 5);

    std::int64_t expected = 0;
    for (const auto &r : requests)
        expected += r.totalLookups();
    EXPECT_EQ(static_cast<std::int64_t>(trace.size()), expected);

    const auto counts = trace.accessCounts(spec.tables.size());
    std::int64_t sum = 0;
    for (auto c : counts)
        sum += c;
    EXPECT_EQ(sum, expected);
}

TEST(AccessTrace, ReservesExactAccessCount)
{
    const auto spec = smallSpec();
    const auto trace = makeTrace(spec, 37);
    EXPECT_EQ(trace.records().capacity(), trace.size());
}

TEST(AccessTrace, RejectsRequestsWithWrongLookupVectorSize)
{
    const auto spec = smallSpec();
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{21, 0.0});
    auto requests = gen.generate(5);
    requests[3].table_lookups.pop_back(); // 2 counts for 3 tables

    EXPECT_THROW(workload::recordTrace(spec, requests, 0.9, 5),
                 std::invalid_argument);
    std::size_t emitted = 0;
    EXPECT_THROW(workload::forEachAccess(
                     spec, requests, 0.9, 5,
                     [&](const workload::AccessRecord &) { ++emitted; }),
                 std::invalid_argument);
    EXPECT_EQ(emitted, 0u); // rejected before anything is streamed
}

TEST(AccessTrace, RejectsTablesWithoutRows)
{
    auto spec = smallSpec();
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{21, 0.0});
    const auto requests = gen.generate(5);
    spec.tables[1].rows = 0;
    EXPECT_THROW(workload::recordTrace(spec, requests, 0.9, 5),
                 std::invalid_argument);
    spec.tables[1].rows = -4;
    EXPECT_THROW(workload::forEachAccess(spec, requests, 0.9, 5,
                                         [](const workload::AccessRecord &) {
                                         }),
                 std::invalid_argument);
}

TEST(AccessTrace, MixedTraceRejectsTableOutsideSpec)
{
    const auto spec = smallSpec();
    workload::MixedTraceConfig config;
    config.accesses = 10;
    config.table_id = 3; // the spec has tables 0..2
    EXPECT_THROW(workload::synthesizeMixedTrace(spec, config),
                 std::invalid_argument);
    config.table_id = -1;
    EXPECT_THROW(workload::synthesizeMixedTrace(spec, config),
                 std::invalid_argument);
}

TEST(AccessTrace, RowsWithinTableBounds)
{
    const auto spec = smallSpec();
    const auto trace = makeTrace(spec, 30);
    for (const auto &r : trace.records()) {
        EXPECT_GE(r.row, 0);
        EXPECT_LT(r.row,
                  spec.tables[static_cast<std::size_t>(r.table_id)].rows);
    }
}

TEST(AccessTrace, SerializationRoundTrip)
{
    const auto spec = smallSpec();
    const auto trace = makeTrace(spec, 10);
    std::stringstream buffer;
    trace.write(buffer);

    AccessTrace back;
    ASSERT_TRUE(AccessTrace::read(buffer, &back));
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(back.records()[i].request_id,
                  trace.records()[i].request_id);
        EXPECT_EQ(back.records()[i].table_id, trace.records()[i].table_id);
        EXPECT_EQ(back.records()[i].row, trace.records()[i].row);
    }
}

TEST(AccessTrace, ReadRejectsGarbage)
{
    std::stringstream bad("1 2 not-a-number\n");
    AccessTrace out;
    EXPECT_FALSE(AccessTrace::read(bad, &out));
}

TEST(AccessTrace, WorkingSetCurveConcaveUnderSkew)
{
    const auto spec = smallSpec();
    const auto trace = makeTrace(spec, 400, 0.95);
    const auto curve = trace.workingSetCurve(0, 100);
    ASSERT_GE(curve.size(), 4u);
    // Monotone non-decreasing...
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i], curve[i - 1]);
    // ...and concave: later increments smaller than early ones (popular
    // rows repeat), the property frequency-based caching exploits.
    const auto early = curve[1] - curve[0];
    const auto late = curve[curve.size() - 1] - curve[curve.size() - 2];
    EXPECT_LE(late, early);
}

TEST(AccessTrace, TopRowCoverageGrowsWithSkew)
{
    const auto spec = smallSpec();
    const auto flat = makeTrace(spec, 300, 0.1);
    const auto skewed = makeTrace(spec, 300, 1.1);
    const double flat_cov = flat.topRowCoverage(0, 64);
    const double skew_cov = skewed.topRowCoverage(0, 64);
    EXPECT_GT(skew_cov, flat_cov);
    EXPECT_GT(skew_cov, 0.3); // a small hot set captures real mass
    EXPECT_DOUBLE_EQ(flat.topRowCoverage(99, 10), 0.0); // unknown table
}

} // namespace
