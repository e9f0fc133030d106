/**
 * @file
 * Tests for the offline embedding-access trace module (Section IX's
 * trace-driven methodology): recording, the streaming generator's input
 * checks and table filter, and the synthetic mixed trace's.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "model/generators.h"
#include "stats/rng.h"
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

    // Per table, the trace holds exactly the requests' lookups.
    std::vector<std::int64_t> want(spec.tables.size(), 0);
    std::vector<std::int64_t> got(spec.tables.size(), 0);
    for (const auto &r : requests)
        for (std::size_t t = 0; t < want.size(); ++t)
            want[t] += r.table_lookups[t];
    for (const auto &rec : trace.records()) {
        ASSERT_GE(rec.table_id, 0);
        ASSERT_LT(static_cast<std::size_t>(rec.table_id), got.size());
        ++got[static_cast<std::size_t>(rec.table_id)];
    }
    EXPECT_EQ(got, want);
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
    // With a table filter too.
    EXPECT_THROW(workload::forEachAccess(
                     spec, requests, 0.9, 5,
                     [&](const workload::AccessRecord &) { ++emitted; },
                     [](std::size_t t) { return t == 0; }),
                 std::invalid_argument);
    EXPECT_EQ(emitted, 0u); // rejected before anything is streamed
}

/**
 * The table filter's contract: forEachAccess with a mask emits exactly
 * the unfiltered stream restricted to the wanted tables, record for
 * record, under every mask shape and on requests that skip some tables.
 */
TEST(AccessTrace, FilteredStreamIsUnfilteredStreamRestrictedToWantedTables)
{
    for (const auto &spec :
         {model::makeShardedCacheStudySpec(), model::makeDrm2()}) {
        const std::size_t n_tables = spec.tables.size();
        workload::RequestGenerator gen(spec,
                                       workload::GeneratorConfig{21, 0.0});
        auto requests = gen.generate(20);
        // Zero lookups for some tables: the filter must keep the stream in
        // step across them, wanted or not.
        for (std::size_t t = 0; t < n_tables; t += 3)
            requests[4].table_lookups[t] = 0;
        requests[11].table_lookups.assign(n_tables, 0);
        requests[11].table_lookups[n_tables - 1] = 5;

        std::vector<workload::AccessRecord> all;
        workload::forEachAccess(
            spec, requests, 0.8, 9,
            [&](const workload::AccessRecord &rec) { all.push_back(rec); });

        std::vector<std::pair<std::string, std::vector<char>>> masks = {
            {"all", std::vector<char>(n_tables, 1)},
            {"none", std::vector<char>(n_tables, 0)},
            {"odd", {}},
            {"one", std::vector<char>(n_tables, 0)},
            {"random", {}}};
        for (std::size_t t = 0; t < n_tables; ++t)
            masks[2].second.push_back(t % 2 == 1);
        masks[3].second[n_tables / 2] = 1;
        stats::Rng rng(0xa11);
        for (std::size_t t = 0; t < n_tables; ++t)
            masks[4].second.push_back(rng.bernoulli(0.5));

        for (const auto &[name, mask] : masks) {
            const std::string where = spec.name + "/" + name;
            std::vector<workload::AccessRecord> expected;
            for (const auto &rec : all)
                if (mask[static_cast<std::size_t>(rec.table_id)])
                    expected.push_back(rec);
            std::vector<workload::AccessRecord> got;
            workload::forEachAccess(
                spec, requests, 0.8, 9,
                [&](const workload::AccessRecord &rec) {
                    got.push_back(rec);
                },
                [&mask](std::size_t t) { return mask[t] != 0; });
            ASSERT_EQ(got.size(), expected.size()) << where;
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].request_id, expected[i].request_id)
                    << where << " record " << i;
                ASSERT_EQ(got[i].table_id, expected[i].table_id)
                    << where << " record " << i;
                ASSERT_EQ(got[i].row, expected[i].row)
                    << where << " record " << i;
            }
        }
    }
}

TEST(AccessTrace, RejectsNaNSkewBeforeEmitting)
{
    const auto spec = smallSpec();
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{21, 0.0});
    const auto requests = gen.generate(5);
    EXPECT_THROW(workload::recordTrace(spec, requests, std::nan(""), 5),
                 std::invalid_argument);
    std::size_t emitted = 0;
    EXPECT_THROW(workload::forEachAccess(
                     spec, requests, std::nan(""), 5,
                     [&](const workload::AccessRecord &) { ++emitted; }),
                 std::invalid_argument);
    EXPECT_EQ(emitted, 0u);
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

} // namespace
