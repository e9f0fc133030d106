/**
 * @file
 * Tests for the DES serving engine: determinism, stack accounting
 * identities, RPC fan-out counts, batching, platform scaling, and the
 * open-loop replayer.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/serving.h"
#include "core/strategies.h"
#include "model/generators.h"
#include "obs/span_tracer.h"
#include "rpc/hedge.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

std::vector<workload::Request>
requestsFor(const model::ModelSpec &spec, std::size_t n,
            std::uint64_t seed = 5)
{
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{seed, 0.0});
    return gen.generate(n);
}

std::vector<double>
poolingFor(const model::ModelSpec &spec)
{
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{99, 0.0});
    return gen.estimatePoolingFactors(300);
}

TEST(Serving, SerialReplayDeterministic)
{
    const auto spec = model::makeDrm2();
    const auto reqs = requestsFor(spec, 40);
    const auto plan = core::makeCapacityBalanced(spec, 4);
    core::ServingConfig config;
    config.seed = 7;

    core::ServingSimulation sim1(spec, plan, config);
    core::ServingSimulation sim2(spec, plan, config);
    const auto a = sim1.replaySerial(reqs);
    const auto b = sim2.replaySerial(reqs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].e2e, b[i].e2e);
        EXPECT_DOUBLE_EQ(a[i].cpuTotalNs(), b[i].cpuTotalNs());
    }
}

/**
 * A 24-shard plan sends more than 16 RPCs from one batch, with hedges
 * and straggler rolls mixed in. Every primary, hedge and straggler roll
 * draws from its own attempt's counter stream, so the digest pins the
 * per-attempt draws of a wide fan-out.
 */
TEST(Serving, WideFanOutPerAttemptDrawsArePinned)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 24);
    core::ServingConfig config;
    config.seed = 11;
    config.sparse_replicas = 2;
    config.hedge.enabled = true;
    config.faults.straggler_prob = 0.05;
    core::ServingSimulation sim(spec, plan, config);
    const auto stats = sim.replaySerial(requestsFor(spec, 200));

    std::uint64_t digest = 1469598103934665603ull;
    const auto mix = [&digest](std::int64_t v) {
        digest = (digest ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
    };
    double max_rpcs_per_batch = 0.0;
    int hedges = 0;
    for (const auto &s : stats) {
        mix(s.e2e);
        mix(s.emb_network);
        mix(s.rpc_count);
        mix(s.hedges);
        hedges += s.hedges;
        max_rpcs_per_batch = std::max(
            max_rpcs_per_batch,
            static_cast<double>(s.rpc_count) /
                static_cast<double>(s.batches * spec.nets.size()));
    }
    EXPECT_GT(max_rpcs_per_batch, 16.0);
    EXPECT_GT(hedges, 0);
    EXPECT_EQ(digest, 0xc26705df372cd937ull) << std::hex << digest;
}

TEST(Serving, AllRequestsComplete)
{
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 25);
    for (const auto &plan :
         {core::makeSingular(spec), core::makeOneShard(spec),
          core::makeCapacityBalanced(spec, 8)}) {
        core::ServingSimulation sim(spec, plan, core::ServingConfig{});
        const auto stats = sim.replaySerial(reqs);
        ASSERT_EQ(stats.size(), reqs.size()) << plan.label();
        for (const auto &s : stats) {
            EXPECT_GT(s.e2e, 0) << plan.label();
            EXPECT_GT(s.cpuTotalNs(), 0.0) << plan.label();
        }
    }
}

TEST(Serving, LatencyStackSumsToE2e)
{
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 30);
    for (const auto &plan :
         {core::makeSingular(spec), core::makeCapacityBalanced(spec, 4)}) {
        core::ServingSimulation sim(spec, plan, core::ServingConfig{});
        for (const auto &s : sim.replaySerial(reqs)) {
            const auto sum = s.queue_wait + s.lat_serde + s.lat_service +
                             s.lat_net_overhead + s.lat_embedded +
                             s.lat_dense;
            EXPECT_EQ(sum, s.e2e) << plan.label();
        }
    }
}

TEST(Serving, SingularHasNoRpcsOrNetwork)
{
    const auto spec = model::makeDrm2();
    const auto reqs = requestsFor(spec, 20);
    core::ServingSimulation sim(spec, core::makeSingular(spec),
                                core::ServingConfig{});
    for (const auto &s : sim.replaySerial(reqs)) {
        EXPECT_EQ(s.rpc_count, 0);
        EXPECT_EQ(s.emb_network, 0);
        EXPECT_GT(s.emb_sparse_op, 0); // inline SLS is the embedded portion
        for (double v : s.shard_op_ns)
            EXPECT_DOUBLE_EQ(v, 0.0);
    }
}

TEST(Serving, RpcFanoutMatchesGroupsTimesBatches)
{
    const auto spec = model::makeDrm1(); // every shard hosts both nets
    const auto reqs = requestsFor(spec, 10);
    const auto plan = core::makeCapacityBalanced(spec, 4);
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    std::size_t groups = 0;
    for (const auto &net : core::fanoutGroups(spec, plan))
        groups += net.size();
    EXPECT_EQ(groups, 8u); // 4 shards x 2 nets
    const auto stats = sim.replaySerial(reqs);
    for (const auto &s : stats)
        EXPECT_EQ(s.rpc_count, s.batches * 8);
}

TEST(Serving, DistributedSlowerThanSingularSerial)
{
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 60);
    core::ServingConfig config;
    core::ServingSimulation base(spec, core::makeSingular(spec), config);
    core::ServingSimulation dist(spec, core::makeOneShard(spec), config);
    const auto b = base.replaySerial(reqs);
    const auto d = dist.replaySerial(reqs);
    double b_sum = 0.0, d_sum = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        b_sum += static_cast<double>(b[i].e2e);
        d_sum += static_cast<double>(d[i].e2e);
    }
    EXPECT_GT(d_sum, b_sum); // Amdahl bound: serial distributed is slower
}

TEST(Serving, ComputeGrowsWithShardCount)
{
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 40);
    const auto pooling = poolingFor(spec);
    double prev = 0.0;
    for (int n : {1, 2, 4, 8}) {
        const auto plan =
            n == 1 ? core::makeOneShard(spec)
                   : core::makeLoadBalanced(spec, n, pooling);
        core::ServingSimulation sim(spec, plan, core::ServingConfig{});
        const auto stats = sim.replaySerial(reqs);
        double cpu = 0.0;
        for (const auto &s : stats)
            cpu += s.cpuTotalNs();
        EXPECT_GT(cpu, prev) << n << " shards";
        prev = cpu;
    }
}

TEST(Serving, NetworkLatencyPositiveAndDominant)
{
    // The paper: network latency exceeds operator latency on sparse shards
    // for distributed configurations (Fig. 8b). A distribution-level
    // property — individual requests may draw unlucky jitter — so the
    // dominance check compares means while positivity holds per request.
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 50);
    const auto plan = core::makeCapacityBalanced(spec, 8);
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    double net = 0.0, op = 0.0;
    for (const auto &s : sim.replaySerial(reqs)) {
        EXPECT_GT(s.emb_network, 0);
        net += static_cast<double>(s.emb_network);
        op += static_cast<double>(s.emb_sparse_op);
    }
    EXPECT_GT(net, op);
}

TEST(Serving, BatchCountFollowsBatchSize)
{
    const auto spec = model::makeDrm1(); // default batch 64
    auto reqs = requestsFor(spec, 5);
    core::ServingConfig config;
    core::ServingSimulation sim(spec, core::makeSingular(spec), config);
    for (const auto &s : sim.replaySerial(reqs)) {
        const auto expect =
            (s.items + spec.default_batch_size - 1) /
            spec.default_batch_size;
        EXPECT_EQ(s.batches, expect);
    }

    config.batch_size_override = 1 << 20;
    core::ServingSimulation single(spec, core::makeSingular(spec), config);
    for (const auto &s : single.replaySerial(reqs))
        EXPECT_EQ(s.batches, 1);
}

TEST(Serving, SlowerPlatformScalesCpu)
{
    const auto spec = model::makeDrm2();
    const auto reqs = requestsFor(spec, 30);
    const auto plan = core::makeCapacityBalanced(spec, 4);

    core::ServingConfig fast;
    core::ServingConfig slow;
    slow.sparse_platform.cpu_time_scale = 2.0;

    core::ServingSimulation f(spec, plan, fast);
    core::ServingSimulation s(spec, plan, slow);
    const auto fs = f.replaySerial(reqs);
    const auto ss = s.replaySerial(reqs);
    double f_op = 0.0, s_op = 0.0;
    for (std::size_t i = 0; i < fs.size(); ++i)
        for (std::size_t sh = 0; sh < fs[i].shard_op_ns.size(); ++sh) {
            f_op += fs[i].shard_op_ns[sh];
            s_op += ss[i].shard_op_ns[sh];
        }
    EXPECT_NEAR(s_op / f_op, 2.0, 0.05);
}

TEST(Serving, OpenLoopCompletesAllAndQueues)
{
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 60);
    core::ServingSimulation sim(spec, core::makeSingular(spec),
                                core::ServingConfig{});
    const auto stats = sim.replayOpenLoop(reqs, 200.0); // aggressive rate
    ASSERT_EQ(stats.size(), reqs.size());
    for (const auto &s : stats)
        EXPECT_GT(s.e2e, 0);
}

TEST(Serving, OpenLoopRejectsNonPositiveOrNonFiniteQps)
{
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 1);
    core::ServingSimulation sim(spec, core::makeSingular(spec),
                                core::ServingConfig{});
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double qps : {0.0, -5.0, inf, nan})
        EXPECT_THROW(sim.replayOpenLoop(reqs, qps), std::invalid_argument)
            << qps;
    // A rejected call schedules nothing: a valid replay still serves all.
    EXPECT_EQ(sim.replayOpenLoop(reqs, 100.0).size(), reqs.size());
}

TEST(ServingMisuse, CancelInFlightWithoutDeadlineThrows)
{
    const auto spec = model::makeDrm1();
    const auto plan = core::makeSingular(spec);
    core::ServingConfig cfg;
    cfg.admission.cancel_in_flight = true;
    for (const sim::Duration deadline : {sim::Duration{0}, sim::Duration{-1}}) {
        cfg.admission.deadline_ns = deadline;
        EXPECT_THROW((core::ServingSimulation{spec, plan, cfg}),
                     std::invalid_argument)
            << deadline;
    }
    cfg.admission.deadline_ns = 1;
    EXPECT_NO_THROW((core::ServingSimulation{spec, plan, cfg}));
}

/**
 * A serial replay recycles the first request's Active for the second,
 * so the first request's deadline timer fires while the second (same
 * id, same content) holds it. The timer must see a stale recycle
 * generation and stand down: the second request is served exactly as
 * without a deadline. Request ids need not be unique.
 */
TEST(ServingRequestState, StaleShedTimerSkipsTheRequestThatReusedItsActive)
{
    const auto spec = model::makeDrm1();
    const auto plan = core::makeCapacityBalanced(spec, 2);
    const auto one = requestsFor(spec, 1);
    const std::vector<workload::Request> reqs = {one[0], one[0]};

    core::ServingConfig cfg;
    const auto free_run =
        core::ServingSimulation(spec, plan, cfg).replaySerial(reqs);
    ASSERT_EQ(free_run.size(), 2u);
    // The first timer fires halfway through the second request, which
    // finishes before its own timer.
    const sim::Duration deadline = free_run[0].e2e + free_run[1].e2e / 2;
    ASSERT_GT(deadline, free_run[1].e2e);
    ASSERT_LT(free_run[0].arrival + deadline, free_run[1].completion);

    cfg.admission.deadline_ns = deadline;
    cfg.admission.cancel_in_flight = true;
    core::ServingSimulation sim(spec, plan, cfg);
    const auto stats = sim.replaySerial(reqs);
    ASSERT_EQ(stats.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_FALSE(stats[i].shed()) << i;
        EXPECT_EQ(stats[i].e2e, free_run[i].e2e) << i;
        EXPECT_EQ(stats[i].completion, free_run[i].completion) << i;
    }
    EXPECT_EQ(sim.metrics().shed_cancelled_rpcs, 0u);
}

/**
 * Every shard partitioned: the request's RPCs exhaust their retries and
 * it is shed with UpstreamFailure while other batches still hold the
 * single main core. Its deadline timer then fires before those batches
 * drain, and must not shed it a second time: one stats record, the same
 * as without a deadline.
 */
TEST(ServingRequestState, UpstreamShedThenDeadlineTimerEmitsOnce)
{
    const auto spec = model::makeDrm1();
    const auto plan = core::makeCapacityBalanced(spec, 2);
    const auto reqs = requestsFor(spec, 1);
    core::ServingConfig cfg;
    cfg.worker_threads = 1;
    cfg.batch_size_override = 4;
    cfg.faults.rpc_timeout_ns = 20 * sim::kMicrosecond;

    const auto run = [&](obs::SpanTracer *tracer) {
        cfg.tracer = tracer;
        core::ServingSimulation sim(spec, plan, cfg);
        for (int s = 0; s < plan.numShards(); ++s)
            sim.partitionShard(s, true);
        int calls = 0;
        std::vector<core::RequestStats> out;
        sim.inject(reqs[0], [&](const core::RequestStats &st) {
            ++calls;
            out.push_back(st);
        });
        sim.engine().run();
        EXPECT_NO_THROW(sim.checkDrained());
        EXPECT_EQ(calls, 1);
        return out;
    };

    // Reference run: the shed time is the stats' completion, and the
    // Active is recycled when its last NetPhase span closes.
    obs::SpanTracer tracer;
    const auto ref = run(&tracer);
    ASSERT_EQ(ref.size(), 1u);
    ASSERT_EQ(ref[0].shed_reason, core::ShedReason::UpstreamFailure);
    sim::SimTime drained = 0;
    for (const auto &sp : tracer.spans())
        if (sp.kind == obs::SpanKind::NetPhase)
            drained = std::max(drained, sp.end);
    ASSERT_GT(drained, ref[0].completion) << "no drain window to fire in";

    cfg.admission.deadline_ns =
        (ref[0].completion + drained) / 2 - ref[0].arrival;
    cfg.admission.cancel_in_flight = true;
    const auto shed = run(nullptr);
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(shed[0].shed_reason, core::ShedReason::UpstreamFailure);
    EXPECT_EQ(shed[0].completion, ref[0].completion);
}

/**
 * The default config constructs; broken by `mutate`, it must make the
 * constructor throw std::invalid_argument naming `field`.
 */
template <class Mutate>
void
expectConfigRejected(const std::string &field, Mutate mutate)
{
    const auto spec = model::makeDrm1();
    const auto plan = core::makeCapacityBalanced(spec, 2);
    core::ServingConfig cfg;
    EXPECT_NO_THROW((core::ServingSimulation{spec, plan, cfg}));
    mutate(cfg);
    try {
        core::ServingSimulation sim(spec, plan, cfg);
        ADD_FAILURE() << field << ": constructed";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << "expected '" << field << "' in '" << e.what() << "'";
    }
}

TEST(ServingMisuse, StragglerProbOutsideUnitIntervalOrNaNThrows)
{
    for (const double p :
         {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()})
        expectConfigRejected("faults.straggler_prob",
                             [p](auto &c) { c.faults.straggler_prob = p; });
}

TEST(ServingMisuse, HedgeQuantileOutsideUnitIntervalThrows)
{
    for (const double q :
         {-0.01, 1.01, 95.0, std::numeric_limits<double>::quiet_NaN()})
        expectConfigRejected("hedge.quantile",
                             [q](auto &c) { c.hedge.quantile = q; });
}

TEST(ServingMisuse, HedgeMinSamplesAboveWindowThrows)
{
    // The window holds at most kHedgeWindow samples, so a larger
    // min_samples would silently disable hedging.
    const auto spec = model::makeDrm1();
    const auto plan = core::makeCapacityBalanced(spec, 2);
    core::ServingConfig cfg;
    cfg.hedge.min_samples = rpc::kHedgeWindow;
    EXPECT_NO_THROW((core::ServingSimulation{spec, plan, cfg}));
    expectConfigRejected("hedge.min_samples", [](auto &c) {
        c.hedge.min_samples = rpc::kHedgeWindow + 1;
    });
}

TEST(ServingMisuse, HedgeFractionNegativeOrNonFiniteThrows)
{
    for (const double f : {-0.1, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()})
        expectConfigRejected("hedge.max_hedge_fraction", [f](auto &c) {
            c.hedge.max_hedge_fraction = f;
        });
}

TEST(ServingMisuse, NegativeMaxMainQueueThrows)
{
    expectConfigRejected("admission.max_main_queue",
                         [](auto &c) { c.admission.max_main_queue = -1; });
}

TEST(ServingMisuse, NegativeDeadlineThrows)
{
    expectConfigRejected("admission.deadline_ns",
                         [](auto &c) { c.admission.deadline_ns = -1; });
}

TEST(ServingMisuse, NegativeBatchSizeOverrideThrows)
{
    expectConfigRejected("batch_size_override",
                         [](auto &c) { c.batch_size_override = -1; });
}

TEST(ServingMisuse, NegativeWorkerThreadsThrows)
{
    expectConfigRejected("worker_threads",
                         [](auto &c) { c.worker_threads = -1; });
}

TEST(ServingMisuse, NegativeSparseWorkerThreadsThrows)
{
    expectConfigRejected("sparse_worker_threads",
                         [](auto &c) { c.sparse_worker_threads = -1; });
}

TEST(ServingMisuse, NegativeSparseReplicasThrows)
{
    expectConfigRejected("sparse_replicas",
                         [](auto &c) { c.sparse_replicas = -1; });
}

TEST(ServingMisuse, NegativeResultCacheTtlThrows)
{
    expectConfigRejected("result_cache.ttl_ns",
                         [](auto &c) { c.result_cache.ttl_ns = -1; });
}

TEST(ServingMisuse, NegativeRpcTimeoutThrows)
{
    expectConfigRejected("faults.rpc_timeout_ns",
                         [](auto &c) { c.faults.rpc_timeout_ns = -1; });
}

TEST(ServingMisuse, NegativeDiscoveryLagThrows)
{
    expectConfigRejected("faults.discovery_lag_ns",
                         [](auto &c) { c.faults.discovery_lag_ns = -1; });
}

TEST(ServingMisuse, PlatformWithoutCoresThrows)
{
    // -1 cores used to size a pool of ~1.8e19 workers, and 0 cores one
    // that never grants; both now fail at construction.
    for (const int cores : {0, -1}) {
        expectConfigRejected("main_platform.cores", [cores](auto &c) {
            c.main_platform.cores = cores;
        });
        expectConfigRejected("sparse_platform.cores", [cores](auto &c) {
            c.sparse_platform.cores = cores;
        });
    }
}

TEST(ServingMisuse, PlatformCpuTimeScaleNotPositiveOrNonFiniteThrows)
{
    for (const double scale :
         {0.0, -1.0, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()}) {
        expectConfigRejected("main_platform.cpu_time_scale",
                             [scale](auto &c) {
                                 c.main_platform.cpu_time_scale = scale;
                             });
        expectConfigRejected("sparse_platform.cpu_time_scale",
                             [scale](auto &c) {
                                 c.sparse_platform.cpu_time_scale = scale;
                             });
    }
}

/**
 * The what() of the std::invalid_argument the constructor throws for
 * (spec, plan), or "" when it constructs. Each validator rule below
 * breaks one field of a valid DRM1 spec or two-shard plan and checks that
 * the constructor names that rule.
 */
std::string
constructionError(const model::ModelSpec &spec, const core::ShardingPlan &plan)
{
    try {
        core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

/** `spec` under a singular plan: the constructor must name `rule`. */
void
expectSpecRejected(const model::ModelSpec &spec, const std::string &rule)
{
    const std::string error =
        constructionError(spec, core::makeSingular(spec));
    EXPECT_NE(error.find("model spec: "), std::string::npos) << error;
    EXPECT_NE(error.find(rule), std::string::npos)
        << "expected '" << rule << "' in '" << error << "'";
}

TEST(ServingMisuse, SpecWithoutTablesThrows)
{
    auto spec = model::makeDrm1();
    spec.tables.clear();
    expectSpecRejected(spec, "model must have nets and tables");
}

TEST(ServingMisuse, SpecTableOnUnknownNetThrows)
{
    auto spec = model::makeDrm1();
    spec.tables[0].net_id = 99;
    expectSpecRejected(spec, "references unknown net 99");
}

TEST(ServingMisuse, SpecNonPositiveGeometryThrows)
{
    auto rows = model::makeDrm1();
    rows.tables[0].rows = 0;
    expectSpecRejected(rows, "non-positive geometry");
    auto dim = model::makeDrm1();
    dim.tables[0].dim = -1;
    expectSpecRejected(dim, "non-positive geometry");
}

TEST(ServingMisuse, SpecNegativePoolingThrows)
{
    auto spec = model::makeDrm1();
    spec.tables[0].pooling_per_item = -0.5;
    expectSpecRejected(spec, "negative pooling");
}

TEST(ServingMisuse, SpecAttributionNotSummingToOneThrows)
{
    auto spec = model::makeDrm1();
    ASSERT_FALSE(spec.compute_attribution.empty());
    spec.compute_attribution.begin()->second += 0.25;
    expectSpecRejected(spec, "compute attribution sums to");
}

TEST(ServingMisuse, SpecBadRequestSizeDistributionThrows)
{
    auto mean = model::makeDrm1();
    mean.mean_items = 0.0;
    expectSpecRejected(mean, "bad request-size distribution");
    auto range = model::makeDrm1();
    range.items_max = range.items_min / 2.0;
    expectSpecRejected(range, "bad request-size distribution");
}

TEST(ServingMisuse, SpecBadBatchSizeThrows)
{
    auto spec = model::makeDrm1();
    spec.default_batch_size = 0;
    expectSpecRejected(spec, "bad batch size");
}

/**
 * DRM1's two-shard capacity-balanced assignments, rewritten by `edit`,
 * in a plan of `num_shards` shards: the constructor must name `rule`.
 */
template <class Edit>
void
expectPlanRejected(int num_shards, Edit edit, const std::string &rule)
{
    const auto spec = model::makeDrm1();
    auto assignments = core::makeCapacityBalanced(spec, 2).assignments();
    edit(assignments);
    const std::string error = constructionError(
        spec, core::ShardingPlan("edited", num_shards, assignments));
    EXPECT_NE(error.find("sharding plan: "), std::string::npos) << error;
    EXPECT_NE(error.find(rule), std::string::npos)
        << "expected '" << rule << "' in '" << error << "'";
}

using Assignments = std::vector<core::TableAssignment>;

TEST(ServingMisuse, PlanSingularWithAssignmentsThrows)
{
    expectPlanRejected(
        0, [](Assignments &) {},
        "singular plan must have no assignments");
}

TEST(ServingMisuse, PlanCoverageMismatchThrows)
{
    expectPlanRejected(
        2, [](Assignments &a) { a.pop_back(); }, "plan covers");
}

TEST(ServingMisuse, PlanBadTableIdThrows)
{
    expectPlanRejected(
        2, [](Assignments &a) { a.back().table_id = 100000; },
        "bad table id 100000");
}

TEST(ServingMisuse, PlanTableAssignedTwiceThrows)
{
    expectPlanRejected(
        2, [](Assignments &a) { a[1].table_id = 0; },
        "table 0 assigned twice");
}

TEST(ServingMisuse, PlanTableWithNoShardThrows)
{
    expectPlanRejected(
        2, [](Assignments &a) { a[0].shards.clear(); },
        "table 0 has no shard");
}

TEST(ServingMisuse, PlanRepeatedSplitShardsThrows)
{
    expectPlanRejected(
        2, [](Assignments &a) { a[0].shards = {1, 1}; },
        "table 0 split uses repeated shards");
}

TEST(ServingMisuse, PlanOutOfRangeShardThrows)
{
    expectPlanRejected(
        2, [](Assignments &a) { a[0].shards = {2}; },
        "table 0 on out-of-range shard 2");
}

TEST(ServingMisuse, PlanUnassignedTableThrows)
{
    expectPlanRejected(
        2, [](Assignments &a) { a.erase(a.begin()); },
        "table 0 unassigned");
}

TEST(Serving, Drm3TouchesTwoShards)
{
    const auto spec = model::makeDrm3();
    const auto reqs = requestsFor(spec, 30);
    const auto plan =
        core::makeNsbp(spec, 8, dc::scLarge().usableModelBytes());
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    for (const auto &s : sim.replaySerial(reqs)) {
        int touched = 0;
        for (double v : s.shard_op_ns)
            touched += v > 0.0 ? 1 : 0;
        EXPECT_LE(touched, 2 * s.batches);
        EXPECT_GE(touched, 1);
    }
}

} // namespace
