/**
 * @file
 * Seeded fuzzer of the serving core. Each case draws a valid
 * ServingConfig from the range table below, a small DRM1/2/3 plan, a
 * short request stream and a driver (serial, open loop, or the dynamic
 * batcher's open loop), plus random control-surface calls (kill,
 * restore, degrade, partition, result-cache invalidation) at random
 * simulated times. Every case must drain clean (the replay's own
 * checkDrained, and once more here), return every request id exactly
 * once, and replay byte-identically on a fresh deployment.
 *
 * Cases run in blocks of kCasesPerBlock, one test per block
 * (Blocks/ServingFuzz.Cases/<block>), so a gtest filter sets the case
 * count: the sanitizer CI entry runs '*ServingFuzz.Cases/?', blocks 0-9.
 * A failing case prints its seed; fuzzCase(seed) replays it alone.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/serving.h"
#include "core/strategies.h"
#include "dc/platform.h"
#include "model/generators.h"
#include "obs/span_tracer.h"
#include "sched/batcher.h"
#include "stats/rng.h"
#include "workload/request_generator.h"

#include "span_digest.h"

namespace {

using namespace dri;
using testutil::Digest;

constexpr int kBlocks = 40;
constexpr int kCasesPerBlock = 100;
/** Case i of the whole run has seed kSeedBase + i. */
constexpr std::uint64_t kSeedBase = 0xf022'0000;

/**
 * The sampling range of every fuzzed ServingConfig field, inclusive.
 * Each draw is valid by construction: the constructor's rules (no
 * negative counts or durations, probabilities and quantiles in [0, 1],
 * cancel_in_flight only with a deadline) all hold over these ranges.
 */
struct Ranges
{
    std::int64_t sparse_replicas[2] = {1, 3};
    std::int64_t worker_threads[2] = {1, 8};
    std::int64_t sparse_worker_threads[2] = {0, 3};
    std::int64_t batch_size_override[2] = {0, 64};
    std::int64_t max_main_queue[2] = {0, 6};
    std::int64_t deadline_ms[2] = {1, 30};
    std::int64_t ttl_ms[2] = {0, 20};
    std::int64_t rpc_timeout_us[2] = {200, 5000};
    std::int64_t discovery_lag_us[2] = {0, 10000};
    double straggler_prob[2] = {0.0, 0.3};
    double hedge_quantile[2] = {0.5, 0.99};
    double max_hedge_fraction[2] = {0.0, 0.5};
    std::int64_t hedge_min_samples[2] = {1, 8};
    std::int64_t requests[2] = {1, 24};
    double qps[2] = {200.0, 6000.0};
    std::int64_t control_calls[2] = {0, 6};
    sim::Duration control_horizon = 40 * sim::kMillisecond;
};

constexpr Ranges kRanges;

std::int64_t
draw(stats::Rng &rng, const std::int64_t (&r)[2])
{
    return rng.uniformInt(r[0], r[1]);
}

double
draw(stats::Rng &rng, const double (&r)[2])
{
    return rng.uniform(r[0], r[1]);
}

const std::vector<model::ModelSpec> &
specs()
{
    static const std::vector<model::ModelSpec> all = {
        model::makeDrm1(), model::makeDrm2(), model::makeDrm3()};
    return all;
}

enum class Driver
{
    Serial,
    OpenLoop,
    Batched,
};

enum class Control
{
    Kill,
    Restore,
    Degrade,
    Partition,
    Invalidate,
};

/** One control-surface call at a simulated time. */
struct ControlCall
{
    sim::SimTime at = 0;
    Control kind = Control::Kill;
    int target = 0;          //!< server id, or shard id for Partition
    double multiplier = 1.0; //!< Degrade
    bool partitioned = true; //!< Partition
};

/** Everything one fuzz case draws. */
struct Case
{
    std::uint64_t seed = 0;
    std::size_t model = 0;
    core::ShardingPlan plan;
    core::ServingConfig cfg;
    bool traced = false;
    Driver driver = Driver::Serial;
    double qps = 0.0;
    std::vector<workload::Request> requests;
    std::vector<ControlCall> calls;
};

Case
drawCase(std::uint64_t seed)
{
    stats::Rng rng(seed);
    Case c;
    c.seed = seed;
    c.model = static_cast<std::size_t>(rng.uniformInt(0, 2));
    const model::ModelSpec &spec = specs()[c.model];
    const int shards = static_cast<int>(rng.uniformInt(2, 4));
    switch (rng.uniformInt(0, 3)) {
      case 0:
        c.plan = core::makeSingular(spec);
        break;
      case 1:
        c.plan = core::makeOneShard(spec);
        break;
      case 2:
        c.plan = core::makeCapacityBalanced(spec, shards);
        break;
      default:
        c.plan = core::makeNsbp(spec, shards,
                                dc::scLarge().usableModelBytes());
        break;
    }

    core::ServingConfig &cfg = c.cfg;
    cfg.seed = rng();
    cfg.sparse_replicas = static_cast<int>(draw(rng, kRanges.sparse_replicas));
    if (rng.bernoulli(0.25))
        for (int s = 0; s < c.plan.numShards(); ++s)
            cfg.sparse_replicas_per_shard.push_back(
                static_cast<int>(draw(rng, kRanges.sparse_replicas)));
    cfg.worker_threads = static_cast<int>(draw(rng, kRanges.worker_threads));
    cfg.sparse_worker_threads =
        static_cast<int>(draw(rng, kRanges.sparse_worker_threads));
    if (rng.bernoulli(0.3))
        cfg.batch_size_override =
            static_cast<int>(draw(rng, kRanges.batch_size_override));
    cfg.lb_policy = static_cast<rpc::LoadBalancePolicy>(rng.uniformInt(0, 2));
    if (rng.bernoulli(0.4))
        cfg.admission.max_main_queue =
            static_cast<int>(draw(rng, kRanges.max_main_queue));
    if (rng.bernoulli(0.6)) {
        cfg.admission.deadline_ns =
            draw(rng, kRanges.deadline_ms) * sim::kMillisecond;
        cfg.admission.cancel_in_flight = rng.bernoulli(0.7);
    }
    if (rng.bernoulli(0.4)) {
        cfg.result_cache.enabled = true;
        cfg.result_cache.ttl_ns = draw(rng, kRanges.ttl_ms) * sim::kMillisecond;
    }
    if (rng.bernoulli(0.5)) {
        cfg.hedge.enabled = true;
        cfg.hedge.quantile = draw(rng, kRanges.hedge_quantile);
        cfg.hedge.max_hedge_fraction = draw(rng, kRanges.max_hedge_fraction);
        cfg.hedge.min_samples =
            static_cast<std::size_t>(draw(rng, kRanges.hedge_min_samples));
    }
    if (rng.bernoulli(0.5))
        cfg.faults.straggler_prob = draw(rng, kRanges.straggler_prob);
    cfg.faults.rpc_timeout_ns = draw(rng, kRanges.rpc_timeout_us) * 1000;
    cfg.faults.discovery_lag_ns = draw(rng, kRanges.discovery_lag_us) * 1000;
    c.traced = rng.bernoulli(0.3);

    c.driver = static_cast<Driver>(rng.uniformInt(0, 2));
    c.qps = draw(rng, kRanges.qps);
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{rng(), 0.0});
    c.requests =
        gen.generate(static_cast<std::size_t>(draw(rng, kRanges.requests)));
    // Content twins of earlier requests (fresh ids) give the result
    // cache repeats to hit.
    if (cfg.result_cache.enabled) {
        std::vector<workload::Request> stream;
        for (std::size_t i = 0; i < c.requests.size(); ++i) {
            stream.push_back(c.requests[i]);
            if (i == 0 || !rng.bernoulli(0.5))
                continue;
            stream.push_back(c.requests[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(i) - 1))]);
            stream.back().id = 1'000'000 + i;
        }
        c.requests = std::move(stream);
    }

    // Server count mirrors the constructor's replica rule.
    int servers = 0;
    for (int s = 0; s < c.plan.numShards(); ++s) {
        const auto si = static_cast<std::size_t>(s);
        servers += si < cfg.sparse_replicas_per_shard.size() &&
                           cfg.sparse_replicas_per_shard[si] > 0
                       ? cfg.sparse_replicas_per_shard[si]
                       : cfg.sparse_replicas;
    }
    const std::int64_t n_calls = draw(rng, kRanges.control_calls);
    for (std::int64_t i = 0; i < n_calls; ++i) {
        ControlCall call;
        call.at = rng.uniformInt(0, kRanges.control_horizon);
        call.kind = static_cast<Control>(rng.uniformInt(0, 4));
        call.multiplier = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 20.0);
        call.partitioned = rng.bernoulli(0.6);
        if (call.kind != Control::Invalidate) {
            const int targets = call.kind == Control::Partition
                                    ? c.plan.numShards()
                                    : servers;
            if (targets == 0)
                continue; // a singular plan has no shard or server
            call.target = static_cast<int>(rng.uniformInt(0, targets - 1));
        }
        c.calls.push_back(call);
    }
    return c;
}

/** Fold one run's stats, simulation counters and spans into a digest. */
std::uint64_t
digestRun(const core::ServingSimulation &sim,
          const std::vector<core::RequestStats> &stats,
          const obs::SpanTracer &tracer)
{
    Digest d;
    for (const auto &s : stats) {
        d.mix(s.id);
        for (const std::int64_t v :
             {s.items, std::int64_t{s.batches}, std::int64_t{s.rpc_count},
              std::int64_t{s.hedges}, std::int64_t{s.hedge_wins},
              std::int64_t{s.result_cache_hits},
              std::int64_t{s.result_cache_misses},
              s.result_cache_bytes_saved, s.arrival, s.completion, s.e2e,
              s.batch_wait, std::int64_t{s.coalesced}, s.queue_wait,
              s.lat_serde, s.lat_service, s.lat_net_overhead, s.lat_embedded,
              s.lat_dense, s.emb_sparse_op, s.emb_serde, s.emb_service,
              s.emb_net_overhead, s.emb_network, s.emb_queue,
              static_cast<std::int64_t>(s.shed_reason)})
            d.mixInt(v);
        for (const double v : {s.hedge_wasted_cpu_ns, s.cpu_ops_ns,
                               s.cpu_serde_ns, s.cpu_service_ns, s.main_op_ns})
            d.mixDouble(v);
        for (const double v : s.shard_op_ns)
            d.mixDouble(v);
        for (const double v : s.shard_net_op_ns)
            d.mixDouble(v);
    }
    const rpc::HedgeStats h = sim.hedgeStats();
    const core::FaultStats &f = sim.faultStats();
    for (const std::uint64_t v :
         {h.primary_rpcs, h.hedges, h.wins, h.losses, h.cancelled,
          h.suppressed, f.kills, f.restores, f.dead_target_attempts,
          f.partition_drops, f.lost_in_service, f.retries,
          f.resolution_failures, f.upstream_failures,
          sim.shedCancelledRpcs(), sim.resultCacheStats().hits})
        d.mix(v);
    d.mixDouble(h.wasted_busy_ns);
    d.mixDouble(h.total_busy_ns);
    testutil::mixSpans(d, tracer.spans());
    return d.h;
}

/** Paths a run reached, summed over cases by the coverage test. */
struct Reached
{
    std::map<std::string, std::uint64_t> counts;

    void
    add(const core::ServingSimulation &sim,
        const std::vector<core::RequestStats> &stats)
    {
        for (const auto &s : stats) {
            counts["queue_full"] +=
                s.shed_reason == core::ShedReason::QueueFull;
            counts["deadline"] +=
                s.shed_reason == core::ShedReason::DeadlineExceeded;
            counts["upstream"] +=
                s.shed_reason == core::ShedReason::UpstreamFailure;
            counts["cache_hits"] +=
                static_cast<std::uint64_t>(s.result_cache_hits);
        }
        const rpc::HedgeStats h = sim.hedgeStats();
        const core::FaultStats &f = sim.faultStats();
        counts["hedges"] += h.hedges;
        counts["hedge_wins"] += h.wins;
        counts["hedge_losses"] += h.losses;
        counts["shed_cancelled"] += sim.shedCancelledRpcs();
        counts["kills"] += f.kills;
        counts["restores"] += f.restores;
        counts["dead_target"] += f.dead_target_attempts;
        counts["partition_drops"] += f.partition_drops;
        counts["lost_in_service"] += f.lost_in_service;
        counts["retries"] += f.retries;
        counts["resolution_failures"] += f.resolution_failures;
    }
};

/** Run a drawn case on a fresh deployment; returns the run's digest. */
std::uint64_t
runCase(const Case &c, Reached *reached = nullptr)
{
    const model::ModelSpec &spec = specs()[c.model];
    obs::SpanTracer tracer(c.traced);
    core::ServingConfig cfg = c.cfg;
    cfg.tracer = &tracer;
    core::ServingSimulation sim(spec, c.plan, cfg);
    for (const ControlCall &call : c.calls)
        sim.engine().scheduleAt(call.at, sim::kEvDriver, [&sim, call] {
            switch (call.kind) {
              case Control::Kill:
                sim.killReplica(call.target);
                break;
              case Control::Restore:
                sim.restoreReplica(call.target);
                break;
              case Control::Degrade:
                sim.degradeReplica(call.target, call.multiplier);
                break;
              case Control::Partition:
                sim.partitionShard(call.target, call.partitioned);
                break;
              case Control::Invalidate:
                sim.invalidateResultCache();
                break;
            }
        });

    // Each replay ends in checkDrained; a throw fails the case under
    // its seed's trace instead of aborting the block.
    std::vector<core::RequestStats> stats;
    try {
        switch (c.driver) {
          case Driver::Serial:
            stats = sim.replaySerial(c.requests);
            break;
          case Driver::OpenLoop:
            stats = sim.replayOpenLoop(c.requests, c.qps);
            break;
          case Driver::Batched:
            stats = sched::runBatchedOpenLoop(sim, c.requests, c.qps,
                                              sched::BatcherConfig{}, c.seed);
            break;
        }
        sim.checkDrained();
    } catch (const std::exception &e) {
        ADD_FAILURE() << e.what();
        return 0;
    }

    // Every request id comes back exactly once.
    std::map<std::uint64_t, int> seen;
    for (const auto &s : stats)
        ++seen[s.id];
    EXPECT_EQ(stats.size(), c.requests.size());
    for (const auto &r : c.requests)
        EXPECT_EQ(seen[r.id], 1) << "request " << r.id;
    if (reached != nullptr)
        reached->add(sim, stats);
    return digestRun(sim, stats, tracer);
}

void
fuzzCase(std::uint64_t seed)
{
    SCOPED_TRACE("fuzz case seed " + std::to_string(seed));
    const Case c = drawCase(seed);
    const std::uint64_t first = runCase(c);
    if (::testing::Test::HasFailure())
        return;
    EXPECT_EQ(runCase(c), first) << "rerun is not byte-identical";
}

class ServingFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(ServingFuzz, Cases)
{
    for (int i = 0; i < kCasesPerBlock; ++i) {
        fuzzCase(kSeedBase +
                 static_cast<std::uint64_t>(GetParam() * kCasesPerBlock + i));
        if (HasFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Blocks, ServingFuzz, ::testing::Range(0, kBlocks));

/**
 * The fuzzer must actually reach the paths it guards: over the first
 * ten blocks' cases, every shed reason, hedge outcome and fault counter
 * fires at least once.
 */
TEST(ServingFuzzCoverage, FirstBlocksReachEveryPath)
{
    Reached reached;
    for (int i = 0; i < 10 * kCasesPerBlock; ++i)
        runCase(drawCase(kSeedBase + static_cast<std::uint64_t>(i)), &reached);
    for (const auto &[path, count] : reached.counts)
        EXPECT_GT(count, 0u) << path;
}

} // namespace
