/**
 * @file
 * Cache v2 study — the acceptance checks for the adaptive/admission/
 * result-caching layer, end to end:
 *
 *  1. Adaptive eviction — on a mixed recency/frequency trace ARC must
 *     beat the worse of LRU/LFU clearly and sit within 1% of the better
 *     (and on the pure-extreme traces, within 3% of whichever static
 *     policy owns that extreme).
 *  2. TinyLFU admission — at equal byte budgets on a Zipf trace, the
 *     frequency-sketch doorkeeper never lowers the hit rate (one-access
 *     admission lag tolerance 0.2%), for every policy it wraps.
 *  3. Per-shard trace slicing — under a uniform capacity-balanced plan
 *     the access-weighted per-shard aggregate reproduces the whole-model
 *     hit rate within 2%; under a skewed plan with machine-shaped equal
 *     budgets the per-shard rates diverge by > 10%.
 *  4. Pooled-result caching — on repeat traffic, enabling the
 *     main-shard result cache strictly raises the max sustainable QPS
 *     found by sched::CapacitySearch.
 *
 * Exits non-zero if any check fails, so CI runs this as a gate.
 */
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/analysis.h"
#include "core/strategies.h"
#include "core/trace_slicing.h"
#include "model/generators.h"
#include "sched/capacity_search.h"
#include "stats/table_printer.h"
#include "workload/access_trace.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;
using stats::TablePrinter;

bool g_all_pass = true;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        g_all_pass = false;
        std::cout << "FAIL: " << what << "\n";
    }
}

double
hitRate(const model::ModelSpec &spec, const workload::AccessTrace &trace,
        std::int64_t universe, cache::Policy policy, double fraction,
        cache::Admission admission = cache::Admission::None)
{
    const auto cap = static_cast<std::int64_t>(
        fraction * static_cast<double>(universe));
    return cache::replayTrace(spec, trace, policy, cap, 0.5, admission)
        .overallHitRate();
}

} // namespace

int
main()
{
    const auto spec = model::makeCacheStudySpec();

    // ---- 1. Adaptive eviction on a mixed trace --------------------------
    std::cout << stats::banner("Cache v2 study: ARC / TinyLFU / slicing / "
                               "result cache");
    workload::MixedTraceConfig mc;
    mc.recency_fraction = 0.5;
    const auto mixed = workload::synthesizeMixedTrace(spec, mc);
    const auto mixed_universe =
        workload::traceFootprint(spec, mixed).universe_bytes;

    std::cout << "Mixed recency/frequency trace (" << mixed.size()
              << " accesses):\n";
    TablePrinter adapt({"capacity", "lru", "lfu", "2q", "arc", "verdict"});
    for (const double f : {0.05, 0.1, 0.2, 0.4}) {
        const double lru =
            hitRate(spec, mixed, mixed_universe, cache::Policy::Lru, f);
        const double lfu =
            hitRate(spec, mixed, mixed_universe, cache::Policy::Lfu, f);
        const double two_q = hitRate(spec, mixed, mixed_universe,
                                     cache::Policy::TwoQueue, f);
        const double arc =
            hitRate(spec, mixed, mixed_universe, cache::Policy::Arc, f);
        const bool ok =
            arc > std::min(lru, lfu) + 0.05 &&
            arc >= std::max(lru, lfu) - 0.01;
        check(ok, "ARC adaptivity at capacity " + TablePrinter::pct(f));
        adapt.addRow({TablePrinter::pct(f), TablePrinter::pct(lru),
                      TablePrinter::pct(lfu), TablePrinter::pct(two_q),
                      TablePrinter::pct(arc), ok ? "PASS" : "FAIL"});
    }
    std::cout << adapt.render() << "\n";

    // ---- 2. TinyLFU admission on a Zipf trace ---------------------------
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{17});
    const auto zipf =
        workload::recordTrace(spec, gen.generate(600), 0.8, 17);
    const auto zipf_universe =
        workload::traceFootprint(spec, zipf).universe_bytes;

    std::cout << "TinyLFU doorkeeper on a Zipf(0.8) trace (equal byte "
                 "budgets):\n";
    TablePrinter admit(
        {"capacity", "policy", "plain", "tinylfu", "verdict"});
    for (const auto policy :
         {cache::Policy::Lru, cache::Policy::TwoQueue, cache::Policy::Arc}) {
        for (const double f : {0.05, 0.1, 0.2}) {
            const double plain =
                hitRate(spec, zipf, zipf_universe, policy, f);
            const double filtered =
                hitRate(spec, zipf, zipf_universe, policy, f,
                        cache::Admission::TinyLfu);
            const bool ok = filtered >= plain - 0.002;
            check(ok, "TinyLFU not-worse for " + cache::policyName(policy) +
                          " at " + TablePrinter::pct(f));
            admit.addRow({TablePrinter::pct(f), cache::policyName(policy),
                          TablePrinter::pct(plain),
                          TablePrinter::pct(filtered),
                          ok ? "PASS" : "FAIL"});
        }
    }
    std::cout << admit.render() << "\n";

    // ---- 3. Per-shard trace slicing -------------------------------------
    const auto sharded_spec = model::makeShardedCacheStudySpec();
    workload::RequestGenerator sgen(sharded_spec,
                                    workload::GeneratorConfig{17});
    const auto strace = workload::recordTrace(
        sharded_spec, sgen.generate(500), 0.7, 17);
    const auto suniverse =
        workload::traceFootprint(sharded_spec, strace).universe_bytes;

    const auto uniform_plan = core::makeCapacityBalanced(sharded_spec, 4);
    core::ShardCacheOptions uopt;
    uopt.capacity_fraction = 0.2;
    const auto uniform =
        core::buildShardCacheModels(sharded_spec, uniform_plan, strace, uopt);
    const double whole =
        cache::replayTrace(sharded_spec, strace, cache::Policy::Lru,
                           static_cast<std::int64_t>(
                               0.2 * static_cast<double>(suniverse)))
            .overallHitRate();

    std::vector<core::TableAssignment> skew_asg;
    for (int t = 0; t < 8; ++t) {
        core::TableAssignment a;
        a.table_id = t;
        a.shards = {t == 0 ? 0 : 1};
        skew_asg.push_back(a);
    }
    const core::ShardingPlan skew_plan("manual-skew", 2, skew_asg);
    core::ShardCacheOptions sopt;
    sopt.capacity_bytes_per_shard = static_cast<std::int64_t>(
        0.1 * static_cast<double>(suniverse));
    const auto skewed =
        core::buildShardCacheModels(sharded_spec, skew_plan, strace, sopt);

    std::cout << "Per-shard slicing (whole-model LRU hit rate "
              << TablePrinter::pct(whole) << " at 20% budget):\n";
    TablePrinter slic({"plan", "per-shard hit rates", "aggregate",
                       "verdict"});
    {
        std::string rates;
        for (const auto &r : uniform.results)
            rates += TablePrinter::pct(r.total.hitRate()) + " ";
        const bool ok = std::abs(uniform.aggregateHitRate() - whole) <= 0.02;
        check(ok, "uniform slicing reproduces whole-model rate within 2%");
        slic.addRow({"capacity-balanced x4", rates,
                     TablePrinter::pct(uniform.aggregateHitRate()),
                     ok ? "PASS" : "FAIL"});
    }
    {
        std::string rates;
        for (const auto &r : skewed.results)
            rates += TablePrinter::pct(r.total.hitRate()) + " ";
        const double h0 = skewed.results[0].total.hitRate();
        const double h1 = skewed.results[1].total.hitRate();
        const bool ok = h0 - h1 > 0.10;
        check(ok, "skewed slicing diverges by > 10%");
        slic.addRow({"skewed (1 vs 7 tables)", rates,
                     TablePrinter::pct(skewed.aggregateHitRate()),
                     ok ? "PASS" : "FAIL"});
    }
    std::cout << slic.render() << "\n";

    // ---- 4. Pooled-result caching raises sustainable QPS ----------------
    const auto drm = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(drm, 4);
    workload::RequestGenerator rgen(drm, workload::GeneratorConfig{0xbeef});
    const auto base = rgen.generate(12);
    std::vector<workload::Request> repeats;
    repeats.reserve(360);
    for (int i = 0; i < 360; ++i) {
        auto r = base[static_cast<std::size_t>(i % 12)];
        r.id = 1000 + static_cast<std::uint64_t>(i);
        repeats.push_back(r);
    }

    std::cout << "Pooled-result cache vs CapacitySearch (repeat traffic, "
                 "12 shapes x 30):\n";
    TablePrinter cap({"result cache", "max QPS", "hit rate", "verdict"});
    double max_qps[2] = {0.0, 0.0};
    double hit_rate_on = 0.0;
    for (const bool cached : {false, true}) {
        auto cfg = sched::sparseBoundStudyConfig(
            rpc::LoadBalancePolicy::LeastOutstanding, 2);
        cfg.result_cache.enabled = cached;
        sched::CapacitySearchConfig sc;
        // The largest of the 12 shapes runs ~42 ms unloaded without the
        // cache; the SLO sits above that so both searches resolve and
        // the comparison measures capacity, not the unloaded tail.
        sc.slo.p99_ms = 50.0;
        sc.qps_lo = 20.0;
        sc.qps_hi = 3000.0;
        sc.grid_step = 1.15;
        sched::CapacitySearch search(drm, plan, cfg, sc);
        max_qps[cached ? 1 : 0] = search.run(repeats).max_qps;
        if (cached) {
            core::ServingSimulation sim(drm, plan, cfg);
            sim.replayOpenLoop(repeats, 300.0);
            hit_rate_on = sim.metrics().result_cache.hitRate();
        }
    }
    {
        const bool ok = max_qps[1] > max_qps[0] && hit_rate_on > 0.5;
        check(ok, "result cache strictly raises sustainable QPS");
        cap.addRow({"off", TablePrinter::num(max_qps[0], 1), "-", ""});
        cap.addRow({"on", TablePrinter::num(max_qps[1], 1),
                    TablePrinter::pct(hit_rate_on), ok ? "PASS" : "FAIL"});
    }
    std::cout << cap.render() << "\n";

    if (!g_all_pass) {
        std::cout << "FAIL: one or more cache v2 acceptance checks "
                     "failed.\n";
        return EXIT_FAILURE;
    }
    std::cout << "All cache v2 acceptance checks passed: ARC adapts, the "
                 "doorkeeper never hurts\non Zipf traffic, per-shard "
                 "slices aggregate faithfully and expose skew, and\n"
                 "result caching buys real capacity.\n";
    return EXIT_SUCCESS;
}
