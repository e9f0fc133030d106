/**
 * @file
 * Scheduling-policy study on a DRM2-class deployment, in five acts:
 *
 *  1. Replica load balancing under load: round-robin vs
 *     least-outstanding vs power-of-two-choices on a sparse-bound
 *     deployment (wide main pool, two workers per sparse replica,
 *     expensive gathers). Near saturation the load-aware policies dodge
 *     busy replicas that blind rotation keeps feeding.
 *  2. Dynamic batching: size-capped vs timeout-capped vs adaptive vs
 *     queue-aware request coalescing against the unbatched open loop, at
 *     a low rate (where waiting for batches is pure latency loss) and a
 *     high rate (where batches form for free).
 *  3. Admission control at overload: a queue cap plus deadline-aware
 *     shedding trades a bounded drop rate for served-request tail
 *     latency an uncontrolled queue cannot approach.
 *  4. Hedged sparse RPCs on a straggler-prone deployment: a backup to a
 *     second replica when the primary exceeds a quantile-tracked
 *     deadline, tied-request cancellation reclaiming the loser's
 *     remaining service time.
 *  5. Utilization-driven provisioning: the provision->simulate->
 *     re-provision loop's heterogeneous replica vector vs the even split
 *     at equal budget.
 *
 * Self-checking (exit 1 on violation): at high QPS both load-aware
 * policies beat round-robin's median served P99 over five deployment
 * seeds, and power-of-two's worst replica backlog exceeds round-robin's
 * on none of them; adaptive batching beats
 * timeout batching's P50 at low rate; admission control beats the
 * uncontrolled served P99 at overload; hedging lowers P99 at high load
 * without collapsing goodput (bounded wasted work and CPU inflation);
 * the provision loop converges and beats the even split. Emits JSONL
 * rows (grep "^{") including hedge rate, wasted-work fraction, and the
 * per-shard replica vector. `--smoke` runs a reduced stream for CI.
 */
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/analysis.h"
#include "sched/batcher.h"
#include "sched/capacity_search.h"
#include "sched/provision_loop.h"
#include "stats/table_printer.h"

namespace {

using namespace dri;

double
meanOf(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += x;
    return acc / static_cast<double>(v.size());
}

} // namespace

int
main(int argc, char **argv)
{
    using stats::TablePrinter;
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const std::size_t n_requests = smoke ? 400 : 1000;

    std::cout << stats::banner(
        "Scheduling policies: replica LB, dynamic batching, admission");
    const auto spec = model::makeDrm2();
    const auto pooling = bench::standardPooling(spec);
    const auto plan = core::makeLoadBalanced(spec, 4, pooling);
    const auto requests = bench::standardRequests(spec, n_requests);
    bool ok = true;

    // ---- 1. Replica load-balancing policies --------------------------------
    const std::vector<rpc::LoadBalancePolicy> lb_policies{
        rpc::LoadBalancePolicy::RoundRobin,
        rpc::LoadBalancePolicy::LeastOutstanding,
        rpc::LoadBalancePolicy::PowerOfTwoChoices};
    const std::vector<double> rates = smoke ? std::vector<double>{700.0}
                                            : std::vector<double>{400.0,
                                                                  700.0};
    // One replay's P99 rides on a handful of order statistics, and one
    // seed's draws can flip a close P99 comparison, so every policy runs
    // on kLbSeeds deployment seeds and the P99 self-check compares
    // medians. The table's per-seed columns show the first seed.
    constexpr int kLbSeeds = 5;
    for (const double qps : rates) {
        std::cout << "--- replica LB on " << spec.name << ", "
                  << plan.label() << " x3 replicas, " << qps << " QPS ---\n";
        TablePrinter table({"policy", "P50", "P99", "P99.9", "max queue",
                            "sparse util", "median P99"});
        double rr_p99 = 0.0;
        std::vector<std::size_t> rr_peaks;
        for (const auto policy : lb_policies) {
            std::vector<double> p99s;
            std::vector<std::size_t> peaks;
            std::vector<std::string> row;
            for (int k = 0; k < kLbSeeds; ++k) {
                const std::uint64_t seed =
                    0xd15c0 + 0x1000 * static_cast<std::uint64_t>(k);
                core::ServingSimulation sim(
                    spec, plan, sched::sparseBoundStudyConfig(policy, 3, seed));
                const auto stats = sim.replayOpenLoop(requests, qps);
                const auto q = core::latencyQuantiles(stats);
                std::size_t max_peak = 0;
                for (const auto p : sim.serverPeakQueue())
                    max_peak = std::max(max_peak, p);
                p99s.push_back(q.p99_ms);
                peaks.push_back(max_peak);
                if (k > 0)
                    continue;
                const double util = meanOf(sim.serverUtilization());
                row = {rpc::policyName(policy), TablePrinter::num(q.p50_ms),
                       TablePrinter::num(q.p99_ms),
                       TablePrinter::num(q.p999_ms), std::to_string(max_peak),
                       TablePrinter::pct(util)};
                std::cout << bench::JsonRow("sched_policies")
                                 .field("section", "replica_lb")
                                 .field("policy", rpc::policyName(policy))
                                 .field("qps", qps)
                                 .field("p50_ms", q.p50_ms)
                                 .field("p99_ms", q.p99_ms)
                                 .field("p999_ms", q.p999_ms)
                                 .field("max_peak_queue",
                                        static_cast<std::int64_t>(max_peak))
                                 .field("sparse_util", util)
                                 .field("main_util", sim.mainUtilization());
            }
            std::vector<double> sorted = p99s;
            std::sort(sorted.begin(), sorted.end());
            const double median_p99 = sorted[sorted.size() / 2];
            row.push_back(TablePrinter::num(median_p99));
            table.addRow(row);
            std::cout << bench::JsonRow("sched_policies")
                             .field("section", "replica_lb_seeds")
                             .field("policy", rpc::policyName(policy))
                             .field("qps", qps)
                             .field("seeds", kLbSeeds)
                             .field("median_p99_ms", median_p99);

            const bool high = qps >= 700.0;
            if (policy == rpc::LoadBalancePolicy::RoundRobin) {
                rr_p99 = median_p99;
                rr_peaks = peaks;
            } else if (high && median_p99 >= rr_p99) {
                std::cout << "SELF-CHECK FAIL: " << rpc::policyName(policy)
                          << " median P99 " << median_p99
                          << " ms does not beat round-robin " << rr_p99
                          << " ms at " << qps << " QPS\n";
                ok = false;
            }
            if (high && policy == rpc::LoadBalancePolicy::PowerOfTwoChoices)
                for (int k = 0; k < kLbSeeds; ++k)
                    if (peaks[k] > rr_peaks[k]) {
                        std::cout << "SELF-CHECK FAIL: power-of-two max queue "
                                  << peaks[k] << " exceeds round-robin "
                                  << rr_peaks[k] << " on seed " << k << "\n";
                        ok = false;
                    }
        }
        std::cout << table.render() << "\n";
    }

    // ---- 2. Dynamic batching policies --------------------------------------
    const std::vector<double> batch_rates =
        smoke ? std::vector<double>{50.0}
              : std::vector<double>{50.0, 400.0};
    for (const double qps : batch_rates) {
        std::cout << "--- dynamic batching, default deployment, " << qps
                  << " QPS ---\n";
        TablePrinter table({"policy", "P50", "P99", "req/batch",
                            "cpu/req (ms)"});
        double adaptive_p50 = 0.0, timeout_p50 = 0.0, qaware_p50 = 0.0;
        for (const char *name :
             {"none", "size-capped", "timeout-capped", "adaptive",
              "queue-aware"}) {
            core::ServingConfig cfg = bench::defaultServingConfig();
            core::ServingSimulation sim(spec, plan, cfg);
            std::vector<core::RequestStats> stats;
            double coalesced = 1.0;
            if (std::strcmp(name, "none") == 0) {
                stats = sim.replayOpenLoop(requests, qps);
            } else {
                sched::BatcherConfig bc;
                bc.max_batch_items = 1024;
                bc.max_queue_delay_ns = 10 * sim::kMillisecond;
                if (std::strcmp(name, "size-capped") == 0)
                    bc.policy = sched::BatchPolicy::SizeCapped;
                else if (std::strcmp(name, "timeout-capped") == 0)
                    bc.policy = sched::BatchPolicy::TimeoutCapped;
                else if (std::strcmp(name, "adaptive") == 0)
                    bc.policy = sched::BatchPolicy::Adaptive;
                else
                    bc.policy = sched::BatchPolicy::QueueAware;
                stats = sched::runBatchedOpenLoop(sim, requests, qps, bc);
                // Batch-weighted mean: every rider of a k-rider batch
                // carries coalesced=k, so summing 1/k over riders counts
                // the batches (a plain mean over riders would be
                // size-biased toward big batches).
                double batches = 0.0;
                for (const auto &s : stats)
                    batches += 1.0 / static_cast<double>(s.coalesced);
                coalesced = static_cast<double>(stats.size()) / batches;
            }
            const auto q = core::latencyQuantiles(stats);
            table.addRow({name, TablePrinter::num(q.p50_ms),
                          TablePrinter::num(q.p99_ms),
                          TablePrinter::num(coalesced, 2),
                          TablePrinter::num(core::meanCpuMs(stats), 2)});
            std::cout << bench::JsonRow("sched_policies")
                             .field("section", "batching")
                             .field("policy", name)
                             .field("qps", qps)
                             .field("p50_ms", q.p50_ms)
                             .field("p99_ms", q.p99_ms)
                             .field("mean_coalesced", coalesced)
                             .field("cpu_ms", core::meanCpuMs(stats));
            if (qps <= 50.0) {
                if (std::strcmp(name, "adaptive") == 0)
                    adaptive_p50 = q.p50_ms;
                if (std::strcmp(name, "timeout-capped") == 0)
                    timeout_p50 = q.p50_ms;
                if (std::strcmp(name, "queue-aware") == 0)
                    qaware_p50 = q.p50_ms;
            }
        }
        std::cout << table.render() << "\n";
        if (qps <= 50.0 && adaptive_p50 >= timeout_p50) {
            std::cout << "SELF-CHECK FAIL: adaptive P50 " << adaptive_p50
                      << " ms does not beat timeout-capped " << timeout_p50
                      << " ms at low rate\n";
            ok = false;
        }
        // An idle main pool means coalescing delay is pure loss; the
        // queue-aware policy must flush straight through like adaptive.
        if (qps <= 50.0 && qaware_p50 >= timeout_p50) {
            std::cout << "SELF-CHECK FAIL: queue-aware P50 " << qaware_p50
                      << " ms does not beat timeout-capped " << timeout_p50
                      << " ms at low rate\n";
            ok = false;
        }
    }

    // ---- 3. Admission control at overload ----------------------------------
    {
        // Default deployment (8 main workers) far past its knee: the
        // main-shard queue grows without bound unless admission caps it.
        const double qps = 700.0;
        std::cout << "--- admission control, default deployment, " << qps
                  << " QPS (overload) ---\n";
        TablePrinter table(
            {"admission", "served P99", "served P99.9", "shed rate"});
        double open_p99 = 0.0, controlled_p99 = 0.0;
        for (const bool controlled : {false, true}) {
            core::ServingConfig cfg = bench::defaultServingConfig();
            if (controlled) {
                cfg.admission.max_main_queue = 32;
                cfg.admission.deadline_ns = 50 * sim::kMillisecond;
            }
            core::ServingSimulation sim(spec, plan, cfg);
            const auto stats = sim.replayOpenLoop(requests, qps);
            const auto q = core::latencyQuantiles(stats);
            const double shed = core::shedRate(stats);
            table.addRow({controlled ? "cap 32 + 50 ms deadline" : "none",
                          TablePrinter::num(q.p99_ms),
                          TablePrinter::num(q.p999_ms),
                          TablePrinter::pct(shed)});
            bench::JsonRow row("sched_policies");
            row.field("section", "admission")
                .field("controlled", static_cast<int>(controlled))
                .field("qps", qps)
                .field("served_p99_ms", q.p99_ms)
                .field("served_p999_ms", q.p999_ms)
                .field("shed_rate", shed);
            for (const auto reason : {core::ShedReason::QueueFull,
                                      core::ShedReason::DeadlineExceeded}) {
                std::int64_t n = 0;
                for (const auto &s : stats)
                    n += s.shed_reason == reason ? 1 : 0;
                row.field(std::string("shed_") +
                              core::shedReasonName(reason),
                          n);
            }
            std::cout << row;
            (controlled ? controlled_p99 : open_p99) = q.p99_ms;
        }
        std::cout << table.render() << "\n";
        if (controlled_p99 >= open_p99) {
            std::cout << "SELF-CHECK FAIL: admission control served P99 "
                      << controlled_p99
                      << " ms does not beat uncontrolled " << open_p99
                      << " ms at overload\n";
            ok = false;
        }
    }

    // ---- 4. Hedged sparse RPCs on a straggler-prone deployment -------------
    {
        // A P99 comparison over a 400-request smoke stream rides on ~4
        // order statistics; the hedge study always replays 1000 requests
        // so the self-check measures the policy, not sampling noise.
        const auto hedge_requests = bench::standardRequests(spec, 1000);
        const std::vector<double> hedge_rates =
            smoke ? std::vector<double>{2200.0}
                  : std::vector<double>{1400.0, 2200.0};
        for (const double qps : hedge_rates) {
            std::cout << "--- hedging, straggler-prone sparse tier "
                         "(least-outstanding x3 replicas), "
                      << qps << " QPS ---\n";
            TablePrinter table({"hedging", "P99", "P99.9", "hedge rate",
                                "wasted work", "cpu/req (ms)"});
            double off_p99 = 0.0, on_p99 = 0.0;
            double off_cpu = 0.0, on_cpu = 0.0, on_wasted = 0.0;
            for (const bool hedged : {false, true}) {
                core::ServingSimulation sim(
                    spec, plan,
                    sched::hedgeStudyConfig(
                        rpc::LoadBalancePolicy::LeastOutstanding, 3,
                        hedged));
                const auto stats = sim.replayOpenLoop(hedge_requests, qps);
                const auto q = core::latencyQuantiles(stats);
                const auto h = sim.hedgeStats();
                const double cpu = core::meanCpuMs(stats);
                table.addRow({hedged ? "on" : "off",
                              TablePrinter::num(q.p99_ms),
                              TablePrinter::num(q.p999_ms),
                              TablePrinter::pct(h.hedgeRate()),
                              TablePrinter::pct(h.wastedFraction()),
                              TablePrinter::num(cpu, 2)});
                std::cout << bench::JsonRow("sched_policies")
                                 .field("section", "hedging")
                                 .field("hedged", static_cast<int>(hedged))
                                 .field("qps", qps)
                                 .field("p99_ms", q.p99_ms)
                                 .field("p999_ms", q.p999_ms)
                                 .field("hedge_rate", h.hedgeRate())
                                 .field("wasted_work_frac",
                                        h.wastedFraction())
                                 .field("hedge_wins", h.wins)
                                 .field("hedge_losses", h.losses)
                                 .field("hedge_cancelled", h.cancelled)
                                 .field("hedge_suppressed", h.suppressed)
                                 .field("sparse_util",
                                        meanOf(sim.serverUtilization()))
                                 .field("cpu_ms", cpu);
                if (hedged) {
                    on_p99 = q.p99_ms;
                    on_cpu = cpu;
                    on_wasted = h.wastedFraction();
                } else {
                    off_p99 = q.p99_ms;
                    off_cpu = cpu;
                }
            }
            std::cout << table.render() << "\n";
            if (on_p99 >= off_p99) {
                std::cout << "SELF-CHECK FAIL: hedged P99 " << on_p99
                          << " ms does not beat unhedged " << off_p99
                          << " ms at " << qps << " QPS\n";
                ok = false;
            }
            // Goodput guard: tied-request cancellation must keep the
            // duplicate work bounded — no more than the hedge budget in
            // wasted sparse busy time, and no meaningful per-request CPU
            // inflation.
            if (on_wasted > 0.10) {
                std::cout << "SELF-CHECK FAIL: wasted-work fraction "
                          << on_wasted << " exceeds the 10% hedge budget\n";
                ok = false;
            }
            if (on_cpu > 1.10 * off_cpu) {
                std::cout << "SELF-CHECK FAIL: hedging inflates CPU/req "
                          << off_cpu << " -> " << on_cpu << " ms\n";
                ok = false;
            }
        }
    }

    // ---- 5. Utilization-driven provisioning --------------------------------
    {
        std::cout << "--- provision loop, capacity-balanced plan (skewed "
                     "compute), 600 QPS ---\n";
        const auto cap_plan = core::makeCapacityBalanced(spec, 4);
        sched::ProvisionLoopConfig pc;
        pc.qps = 600.0;
        pc.target_utilization = 0.6;
        sched::ProvisionLoop loop(
            spec, cap_plan,
            sched::sparseBoundStudyConfig(
                rpc::LoadBalancePolicy::LeastOutstanding, 2),
            pc);
        const auto result = loop.run(requests);
        const auto even = sched::evenReplicaSplit(result.totalReplicas(),
                                                  cap_plan.numShards());
        const auto baseline = loop.evaluate(even, requests);

        TablePrinter table(
            {"replicas", "total", "P99 (ms)", "converged"});
        table.addRow({TablePrinter::intList(result.replicas),
                      std::to_string(result.totalReplicas()),
                      TablePrinter::num(result.p99_ms),
                      result.converged ? "yes" : "no"});
        table.addRow({TablePrinter::intList(even),
                      std::to_string(result.totalReplicas()),
                      TablePrinter::num(baseline.p99_ms), "-"});
        std::cout << table.render() << "\n";
        std::cout << bench::JsonRow("sched_policies")
                         .field("section", "provision")
                         .field("replica_vector",
                                TablePrinter::intList(result.replicas))
                         .field("total_replicas", static_cast<std::int64_t>(
                                                      result.totalReplicas()))
                         .field("converged",
                                static_cast<int>(result.converged))
                         .field("iterations", result.iterations)
                         .field("p99_ms", result.p99_ms)
                         .field("even_split_p99_ms", baseline.p99_ms);
        if (!result.converged) {
            std::cout << "SELF-CHECK FAIL: provision loop did not reach a "
                         "replica-vector fixed point\n";
            ok = false;
        }
        if (result.p99_ms > baseline.p99_ms) {
            std::cout << "SELF-CHECK FAIL: load-proportional replicas P99 "
                      << result.p99_ms << " ms exceeds even split "
                      << baseline.p99_ms << " ms\n";
            ok = false;
        }
    }

    if (!ok) {
        std::cout << "FAIL: scheduling-policy self-checks violated\n";
        return 1;
    }
    std::cout << "Load-aware replica selection beats blind rotation once "
                 "sparse queues form;\nadaptive and queue-aware batching "
                 "recover unbatched latency at low rate;\nadmission control "
                 "converts an unbounded overload tail into a bounded shed\n"
                 "rate; hedging with tied-request cancellation dodges "
                 "stragglers within its\nbudget; measured-load provisioning "
                 "beats even replication at equal cost. OK.\n";
    return 0;
}
