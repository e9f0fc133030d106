#include "core/analysis.h"

#include <algorithm>
#include <cassert>

#include "sim/time.h"
#include "stats/quantile.h"

namespace dri::core {

namespace {

/** Requests whose E2E lies in the [lo, hi] quantile window. */
std::vector<const RequestStats *>
window(const std::vector<RequestStats> &stats, double lo, double hi)
{
    assert(!stats.empty());
    stats::QuantileEstimator q;
    for (const auto &s : stats)
        q.add(static_cast<double>(s.e2e));
    const double lo_v = q.quantile(lo);
    const double hi_v = q.quantile(hi);
    std::vector<const RequestStats *> out;
    for (const auto &s : stats) {
        const auto v = static_cast<double>(s.e2e);
        if (v >= lo_v && v <= hi_v)
            out.push_back(&s);
    }
    if (out.empty())
        out.push_back(&stats.front());
    return out;
}

double
meanOf(const std::vector<const RequestStats *> &reqs,
       double (*get)(const RequestStats &))
{
    double acc = 0.0;
    for (const auto *r : reqs)
        acc += get(*r);
    return acc / static_cast<double>(reqs.size());
}

} // namespace

namespace {

LatencyQuantiles
quantilesOf(const stats::QuantileEstimator &q)
{
    LatencyQuantiles out;
    if (q.empty())
        return out;
    out.p50_ms = q.p50();
    out.p90_ms = q.p90();
    out.p99_ms = q.p99();
    out.p999_ms = q.p999();
    return out;
}

} // namespace

LatencyQuantiles
latencyQuantiles(const std::vector<RequestStats> &stats)
{
    stats::QuantileEstimator q;
    for (const auto &s : stats)
        if (!s.shed())
            q.add(sim::toMillis(s.e2e));
    return quantilesOf(q);
}

LatencyQuantiles
cpuQuantiles(const std::vector<RequestStats> &stats)
{
    stats::QuantileEstimator q;
    for (const auto &s : stats)
        if (!s.shed())
            q.add(s.cpuTotalNs() / 1e6);
    return quantilesOf(q);
}

double
shedRate(const std::vector<RequestStats> &stats)
{
    if (stats.empty())
        return 0.0;
    std::size_t shed = 0;
    for (const auto &s : stats)
        if (s.shed())
            ++shed;
    return static_cast<double>(shed) / static_cast<double>(stats.size());
}

OverheadReport
computeOverhead(const std::string &label,
                const std::vector<RequestStats> &baseline,
                const std::vector<RequestStats> &config)
{
    OverheadReport report;
    report.label = label;
    const LatencyQuantiles bl = latencyQuantiles(baseline);
    const LatencyQuantiles cl = latencyQuantiles(config);
    const LatencyQuantiles bc = cpuQuantiles(baseline);
    const LatencyQuantiles cc = cpuQuantiles(config);
    const double blat[3] = {bl.p50_ms, bl.p90_ms, bl.p99_ms};
    const double clat[3] = {cl.p50_ms, cl.p90_ms, cl.p99_ms};
    const double bcpu[3] = {bc.p50_ms, bc.p90_ms, bc.p99_ms};
    const double ccpu[3] = {cc.p50_ms, cc.p90_ms, cc.p99_ms};
    for (int i = 0; i < 3; ++i) {
        report.latency_overhead[i] = (clat[i] - blat[i]) / blat[i];
        report.compute_overhead[i] = (ccpu[i] - bcpu[i]) / bcpu[i];
    }
    return report;
}

double
stackTotal(const Stack &stack)
{
    double total = 0.0;
    for (const auto &kv : stack)
        total += kv.second;
    return total;
}

Stack
latencyStack(const std::vector<RequestStats> &stats)
{
    const auto reqs = window(stats, 0.40, 0.60);
    Stack stack;
    stack.emplace_back("Dense Ops", meanOf(reqs, [](const RequestStats &r) {
                           return sim::toMillis(r.lat_dense);
                       }));
    stack.emplace_back("Embedded Portion",
                       meanOf(reqs, [](const RequestStats &r) {
                           return sim::toMillis(r.lat_embedded);
                       }));
    stack.emplace_back("RPC Ser/De", meanOf(reqs, [](const RequestStats &r) {
                           return sim::toMillis(r.lat_serde);
                       }));
    stack.emplace_back("RPC Service Function",
                       meanOf(reqs, [](const RequestStats &r) {
                           return sim::toMillis(r.lat_service);
                       }));
    stack.emplace_back("Caffe2 Net Overhead",
                       meanOf(reqs, [](const RequestStats &r) {
                           return sim::toMillis(r.lat_net_overhead);
                       }));
    return stack;
}

Stack
embeddedStack(const std::vector<RequestStats> &stats)
{
    const auto reqs = window(stats, 0.40, 0.60);
    Stack stack;
    stack.emplace_back("Caffe2 Sparse Ops",
                       meanOf(reqs, [](const RequestStats &r) {
                           return sim::toMillis(r.emb_sparse_op);
                       }));
    stack.emplace_back("RPC Ser/De", meanOf(reqs, [](const RequestStats &r) {
                           return sim::toMillis(r.emb_serde);
                       }));
    stack.emplace_back("RPC Service Function",
                       meanOf(reqs, [](const RequestStats &r) {
                           return sim::toMillis(r.emb_service);
                       }));
    stack.emplace_back("Caffe2 Net Overhead",
                       meanOf(reqs, [](const RequestStats &r) {
                           return sim::toMillis(r.emb_net_overhead);
                       }));
    stack.emplace_back("Network Latency",
                       meanOf(reqs, [](const RequestStats &r) {
                           return sim::toMillis(r.emb_network);
                       }));
    return stack;
}

Stack
cpuStack(const std::vector<RequestStats> &stats)
{
    const auto reqs = window(stats, 0.40, 0.60);
    Stack stack;
    stack.emplace_back("Caffe2 Ops", meanOf(reqs, [](const RequestStats &r) {
                           return r.cpu_ops_ns / 1e6;
                       }));
    stack.emplace_back("RPC Ser/De", meanOf(reqs, [](const RequestStats &r) {
                           return r.cpu_serde_ns / 1e6;
                       }));
    stack.emplace_back("Service Overhead",
                       meanOf(reqs, [](const RequestStats &r) {
                           return r.cpu_service_ns / 1e6;
                       }));
    return stack;
}

std::vector<double>
perShardOpLatency(const std::vector<RequestStats> &stats, int num_shards)
{
    std::vector<double> out(static_cast<std::size_t>(num_shards), 0.0);
    std::size_t served = 0;
    for (const auto &s : stats) {
        if (s.shed())
            continue;
        ++served;
        for (std::size_t i = 0;
             i < out.size() && i < s.shard_op_ns.size(); ++i)
            out[i] += s.shard_op_ns[i];
    }
    if (served == 0)
        return out;
    for (auto &v : out)
        v /= static_cast<double>(served) * 1e6; // -> ms
    return out;
}

std::vector<std::vector<double>>
perShardOpLatencyByNet(const std::vector<RequestStats> &stats,
                       int num_shards, int num_nets)
{
    std::vector<std::vector<double>> out(
        static_cast<std::size_t>(num_shards),
        std::vector<double>(static_cast<std::size_t>(num_nets), 0.0));
    std::size_t served = 0;
    for (const auto &s : stats) {
        if (s.shed())
            continue;
        ++served;
        for (int sh = 0; sh < num_shards; ++sh)
            for (int n = 0; n < num_nets; ++n) {
                const std::size_t idx =
                    static_cast<std::size_t>(sh) *
                        static_cast<std::size_t>(num_nets) +
                    static_cast<std::size_t>(n);
                if (idx < s.shard_net_op_ns.size())
                    out[static_cast<std::size_t>(sh)]
                       [static_cast<std::size_t>(n)] +=
                        s.shard_net_op_ns[idx];
            }
    }
    if (served == 0)
        return out;
    for (auto &row : out)
        for (auto &v : row)
            v /= static_cast<double>(served) * 1e6;
    return out;
}

namespace {

/**
 * Mean of `get` over served requests only — shed requests never executed,
 * so counting their zeroed measurements would deflate per-request means
 * (consistent with the quantile helpers above).
 */
double
servedMean(const std::vector<RequestStats> &stats,
           double (*get)(const RequestStats &))
{
    double acc = 0.0;
    std::size_t served = 0;
    for (const auto &s : stats)
        if (!s.shed()) {
            acc += get(s);
            ++served;
        }
    return served == 0 ? 0.0 : acc / static_cast<double>(served);
}

} // namespace

double
meanRpcCount(const std::vector<RequestStats> &stats)
{
    return servedMean(stats, [](const RequestStats &s) {
        return static_cast<double>(s.rpc_count);
    });
}

double
meanCpuMs(const std::vector<RequestStats> &stats)
{
    return servedMean(
        stats, [](const RequestStats &s) { return s.cpuTotalNs() / 1e6; });
}

double
slaViolationRate(const std::vector<RequestStats> &stats, double sla_ms)
{
    if (stats.empty())
        return 0.0;
    // Shed requests are answered by the lower-quality fallback, exactly
    // like SLA-violating ones — both count as quality degradation.
    std::size_t over = 0;
    for (const auto &s : stats)
        if (s.shed() || sim::toMillis(s.e2e) > sla_ms)
            ++over;
    return static_cast<double>(over) / static_cast<double>(stats.size());
}

} // namespace dri::core
