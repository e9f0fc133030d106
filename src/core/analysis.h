/**
 * @file
 * Post-processing of serving-simulation results into the paper's reported
 * quantities: overhead-vs-singular quantiles (Figs. 6, 7, 16), E2E latency
 * stacks (Fig. 8a, 13a), bounding-shard embedded stacks (Fig. 8b, 11b,
 * 13b), CPU-time stacks (Figs. 9, 14), and per-shard operator latencies
 * (Figs. 10, 11a, 12, 15).
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/request_stats.h"

namespace dri::core {

/** Latency/compute overhead of one configuration vs the singular baseline. */
struct OverheadReport
{
    std::string label;
    /** (config_q - baseline_q) / baseline_q for q in {P50, P90, P99}. */
    double latency_overhead[3] = {0.0, 0.0, 0.0};
    double compute_overhead[3] = {0.0, 0.0, 0.0};
};

/** Quantiles of per-request E2E latency, in milliseconds. */
struct LatencyQuantiles
{
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    /** Extreme tail; the overload experiments' headline metric. */
    double p999_ms = 0.0;
};

/**
 * E2E latency quantiles over *served* requests only — shed requests never
 * executed, so their (tiny) residence times would corrupt the tail.
 * Returns zeros if every request was shed.
 */
LatencyQuantiles latencyQuantiles(const std::vector<RequestStats> &stats);

/** Quantiles of per-request total CPU time, in milliseconds. */
LatencyQuantiles cpuQuantiles(const std::vector<RequestStats> &stats);

/** Fraction of requests dropped by admission control. */
double shedRate(const std::vector<RequestStats> &stats);

/** Overhead of `config` vs `baseline` at P50/P90/P99. */
OverheadReport computeOverhead(const std::string &label,
                               const std::vector<RequestStats> &baseline,
                               const std::vector<RequestStats> &config);

/** An ordered (bucket name, milliseconds) stack. */
using Stack = std::vector<std::pair<std::string, double>>;

/** Sum of all bucket values. */
double stackTotal(const Stack &stack);

/**
 * Fig. 8a: E2E latency stack of the median-latency request population
 * (requests with E2E between the 40th and 60th percentile are averaged,
 * which is how a "P50 stack" remains internally consistent).
 */
Stack latencyStack(const std::vector<RequestStats> &stats);

/** Fig. 8b: embedded-portion stack of the bounding sparse shard (P50). */
Stack embeddedStack(const std::vector<RequestStats> &stats);

/** Fig. 9: aggregate CPU-time stack across all shards (P50 population). */
Stack cpuStack(const std::vector<RequestStats> &stats);

/** Mean per-shard sparse-operator CPU per request (Figs. 10-12, 15). */
std::vector<double> perShardOpLatency(const std::vector<RequestStats> &stats,
                                      int num_shards);

/** Same, resolved by net: result[shard][net]. */
std::vector<std::vector<double>>
perShardOpLatencyByNet(const std::vector<RequestStats> &stats,
                       int num_shards, int num_nets);

/** Mean RPC fan-out per request (compute-overhead driver, Fig. 9). */
double meanRpcCount(const std::vector<RequestStats> &stats);

/** Mean total CPU milliseconds per request. */
double meanCpuMs(const std::vector<RequestStats> &stats);

/**
 * Fraction of requests whose E2E latency exceeds the SLA. The paper's
 * serving tier drops such requests in favour of a lower-quality fallback
 * (Section II), so this is the quality-degradation rate of a deployment.
 */
double slaViolationRate(const std::vector<RequestStats> &stats,
                        double sla_ms);

} // namespace dri::core
