/**
 * @file
 * Trace explorer: the canonical fleet-study serving configuration run
 * with request-level span tracing, exported as a Chrome trace_event
 * JSON file (load it at https://ui.perfetto.dev or chrome://tracing)
 * plus a terminal critical-path analysis.
 *
 * One near-peak diurnal epoch's request sample replays open-loop at its
 * realized rate through a traced ServingSimulation. Every request
 * leaves a span tree — admission, queue waits, batch fan-out, per-shard
 * RPC attempts (primary and hedge, wire/remote-queue/remote-compute),
 * result-cache probes, response merge — and the last-finisher walk
 * turns each tree into the chain of spans that actually gated
 * completion. The tables show where the tail's time really went, which
 * aggregate bucket sums cannot.
 *
 * Self-checking (exit 1 on violation):
 *  - span conservation: one closed root per injected request, zero
 *    open spans, zero nesting violations;
 *  - every critical path partitions its request's E2E exactly (bucket
 *    sums equal span totals);
 *  - the exported trace is non-empty with balanced JSON braces.
 */
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/serving.h"
#include "fleet/study.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/sampler.h"
#include "obs/span_tracer.h"
#include "obs/timeseries.h"
#include "stats/table_printer.h"
#include "workload/diurnal.h"

namespace {

bool g_all_pass = true;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cout << "SELF-CHECK FAIL: " << what << "\n";
        g_all_pass = false;
    }
}

} // namespace

int
main()
{
    using namespace dri;
    using stats::TablePrinter;

    const auto study = fleet::makeFleetStudy(/*smoke=*/true);
    const workload::DiurnalLoadModel load(study.spec, study.load);

    // The epoch nearest the diurnal peak: the traffic whose tail is
    // worth explaining.
    int peak_epoch = 0;
    for (int e = 0; e < study.fleet.epochs; ++e)
        if (load.forecastQps(e) > load.forecastQps(peak_epoch))
            peak_epoch = e;
    const double qps = load.realizedQps(peak_epoch);
    const auto requests =
        load.epochRequests(peak_epoch, study.fleet.requests_per_epoch);

    std::cout << "Trace explorer: " << study.spec.name << " on "
              << study.plan.label() << ", epoch " << peak_epoch << " at "
              << TablePrinter::num(qps, 0) << " QPS, " << requests.size()
              << " requests, tracing ON.\n\n";

    obs::SpanTracer tracer;
    auto serving = study.serving;
    serving.tracer = &tracer;
    core::ServingSimulation sim(study.spec, study.plan, serving);
    const auto stats = sim.replayOpenLoop(requests, qps);

    // ---- Conservation: the trace accounts for every request exactly.
    const auto rep = obs::checkConservation(tracer.spans());
    std::cout << "spans: " << rep.total_spans << " total, "
              << rep.root_spans << " roots, " << rep.cancelled_spans
              << " cancelled/loser, " << rep.open_spans << " open, "
              << rep.nesting_violations << " nesting violations\n\n";
    check(rep.ok(requests.size()),
          "span conservation (one closed root per request, no open "
          "spans, no nesting violations)");

    // ---- Critical paths: what actually gated each served request.
    const auto paths = obs::criticalPaths(tracer.spans());
    std::size_t served = 0;
    for (const auto &s : stats)
        served += s.shed() ? 0 : 1;
    check(paths.size() == served,
          "one critical path per served (non-shed) request");
    for (const auto &p : paths) {
        sim::Duration sum = 0;
        for (std::size_t b = 0; b < obs::kPathBucketCount; ++b)
            sum += p.bucket_ns[b];
        check(sum == p.total, "critical path of request " +
                                  std::to_string(p.request_id) +
                                  " partitions its E2E exactly");
    }

    const auto profile = obs::profilePaths(paths);
    TablePrinter agg({"bucket", "share of e2e", "dominant in"});
    for (std::size_t b = 0; b < obs::kPathBucketCount; ++b) {
        const auto bucket = static_cast<obs::PathBucket>(b);
        agg.addRow({obs::pathBucketName(bucket),
                    TablePrinter::pct(profile.bucketShare(bucket)),
                    std::to_string(profile.dominant_count[b]) + " req"});
    }
    std::cout << "aggregate critical-path attribution (" << profile.requests
              << " served requests):\n"
              << agg.render() << "\n";

    // Top-k slowest requests, decomposed along their critical path.
    auto ranked = paths;
    std::sort(ranked.begin(), ranked.end(),
              [](const obs::CriticalPath &a, const obs::CriticalPath &b) {
                  return a.total > b.total;
              });
    const std::size_t k = std::min<std::size_t>(8, ranked.size());
    TablePrinter top({"request", "e2e ms", "queue", "compute", "serde",
                      "network", "wait", "dominant", "segments"});
    const auto ms = [](sim::Duration ns) {
        return TablePrinter::num(static_cast<double>(ns) / 1e6, 2);
    };
    for (std::size_t i = 0; i < k; ++i) {
        const auto &p = ranked[i];
        using B = obs::PathBucket;
        top.addRow(
            {std::to_string(p.request_id), ms(p.total),
             ms(p.bucket_ns[static_cast<std::size_t>(B::Queue)]),
             ms(p.bucket_ns[static_cast<std::size_t>(B::Compute)]),
             ms(p.bucket_ns[static_cast<std::size_t>(B::Serde)]),
             ms(p.bucket_ns[static_cast<std::size_t>(B::Network)]),
             ms(p.bucket_ns[static_cast<std::size_t>(B::Wait)]),
             obs::pathBucketName(p.dominant()),
             std::to_string(p.segments.size())});
    }
    std::cout << "top-" << k << " slowest requests by critical path:\n"
              << top.render() << "\n";

    // ---- Chrome trace export.
    const std::string trace_path = "trace_explorer.trace.json";
    const std::string json = obs::chromeTraceJson(tracer.spans());
    {
        std::ofstream out(trace_path);
        out << json;
    }
    std::int64_t depth = 0, min_depth = 0;
    for (const char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        min_depth = std::min(min_depth, depth);
    }
    check(!json.empty() && json.front() == '[',
          "trace export is a JSON array");
    check(depth == 0 && min_depth == 0,
          "trace export braces are balanced");
    std::cout << "wrote " << json.size() << " bytes of trace_event JSON to "
              << trace_path
              << "\n(load it at https://ui.perfetto.dev or "
                 "chrome://tracing; rows are pid=shard, tid=request)\n\n";

    // ---- Sampled pass: the same replay with tail-based retention, so
    // the exported "retained" trace shows what a bounded-memory
    // production deployment would actually keep (tail + flagged +
    // reservoir). Purity: the sampled run's stats must match.
    obs::SpanTracer sampled_tracer;
    obs::SamplerConfig sampler_cfg;
    sampler_cfg.reservoir_size = 12;
    obs::TraceSampler sampler(sampler_cfg);
    sampled_tracer.setSampler(&sampler);
    obs::WindowConfig feed_cfg;
    feed_cfg.horizon_s = 1e6; // whole replay in one rolling window
    obs::RollingHistogram feed(feed_cfg);
    sampler.setLatencyFeed(&feed);
    auto sampled_serving = study.serving;
    sampled_serving.tracer = &sampled_tracer;
    core::ServingSimulation sampled_sim(study.spec, study.plan,
                                        sampled_serving);
    const auto sampled_stats = sampled_sim.replayOpenLoop(requests, qps);
    bool sampled_identical = sampled_stats.size() == stats.size();
    for (std::size_t i = 0; sampled_identical && i < stats.size(); ++i)
        sampled_identical = sampled_stats[i].e2e == stats[i].e2e &&
                            sampled_stats[i].completion ==
                                stats[i].completion;
    check(sampled_identical,
          "trace sampling leaves the replay byte-identical");
    check(sampler.retainedBytes() <=
              sampler.config().retained_byte_budget,
          "retained trace bytes stay under the sampler budget");

    const std::string retained_path = "trace_explorer.retained.json";
    const std::string retained_json =
        obs::chromeTraceJson(sampler.flattenedSpans());
    {
        std::ofstream out(retained_path);
        out << retained_json;
    }
    check(!retained_json.empty() && retained_json.front() == '[',
          "retained trace export is a JSON array");
    const obs::SamplerStats &ss = sampler.stats();
    std::cout << "sampled pass: " << ss.roots_closed
              << " roots closed -> " << sampler.retained().size()
              << " retained (" << ss.kept_flagged << " flagged, "
              << ss.kept_tail << " tail, " << ss.kept_reservoir
              << " reservoir), " << ss.recycled << " recycled through "
              << sampler.arenaSlots() << " arena slots; wrote "
              << retained_json.size() << " bytes to " << retained_path
              << "\n\n";

    if (!g_all_pass) {
        std::cout << "FAIL: one or more trace-explorer checks failed.\n";
        return EXIT_FAILURE;
    }
    std::cout << "All trace-explorer checks passed: the span tree "
                 "conserves every request,\ncritical paths partition E2E "
                 "exactly, and the exported trace is "
                 "Perfetto-loadable.\n";
    return EXIT_SUCCESS;
}
