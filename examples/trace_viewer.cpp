/**
 * @file
 * Trace viewer: reproduces the Fig. 3 visualization. Runs one request
 * through a distributed DRM1 deployment with a span tracer attached
 * and renders the request's leaf spans as an ASCII timeline — main shard
 * on top, sparse shards below, one lane per (net, batch), each bar
 * glyphed by its latency bucket (compute, serde, network, queue, wait).
 *
 * Self-checking (exit 1 on violation):
 *  - span conservation holds for the one request;
 *  - the request's critical path sums to its reported E2E;
 *  - the timeline shows the main-shard lane and both sparse-shard lanes.
 */
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "core/serving.h"
#include "core/strategies.h"
#include "model/generators.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/render.h"
#include "obs/span_tracer.h"
#include "workload/request_generator.h"

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

    const auto spec = model::makeDrm1();
    workload::RequestGenerator gen(spec, {.seed = 11, .diurnal_amplitude = 0});
    const auto pooling = gen.estimatePoolingFactors(200);
    // A small request keeps the timeline readable (few batches).
    auto requests = gen.generate(1);
    requests[0].items = 96; // two default batches

    const auto plan = core::makeLoadBalanced(spec, 2, pooling);
    obs::SpanTracer tracer;
    core::ServingConfig config;
    config.tracer = &tracer;
    config.seed = 3;
    core::ServingSimulation sim(spec, plan, config);
    const auto stats = sim.replaySerial(requests);
    const auto id = requests[0].id;

    const std::string timeline =
        obs::renderRequestTrace(tracer.spans(), id, 100);
    std::cout << "Distributed trace of one DRM1 request (" << plan.label()
              << "), as in the paper's Fig. 3:\n\n"
              << timeline;

    std::cout << "\nPer-RPC records (Section IV-B attribution):\n";
    for (const auto &rpc : sim.collector().rpcs()) {
        if (rpc.request_id != id)
            continue;
        std::cout << "  net " << rpc.net_id << " batch " << rpc.batch_id
                  << " -> shard " << rpc.shard_id << ": outstanding "
                  << sim::toMicros(rpc.outstanding()) << " us (remote e2e "
                  << sim::toMicros(rpc.remoteE2e()) << " us, network "
                  << sim::toMicros(rpc.networkLatency()) << " us, SLS "
                  << sim::toMicros(rpc.remote_sparse_op_ns) << " us)\n";
    }

    // Also export the trace for interactive inspection in Perfetto /
    // chrome://tracing.
    const std::string json = obs::chromeTraceJson(tracer.spans());
    std::ofstream("trace_viewer_request.json") << json;
    std::cout << "\nChrome trace written to trace_viewer_request.json ("
              << json.size() << " bytes)\n";

    const auto &st = stats.front();
    std::cout << "\nE2E " << sim::toMillis(st.e2e)
              << " ms = dense " << sim::toMillis(st.lat_dense)
              << " + embedded " << sim::toMillis(st.lat_embedded)
              << " + serde " << sim::toMillis(st.lat_serde)
              << " + service " << sim::toMillis(st.lat_service)
              << " + net-overhead " << sim::toMillis(st.lat_net_overhead)
              << " (ms)\n\n";

    check(obs::checkConservation(tracer.spans()).ok(1),
          "span conservation (one closed root, no open spans, no nesting "
          "violations)");
    const auto paths = obs::criticalPaths(tracer.spans());
    sim::Duration path_sum = 0;
    if (paths.size() == 1)
        for (const sim::Duration ns : paths[0].bucket_ns)
            path_sum += ns;
    check(paths.size() == 1 && path_sum == st.e2e,
          "critical path sums to the reported E2E");
    for (const char *lane :
         {"-- main shard ", "-- sparse shard 0 ", "-- sparse shard 1 "})
        check(timeline.find(lane) != std::string::npos,
              std::string("timeline shows the '") + lane + "' lane");

    if (!g_all_pass) {
        std::cout << "FAIL: one or more trace-viewer checks failed.\n";
        return EXIT_FAILURE;
    }
    std::cout << "All trace-viewer checks passed.\n";
    return EXIT_SUCCESS;
}
