#include "dc/paging_traced.h"

#include <cmath>

namespace dri::dc {

TracedPagingResult
pagedLookupNsTraced(std::int64_t model_bytes, const Platform &platform,
                    const PagingConfig &config,
                    const model::ModelSpec &spec,
                    const workload::AccessTrace &trace,
                    cache::Policy policy, double warmup_fraction,
                    cache::Admission admission)
{
    TracedPagingResult result;
    result.resident_fraction = residentFraction(model_bytes, platform);

    // The DRAM budget is the analytic resident fraction of the byte
    // universe the trace actually addresses, so hitRate(f, skew) and the
    // measured rate answer the same question about the same cache size.
    result.universe_bytes =
        workload::traceFootprint(spec, trace).universe_bytes;

    result.cache_bytes = static_cast<std::int64_t>(std::llround(
        result.resident_fraction *
        static_cast<double>(result.universe_bytes)));

    result.sim = cache::replayTrace(spec, trace, policy, result.cache_bytes,
                                    warmup_fraction, admission);

    if (result.sim.total.accesses > 0) {
        result.hit_rate = result.sim.overallHitRate();
    } else {
        // No post-warmup in-model accesses to measure (empty trace,
        // foreign table ids, or warmup_fraction == 1): CacheStats would
        // report 0, charging full SSD miss cost even for a fully resident
        // model. Fall back to the analytic curve instead.
        result.hit_rate =
            hitRate(result.resident_fraction, config.access_skew);
    }
    result.lookup_ns = result.hit_rate * config.dram_lookup_ns +
                       (1.0 - result.hit_rate) * kSsdLookupNs;
    return result;
}

} // namespace dri::dc
