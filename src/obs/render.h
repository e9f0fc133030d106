/**
 * @file
 * ASCII rendering of one request's span tree, reproducing the
 * visualization of Fig. 3: shards as horizontal slices (main shard on
 * top), leaf spans as proportional bars over a shared sim-time axis.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.h"

namespace dri::obs {

/**
 * Render the closed leaf spans of one request as a timeline, one lane
 * per (shard, net, batch). Each bar's glyph is its kind's PathBucket.
 *
 * @param spans      SpanTracer::spans() of one tracer (ids tracer-local).
 * @param request_id request to render.
 * @param width      character width of the time axis.
 */
std::string renderRequestTrace(const std::vector<SpanRecord> &spans,
                               std::uint64_t request_id,
                               std::size_t width = 100);

} // namespace dri::obs
