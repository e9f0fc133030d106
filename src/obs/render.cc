#include "obs/render.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace dri::obs {

namespace {

/** One-character glyph per PathBucket for the timeline bars. */
constexpr char kBucketGlyph[kPathBucketCount] = {'q', 'C', 's', '~', '.', 'o'};

} // namespace

std::string
renderRequestTrace(const std::vector<SpanRecord> &spans,
                   std::uint64_t request_id, std::size_t width)
{
    std::set<SpanId> parents;
    for (const auto &s : spans)
        if (s.request_id == request_id && s.parent != kNoSpan)
            parents.insert(s.parent);
    std::vector<const SpanRecord *> leaves;
    for (const auto &s : spans)
        if (s.request_id == request_id && !s.open() && !parents.count(s.id))
            leaves.push_back(&s);

    std::ostringstream os;
    if (leaves.empty()) {
        os << "(no spans for request " << request_id
           << "; was a SpanTracer attached?)\n";
        return os.str();
    }
    std::stable_sort(leaves.begin(), leaves.end(),
                     [](const SpanRecord *a, const SpanRecord *b) {
                         if (a->begin != b->begin)
                             return a->begin < b->begin;
                         return a->end < b->end;
                     });

    sim::SimTime t0 = leaves.front()->begin;
    sim::SimTime t1 = leaves.front()->end;
    for (const auto *s : leaves) {
        t0 = std::min(t0, s->begin);
        t1 = std::max(t1, s->end);
    }
    const double scale = t1 > t0
                             ? static_cast<double>(width) /
                                   static_cast<double>(t1 - t0)
                             : 0.0;

    // Group spans into lanes: the main shard first, then sparse shards in
    // id order; within a shard, one lane per (net, batch) pair so
    // concurrent batches are visible.
    std::map<std::tuple<int, int, int>, std::vector<const SpanRecord *>>
        lanes;
    for (const auto *s : leaves)
        lanes[{s->shard, s->net, s->batch}].push_back(s);

    os << "request " << request_id << "  span=" << (t1 - t0) << "ns  ("
       << sim::toMillis(t1 - t0) << " ms)\n";
    os << "legend:";
    for (std::size_t b = 0; b < kPathBucketCount; ++b)
        os << ' ' << kBucketGlyph[b] << '='
           << pathBucketName(static_cast<PathBucket>(b));
    os << "\n";

    int last_shard = kMainShard - 1;
    for (const auto &kv : lanes) {
        const int shard = std::get<0>(kv.first);
        if (shard != last_shard) {
            if (shard == kMainShard)
                os << "-- main shard " << std::string(width - 4, '-') << "\n";
            else
                os << "-- sparse shard " << shard << " "
                   << std::string(width - 8, '-') << "\n";
            last_shard = shard;
        }
        std::string lane(width, ' ');
        for (const auto *s : kv.second) {
            const char glyph =
                kBucketGlyph[static_cast<std::size_t>(bucketOf(s->kind))];
            auto b = static_cast<std::size_t>(
                static_cast<double>(s->begin - t0) * scale);
            auto e = static_cast<std::size_t>(
                static_cast<double>(s->end - t0) * scale);
            b = std::min(b, width - 1);
            e = std::min(std::max(e, b + 1), width);
            for (std::size_t i = b; i < e; ++i)
                lane[i] = glyph;
        }
        os << "net" << std::get<1>(kv.first) << "/b" << std::get<2>(kv.first)
           << " |" << lane << "|\n";
    }
    return os.str();
}

} // namespace dri::obs
