/**
 * @file
 * Digest helpers shared by the pinned-digest tests (serving_stress_test,
 * chaos_test): an FNV-1a word digest and a span digest that does not
 * depend on the order in which a tracer stores its span trees.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/span.h"

namespace dri::testutil {

/** FNV-1a over 64-bit words; doubles enter by their bit pattern. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void mix(std::uint64_t v) { h = (h ^ v) * 1099511628211ull; }
    void mixInt(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
    void
    mixDouble(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        mix(bits);
    }
};

/**
 * Mix one tracer's spans (id == index + 1, parents before children)
 * into @p d in canonical order: spans are grouped by root tree, trees
 * are ordered by (root request_id, root begin) and then input order,
 * and each tree keeps its input order with parent links rebased to
 * tree-local index + 1. Returns the number of spans mixed.
 */
inline std::size_t
mixSpans(Digest &d, const std::vector<obs::SpanRecord> &spans)
{
    std::vector<std::vector<std::size_t>> trees; // span indices per tree
    std::vector<std::size_t> tree_of(spans.size());
    std::vector<obs::SpanId> local_id(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const obs::SpanId parent = spans[i].parent;
        if (parent > i)
            throw std::logic_error("mixSpans: child stored before parent");
        if (parent == obs::kNoSpan) {
            tree_of[i] = trees.size();
            trees.emplace_back();
        } else {
            tree_of[i] = tree_of[parent - 1];
        }
        std::vector<std::size_t> &members = trees[tree_of[i]];
        members.push_back(i);
        local_id[i] = members.size();
    }
    std::stable_sort(trees.begin(), trees.end(),
                     [&spans](const auto &a, const auto &b) {
                         const obs::SpanRecord &ra = spans[a.front()];
                         const obs::SpanRecord &rb = spans[b.front()];
                         if (ra.request_id != rb.request_id)
                             return ra.request_id < rb.request_id;
                         return ra.begin < rb.begin;
                     });
    for (const auto &members : trees)
        for (const std::size_t i : members) {
            const obs::SpanRecord &sp = spans[i];
            d.mix(sp.request_id);
            d.mix(static_cast<std::uint64_t>(sp.kind));
            d.mix(sp.flags);
            d.mixInt(sp.begin);
            d.mixInt(sp.end);
            d.mix(sp.parent == obs::kNoSpan ? obs::kNoSpan
                                            : local_id[sp.parent - 1]);
            d.mixInt(sp.shard);
            d.mixInt(sp.net);
            d.mixInt(sp.batch);
        }
    return spans.size();
}

} // namespace dri::testutil
