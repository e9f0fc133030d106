#include "obs/sampler.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dri::obs {

TraceSampler::TraceSampler(SamplerConfig config)
    : cfg_(config), rng_(config.seed)
{
}

TraceSampler::Tree *
TraceSampler::acquireTree(std::uint64_t request_id)
{
    Tree *t;
    if (free_slots_.empty()) {
        if (arena_.size() >= kMaxTrees)
            throw std::length_error(
                "TraceSampler: more than " + std::to_string(kMaxTrees) +
                " concurrent request trees");
        arena_.push_back(std::make_unique<Tree>());
        t = arena_.back().get();
        t->slot = static_cast<std::uint32_t>(arena_.size() - 1);
    } else {
        t = arena_[free_slots_.back()].get();
        free_slots_.pop_back();
    }
    t->request_id = request_id;
    t->open = 0;
    t->decided = false;
    t->keep_class = KeepClass::Recycled;
    t->spans.clear(); // capacity retained: the pool recycle protocol
    return t;
}

bool
TraceSampler::rootFlagged(const Tree &tree) const
{
    const SpanRecord &root = tree.spans.front();
    if ((root.flags & (kFlagShed | kFlagHedge)) != 0)
        return true;
    for (const SpanRecord &s : tree.spans)
        if ((s.flags & kFlagFault) != 0)
            return true;
    return false;
}

sim::Duration
TraceSampler::tailThreshold(sim::SimTime now) const
{
    if (cfg_.latency_feed == nullptr)
        return 0;
    const double q = cfg_.latency_feed->valueAtQuantile(
        static_cast<double>(now) * 1e-9, kTailQuantile,
        /*empty_value=*/-1.0);
    return q >= 0.0 ? static_cast<sim::Duration>(q) : 0;
}

void
TraceSampler::decide(Tree *tree, sim::SimTime now)
{
    if (tree == nullptr || tree->decided || tree->spans.empty())
        return;
    tree->decided = true;
    ++stats_.roots_closed;

    if (rootFlagged(*tree)) {
        tree->keep_class = KeepClass::Flagged;
        return;
    }
    const sim::Duration e2e = tree->spans.front().duration();
    const sim::Duration threshold = tailThreshold(now);
    if (threshold > 0 && e2e >= threshold) {
        tree->keep_class = KeepClass::Tail;
        return;
    }
    // Seeded uniform reservoir (Algorithm R) over root closes. The rng
    // draw happens for every root past the fill — the SAME number of
    // draws regardless of simulation behavior, and from the sampler's
    // private stream, so sampling can never perturb the run.
    if (cfg_.reservoir_size > 0) {
        const std::uint64_t idx = stats_.roots_closed - 1;
        if (reservoir_.size() < cfg_.reservoir_size) {
            reservoir_.push_back(tree->request_id);
            tree->keep_class = KeepClass::Reservoir;
            return;
        }
        const std::uint64_t j = static_cast<std::uint64_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(idx)));
        if (j < cfg_.reservoir_size) {
            // Replace the j-th member: evict its retained trace (if it
            // is still retained — a budget eviction may have beaten us).
            const std::uint64_t victim = reservoir_[j];
            for (std::size_t i = 0; i < retained_.size(); ++i) {
                if (retained_[i].request_id == victim &&
                    retained_[i].keep_class == KeepClass::Reservoir) {
                    evictRetainedAt(i);
                    break;
                }
            }
            reservoir_[j] = tree->request_id;
            tree->keep_class = KeepClass::Reservoir;
            return;
        }
    }
    tree->keep_class = KeepClass::Recycled;
}

void
TraceSampler::seal(Tree *tree)
{
    if (tree == nullptr || !tree->decided || tree->open != 0)
        return;
    if (tree->keep_class == KeepClass::Recycled)
        recycle(tree);
    else
        retain(tree);
}

void
TraceSampler::evictRetainedAt(std::size_t index)
{
    retained_bytes_ -= retained_[index].byteSize();
    retained_.erase(retained_.begin() +
                    static_cast<std::ptrdiff_t>(index));
}

void
TraceSampler::recycleSlotOnly(Tree *tree)
{
    // Generation bump invalidates every outstanding handle into this
    // slot the moment the tree is sealed — late debris resolves to a
    // counted no-op instead of writing into the slot's next tenant.
    ++tree->generation;
    tree->decided = false;
    if (tree->generation <= kMaxGeneration) {
        free_slots_.push_back(tree->slot);
        return;
    }
    // Generation field exhausted: retire the slot (its handles all stay
    // stale) and let the next tree take a fresh one.
    tree->spans = {};
}

void
TraceSampler::retain(Tree *tree)
{
    const std::size_t bytes = tree->spans.size() * sizeof(SpanRecord);
    // Budget admission: evict strictly-lower classes first, then
    // same-class oldest-first. Never evict a higher class for a lower-
    // class admission — drop the admission instead.
    while (retained_bytes_ + bytes > cfg_.retained_byte_budget &&
           !retained_.empty()) {
        std::size_t victim = retained_.size();
        // Lowest class, oldest within it.
        for (std::size_t i = 0; i < retained_.size(); ++i)
            if (victim == retained_.size() ||
                retained_[i].keep_class < retained_[victim].keep_class)
                victim = i;
        if (retained_[victim].keep_class > tree->keep_class)
            break; // only higher classes left: the admission loses
        evictRetainedAt(victim);
        ++stats_.budget_evictions;
    }
    if (retained_bytes_ + bytes > cfg_.retained_byte_budget) {
        ++stats_.budget_rejected;
        recycle(tree);
        return;
    }

    switch (tree->keep_class) {
    case KeepClass::Flagged:
        ++stats_.kept_flagged;
        break;
    case KeepClass::Tail:
        ++stats_.kept_tail;
        break;
    case KeepClass::Reservoir:
        ++stats_.kept_reservoir;
        break;
    case KeepClass::Recycled:
        break;
    }
    RetainedTrace kept;
    kept.request_id = tree->request_id;
    kept.keep_class = tree->keep_class;
    kept.e2e = tree->spans.front().duration();
    kept.spans = std::move(tree->spans);
    retained_bytes_ += bytes;
    retained_.push_back(std::move(kept));
    // The moved-from vector is hollow; the slot still recycles (its
    // next tenant re-grows capacity once, then reaches steady state).
    recycleSlotOnly(tree);
}

void
TraceSampler::recycle(Tree *tree)
{
    ++stats_.recycled;
    recycleSlotOnly(tree);
}

std::vector<SpanRecord>
TraceSampler::flattenedSpans() const
{
    std::size_t total = 0;
    for (const RetainedTrace &t : retained_)
        total += t.spans.size();
    std::vector<SpanRecord> out;
    out.reserve(total);
    SpanId base = 0;
    for (const RetainedTrace &t : retained_) {
        for (SpanRecord s : t.spans) {
            s.id += base;
            if (s.parent != kNoSpan)
                s.parent += base;
            out.push_back(s);
        }
        base += t.spans.size();
    }
    return out;
}

bool
TraceSampler::isRetained(std::uint64_t request_id) const
{
    for (const RetainedTrace &t : retained_)
        if (t.request_id == request_id)
            return true;
    return false;
}

} // namespace dri::obs
