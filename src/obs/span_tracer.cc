#include "obs/span_tracer.h"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace dri::obs {

inline SpanRecord *
SpanTracer::resolve(SpanId id, TraceSampler::Tree **tree_out)
{
    *tree_out = nullptr;
    if (id == kNoSpan || sampler_ == nullptr)
        return nullptr;
    const auto slot =
        static_cast<std::uint32_t>((id >> kLocalBits) & kSlotMask);
    const auto generation =
        static_cast<std::uint32_t>(id >> (kLocalBits + kSlotBits));
    TraceSampler::Tree *tree = sampler_->treeAt(slot);
    if (tree == nullptr || tree->generation != generation) {
        // The tree this handle pointed into was sealed and its slot
        // recycled — this is the late hedge/cancel debris path.
        sampler_->noteStaleSpan();
        return nullptr;
    }
    const std::size_t local = static_cast<std::size_t>(id & kLocalMask);
    if (local == 0 || local > tree->spans.size())
        return nullptr;
    *tree_out = tree;
    return &tree->spans[local - 1];
}

namespace {

[[noreturn]] __attribute__((cold, noinline)) void
throwCoordinate(int value, const char *name)
{
    throw std::out_of_range(std::string("SpanTracer: ") + name + " " +
                            std::to_string(value) +
                            " does not fit a span's int16 field");
}

/** A span coordinate narrowed to SpanRecord's int16 field, checked. */
inline std::int16_t
coordinate(int value, const char *name)
{
    if (value < std::numeric_limits<std::int16_t>::min() ||
        value > std::numeric_limits<std::int16_t>::max())
        throwCoordinate(value, name); // cold: the branch is laid out unlikely
    return static_cast<std::int16_t>(value);
}

/** A span's record before it is filed: ids and parent link unset. */
inline SpanRecord
makeRecord(std::uint64_t request_id, SpanKind kind, sim::SimTime begin,
           sim::SimTime end, int shard, int net, int batch,
           std::uint8_t flags)
{
    SpanRecord rec;
    rec.request_id = request_id;
    rec.kind = kind;
    rec.flags = flags;
    rec.shard = coordinate(shard, "shard");
    rec.net = coordinate(net, "net");
    rec.batch = coordinate(batch, "batch");
    rec.begin = begin;
    rec.end = end;
    return rec;
}

} // namespace

void
SpanTracer::setSampler(TraceSampler *sampler)
{
    if (allocations_ != 0)
        throw std::logic_error(
            "SpanTracer: setSampler() after the first span was recorded");
    sampler_ = sampler;
}

TraceSampler::Tree *
SpanTracer::openTree(std::uint64_t request_id)
{
    // Without an attached sampler, keep every tree: Algorithm R's fill
    // phase admits every root and draws no random numbers.
    if (sampler_ == nullptr) {
        SamplerConfig keep_all;
        keep_all.reservoir_size = SIZE_MAX;
        keep_all.retained_byte_budget = SIZE_MAX;
        keep_all_ = std::make_unique<TraceSampler>(keep_all);
        sampler_ = keep_all_.get();
    }
    return sampler_->acquireTree(request_id);
}

inline SpanId
SpanTracer::append(SpanRecord rec, SpanId parent,
                   TraceSampler::Tree **tree_out)
{
    TraceSampler::Tree *tree = nullptr;
    if (parent == kNoSpan) {
        tree = openTree(rec.request_id); // root span: a fresh tree
    } else {
        const SpanRecord *parent_rec = resolve(parent, &tree);
        if (parent_rec == nullptr)
            return kNoSpan; // stale tree: drop the whole debris subtree
        rec.parent = parent_rec->id;
    }
    if (tree->spans.size() >= kLocalMask)
        throw std::length_error("SpanTracer: request " +
                                std::to_string(rec.request_id) + " has " +
                                std::to_string(kLocalMask) +
                                " spans, the most a handle can index");

    rec.id = static_cast<SpanId>(tree->spans.size() + 1);
    tree->spans.push_back(rec);
    tree->span_flags |= rec.flags;
    ++allocations_;
    *tree_out = tree;
    return encode(tree->generation, tree->slot, rec.id);
}

void
SpanTracer::settle(TraceSampler::Tree *tree, const SpanRecord &closed)
{
    if (closed.kind == SpanKind::Request && closed.parent == kNoSpan)
        sampler_->decide(tree, closed.end);
    // Seal once decided AND the last span (possibly post-root debris)
    // has closed; until then the tree keeps accepting closes.
    if (tree->decided && tree->open == 0)
        sampler_->seal(tree);
}

SpanId
SpanTracer::begin(std::uint64_t request_id, SpanKind kind, SpanId parent,
                  sim::SimTime at, int shard, int net, int batch,
                  std::uint8_t flags)
{
    if (!enabled_)
        return kNoSpan;
    TraceSampler::Tree *tree = nullptr;
    const SpanId id = append(makeRecord(request_id, kind, at, kOpenEnd, shard,
                                        net, batch, flags),
                             parent, &tree);
    if (id != kNoSpan) {
        ++tree->open;
        ++open_;
    }
    return id;
}

void
SpanTracer::end(SpanId id, sim::SimTime at, std::uint8_t add_flags)
{
    TraceSampler::Tree *tree;
    SpanRecord *rec = resolve(id, &tree);
    if (rec == nullptr || !rec->open())
        return;
    rec->end = at;
    rec->flags |= add_flags;
    tree->span_flags |= add_flags;
    --tree->open;
    --open_;
    settle(tree, *rec);
}

SpanId
SpanTracer::record(std::uint64_t request_id, SpanKind kind, SpanId parent,
                   sim::SimTime begin, sim::SimTime end, int shard, int net,
                   int batch, std::uint8_t flags)
{
    if (!enabled_)
        return kNoSpan;
    TraceSampler::Tree *tree = nullptr;
    const SpanId id = append(
        makeRecord(request_id, kind, begin, end, shard, net, batch, flags),
        parent, &tree);
    if (id != kNoSpan)
        settle(tree, tree->spans.back());
    return id;
}

std::vector<SpanRecord>
SpanTracer::spans() const
{
    return sampler_ == nullptr ? std::vector<SpanRecord>{}
                               : sampler_->flattenedSpans();
}

} // namespace dri::obs
