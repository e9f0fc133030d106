/**
 * @file
 * Per-request span tracer.
 *
 * The tracer is the write side of the observability layer: the serving
 * engine calls begin()/end()/record() at lifecycle boundaries, all in
 * simulated time. Two properties are load-bearing:
 *
 *  - **Zero overhead when disabled.** A disabled tracer returns
 *    kNoSpan from begin() and never touches its storage; allocations()
 *    counts every span append, so tests can assert "disabled tracer
 *    performed zero allocations" with a counter instead of a timing
 *    heuristic. The serving engine additionally caches a null pointer
 *    when tracing is off so the hot path pays one branch, not a call.
 *
 *  - **Pure observation.** The tracer never consumes simulation
 *    randomness and never schedules events, so attaching it cannot
 *    perturb the simulation: RequestStats are byte-identical with
 *    tracing on/off (enforced by serving_stress_test).
 *
 * There is one span store: a TraceSampler's per-request tree arena.
 * Each root span opens a tree; its descendants file into it. The
 * sampler decides keep/recycle when the root closes (see obs/sampler.h
 * for the retention contract), and seals the tree once its last span —
 * including post-root hedge/cancel debris — closes. A tracer with no
 * sampler attached creates its own keep-all sampler at its first span,
 * so every tree is retained; one that never records allocates nothing.
 *
 * Handles pack (20-bit generation, 24-bit arena slot, 20-bit tree-local
 * index), so debris begin()/end() calls that arrive after
 * their tree was sealed are detected by generation mismatch and dropped
 * (counted in TraceSampler::stats().stale_span_drops). spans() shows a
 * tree only once it is sealed.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/sampler.h"
#include "obs/span.h"

namespace dri::obs {

class SpanTracer
{
  public:
    explicit SpanTracer(bool enabled = true) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /**
     * Attach a retention sampler; without one the tracer keeps every
     * tree. Not owned; must outlive the tracer's use. Throws
     * std::logic_error once a span has been recorded, because the open
     * trees' handles point into the current sampler's arena.
     */
    void setSampler(TraceSampler *sampler);

    /**
     * The span store: the attached sampler, else the tracer's own
     * keep-all sampler, or nullptr before the first span.
     */
    TraceSampler *sampler() const { return sampler_; }

    /**
     * Open a span at @p at. Returns kNoSpan when disabled; all other
     * calls accept kNoSpan and become no-ops, so call sites need no
     * extra guards beyond the cached tracer pointer. @p shard, @p net and
     * @p batch are stored as int16; a value outside [-32768, 32767]
     * throws std::out_of_range before anything is recorded. A child
     * of a sealed tree is dropped (counted) and returns kNoSpan. Throws
     * std::length_error for a tree's 2^20th span (the handle's local
     * index field is full) and, from the store, for a root that would
     * be the (TraceSampler::kMaxTrees + 1)th concurrent tree.
     */
    SpanId begin(std::uint64_t request_id, SpanKind kind, SpanId parent,
                 sim::SimTime at, int shard = kMainShard, int net = -1,
                 int batch = -1, std::uint8_t flags = kFlagNone);

    /** Close an open span at @p at, OR-ing @p add_flags in. */
    void end(SpanId id, sim::SimTime at, std::uint8_t add_flags = kFlagNone);

    /** Record a span whose begin and end are both already known. */
    SpanId record(std::uint64_t request_id, SpanKind kind, SpanId parent,
                  sim::SimTime begin, sim::SimTime end,
                  int shard = kMainShard, int net = -1, int batch = -1,
                  std::uint8_t flags = kFlagNone);

    /**
     * Spans of every retained, sealed tree, flattened so that id ==
     * index + 1 (TraceSampler::flattenedSpans()). A copy: bind it to a
     * value, not a reference into the temporary.
     */
    std::vector<SpanRecord> spans() const;

    /** Spans currently open (begun, not yet ended). */
    std::uint64_t openCount() const { return open_; }

    /**
     * Span appends performed since construction. Exactly 0 for a
     * disabled tracer — the zero-overhead contract, testable without
     * timing. Appends into recycled arena capacity count too; the
     * *heap* bound is the sampler's retained-byte budget.
     */
    std::uint64_t allocations() const { return allocations_; }

  private:
    // Handle layout: bits 0..19 tree-local index + 1,
    // bits 20..43 arena slot, bits 44..63 recycle generation. No field
    // is ever masked: begin() throws before a tree's local index would
    // overflow, the sampler caps slots at kMaxTrees and retires a slot
    // before its generation passes kMaxGeneration.
    static constexpr unsigned kLocalBits = 20;
    static constexpr unsigned kSlotBits = 24;
    static constexpr unsigned kGenerationBits = 20;
    static constexpr SpanId kLocalMask = (SpanId{1} << kLocalBits) - 1;
    static constexpr SpanId kSlotMask = (SpanId{1} << kSlotBits) - 1;
    static_assert(kLocalBits + kSlotBits + kGenerationBits == 64,
                  "the handle fields fill one SpanId");
    static_assert(TraceSampler::kMaxTrees == kSlotMask + 1,
                  "every arena slot must have a distinct handle");
    static_assert(TraceSampler::kMaxGeneration ==
                      (SpanId{1} << kGenerationBits) - 1,
                  "every live generation must fit its field");

    static SpanId encode(std::uint32_t generation, std::uint32_t slot,
                         std::size_t local_plus_one)
    {
        return (static_cast<SpanId>(generation)
                << (kLocalBits + kSlotBits)) |
               (static_cast<SpanId>(slot) << kLocalBits) |
               static_cast<SpanId>(local_plus_one);
    }

    /** Resolve a handle to its live tree + record (nullptr if stale). */
    SpanRecord *resolve(SpanId id, TraceSampler::Tree **tree_out);

    bool enabled_;
    TraceSampler *sampler_ = nullptr;
    /** Keep-all store, created at the first span if none is attached. */
    std::unique_ptr<TraceSampler> keep_all_;
    std::uint64_t open_ = 0;
    std::uint64_t allocations_ = 0;
};

} // namespace dri::obs
