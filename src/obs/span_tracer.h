/**
 * @file
 * Append-only per-request span tracer.
 *
 * The tracer is the write side of the observability layer: the serving
 * engine calls begin()/end()/record() at lifecycle boundaries, all in
 * simulated time. Two properties are load-bearing:
 *
 *  - **Zero overhead when disabled.** A disabled tracer returns
 *    kNoSpan from begin() and never touches its storage; allocations()
 *    counts every vector append, so tests can assert "disabled tracer
 *    performed zero allocations" with a counter instead of a timing
 *    heuristic. The serving engine additionally caches a null pointer
 *    when tracing is off so the hot path pays one branch, not a call.
 *
 *  - **Pure observation.** The tracer never consumes randomness and
 *    never schedules events, so attaching it cannot perturb the
 *    simulation: RequestStats are byte-identical with tracing on/off
 *    (enforced by serving_stress_test).
 *
 * The tracer has two storage modes:
 *
 *  - **Flat (default).** Every span appends to one growing vector;
 *    SpanId is index + 1. Complete, but memory grows with the replay —
 *    right for explorers and short studies.
 *
 *  - **Sampling** (a TraceSampler attached via setSampler() BEFORE any
 *    span is recorded). Spans route into per-request trees drawn from
 *    the sampler's pooled arena; the sampler makes a deterministic
 *    keep/recycle decision at root-span close (see obs/sampler.h for
 *    the retention contract), and a tree is sealed once its last span
 *    — including post-root hedge/cancel debris — closes. In this mode
 *    spans() stays empty; retained trees live on the sampler. Handles
 *    pack (generation, arena slot, tree-local index), so debris
 *    end()/addFlags() calls that arrive after their tree was recycled
 *    are detected by generation mismatch and dropped (counted by the
 *    sampler). The sampler's private RNG is the only randomness
 *    involved, so the pure-observation contract holds bit-for-bit.
 */
#pragma once

#include <cstdint>
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
     * Attach a retention sampler (sampling mode). Must happen before
     * any span is recorded; pass nullptr to return to flat mode. Not
     * owned; must outlive the tracer's use.
     */
    void setSampler(TraceSampler *sampler) { sampler_ = sampler; }
    TraceSampler *sampler() const { return sampler_; }

    /** Root keep/recycle outcome of the most recent root-span close. */
    enum class RootDecision : std::uint8_t
    {
        None,    //!< no root closed yet (or flat mode: always retained)
        Dropped, //!< sampler chose recycle
        Kept,    //!< sampler chose keep
    };

    /**
     * Decision for the most recently closed root span. Flat mode
     * reports Kept (every span is retained); the serving engine reads
     * this right after ending a root to stamp exemplar retention.
     */
    RootDecision lastRootDecision() const { return last_root_; }

    /**
     * Open a span at @p at. Returns kNoSpan when disabled; all other
     * calls accept kNoSpan and become no-ops, so call sites need no
     * extra guards beyond the cached tracer pointer. @p shard, @p net and
     * @p batch are stored as int16; a value outside [-32768, 32767]
     * throws std::out_of_range (in both storage modes) before anything
     * is recorded.
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

    /** OR flags into an existing span without closing it. */
    void addFlags(SpanId id, std::uint8_t flags);

    /** Flat-mode span store (empty in sampling mode). */
    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Spans currently open (begun, not yet ended). */
    std::uint64_t openCount() const { return open_; }

    /**
     * Span appends performed since construction. Exactly 0 for a
     * disabled tracer — the zero-overhead contract, testable without
     * timing. (Sampling mode counts appends into recycled arena
     * capacity too; the *heap* bound there is the sampler's budget.)
     */
    std::uint64_t allocations() const { return allocations_; }

  private:
    // Sampling-mode handle layout: bits 0..19 tree-local index + 1,
    // bits 20..35 arena slot, bits 36..63 recycle generation.
    static constexpr unsigned kLocalBits = 20;
    static constexpr unsigned kSlotBits = 16;
    static constexpr SpanId kLocalMask = (SpanId{1} << kLocalBits) - 1;
    static constexpr SpanId kSlotMask = (SpanId{1} << kSlotBits) - 1;
    static_assert(TraceSampler::kMaxTrees == kSlotMask + 1,
                  "every arena slot must have a distinct handle");

    static SpanId encode(std::uint32_t generation, std::uint32_t slot,
                         std::size_t local_plus_one)
    {
        return (static_cast<SpanId>(generation)
                << (kLocalBits + kSlotBits)) |
               (static_cast<SpanId>(slot & kSlotMask) << kLocalBits) |
               (static_cast<SpanId>(local_plus_one) & kLocalMask);
    }

    SpanRecord *get(SpanId id);
    /** Sampling mode: resolve a handle to its live tree + record. */
    SpanRecord *resolveSampled(SpanId id, TraceSampler::Tree **tree_out);
    /** Sampling mode: file `rec` (all but id/parent set) in its tree. */
    SpanId beginSampled(SpanRecord rec, SpanId parent);
    void endSampled(SpanId id, sim::SimTime at, std::uint8_t add_flags);

    bool enabled_;
    TraceSampler *sampler_ = nullptr;
    std::vector<SpanRecord> spans_;
    std::uint64_t open_ = 0;
    std::uint64_t allocations_ = 0;
    RootDecision last_root_ = RootDecision::None;
};

} // namespace dri::obs
