/**
 * @file
 * Tail-based trace retention: the span store behind every SpanTracer,
 * and the keep/recycle policy that bounds its memory.
 *
 * The tracer routes each request's spans into a per-request tree drawn
 * from the sampler's pooled arena (the sim/pool.h recycle idiom:
 * objects keep their storage and are restored to a pristine state in
 * place), and the sampler makes a deterministic keep/recycle decision
 * when the request's root span closes. A tracer with no sampler
 * attached builds its own with reservoir_size and retained_byte_budget
 * at SIZE_MAX: the reservoir never leaves its fill phase, so every tree
 * is kept and no random number is drawn — unbounded memory over a
 * week-long replay, which is what attaching a budgeted sampler fixes.
 *
 * ## Retention-policy contract
 *
 * A root is KEPT, in priority order, when:
 *
 *  1. **Flagged** — the closed root carries kFlagShed (the request was
 *     shed) or kFlagHedge (a hedge backup won at least one of its
 *     races), or any span recorded so far in the tree carries
 *     kFlagFault (an attempt hit a dead/partitioned/unresolvable
 *     target). Fault debris that closes after the root close is graded
 *     best-effort: flags present at decision time decide.
 *  2. **Tail** — the root's duration meets the rolling
 *     TraceSampler::kTailQuantile threshold read from the window
 *     attached with TraceSampler::setLatencyFeed(). After judging a
 *     root, the sampler observes its duration into that window at the
 *     root's close unless the root carries kFlagShed, so the window
 *     holds every served request's end-to-end latency and the
 *     threshold never includes the request being judged. With no
 *     window attached, or an empty one, nothing is a tail keep.
 *  3. **Reservoir** — a seeded uniform reservoir (Algorithm R) of
 *     reservoir_size roots over every root close, so healthy traffic
 *     stays represented no matter how long the replay runs. The
 *     reservoir draws from the sampler's PRIVATE rng stream — never
 *     the simulation's — which is what keeps sampling observation-pure
 *     (byte-identical RequestStats and fingerprints with sampling on
 *     or off, zero extra simulation RNG draws).
 *
 * Everything else is recycled: the tree's span vector is cleared with
 * its capacity retained and the arena slot is reused, so steady-state
 * tracing performs no heap allocation once the arena has grown to the
 * replay's maximum request concurrency.
 *
 * Retained memory is hard-capped by retained_byte_budget: admitting a
 * trace evicts retained traces of strictly lower keep class first,
 * then same-class oldest-first, and is itself dropped (counted) when
 * no such eviction frees enough room. All decisions are pure functions
 * of the span stream and the sampler seed, so reruns retain the
 * identical trace set.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/span.h"
#include "obs/timeseries.h"
#include "stats/rng.h"

namespace dri::obs {

/** Why a retained trace was kept (priority order, highest wins). */
enum class KeepClass : std::uint8_t
{
    Recycled = 0,  //!< not retained (sentinel; never stored)
    Reservoir = 1, //!< seeded uniform reservoir member
    Tail = 2,      //!< E2E met the rolling tail threshold
    Flagged = 3,   //!< shed / fault / hedge-win root
};

/** Retention-policy knobs. */
struct SamplerConfig
{
    /** Sampler-private reservoir seed (never the simulation's). */
    std::uint64_t seed = 0x5a3b1ed;
    /** Uniform-reservoir size over root closes (0 disables it). */
    std::size_t reservoir_size = 32;
    /** Hard cap on retained span bytes (sum of span-record storage). */
    std::size_t retained_byte_budget = 4u << 20;
};

/** One kept trace: tree-local flat spans (id == index + 1). */
struct RetainedTrace
{
    std::uint64_t request_id = 0;
    KeepClass keep_class = KeepClass::Recycled;
    /** Root span duration at decision time. */
    sim::Duration e2e = 0;
    /**
     * The tree's spans in begin order with tree-local ids, directly
     * consumable by criticalPaths()/checkConservation() per trace.
     */
    std::vector<SpanRecord> spans;

    std::size_t byteSize() const
    {
        return spans.size() * sizeof(SpanRecord);
    }
};

/** Retention counters (all deterministic under a fixed seed). */
struct SamplerStats
{
    std::uint64_t roots_closed = 0;
    std::uint64_t kept_flagged = 0;
    std::uint64_t kept_tail = 0;
    std::uint64_t kept_reservoir = 0;
    std::uint64_t recycled = 0;
    /** Retained traces evicted to fit a higher/newer admission. */
    std::uint64_t budget_evictions = 0;
    /** Keep decisions dropped because the budget could not fit them. */
    std::uint64_t budget_rejected = 0;
    /** Debris spans arriving after their tree was sealed (dropped). */
    std::uint64_t stale_span_drops = 0;
};

class TraceSampler
{
  public:
    /** Quantile of the latency feed a root must meet to be a tail keep. */
    static constexpr double kTailQuantile = 0.99;

    explicit TraceSampler(SamplerConfig config = {});

    TraceSampler(const TraceSampler &) = delete;
    TraceSampler &operator=(const TraceSampler &) = delete;

    const SamplerConfig &config() const { return cfg_; }

    /**
     * Attach the rolling window the tail threshold is read from and
     * every served root is observed into (null detaches it and turns
     * tail keeps off). Not owned. The fleet driver re-wires it per
     * segment because each segment's simulation restarts its clock.
     */
    void setLatencyFeed(RollingHistogram *feed) { feed_ = feed; }

    // -- Arena interface (driven by SpanTracer; see obs/span_tracer.h) --

    /**
     * One in-flight request's span tree, recycled in place (sim/pool.h
     * protocol: storage is slot-stable, the span vector keeps its
     * capacity across reuse, generation guards stale handles).
     */
    struct Tree
    {
        std::uint64_t request_id = 0;
        std::uint32_t slot = 0;
        std::uint32_t generation = 0;
        std::uint32_t open = 0;
        bool decided = false;
        KeepClass keep_class = KeepClass::Recycled;
        std::vector<SpanRecord> spans; //!< tree-local ids (index + 1)
    };

    /**
     * Arena slots a SpanTracer handle can address (24 slot bits), i.e.
     * the most request trees that may be open at once.
     */
    static constexpr std::size_t kMaxTrees = std::size_t{1} << 24;

    /**
     * Highest generation a SpanTracer handle can carry (20 generation
     * bits). A slot sealed at this generation is retired instead of
     * recycled, so a handle's generation never wraps onto a later
     * tenant of its slot.
     */
    static constexpr std::uint32_t kMaxGeneration = (1u << 20) - 1;

    /**
     * Open a tree for a new root span (recycles a free arena slot).
     * Throws std::length_error rather than create slot kMaxTrees, whose
     * handles would alias slot 0.
     */
    Tree *acquireTree(std::uint64_t request_id);

    /** Arena tree at @p slot, or nullptr past the arena end. */
    Tree *treeAt(std::uint32_t slot)
    {
        return slot < arena_.size() ? arena_[slot].get() : nullptr;
    }

    /**
     * Classify the tree at root close (root must already carry its end
     * time), then observe an unshed root's duration into the attached
     * window at `now`. Sets keep_class/decided; retention happens at
     * seal().
     */
    void decide(Tree *tree, sim::SimTime now);

    /**
     * Seal a decided tree once its last span closed: move it into the
     * retained store (budget permitting) or recycle it in place.
     */
    void seal(Tree *tree);

    /** Count a debris span dropped against a recycled tree. */
    void noteStaleSpan() { ++stats_.stale_span_drops; }

    // -- Read side ------------------------------------------------------

    /** Kept traces in admission order (evictions excise in place). */
    const std::vector<RetainedTrace> &retained() const { return retained_; }

    /** True if @p request_id 's trace is currently retained. */
    bool isRetained(std::uint64_t request_id) const;

    /** Sum of retained span-record bytes (always <= the budget). */
    std::size_t retainedBytes() const { return retained_bytes_; }

    /**
     * Arena slots ever created: the maximum concurrent request trees,
     * plus one per slot retired at kMaxGeneration.
     */
    std::size_t arenaSlots() const { return arena_.size(); }

    const SamplerStats &stats() const { return stats_; }

    /**
     * All retained spans flattened into one tracer-style vector:
     * per-trace local ids are rebased so id == index + 1 holds
     * globally, making the result directly consumable by
     * criticalPaths(), checkConservation(), and writeChromeTrace().
     */
    std::vector<SpanRecord> flattenedSpans() const;

  private:
    bool rootFlagged(const Tree &tree) const;
    KeepClass classify(const Tree &tree, sim::SimTime now);
    /** Tail-keep threshold at `now`; 0 (off) without a feed or samples. */
    sim::Duration tailThreshold(sim::SimTime now) const;
    void retain(Tree *tree);
    void recycle(Tree *tree);
    void recycleSlotOnly(Tree *tree);
    void evictRetainedAt(std::size_t index);

    SamplerConfig cfg_;
    stats::Rng rng_;
    RollingHistogram *feed_ = nullptr;

    /** Slot-stable tree storage; free_slots_ recycles indices. */
    std::vector<std::unique_ptr<Tree>> arena_;
    std::vector<std::uint32_t> free_slots_;

    std::vector<RetainedTrace> retained_;
    std::size_t retained_bytes_ = 0;
    /** request_ids of current reservoir members (Algorithm R slots). */
    std::vector<std::uint64_t> reservoir_;

    SamplerStats stats_;
};

} // namespace dri::obs
