/**
 * @file
 * Minimal deterministic discrete-event engine.
 *
 * The serving substrate (servers, links, RPC services) is modelled as events
 * on a single queue. Ties are broken by insertion order, so a given seed
 * always produces the identical schedule regardless of host platform.
 *
 * Performance shape: callbacks live in a pooled slot arena (fixed-size
 * records on stable blocks, intrusive free list) with small-buffer storage
 * (InlineFn), and the ready order is kept in a 4-ary min-heap of POD
 * {when, seq, slot} entries indexing into the arena (half the sift depth
 * of a binary heap, and the four children of a node share two cache
 * lines). Steady-state scheduling therefore performs zero heap
 * allocations: pushing an event is a slot pop + in-place callable
 * construction + a heap sift over 24-byte entries, and dispatch never
 * moves a callable (slots are invoked in place). Captures larger than the
 * inline buffer fall back to the heap and are counted in
 * EngineProfile::heap_callbacks so the zero-alloc contract stays
 * observable. The (when, seq) comparator is a strict total order, so the
 * dispatch sequence is independent of heap arity or layout.
 *
 * Tie-break numbers can be reserved ahead of scheduling (reserveSeq): a
 * driver that chains a stream of future events (open-loop arrivals) takes
 * one number per event up front and schedules each under its number only
 * when its predecessor fires. The event then orders exactly as if it had
 * been scheduled at reservation time, so the heap holds in-flight work
 * instead of the whole stream and the dispatch order does not change.
 *
 * The engine carries lightweight profiling hooks for the simulator's own
 * performance (not the simulated system's): every event carries a subsystem
 * tag, per-tag counters are always maintained (two array increments), and
 * when profiling is explicitly enabled the engine additionally wall-clocks
 * each callback so bench_sim_throughput can attribute host time to
 * subsystems. Tags never affect ordering — the schedule is byte-identical
 * with or without them.
 */
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.h"
#include "sim/time.h"

namespace dri::sim {

/**
 * Callback invoked when an event fires. The inline capacity covers every
 * closure the serving hot path schedules (pooled pointers, ids, a few
 * scalars); anything larger heap-allocates once and is counted.
 */
using EventFn = InlineFn<120>;

/**
 * Subsystem tag attached to every scheduled event, for profiling
 * attribution. Untagged is the default for call sites that predate (or
 * don't care about) profiling.
 */
enum EventTag : std::uint8_t
{
    kEvUntagged = 0,
    kEvMainCompute,   //!< main-shard dense compute / serde busy blocks
    kEvSparseCompute, //!< sparse-replica remote busy blocks
    kEvWire,          //!< network link delays
    kEvTimer,         //!< hedge / shed deadline timers
    kEvGrant,         //!< resource worker-core grants
    kEvDriver,        //!< workload replay / injection drivers
    kEvTagCount,
};

/** Short lower-case tag name (bench output). */
const char *eventTagName(EventTag tag);

/** Simulator self-profile, collected by the engine. */
struct EngineProfile
{
    std::uint64_t scheduled = 0;    //!< events ever scheduled (+ reserved)
    std::uint64_t executed = 0;     //!< events ever executed
    std::size_t peak_pending = 0;   //!< high-water mark of the queue
    std::int64_t wall_ns = 0;       //!< host time inside callbacks (profiling on)
    std::array<std::uint64_t, kEvTagCount> tag_events{};
    std::array<std::int64_t, kEvTagCount> tag_wall_ns{};
    std::uint64_t heap_callbacks = 0; //!< captures too big for the inline buffer
    std::uint64_t arena_blocks = 0;   //!< slot blocks ever allocated
};

/**
 * The event queue and simulated clock.
 *
 * Usage: schedule work with schedule()/scheduleAt(), then run() until the
 * queue drains (or runUntil() for bounded horizons). Event callbacks may
 * schedule further events; the engine is single-threaded by design.
 */
class Engine
{
  public:
    Engine() = default;

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule fn to fire after the given (non-negative) delay. */
    template <class F>
    void
    schedule(Duration delay, F &&fn)
    {
        schedule(delay, kEvUntagged, std::forward<F>(fn));
    }

    /** Schedule fn at an absolute time >= now(). */
    template <class F>
    void
    scheduleAt(SimTime when, F &&fn)
    {
        scheduleAt(when, kEvUntagged, std::forward<F>(fn));
    }

    /** Tagged variants: attribute the event to a subsystem. */
    template <class F>
    void
    schedule(Duration delay, EventTag tag, F &&fn)
    {
        assert(delay >= 0);
        scheduleAt(now_ + delay, tag, std::forward<F>(fn));
    }

    /**
     * Construct the callable directly inside a pooled slot — the hot path.
     */
    template <class F>
    void
    scheduleAt(SimTime when, EventTag tag, F &&fn)
    {
        const std::uint32_t slot = allocSlot();
        if (!slotAt(slot).fn.emplace(std::forward<F>(fn)))
            ++heap_callbacks_;
        pushEntry(when, tag, slot, next_seq_++);
    }

    /**
     * Take n consecutive tie-break numbers and return the first. They
     * count as scheduled in profile() at once, whether or not an event is
     * later scheduled under them.
     */
    std::uint64_t
    reserveSeq(std::uint64_t n)
    {
        const std::uint64_t first = next_seq_;
        next_seq_ += n;
        return first;
    }

    /**
     * Schedule fn at `when` under a number taken by reserveSeq(): it runs
     * after every event at `when` scheduled before the reservation and
     * before every one scheduled after it. Each number carries one event.
     * Throws std::logic_error for a number that was never reserved.
     */
    template <class F>
    void
    scheduleAt(SimTime when, EventTag tag, std::uint64_t seq, F &&fn)
    {
        if (seq >= next_seq_)
            throwUnreserved(seq);
        const std::uint32_t slot = allocSlot();
        if (!slotAt(slot).fn.emplace(std::forward<F>(fn)))
            ++heap_callbacks_;
        pushEntry(when, tag, slot, seq);
    }

    /**
     * Exact-match overloads for an already-built EventFn (e.g. a resource
     * waiter popped from its queue): relocate the payload into the slot
     * instead of nesting one InlineFn inside another.
     */
    void
    schedule(Duration delay, EventTag tag, EventFn &&fn)
    {
        assert(delay >= 0);
        scheduleAt(now_ + delay, tag, std::move(fn));
    }

    void
    scheduleAt(SimTime when, EventTag tag, EventFn &&fn)
    {
        const std::uint32_t slot = allocSlot();
        slotAt(slot).fn = std::move(fn);
        pushEntry(when, tag, slot, next_seq_++);
    }

    /** Run until the event queue is empty. Returns events executed. */
    std::size_t run();

    /**
     * Run until the queue is empty or simulated time would exceed the
     * horizon. Events scheduled past the horizon remain queued.
     */
    std::size_t runUntil(SimTime horizon);

    /** Events currently pending. */
    std::size_t pending() const { return heap_.size(); }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Enable per-callback wall-clock timing. Off by default because a
     * clock read per event is measurable overhead; counters
     * (scheduled/executed/per-tag/peak-pending) are maintained either
     * way. On x86 the per-event timestamps are TSC reads converted with
     * a rate calibrated here (one ~100us spin, outside any timed
     * region); elsewhere they fall back to steady_clock.
     */
    void enableProfiling(bool on);
    bool profilingEnabled() const { return profiling_; }

    /**
     * Snapshot of the self-profile. Built on demand: the dispatch loop
     * accumulates raw ticks and the scheduled/executed counters live in
     * their own fields, so reading the profile (cold) pays the tick ->
     * ns conversion instead of every event (hot).
     */
    EngineProfile profile() const;

  private:
    /**
     * Ready-order entry. POD on purpose: heap sifts move 24 bytes and
     * never touch the callable, so comparator and payload can't interact
     * (the old priority_queue moved whole closures and had to const_cast
     * around top()).
     */
    struct Entry
    {
        SimTime when;
        std::uint64_t seq; //!< Insertion order; breaks timestamp ties.
        std::uint32_t slot;
        std::uint8_t tag;
    };

    /** Pooled event record; blocks are stable so invocation is in place. */
    struct Slot
    {
        EventFn fn;
        std::uint32_t next_free = kNoSlot;
    };

    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    static constexpr std::size_t kSlotsPerBlock = 256;

    static bool
    earlier(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    Slot &
    slotAt(std::uint32_t idx)
    {
        return blocks_[idx / kSlotsPerBlock][idx % kSlotsPerBlock];
    }

    std::uint32_t
    allocSlot()
    {
        if (free_head_ == kNoSlot)
            growArena();
        const std::uint32_t idx = free_head_;
        free_head_ = slotAt(idx).next_free;
        return idx;
    }

    void
    freeSlot(std::uint32_t idx)
    {
        slotAt(idx).next_free = free_head_;
        free_head_ = idx;
    }

    void
    pushEntry(SimTime when, EventTag tag, std::uint32_t slot,
              std::uint64_t seq)
    {
        assert(when >= now_);
        assert(tag < kEvTagCount);
        heap_.push_back(
            Entry{when, seq, slot, static_cast<std::uint8_t>(tag)});
        siftUp(heap_.size() - 1);
        if (heap_.size() > peak_pending_)
            peak_pending_ = heap_.size();
    }

    [[noreturn]] static void throwUnreserved(std::uint64_t seq);
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    Entry popEntry();
    void growArena();
    void dispatch(const Entry &ev);
    static std::uint64_t profileTicks();

    std::vector<Entry> heap_;
    std::vector<std::unique_ptr<Slot[]>> blocks_;
    std::uint32_t free_head_ = kNoSlot;
    SimTime now_ = 0;
    /** Next tie-break number; also the count of events ever scheduled
     *  (reserved numbers included). */
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t peak_pending_ = 0;
    bool profiling_ = false;
    double tick_ns_ = 0.0; //!< profiling tick -> ns rate (0 = uncalibrated)
    std::array<std::uint64_t, kEvTagCount> tag_events_{};
    std::array<std::uint64_t, kEvTagCount> tag_wall_ticks_{};
    std::uint64_t heap_callbacks_ = 0;
    std::uint64_t arena_blocks_ = 0;
};

} // namespace dri::sim
