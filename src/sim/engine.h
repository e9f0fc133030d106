/**
 * @file
 * Minimal deterministic discrete-event engine.
 *
 * The serving substrate (servers, links, RPC services) is modelled as events
 * on a single queue. Ties are broken by insertion order, so a given seed
 * always produces the identical schedule regardless of host platform.
 *
 * Performance shape: callbacks live in a pooled arena of small-buffer
 * callables (InlineFn) on stable blocks, and the ready order is a
 * monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990).
 * Simulated time never goes back, so an event is filed in bucket
 * bitlen(when ^ last), where `last` is the time of the most recently
 * dispatched event: bucket b holds the events that first differ from
 * `last` at bit b-1. Bucket 0 (when == last) is kept sorted by
 * tie-break number; every other bucket is an unordered list that tracks
 * its minimum `when`. A pop from an empty bucket 0 takes the lowest
 * non-empty bucket: a one-entry bucket is dispatched directly, a larger
 * one is refiled around its minimum into strictly lower buckets, so each
 * event moves at most 63 times in its life. The lists (and the arena's
 * free list) are threaded through 24-byte {when, seq, next, tag}
 * records, one per arena slot in one contiguous array, so the queue's
 * storage grows only with the arena and steady-state scheduling
 * performs zero heap allocations: pushing an event is a slot pop +
 * in-place callable construction + an O(1) link, and dispatch never
 * moves a callable (slots are invoked in place). Captures larger than
 * the inline buffer fall back to the heap and are counted in
 * EngineProfile::heap_callbacks so the zero-alloc contract stays
 * observable. The (when, seq) order is a strict total order, so the
 * dispatch sequence is independent of the queue's layout.
 *
 * Tie-break numbers can be reserved ahead of scheduling (reserveSeq): a
 * driver that chains a stream of future events (open-loop arrivals) takes
 * one number per event up front and schedules each under its number only
 * when its predecessor fires. The event then orders exactly as if it had
 * been scheduled at reservation time, so the queue holds in-flight work
 * instead of the whole stream and the dispatch order does not change.
 *
 * The engine carries lightweight profiling hooks for the simulator's own
 * performance (not the simulated system's): every event carries a subsystem
 * tag, per-tag counters are always maintained (two array increments), and
 * when profiling is explicitly enabled the engine additionally wall-clocks
 * each callback so bench_e2e's profiled rep (`--trace 1`) can attribute
 * host time to subsystems. Tags never affect ordering — the schedule is
 * byte-identical with or without them.
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

    /**
     * Schedule fn to fire after the given (non-negative) delay. Every
     * schedule call throws std::logic_error, and queues nothing, for a
     * time before now(): a negative delay or a past absolute time.
     */
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
        scheduleAt(now_ + delay, tag, std::forward<F>(fn));
    }

    /**
     * Construct the callable directly inside a pooled slot — the hot path.
     */
    template <class F>
    void
    scheduleAt(SimTime when, EventTag tag, F &&fn)
    {
        checkWhen(when);
        const std::uint32_t slot = allocSlot();
        if (!fnAt(slot).emplace(std::forward<F>(fn)))
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
        checkWhen(when);
        const std::uint32_t slot = allocSlot();
        if (!fnAt(slot).emplace(std::forward<F>(fn)))
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
        scheduleAt(now_ + delay, tag, std::move(fn));
    }

    void
    scheduleAt(SimTime when, EventTag tag, EventFn &&fn)
    {
        checkWhen(when);
        const std::uint32_t slot = allocSlot();
        fnAt(slot) = std::move(fn);
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
    std::size_t pending() const { return pending_; }

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
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    static constexpr std::size_t kSlotsPerBlock = 256;
    /** bitlen(when ^ last_) of two non-negative SimTimes is at most 63. */
    static constexpr unsigned kBuckets = 64;

    /**
     * Queue record of a pooled event: `next` links it into the free list
     * or into its bucket.
     */
    struct Slot
    {
        SimTime when = 0;
        std::uint64_t seq = 0; //!< Tie-break number: insertion order.
        std::uint32_t next = kNoSlot;
        std::uint8_t tag = kEvUntagged;
    };

    Slot &slotAt(std::uint32_t idx) { return slots_[idx]; }

    EventFn &
    fnAt(std::uint32_t idx)
    {
        return blocks_[idx / kSlotsPerBlock][idx % kSlotsPerBlock];
    }

    std::uint32_t
    allocSlot()
    {
        if (free_head_ == kNoSlot)
            growArena();
        const std::uint32_t idx = free_head_;
        free_head_ = slotAt(idx).next;
        return idx;
    }

    void
    freeSlot(std::uint32_t idx)
    {
        slotAt(idx).next = free_head_;
        free_head_ = idx;
    }

    void
    checkWhen(SimTime when) const
    {
        if (when < now_)
            throwPast(when);
    }

    /** Radix bucket of `when` relative to the last dispatched time. */
    unsigned
    bucketOf(SimTime when) const
    {
        const auto x = static_cast<std::uint64_t>(when ^ last_);
        return x == 0 ? 0u : 64u - static_cast<unsigned>(__builtin_clzll(x));
    }

    void
    pushEntry(SimTime when, EventTag tag, std::uint32_t idx,
              std::uint64_t seq)
    {
        assert(tag < kEvTagCount);
        Slot &s = slotAt(idx);
        s.when = when;
        s.seq = seq;
        s.tag = static_cast<std::uint8_t>(tag);
        file(idx, s);
        if (++pending_ > peak_pending_)
            peak_pending_ = pending_;
    }

    /** Link a queued slot into its bucket (O(1) except a bucket-0 tie
     *  whose number lands between two queued ones). */
    void
    file(std::uint32_t idx, Slot &s)
    {
        const unsigned b = bucketOf(s.when);
        if (b == 0) {
            fileTie(idx, s);
            return;
        }
        const std::uint64_t bit = std::uint64_t{1} << b;
        if (!(nonempty_ & bit)) {
            nonempty_ |= bit;
            min_[b] = s.when;
        } else if (s.when < min_[b]) {
            min_[b] = s.when;
        }
        s.next = head_[b];
        head_[b] = idx;
    }

    /** Time of the earliest pending event; pending_ must be non-zero. */
    SimTime
    nextWhen() const
    {
        return head_[0] != kNoSlot
                   ? last_
                   : min_[static_cast<unsigned>(__builtin_ctzll(nonempty_))];
    }

    [[noreturn]] static void throwUnreserved(std::uint64_t seq);
    [[noreturn]] void throwPast(SimTime when) const;
    void fileTie(std::uint32_t idx, Slot &s);
    std::uint32_t popEntry();
    void growArena();
    void dispatch(std::uint32_t idx);
    static std::uint64_t profileTicks();

    /** Bucket list heads; bucket 0 is sorted by seq, the rest unordered. */
    std::array<std::uint32_t, kBuckets> head_ = [] {
        std::array<std::uint32_t, kBuckets> h{};
        h.fill(kNoSlot);
        return h;
    }();
    std::uint32_t tail0_ = kNoSlot;   //!< last slot of bucket 0
    std::array<SimTime, kBuckets> min_{}; //!< per-bucket minimum `when`
    std::uint64_t nonempty_ = 0;      //!< bit b: bucket b > 0 is non-empty
    SimTime last_ = 0;                //!< time of the last dispatched event
    std::size_t pending_ = 0;
    /** Queue records, one per arena slot; contiguous so a bucket walk
     *  strides 24-byte records. Grows only with the arena, which moves
     *  it: no reference into it is held across allocSlot(). */
    std::vector<Slot> slots_;
    /** Callables on stable blocks, so invocation is in place. */
    std::vector<std::unique_ptr<EventFn[]>> blocks_;
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
