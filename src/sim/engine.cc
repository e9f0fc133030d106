#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define DRI_SIM_HAVE_TSC 1
#endif

namespace dri::sim {

namespace {

inline std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

const char *
eventTagName(EventTag tag)
{
    switch (tag) {
    case kEvUntagged: return "untagged";
    case kEvMainCompute: return "main_compute";
    case kEvSparseCompute: return "sparse_compute";
    case kEvWire: return "wire";
    case kEvTimer: return "timer";
    case kEvGrant: return "grant";
    case kEvDriver: return "driver";
    case kEvTagCount: break;
    }
    return "invalid";
}

void
Engine::throwUnreserved(std::uint64_t seq)
{
    throw std::logic_error("Engine: tie-break number " +
                           std::to_string(seq) + " was never reserved");
}

// Heap arity. Four halves the sift depth of a binary heap and keeps each
// node's children within two cache lines of 24-byte entries; the strict
// (when, seq) total order makes the pop sequence identical either way.
static constexpr std::size_t kHeapArity = 4;

void
Engine::siftUp(std::size_t i)
{
    Entry e = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / kHeapArity;
        if (!earlier(e, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

void
Engine::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    Entry e = heap_[i];
    for (;;) {
        const std::size_t first = kHeapArity * i + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + kHeapArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (earlier(heap_[c], heap_[best]))
                best = c;
        if (!earlier(heap_[best], e))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = e;
}

Engine::Entry
Engine::popEntry()
{
    const Entry top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);
    return top;
}

void
Engine::growArena()
{
    const std::size_t block = blocks_.size();
    assert(block * kSlotsPerBlock < kNoSlot - kSlotsPerBlock);
    blocks_.push_back(std::make_unique<Slot[]>(kSlotsPerBlock));
    Slot *slots = blocks_.back().get();
    const std::uint32_t base =
        static_cast<std::uint32_t>(block * kSlotsPerBlock);
    for (std::size_t i = 0; i < kSlotsPerBlock; ++i)
        slots[i].next_free = (i + 1 < kSlotsPerBlock)
                                 ? base + static_cast<std::uint32_t>(i) + 1
                                 : kNoSlot;
    free_head_ = base;
    ++arena_blocks_;
}

EngineProfile
Engine::profile() const
{
    EngineProfile p;
    p.scheduled = next_seq_;
    p.executed = executed_;
    p.peak_pending = peak_pending_;
    p.tag_events = tag_events_;
    p.heap_callbacks = heap_callbacks_;
    p.arena_blocks = arena_blocks_;
    // wall_ns is the sum of the converted per-tag values (not a separately
    // converted total), so the tag breakdown partitions it exactly.
    for (std::size_t t = 0; t < kEvTagCount; ++t) {
        p.tag_wall_ns[t] = static_cast<std::int64_t>(
            static_cast<double>(tag_wall_ticks_[t]) * tick_ns_);
        p.wall_ns += p.tag_wall_ns[t];
    }
    return p;
}

std::uint64_t
Engine::profileTicks()
{
#ifdef DRI_SIM_HAVE_TSC
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(steadyNowNs());
#endif
}

void
Engine::enableProfiling(bool on)
{
    profiling_ = on;
    if (!on || tick_ns_ != 0.0)
        return;
#ifdef DRI_SIM_HAVE_TSC
    // Calibrate the TSC -> ns rate against steady_clock over a short
    // spin. Runs once, at enable time, so the cost never lands inside a
    // profiled region. Constant-rate TSC makes a single window enough
    // for the informational wall_ns fields.
    const std::int64_t t0 = steadyNowNs();
    const std::uint64_t c0 = profileTicks();
    std::int64_t t1;
    do {
        t1 = steadyNowNs();
    } while (t1 - t0 < 100000);
    const std::uint64_t c1 = profileTicks();
    tick_ns_ = c1 > c0
                   ? static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0)
                   : 1.0;
#else
    tick_ns_ = 1.0; // profileTicks() already returns nanoseconds
#endif
}

void
Engine::dispatch(const Entry &ev)
{
    now_ = ev.when;
    ++tag_events_[ev.tag];
    // Invoke in place: slot blocks are stable, so the callback may schedule
    // (growing the arena or the heap) without invalidating its own frame.
    // invokeAndReset fuses call + destruction into one indirect call, and
    // the profiled path banks raw ticks (converted to ns at profile()
    // time, off the hot loop).
    EventFn &fn = slotAt(ev.slot).fn;
    if (profiling_) {
        const std::uint64_t c0 = profileTicks();
        fn.invokeAndReset();
        const std::uint64_t c1 = profileTicks();
        tag_wall_ticks_[ev.tag] += c1 - c0;
    } else {
        fn.invokeAndReset();
    }
    freeSlot(ev.slot);
    ++executed_;
}

std::size_t
Engine::run()
{
    std::size_t n = 0;
    while (!heap_.empty()) {
        const Entry ev = popEntry();
        dispatch(ev);
        ++n;
    }
    return n;
}

std::size_t
Engine::runUntil(SimTime horizon)
{
    std::size_t n = 0;
    while (!heap_.empty() && heap_.front().when <= horizon) {
        const Entry ev = popEntry();
        dispatch(ev);
        ++n;
    }
    if (now_ < horizon)
        now_ = horizon;
    return n;
}

} // namespace dri::sim
