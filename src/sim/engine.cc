#include "sim/engine.h"

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

void
Engine::throwPast(SimTime when) const
{
    throw std::logic_error("Engine: event at " + std::to_string(when) +
                           " ns scheduled before now (" +
                           std::to_string(now_) + " ns)");
}

void
Engine::fileTie(std::uint32_t idx, Slot &s)
{
    // Fresh numbers are the largest yet (append), and refiling a
    // LIFO bucket yields descending ones (prepend); only a reserved
    // number can land in between.
    if (head_[0] == kNoSlot) {
        s.next = kNoSlot;
        head_[0] = tail0_ = idx;
    } else if (s.seq > slotAt(tail0_).seq) {
        s.next = kNoSlot;
        slotAt(tail0_).next = idx;
        tail0_ = idx;
    } else {
        std::uint32_t *link = &head_[0];
        while (slotAt(*link).seq < s.seq)
            link = &slotAt(*link).next;
        s.next = *link;
        *link = idx;
    }
}

std::uint32_t
Engine::popEntry()
{
    --pending_;
    if (head_[0] == kNoSlot) {
        // Advance last_ to the lowest non-empty bucket's minimum. Its
        // entries agree with that minimum above bit b-1, so each refiles
        // into a bucket below b; the buckets above keep their index.
        const auto b = static_cast<unsigned>(__builtin_ctzll(nonempty_));
        const std::uint32_t first = head_[b];
        head_[b] = kNoSlot;
        nonempty_ &= nonempty_ - 1;
        last_ = min_[b];
        if (slotAt(first).next == kNoSlot)
            return first;
        for (std::uint32_t idx = first; idx != kNoSlot;) {
            Slot &s = slotAt(idx);
            const std::uint32_t next = s.next;
            file(idx, s);
            idx = next;
        }
    }
    const std::uint32_t idx = head_[0];
    head_[0] = slotAt(idx).next;
    return idx;
}

void
Engine::growArena()
{
    const std::size_t block = blocks_.size();
    if (block * kSlotsPerBlock >= kNoSlot - kSlotsPerBlock)
        throw std::length_error("Engine: more than " +
                                std::to_string(kNoSlot - kSlotsPerBlock) +
                                " events pending");
    blocks_.push_back(std::make_unique<EventFn[]>(kSlotsPerBlock));
    const auto base = static_cast<std::uint32_t>(block * kSlotsPerBlock);
    slots_.resize(base + kSlotsPerBlock);
    for (std::uint32_t i = base; i + 1 < base + kSlotsPerBlock; ++i)
        slots_[i].next = i + 1;
    slots_.back().next = kNoSlot;
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
Engine::dispatch(std::uint32_t idx)
{
    // Read the record first: a callback that grows the arena moves slots_.
    now_ = slotAt(idx).when;
    const std::uint8_t tag = slotAt(idx).tag;
    ++tag_events_[tag];
    // Invoke in place: callable blocks are stable, so the callback may
    // schedule (growing the arena) without invalidating its own frame, and
    // its slot stays off the free list until it returns. invokeAndReset
    // fuses call + destruction into one indirect call, and the profiled
    // path banks raw ticks (converted to ns at profile() time, off the hot
    // loop).
    EventFn &fn = fnAt(idx);
    if (profiling_) {
        const std::uint64_t c0 = profileTicks();
        fn.invokeAndReset();
        const std::uint64_t c1 = profileTicks();
        tag_wall_ticks_[tag] += c1 - c0;
    } else {
        fn.invokeAndReset();
    }
    freeSlot(idx);
    ++executed_;
}

std::size_t
Engine::run()
{
    std::size_t n = 0;
    while (pending_ != 0) {
        dispatch(popEntry());
        ++n;
    }
    return n;
}

std::size_t
Engine::runUntil(SimTime horizon)
{
    // The peek reads a bucket minimum without refiling: last_ moves only
    // on dispatch, so it never passes now_ and a later scheduleAt(now())
    // still files at or above it.
    std::size_t n = 0;
    while (pending_ != 0 && nextWhen() <= horizon) {
        dispatch(popEntry());
        ++n;
    }
    if (now_ < horizon)
        now_ = horizon;
    return n;
}

} // namespace dri::sim
