/**
 * @file
 * Cache admission, the TinyLFU direction (Einziger et al., "TinyLFU: A
 * Highly Efficient Cache Admission Policy", ACM ToS 2017): a doorkeeper
 * decides whether a missed row is worth caching at all, independently
 * of which eviction policy manages the resident set.
 *
 * Embedding traffic is heavy-tailed: a large fraction of rows are touched
 * once and never again, and admitting them evicts rows that will be
 * re-referenced. The TinyLFU answer is a frequency-sketch doorkeeper — a
 * tiny 4-bit count-min sketch over recent accesses; a missed row is
 * admitted under byte pressure only when the sketch has seen it before.
 * Periodic halving of every counter ages the sketch, so the frequency
 * estimate tracks the recent window rather than all of history, and the
 * 4-bit width keeps estimates bounded regardless of trace length.
 *
 * makeCacheWithAdmission() puts the doorkeeper in front of ANY eviction
 * policy, alone (TinyLfu) or behind an LRU admission window (WTinyLfu),
 * so the policy x admission design space is a full grid (the
 * TieredCacheSim sweep).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/embedding_cache.h"

namespace dri::cache {

/** Admission-policy selector for sweeps and labels. */
enum class Admission
{
    None,
    TinyLfu,
    /** TinyLFU behind a small LRU admission window (W-TinyLFU). */
    WTinyLfu,
};

/** Human-readable admission name ("none", "tinylfu", "wtinylfu"). */
std::string admissionName(Admission admission);

/**
 * The TinyLFU doorkeeper: a 4-bit count-min sketch over packRowKey()
 * keys. Counters saturate at 15; every kSamplePeriod recorded accesses
 * all counters halve, so estimates decay toward the recent window (and
 * are bounded by construction). A cache behind it records every access,
 * hits included (frequency must count them), and asks admit() only
 * under byte pressure: while free space remains admission is
 * unconditional, so the doorkeeper can protect the resident set but
 * never starve an empty cache.
 */
class TinyLfuFilter
{
  public:
    /**
     * Counters per sketch row, a power of two. Sized like a Bloom filter:
     * a few counters per expected hot row keeps the over-estimate from
     * hash collisions small.
     */
    static constexpr std::size_t kCounters = std::size_t{1} << 16;
    /** Independent hash rows of the count-min sketch. */
    static constexpr int kDepth = 4;
    /**
     * Accesses between halvings of every counter (the aging window): the
     * classic TinyLFU sample size of 16x the counter count.
     */
    static constexpr std::uint64_t kSamplePeriod =
        static_cast<std::uint64_t>(kCounters) * 16;
    static_assert((kCounters & (kCounters - 1)) == 0,
                  "slots are masked with kCounters - 1");

    TinyLfuFilter();

    /** Record one access to the row packed as `key`. */
    void onAccess(std::uint64_t key);

    /** Current sketch estimate for `key`; <= 15 by construction. */
    int estimate(std::uint64_t key) const;

    /** Is a missed row worth an eviction: seen twice in the window? */
    bool admit(std::uint64_t key) const;

    /** Halvings performed so far (one per elapsed sample period). */
    std::uint64_t agings() const { return agings_; }

  private:
    /** Counter index of `key` in hash row i (row-major). */
    static std::size_t slotFor(std::uint64_t key, int i);
    int counterAt(std::size_t slot) const;

    std::uint64_t accesses_ = 0; //!< since the last halving
    std::uint64_t agings_ = 0;
    /** Packed 4-bit counters, two per byte, kDepth rows concatenated. */
    std::vector<std::uint8_t> sketch_;
};

/**
 * A cache of `policy` behind `admission` (grid sweeps). For
 * Admission::WTinyLfu the byte budget is split between the window and the
 * main cache per admission.cc's kWindowFraction, so every admission
 * variant competes at the identical total budget; a budget of zero or
 * below gives an empty window, as it gives every variant no room.
 */
std::unique_ptr<EmbeddingCache>
makeCacheWithAdmission(Policy policy, std::int64_t capacity_bytes,
                       Admission admission);

} // namespace dri::cache
