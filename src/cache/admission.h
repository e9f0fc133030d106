/**
 * @file
 * Composable cache-admission control (the TinyLFU direction): an
 * AdmissionFilter decides whether a missed row is worth caching at all,
 * independently of which eviction policy manages the resident set.
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
 * withAdmission() wraps ANY EmbeddingCache in a filter, so the policy x
 * admission design space is a full grid (the TieredCacheSim sweep).
 */
#pragma once

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
 * Interface of an admission policy. Implementations observe every access
 * (hits included — frequency must count them) and veto the admission of
 * cold rows when caching them would force evictions.
 */
class AdmissionFilter
{
  public:
    virtual ~AdmissionFilter() = default;

    /** Record one access to (table, row); called for hits and misses. */
    virtual void onAccess(int table, std::int64_t row) = 0;

    /**
     * Should a missed row be admitted? Consulted only when the cache is
     * under byte pressure (admitting would evict); when free space
     * remains, admission is unconditional — a filter can only ever
     * protect the resident set, not starve an empty cache.
     */
    virtual bool admit(int table, std::int64_t row,
                       std::int64_t row_bytes) = 0;

    virtual std::string name() const = 0;
};

/**
 * 4-bit count-min sketch doorkeeper. Counters saturate at 15; every
 * kSamplePeriod recorded accesses all counters halve, so estimates decay
 * toward the recent window (and are bounded by construction).
 */
class TinyLfuFilter : public AdmissionFilter
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

    void onAccess(int table, std::int64_t row) override;
    bool admit(int table, std::int64_t row,
               std::int64_t row_bytes) override;
    std::string name() const override { return "tinylfu"; }

    /** Current sketch estimate for (table, row); <= 15 by construction. */
    int estimate(int table, std::int64_t row) const;

    /** Halvings performed so far (one per elapsed sample period). */
    std::uint64_t agings() const { return agings_; }

  private:
    /** Counter index of (table, row) in hash row i (row-major). */
    static std::size_t slotFor(int table, std::int64_t row, int i);
    int counterAt(std::size_t slot) const;

    std::uint64_t accesses_ = 0; //!< since the last halving
    std::uint64_t agings_ = 0;
    /** Packed 4-bit counters, two per byte, kDepth rows concatenated. */
    std::vector<std::uint8_t> sketch_;
};

/** Construct a TinyLFU doorkeeper. */
std::unique_ptr<TinyLfuFilter> makeTinyLfu();

/**
 * Wrap a cache in a W-TinyLFU admission window: `inner` (already sized to
 * the *main* budget) receives only rows evicted from the window that pass
 * the doorkeeper; an LRU window of total_bytes - inner capacity absorbs
 * first-touch rows. The composite holds its *total* byte budget constant
 * while the adaptive climber shifts bytes between window and main.
 */
std::unique_ptr<EmbeddingCache>
withWindowedAdmission(std::unique_ptr<EmbeddingCache> inner,
                      std::int64_t window_bytes,
                      std::shared_ptr<AdmissionFilter> filter);

/**
 * Wrap a cache in an admission filter. The wrapper delegates residency
 * and budget bookkeeping to the inner cache and keeps its own counters:
 * a vetoed miss counts as a miss (and an admission_reject) but inserts
 * nothing. Passing a null filter returns the inner cache unchanged.
 */
std::unique_ptr<EmbeddingCache>
withAdmission(std::unique_ptr<EmbeddingCache> inner,
              std::shared_ptr<AdmissionFilter> filter);

/**
 * makeCache + optional admission wrap in one step (grid sweeps). For
 * Admission::WTinyLfu the byte budget is split between the window and the
 * main cache per admission.cc's kWindowFraction, so every admission
 * variant competes at the identical total budget.
 */
std::unique_ptr<EmbeddingCache>
makeCacheWithAdmission(Policy policy, std::int64_t capacity_bytes,
                       Admission admission);

} // namespace dri::cache
