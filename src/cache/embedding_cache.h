/**
 * @file
 * Byte-budgeted embedding-row caches with pluggable eviction policies
 * (Section IX's trace-driven direction: "explorations [of] table placement
 * and frequency-based caching are also valuable directions enabled with
 * trace-based analyses" — the Bandana line of work).
 *
 * An EmbeddingCache models the DRAM tier of a paged or tiered deployment:
 * rows are admitted on miss and evicted under a byte budget according to
 * the configured policy. Three policies cover the design space the
 * literature argues over for embedding traffic:
 *
 *  - LRU: recency only; the classic baseline, vulnerable to scans. Its
 *    recency list is index-linked over a recycled node arena and indexed
 *    by a flat map on packRowKey(), so a (table, row) outside that key's
 *    domain throws std::out_of_range.
 *  - LFU: frequency only; near-optimal for static Zipf popularity but slow
 *    to adapt when the hot set drifts.
 *  - TwoQueue: scan-resistant 2Q — new rows enter a small FIFO probation
 *    queue and must be re-referenced to reach the protected LRU main
 *    queue, so one-touch scans cannot flush the hot set.
 *  - Arc: adaptive replacement — two resident lists (T1 once-referenced,
 *    T2 re-referenced) plus two ghost lists (B1/B2) remembering recent
 *    evictions from each. A ghost hit shifts the adaptive target between
 *    recency and frequency, so ARC tracks whichever of LRU/LFU the live
 *    workload currently rewards without a tuning knob.
 *
 * Eviction can be composed with an AdmissionFilter (cache/admission.h):
 * the filter vetoes the admission of cold rows when the cache is under
 * byte pressure, protecting any policy's resident set from one-hit
 * wonders (the TinyLFU doorkeeper).
 *
 * Caches are purely functional simulators: they track row *identities* and
 * byte sizes, never payloads, so replaying billion-access traces is cheap.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

namespace dri::cache {

/** Eviction policy selector. */
enum class Policy
{
    Lru,
    Lfu,
    TwoQueue,
    Arc,
};

/** Human-readable policy name ("lru", "lfu", "2q", "arc"). */
std::string policyName(Policy policy);

/** Hit/miss/eviction counters. */
struct CacheStats
{
    std::int64_t accesses = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    /**
     * Misses whose admission an AdmissionFilter vetoed (the row was not
     * cached). Zero for unwrapped caches.
     */
    std::int64_t admission_rejects = 0;

    double
    hitRate() const
    {
        return accesses > 0
                   ? static_cast<double>(hits) / static_cast<double>(accesses)
                   : 0.0;
    }

    void
    merge(const CacheStats &other)
    {
        accesses += other.accesses;
        hits += other.hits;
        misses += other.misses;
        evictions += other.evictions;
        admission_rejects += other.admission_rejects;
    }
};

/**
 * Interface of a byte-budgeted (table, row) cache. Implementations are
 * obtained from makeCache(); all enforce usedBytes() <= capacityBytes()
 * after every access.
 */
class EmbeddingCache
{
  public:
    virtual ~EmbeddingCache() = default;

    /**
     * Record one access to `row` of `table`, whose stored size is
     * `row_bytes`. Returns true on hit. On miss the row is admitted (and
     * colder rows evicted until the budget holds) unless it alone exceeds
     * the whole budget, in which case it bypasses the cache.
     */
    virtual bool access(int table, std::int64_t row,
                        std::int64_t row_bytes) = 0;

    /** Whether (table, row) is currently resident. */
    virtual bool contains(int table, std::int64_t row) const = 0;

    virtual std::int64_t capacityBytes() const = 0;
    virtual std::int64_t usedBytes() const = 0;
    virtual std::size_t residentRows() const = 0;

    /**
     * Adjust the byte budget in place. Shrinking is lazy: the resident
     * set is trimmed by the next access's eviction loop (which reads the
     * budget live), not eagerly — usedBytes() may exceed the new budget
     * until then. The W-TinyLFU adaptive window uses this to shift bytes
     * between its window and main caches without flushing either.
     */
    virtual void setCapacityBytes(std::int64_t capacity_bytes) = 0;

    virtual const CacheStats &stats() const = 0;
    /** Zero the counters; resident rows are untouched (warmup support). */
    virtual void resetStats() = 0;

    /**
     * Install a callback invoked on every eviction with (table, row,
     * row_bytes) — how TieredCacheSim attributes evictions per table.
     */
    virtual void
    setEvictionHook(std::function<void(int, std::int64_t, std::int64_t)>
                        hook) = 0;

    virtual Policy policy() const = 0;

    /**
     * Bytes of evicted-row *identities* remembered by the policy's ghost
     * list(s) — 2Q's A1out, ARC's B1 + B2. Zero for policies without
     * history. Ghost entries store no payload; the byte figure is the
     * stored size of the remembered rows, the unit the ghost budgets are
     * expressed in (2Q: <= capacity/2; ARC: <= 2x capacity).
     */
    virtual std::int64_t ghostBytes() const { return 0; }
};

/**
 * Pack a (table, row) identity into one 64-bit key: table in the top 16
 * bits, row in the low 48. Throws std::out_of_range for a table outside
 * [0, 2^16) or a row outside [0, 2^48), the domain where packing is
 * collision-free.
 */
inline std::uint64_t
packRowKey(int table, std::int64_t row)
{
    constexpr std::int64_t kRowLimit = std::int64_t{1} << 48;
    if (table < 0 || table >= (1 << 16) || row < 0 || row >= kRowLimit)
        throw std::out_of_range("embedding cache key (table " +
                                std::to_string(table) + ", row " +
                                std::to_string(row) +
                                ") outside [0, 2^16) x [0, 2^48)");
    return (static_cast<std::uint64_t>(table) << 48) |
           static_cast<std::uint64_t>(row);
}

/** Construct a cache with the given policy and byte budget. */
std::unique_ptr<EmbeddingCache> makeCache(Policy policy,
                                          std::int64_t capacity_bytes);

} // namespace dri::cache
