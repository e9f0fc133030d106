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
 *  - LRU: recency only; the classic baseline, vulnerable to scans.
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
 * Any policy can sit behind the TinyLFU doorkeeper (cache/admission.h,
 * makeCacheWithAdmission): it vetoes the admission of cold rows when the
 * cache is under byte pressure, protecting the resident set from
 * one-hit wonders.
 *
 * Caches are purely functional simulators: they track row *identities* and
 * byte sizes, never payloads, so replaying billion-access traces is cheap.
 *
 * Rows are numbered. A cache takes a row only as a RowRef: its dense id
 * in the cache's row space plus its packRowKey(). Every policy keeps its
 * lists on one stats::ListArena whose node i is row i, resident or
 * ghost, so finding a row is an array index, not a hash probe. The
 * cache never numbers a row itself: whoever owns the row identities
 * numbers them, with one RowNumbering (or, for the streamed per-shard
 * build, by sorting a rank histogram; core/trace_slicing.h), and must
 * keep one key under one id. The admission wrappers (cache/admission.h)
 * pass their RowRefs on unchanged, so a W-TinyLFU window and main cache
 * share one id space.
 *
 * Memory: a cache keeps one node per id up to the largest it has seen
 * (8 bytes of list links plus 12 of key and stored size; LFU adds its
 * count), so its node store is sized by the distinct rows numbered, not
 * by the rows resident. Every caller bounds that: a trace replay by the
 * trace's row footprint, the streamed per-shard build
 * (core/trace_slicing.h) by tables x workload::kPopularityRanks ranks.
 * A node holds a row's stored size in 32 bits, so access() throws
 * std::out_of_range for row_bytes outside [0, 2^32).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "stats/flat_hash.h"
#include "stats/hash.h"

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
     * Misses whose admission the TinyLFU doorkeeper vetoed (the row was
     * not cached; cache/admission.h). Zero without admission.
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

/**
 * A numbered row: `id` is dense in the cache's row space (node `id` of
 * the policy's arena holds it), `key` is packRowKey(table, row). One
 * cache must always see the same key under the same id.
 */
struct RowRef
{
    std::uint32_t id;
    std::uint64_t key;

    int table() const { return static_cast<int>(key >> 48); }
    std::int64_t
    row() const
    {
        return static_cast<std::int64_t>(key & ((std::uint64_t{1} << 48) - 1));
    }
};

/**
 * Dense row numbers for one row space: the first row number() sees is
 * id 0, the next new one id 1, and a row keeps its id. One insert-only
 * flat map on packRowKey() holds them.
 */
class RowNumbering
{
  public:
    /**
     * The RowRef of (table, row), numbering it with the next free id if
     * it is new. Throws std::out_of_range outside packRowKey()'s domain,
     * numbering nothing.
     */
    RowRef
    number(int table, std::int64_t row)
    {
        const std::uint64_t key = packRowKey(table, row);
        return RowRef{
            ids_.tryEmplace(key, static_cast<std::uint32_t>(ids_.size())),
            key};
    }

    /**
     * The RowRef of (table, row) if it is numbered; numbers nothing.
     * Throws std::out_of_range like number().
     */
    std::optional<RowRef>
    find(int table, std::int64_t row) const
    {
        const std::uint64_t key = packRowKey(table, row);
        if (const std::uint32_t *id = ids_.find(key))
            return RowRef{*id, key};
        return std::nullopt;
    }

  private:
    stats::FlatHashMap<std::uint64_t, std::uint32_t, stats::Mix64Hash> ids_;
};

/**
 * Interface of a byte-budgeted cache of numbered rows. Implementations
 * are obtained from makeCache(); all enforce usedBytes() <=
 * capacityBytes() after every access.
 */
class EmbeddingCache
{
  public:
    /** Called on every eviction with the victim and its stored bytes. */
    using EvictionHook = std::function<void(RowRef, std::int64_t)>;

    virtual ~EmbeddingCache() = default;

    /**
     * Record one access to `row`, whose stored size is `row_bytes`.
     * Returns true on hit. On miss the row is admitted (and colder rows
     * evicted until the budget holds) unless it alone exceeds the whole
     * budget, in which case it bypasses the cache. Throws
     * std::out_of_range for row_bytes outside [0, 2^32), counting
     * nothing.
     */
    bool
    access(RowRef row, std::int64_t row_bytes)
    {
        checkRowBytes(row_bytes);
        return accessRow(row, row_bytes);
    }

    /** Whether `row` is currently resident. */
    virtual bool contains(RowRef row) const = 0;

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

    /**
     * Sizing hint: allocate the policy's node store once for `rows`
     * distinct numbered rows (ids 0..rows-1), instead of growing it by
     * doubling as ids arrive. Changes no hit, miss or eviction; a cache
     * that sees more rows grows as before.
     */
    virtual void reserve(std::size_t rows) = 0;

    virtual const CacheStats &stats() const = 0;
    /** Zero the counters; resident rows are untouched (warmup support). */
    virtual void resetStats() = 0;

    /**
     * Install a callback invoked on every eviction with the victim and
     * its stored bytes — how callers attribute evictions per table.
     */
    void setEvictionHook(EvictionHook hook) { hook_ = std::move(hook); }

    /**
     * Bytes of evicted-row *identities* remembered by the policy's ghost
     * list(s) — 2Q's A1out, ARC's B1 + B2. Zero for policies without
     * history. Ghost entries store no payload; the byte figure is the
     * stored size of the remembered rows, the unit the ghost budgets are
     * expressed in (2Q: <= capacity/2; ARC: <= 2x capacity).
     */
    virtual std::int64_t ghostBytes() const { return 0; }

  protected:
    /** The policy's access, after access() checked row_bytes. */
    virtual bool accessRow(RowRef row, std::int64_t row_bytes) = 0;

    /** Report the eviction of `row`, `bytes` large, to the hook. */
    void
    evicted(RowRef row, std::int64_t bytes) const
    {
        if (hook_)
            hook_(row, bytes);
    }

  private:
    /** Throws std::out_of_range for row_bytes outside [0, 2^32). */
    static void
    checkRowBytes(std::int64_t row_bytes)
    {
        if (row_bytes < 0 || row_bytes > 0xffffffffLL)
            rowBytesOutOfRange(row_bytes);
    }
    [[noreturn]] static void rowBytesOutOfRange(std::int64_t row_bytes);

    EvictionHook hook_;
};

/** Construct a cache with the given policy and byte budget. */
std::unique_ptr<EmbeddingCache> makeCache(Policy policy,
                                          std::int64_t capacity_bytes);

} // namespace dri::cache
