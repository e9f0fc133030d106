#include "cache/embedding_cache.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

#include "stats/list_arena.h"

namespace dri::cache {

void
EmbeddingCache::rowBytesOutOfRange(std::int64_t row_bytes)
{
    throw std::out_of_range("embedding cache row_bytes " +
                            std::to_string(row_bytes) +
                            " outside [0, 2^32)");
}

namespace {

/**
 * What a policy keeps of a row: its key and stored size, in 12 bytes.
 * Every numbered row has a node, resident or not, so the record packs
 * the key as two 32-bit halves (no padding to 8-byte alignment) and the
 * size in 32 bits (access() rejects larger rows).
 */
struct RowRecord
{
    std::uint32_t key_lo = 0;
    std::uint32_t key_hi = 0;
    std::uint32_t bytes = 0;

    RowRecord() = default;
    RowRecord(std::uint64_t key, std::int64_t row_bytes)
        : key_lo(static_cast<std::uint32_t>(key)),
          key_hi(static_cast<std::uint32_t>(key >> 32)),
          bytes(static_cast<std::uint32_t>(row_bytes))
    {
    }

    /** The row as numbered `id`. */
    RowRef
    ref(std::uint32_t id) const
    {
        return RowRef{id, (std::uint64_t{key_hi} << 32) | key_lo};
    }
};

/** Shared budget/stats plumbing. */
class CacheBase : public EmbeddingCache
{
  public:
    explicit CacheBase(std::int64_t capacity_bytes)
        : capacity_(capacity_bytes > 0 ? capacity_bytes : 0)
    {
    }

    std::int64_t capacityBytes() const override { return capacity_; }
    std::int64_t usedBytes() const override { return used_; }
    const CacheStats &stats() const override { return stats_; }
    void resetStats() override { stats_ = CacheStats{}; }

    void
    setCapacityBytes(std::int64_t capacity_bytes) override
    {
        // Lazy shrink: every eviction loop reads capacity_ live, so the
        // resident set trims itself on the next insert.
        capacity_ = capacity_bytes > 0 ? capacity_bytes : 0;
    }

  protected:
    /** Account the eviction of row `id`, recorded as `rec`. */
    void
    evict(std::uint32_t id, const RowRecord &rec)
    {
        used_ -= rec.bytes;
        ++stats_.evictions;
        evicted(rec.ref(id), rec.bytes);
    }

    std::int64_t capacity_ = 0;
    std::int64_t used_ = 0;
    CacheStats stats_;
};

// ---------------------------------------------------------------------------
// LRU: one recency list over a stats::ListArena, evict the back. Node
// i is row i; a row is resident while its node is on the list.
// ---------------------------------------------------------------------------
class LruCache : public CacheBase
{
  public:
    using CacheBase::CacheBase;

    std::size_t residentRows() const override { return lru_.size; }
    void reserve(std::size_t rows) override { rows_.reserve(rows); }

    bool
    contains(RowRef row) const override
    {
        return rows_.linked(row.id);
    }

  protected:
    bool
    accessRow(RowRef row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        if (rows_.linked(row.id)) {
            ++stats_.hits;
            rows_.touch(lru_, row.id);
            return true;
        }
        ++stats_.misses;
        if (row_bytes > capacity_)
            return false; // unadmittable: larger than the whole budget
        while (used_ + row_bytes > capacity_ && !lru_.empty()) {
            const std::uint32_t id = lru_.back;
            rows_.unlink(lru_, id);
            evict(id, rows_[id]);
        }
        rows_.growTo(std::size_t{row.id} + 1);
        rows_[row.id] = RowRecord(row.key, row_bytes);
        rows_.pushFront(lru_, row.id);
        used_ += row_bytes;
        return false;
    }

  private:
    stats::ListArena<RowRecord> rows_;
    stats::ListArena<RowRecord>::List lru_; //!< front = most recently used
};

// ---------------------------------------------------------------------------
// LFU: frequency buckets; evict the least-recently-used entry of the
// least-frequent bucket (classic O(1) LFU with an ordered bucket map).
// Node i is row i; a row is resident while its node is on a bucket.
// ---------------------------------------------------------------------------
class LfuCache : public CacheBase
{
  public:
    using CacheBase::CacheBase;

    std::size_t
    residentRows() const override
    {
        std::size_t rows = 0;
        for (const auto &bucket : buckets_)
            rows += bucket.second.size;
        return rows;
    }

    void reserve(std::size_t rows) override { rows_.reserve(rows); }

    bool
    contains(RowRef row) const override
    {
        return rows_.linked(row.id);
    }

  protected:
    bool
    accessRow(RowRef row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        if (rows_.linked(row.id)) {
            ++stats_.hits;
            bump(row.id);
            return true;
        }
        ++stats_.misses;
        if (row_bytes > capacity_)
            return false;
        while (used_ + row_bytes > capacity_)
            evictColdest();
        rows_.growTo(std::size_t{row.id} + 1);
        rows_[row.id] = Row{RowRecord(row.key, row_bytes), 1};
        rows_.pushFront(buckets_[1], row.id);
        used_ += row_bytes;
        return false;
    }

  private:
    struct Row
    {
        RowRecord rec;
        std::int64_t freq;
    };
    using List = stats::ListArena<Row>::List;

    void
    bump(std::uint32_t idx)
    {
        Row &r = rows_[idx];
        auto bucket = buckets_.find(r.freq);
        rows_.unlink(bucket->second, idx);
        if (bucket->second.empty())
            buckets_.erase(bucket);
        ++r.freq;
        rows_.pushFront(buckets_[r.freq], idx);
    }

    void
    evictColdest()
    {
        assert(!buckets_.empty());
        auto bucket = buckets_.begin(); // least-frequent bucket
        const std::uint32_t id = bucket->second.back; // oldest in it
        rows_.unlink(bucket->second, id);
        if (bucket->second.empty())
            buckets_.erase(bucket);
        evict(id, rows_[id].rec);
    }

    stats::ListArena<Row> rows_;
    /** freq -> rows at that freq, front = most recently bumped. */
    std::map<std::int64_t, List> buckets_;
};

// ---------------------------------------------------------------------------
// ListedCache: the storage 2Q and ARC share. Node i is row i. Every row
// the policy knows, resident or ghost, is on exactly one of kLists lists,
// all with front = most recent; a row on none is unknown. Lists 0 and 1
// hold resident rows; the rest hold ghosts, the identities of evicted
// rows (their bytes are the rows' stored sizes, no payload).
// ---------------------------------------------------------------------------
template <int kLists>
class ListedCache : public CacheBase
{
  public:
    using CacheBase::CacheBase;

    std::size_t
    residentRows() const override
    {
        return lists_[0].size + lists_[1].size;
    }

    /** A ghost is the node of its row, so ghosts need no extra room. */
    void reserve(std::size_t rows) override { rows_.reserve(rows); }

    bool
    contains(RowRef row) const override
    {
        return known(row.id) && resident(row.id);
    }

    std::int64_t
    ghostBytes() const override
    {
        std::int64_t bytes = 0;
        for (int list = kResidentLists; list < kLists; ++list)
            bytes += bytes_[list];
        return bytes;
    }

  protected:
    struct Row
    {
        RowRecord rec;
        int list; //!< the list the row is on
    };
    using Rows = stats::ListArena<Row>;

    static constexpr int kResidentLists = 2;
    static constexpr int kForget = -1;

    /** Whether row `id` is on a list, resident or ghost. */
    bool known(std::uint32_t id) const { return rows_.linked(id); }

    int listOf(std::uint32_t idx) const { return rows_[idx].list; }
    bool resident(std::uint32_t idx) const
    {
        return listOf(idx) < kResidentLists;
    }

    /** Admit unknown `row` at the front of resident list `list`. */
    void
    insert(RowRef row, std::int64_t bytes, int list)
    {
        rows_.growTo(std::size_t{row.id} + 1);
        rows_[row.id] = Row{RowRecord(row.key, bytes), list};
        attach(row.id, list);
        used_ += bytes;
    }

    /** Readmit detached ghost `idx`, now `bytes` large, at `list`'s front. */
    void
    readmit(std::uint32_t idx, std::int64_t bytes, int list)
    {
        rows_[idx].rec.bytes = static_cast<std::uint32_t>(bytes);
        attach(idx, list);
        used_ += bytes;
    }

    /** Move `idx` to the front of `list`, from whichever list it is on. */
    void
    promote(std::uint32_t idx, int list)
    {
        if (rows_[idx].list == list) {
            rows_.touch(lists_[list], idx);
            return;
        }
        detach(idx);
        attach(idx, list);
    }

    /** Take `idx` off its list (its `list` field keeps the old value). */
    void
    detach(std::uint32_t idx)
    {
        const Row &r = rows_[idx];
        rows_.unlink(lists_[r.list], idx);
        bytes_[r.list] -= r.rec.bytes;
    }

    /**
     * Evict the back row of resident list `from` and remember it at the
     * front of ghost list `ghost`, or forget it when `ghost` is kForget.
     */
    void
    evictBack(int from, int ghost)
    {
        const std::uint32_t idx = lists_[from].back;
        detach(idx);
        if (ghost != kForget)
            attach(idx, ghost);
        evict(idx, rows_[idx].rec);
    }

    /** Forget the back (oldest) ghost of ghost list `list`. */
    void dropBack(int list) { detach(lists_[list].back); }

    typename Rows::List lists_[kLists];
    std::int64_t bytes_[kLists] = {}; //!< stored bytes per list

  private:
    void
    attach(std::uint32_t idx, int list)
    {
        rows_[idx].list = list;
        rows_.pushFront(lists_[list], idx);
        bytes_[list] += rows_[idx].rec.bytes;
    }

    Rows rows_;
};

// ---------------------------------------------------------------------------
// TwoQueue: scan-resistant 2Q. New rows enter the A1in FIFO (targeted at
// 1/4 of the byte budget); a hit there — or a miss whose key is remembered
// in the A1out ghost list — promotes to the protected Am LRU. One-touch
// scan rows flow through A1in and the ghost list without ever displacing
// the Am hot set.
// ---------------------------------------------------------------------------
class TwoQueueCache : public ListedCache<3>
{
  public:
    using ListedCache::ListedCache;

  protected:
    bool
    accessRow(RowRef row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        const bool known_row = known(row.id);
        if (known_row && resident(row.id)) {
            // A hit on probation promotes to Am; one in Am bumps it.
            ++stats_.hits;
            promote(row.id, kAm);
            return true;
        }
        ++stats_.misses;
        if (row_bytes > capacity_)
            return false;
        if (known_row) {
            // Remembered in A1out: readmit straight to Am.
            detach(row.id);
            readmit(row.id, row_bytes, kAm);
        } else {
            insert(row, row_bytes, kA1in);
        }
        while (used_ > capacity_)
            evictOne();
        return false;
    }

  private:
    enum : int
    {
        kA1in, //!< probation FIFO, back = oldest
        kAm,   //!< protected LRU
        kA1out //!< ghosts of recent probation victims
    };

    void
    evictOne()
    {
        if (!lists_[kA1in].empty() &&
            (bytes_[kA1in] > capacity_ / 4 || lists_[kAm].empty())) {
            // Probation victim: drop the payload, remember the identity
            // within a ghost budget of half the capacity.
            evictBack(kA1in, kA1out);
            while (bytes_[kA1out] > capacity_ / 2 && !lists_[kA1out].empty())
                dropBack(kA1out);
        } else {
            assert(!lists_[kAm].empty());
            evictBack(kAm, kForget);
        }
    }
};

// ---------------------------------------------------------------------------
// Arc: adaptive replacement, generalized to byte budgets. Resident rows
// live in T1 (seen once since admission) or T2 (seen at least twice);
// evicted identities are remembered in the ghost lists B1 (evicted from
// T1) and B2 (evicted from T2). A miss that hits B1 means recency was
// evicting rows it should have kept, so the adaptive target p (T1's byte
// share of the budget) grows; a B2 hit shrinks it. The REPLACE rule then
// evicts from whichever resident list exceeds its share, so the cache
// continuously re-balances between LRU-like and LFU-like behavior.
// Invariants maintained per access: t1 + t2 <= capacity,
// t1 + b1 <= capacity (+ one row transiently), total history
// t1 + t2 + b1 + b2 <= 2x capacity, 0 <= p <= capacity.
// ---------------------------------------------------------------------------
class ArcCache : public ListedCache<4>
{
  public:
    using ListedCache::ListedCache;

  protected:
    bool
    accessRow(RowRef row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        const std::uint32_t idx = row.id;
        const bool known_row = known(idx);
        if (known_row && resident(idx)) {
            // Resident hit: any re-reference promotes to T2's MRU end.
            ++stats_.hits;
            promote(idx, kT2);
            return true;
        }
        ++stats_.misses;
        if (row_bytes > capacity_)
            return false;

        if (known_row) {
            // B1 hit: recency was right about this row — grow T1's
            // target share, proportionally harder when B1 is the smaller
            // list. B2 hit: frequency was right — shrink it.
            const bool from_b2 = listOf(idx) == kB2;
            const std::int64_t hit = bytes_[from_b2 ? kB2 : kB1];
            const std::int64_t other = bytes_[from_b2 ? kB1 : kB2];
            const double ratio =
                hit > 0 ? std::max(1.0, static_cast<double>(other) /
                                            static_cast<double>(hit))
                        : 1.0;
            const auto step = static_cast<std::int64_t>(
                ratio * static_cast<double>(row_bytes));
            p_ = from_b2 ? std::max<std::int64_t>(0, p_ - step)
                         : std::min<std::int64_t>(capacity_, p_ + step);
            detach(idx);
            makeRoom(row_bytes, from_b2);
            readmit(idx, row_bytes, kT2);
            return false;
        }

        // Cold miss: bound the L1 = T1 + B1 history at one capacity and
        // the total history at two capacities before admitting to T1.
        while (bytes_[kT1] + bytes_[kB1] + row_bytes > capacity_ &&
               !lists_[kB1].empty())
            dropBack(kB1);
        while (bytes_[kT1] + bytes_[kT2] + bytes_[kB1] + bytes_[kB2] +
                       row_bytes >
                   2 * capacity_ &&
               !lists_[kB2].empty())
            dropBack(kB2);
        makeRoom(row_bytes, /*from_b2=*/false);
        insert(row, row_bytes, kT1);
        return false;
    }

  private:
    enum : int
    {
        kT1, //!< once-referenced residents
        kT2, //!< re-referenced residents
        kB1, //!< ghosts of T1 evictions
        kB2  //!< ghosts of T2 evictions
    };

    /** Evict until the new row fits; ARC's REPLACE rule picks the list. */
    void
    makeRoom(std::int64_t row_bytes, bool from_b2)
    {
        while (bytes_[kT1] + bytes_[kT2] + row_bytes > capacity_) {
            const bool prefer_t1 =
                !lists_[kT1].empty() &&
                (bytes_[kT1] > p_ || (from_b2 && bytes_[kT1] >= p_) ||
                 lists_[kT2].empty());
            if (prefer_t1)
                evictBack(kT1, kB1);
            else
                evictBack(kT2, kB2);
            // Keep each ghost list within one capacity of identity bytes.
            while (bytes_[kB1] > capacity_ && !lists_[kB1].empty())
                dropBack(kB1);
            while (bytes_[kB2] > capacity_ && !lists_[kB2].empty())
                dropBack(kB2);
        }
    }

    /** Adaptive target for T1's byte share of the budget. */
    std::int64_t p_ = 0;
};

} // namespace

std::string
policyName(Policy policy)
{
    switch (policy) {
    case Policy::Lru:
        return "lru";
    case Policy::Lfu:
        return "lfu";
    case Policy::TwoQueue:
        return "2q";
    case Policy::Arc:
        return "arc";
    }
    return "unknown";
}

std::unique_ptr<EmbeddingCache>
makeCache(Policy policy, std::int64_t capacity_bytes)
{
    switch (policy) {
    case Policy::Lru:
        return std::make_unique<LruCache>(capacity_bytes);
    case Policy::Lfu:
        return std::make_unique<LfuCache>(capacity_bytes);
    case Policy::TwoQueue:
        return std::make_unique<TwoQueueCache>(capacity_bytes);
    case Policy::Arc:
        return std::make_unique<ArcCache>(capacity_bytes);
    }
    return nullptr;
}

} // namespace dri::cache
