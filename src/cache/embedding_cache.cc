#include "cache/embedding_cache.h"

#include <algorithm>
#include <cassert>
#include <list>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stats/flat_hash.h"
#include "stats/hash.h"

namespace dri::cache {

namespace {

/** Cache key: one row of one table. */
struct Key
{
    int table = 0;
    std::int64_t row = 0;

    bool
    operator==(const Key &other) const
    {
        return table == other.table && row == other.row;
    }
};

struct KeyHash
{
    std::size_t
    operator()(const Key &k) const
    {
        // splitmix64 finalizer over the packed (table, row) pair.
        return static_cast<std::size_t>(stats::mix64(
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.table))
             << 48) ^
            static_cast<std::uint64_t>(k.row)));
    }
};

/** Shared budget/stats plumbing. */
class CacheBase : public EmbeddingCache
{
  public:
    CacheBase(Policy policy, std::int64_t capacity_bytes)
        : policy_(policy), capacity_(capacity_bytes > 0 ? capacity_bytes : 0)
    {
    }

    std::int64_t capacityBytes() const override { return capacity_; }
    std::int64_t usedBytes() const override { return used_; }
    const CacheStats &stats() const override { return stats_; }
    void resetStats() override { stats_ = CacheStats{}; }
    Policy policy() const override { return policy_; }

    void
    setCapacityBytes(std::int64_t capacity_bytes) override
    {
        // Lazy shrink: every eviction loop reads capacity_ live, so the
        // resident set trims itself on the next insert.
        capacity_ = capacity_bytes > 0 ? capacity_bytes : 0;
    }

    void
    setEvictionHook(
        std::function<void(int, std::int64_t, std::int64_t)> hook) override
    {
        eviction_hook_ = std::move(hook);
    }

  protected:
    void
    evicted(const Key &key, std::int64_t bytes)
    {
        used_ -= bytes;
        ++stats_.evictions;
        if (eviction_hook_)
            eviction_hook_(key.table, key.row, bytes);
    }

    Policy policy_;
    std::int64_t capacity_ = 0;
    std::int64_t used_ = 0;
    CacheStats stats_;
    std::function<void(int, std::int64_t, std::int64_t)> eviction_hook_;
};

// ---------------------------------------------------------------------------
// LRU: one recency list, evict the tail. The list is doubly linked by
// arena index (the rpc::ResultCache idiom): indices survive arena growth,
// and evicted slots are recycled, so steady-state churn allocates nothing.
// ---------------------------------------------------------------------------
class LruCache : public CacheBase
{
  public:
    using CacheBase::CacheBase;

    bool
    access(int table, std::int64_t row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        const std::uint64_t key = packRowKey(table, row);
        if (const std::uint32_t *slot = index_.find(key)) {
            ++stats_.hits;
            touch(*slot);
            return true;
        }
        ++stats_.misses;
        if (row_bytes > capacity_)
            return false; // unadmittable: larger than the whole budget
        while (used_ + row_bytes > capacity_ && tail_ != kNil)
            evictTail();

        std::uint32_t idx;
        if (!free_.empty()) {
            idx = free_.back();
            free_.pop_back();
        } else {
            idx = static_cast<std::uint32_t>(nodes_.size());
            nodes_.emplace_back();
        }
        nodes_[idx].key = key;
        nodes_[idx].bytes = row_bytes;
        pushFront(idx);
        index_.insert(key, idx);
        used_ += row_bytes;
        return false;
    }

    bool
    contains(int table, std::int64_t row) const override
    {
        return index_.find(packRowKey(table, row)) != nullptr;
    }

    std::size_t residentRows() const override { return index_.size(); }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::uint64_t kRowMask = (std::uint64_t{1} << 48) - 1;

    struct Node
    {
        std::uint64_t key = 0; //!< packRowKey(table, row)
        std::int64_t bytes = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    void
    unlink(std::uint32_t idx)
    {
        Node &n = nodes_[idx];
        if (n.prev != kNil)
            nodes_[n.prev].next = n.next;
        else
            head_ = n.next;
        if (n.next != kNil)
            nodes_[n.next].prev = n.prev;
        else
            tail_ = n.prev;
    }

    void
    pushFront(std::uint32_t idx)
    {
        Node &n = nodes_[idx];
        n.prev = kNil;
        n.next = head_;
        if (head_ != kNil)
            nodes_[head_].prev = idx;
        head_ = idx;
        if (tail_ == kNil)
            tail_ = idx;
    }

    void
    touch(std::uint32_t idx)
    {
        if (head_ == idx)
            return;
        unlink(idx);
        pushFront(idx);
    }

    void
    evictTail()
    {
        const std::uint32_t idx = tail_;
        const Node victim = nodes_[idx];
        unlink(idx);
        index_.erase(victim.key);
        free_.push_back(idx);
        evicted(Key{static_cast<int>(victim.key >> 48),
                    static_cast<std::int64_t>(victim.key & kRowMask)},
                victim.bytes);
    }

    std::vector<Node> nodes_;         //!< node arena, recycled via free_
    std::vector<std::uint32_t> free_; //!< indices of vacated arena slots
    std::uint32_t head_ = kNil;       //!< most recently used
    std::uint32_t tail_ = kNil;       //!< least recently used
    stats::FlatHashMap<std::uint64_t, std::uint32_t, stats::Mix64Hash>
        index_;
};

// ---------------------------------------------------------------------------
// LFU: frequency buckets; evict the least-recently-used entry of the
// least-frequent bucket (classic O(1) LFU with an ordered bucket map).
// ---------------------------------------------------------------------------
class LfuCache : public CacheBase
{
  public:
    using CacheBase::CacheBase;

    bool
    access(int table, std::int64_t row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        const Key key{table, row};
        auto it = index_.find(key);
        if (it != index_.end()) {
            ++stats_.hits;
            bump(it->second, key);
            return true;
        }
        ++stats_.misses;
        if (row_bytes > capacity_)
            return false;
        while (used_ + row_bytes > capacity_)
            evictColdest();
        Info info;
        info.bytes = row_bytes;
        info.freq = 1;
        auto &bucket = buckets_[1];
        bucket.push_back(key);
        info.pos = std::prev(bucket.end());
        index_[key] = info;
        used_ += row_bytes;
        return false;
    }

    bool
    contains(int table, std::int64_t row) const override
    {
        return index_.count(Key{table, row}) > 0;
    }

    std::size_t residentRows() const override { return index_.size(); }

  private:
    struct Info
    {
        std::int64_t bytes = 0;
        std::int64_t freq = 0;
        std::list<Key>::iterator pos;
    };

    void
    bump(Info &info, const Key &key)
    {
        auto bucket_it = buckets_.find(info.freq);
        bucket_it->second.erase(info.pos);
        if (bucket_it->second.empty())
            buckets_.erase(bucket_it);
        ++info.freq;
        auto &next = buckets_[info.freq];
        next.push_back(key);
        info.pos = std::prev(next.end());
    }

    void
    evictColdest()
    {
        assert(!buckets_.empty());
        auto bucket_it = buckets_.begin(); // least-frequent bucket
        const Key victim = bucket_it->second.front();
        bucket_it->second.pop_front(); // oldest within the bucket
        if (bucket_it->second.empty())
            buckets_.erase(bucket_it);
        auto idx = index_.find(victim);
        const std::int64_t bytes = idx->second.bytes;
        index_.erase(idx);
        evicted(victim, bytes);
    }

    /** freq -> keys at that freq, oldest first. */
    std::map<std::int64_t, std::list<Key>> buckets_;
    std::unordered_map<Key, Info, KeyHash> index_;
};

// ---------------------------------------------------------------------------
// TwoQueue: scan-resistant 2Q. New rows enter the A1in FIFO (targeted at
// 1/4 of the byte budget); a hit there — or a miss whose key is remembered
// in the A1out ghost list — promotes to the protected Am LRU. One-touch
// scan rows flow through A1in and the ghost list without ever displacing
// the Am hot set.
// ---------------------------------------------------------------------------
class TwoQueueCache : public CacheBase
{
  public:
    using CacheBase::CacheBase;

    bool
    access(int table, std::int64_t row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        const Key key{table, row};
        auto it = index_.find(key);
        if (it != index_.end()) {
            ++stats_.hits;
            if (it->second.where == Where::In) {
                // Re-referenced while on probation: promote to Am.
                Entry entry = *it->second.pos;
                in_bytes_ -= entry.bytes;
                a1in_.erase(it->second.pos);
                am_.push_front(entry);
                it->second.where = Where::Main;
                it->second.pos = am_.begin();
            } else {
                am_.splice(am_.begin(), am_, it->second.pos);
            }
            return true;
        }
        ++stats_.misses;
        if (row_bytes > capacity_)
            return false;
        const bool remembered = eraseGhost(key);
        if (remembered) {
            am_.push_front(Entry{key, row_bytes});
            index_[key] = Info{Where::Main, am_.begin()};
        } else {
            a1in_.push_back(Entry{key, row_bytes});
            index_[key] = Info{Where::In, std::prev(a1in_.end())};
            in_bytes_ += row_bytes;
        }
        used_ += row_bytes;
        while (used_ > capacity_)
            evictOne();
        return false;
    }

    bool
    contains(int table, std::int64_t row) const override
    {
        return index_.count(Key{table, row}) > 0;
    }

    std::size_t residentRows() const override { return index_.size(); }

  private:
    enum class Where
    {
        In,
        Main,
    };

    struct Entry
    {
        Key key;
        std::int64_t bytes;
    };

    struct Info
    {
        Where where;
        std::list<Entry>::iterator pos;
    };

    std::int64_t inTargetBytes() const { return capacity_ / 4; }
    std::int64_t ghostBudgetBytes() const { return capacity_ / 2; }

    void
    evictOne()
    {
        if (!a1in_.empty() && (in_bytes_ > inTargetBytes() || am_.empty())) {
            // Probation victim: drop the payload, remember the identity.
            const Entry victim = a1in_.front();
            a1in_.pop_front();
            in_bytes_ -= victim.bytes;
            index_.erase(victim.key);
            evicted(victim.key, victim.bytes);
            rememberGhost(victim);
        } else {
            assert(!am_.empty());
            const Entry victim = am_.back();
            am_.pop_back();
            index_.erase(victim.key);
            evicted(victim.key, victim.bytes);
        }
    }

    void
    rememberGhost(const Entry &entry)
    {
        ghost_.push_back(entry);
        ghost_index_[entry.key] = std::prev(ghost_.end());
        ghost_bytes_ += entry.bytes;
        while (ghost_bytes_ > ghostBudgetBytes() && !ghost_.empty()) {
            const Entry &old = ghost_.front();
            ghost_bytes_ -= old.bytes;
            ghost_index_.erase(old.key);
            ghost_.pop_front();
        }
    }

    bool
    eraseGhost(const Key &key)
    {
        auto it = ghost_index_.find(key);
        if (it == ghost_index_.end())
            return false;
        ghost_bytes_ -= it->second->bytes;
        ghost_.erase(it->second);
        ghost_index_.erase(it);
        return true;
    }

    std::list<Entry> a1in_; //!< probation FIFO, front = oldest
    std::list<Entry> am_;   //!< protected LRU, front = most recent
    std::int64_t in_bytes_ = 0;

    /** A1out: identities of recent probation victims (no payload bytes). */
    std::list<Entry> ghost_;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash>
        ghost_index_;
    std::int64_t ghost_bytes_ = 0;

    std::unordered_map<Key, Info, KeyHash> index_;

  public:
    std::int64_t ghostBytes() const override { return ghost_bytes_; }
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
class ArcCache : public CacheBase
{
  public:
    using CacheBase::CacheBase;

    bool
    access(int table, std::int64_t row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        const Key key{table, row};
        auto it = index_.find(key);
        if (it != index_.end()) {
            // Resident hit: any re-reference promotes to T2's MRU end.
            ++stats_.hits;
            Entry entry = *it->second.pos;
            if (it->second.where == Where::T1) {
                t1_.erase(it->second.pos);
                t1_bytes_ -= entry.bytes;
                t2_.push_front(entry);
                t2_bytes_ += entry.bytes;
                it->second.where = Where::T2;
                it->second.pos = t2_.begin();
            } else {
                t2_.splice(t2_.begin(), t2_, it->second.pos);
            }
            return true;
        }
        ++stats_.misses;
        if (row_bytes > capacity_)
            return false;

        auto ghost = ghost_index_.find(key);
        if (ghost != ghost_index_.end() &&
            ghost->second.where == Where::B1) {
            // B1 hit: recency was right about this row — grow T1's target
            // share, proportionally harder when B1 is the smaller list.
            const double ratio =
                b1_bytes_ > 0 ? std::max(1.0, static_cast<double>(b2_bytes_) /
                                                  static_cast<double>(b1_bytes_))
                              : 1.0;
            p_ = std::min<std::int64_t>(
                capacity_,
                p_ + static_cast<std::int64_t>(
                         ratio * static_cast<double>(row_bytes)));
            eraseGhost(ghost);
            makeRoom(row_bytes, /*from_b2=*/false);
            insertResident(key, row_bytes, Where::T2);
            return false;
        }
        if (ghost != ghost_index_.end()) {
            // B2 hit: frequency was right — shrink T1's target share.
            const double ratio =
                b2_bytes_ > 0 ? std::max(1.0, static_cast<double>(b1_bytes_) /
                                                  static_cast<double>(b2_bytes_))
                              : 1.0;
            p_ = std::max<std::int64_t>(
                0, p_ - static_cast<std::int64_t>(
                            ratio * static_cast<double>(row_bytes)));
            eraseGhost(ghost);
            makeRoom(row_bytes, /*from_b2=*/true);
            insertResident(key, row_bytes, Where::T2);
            return false;
        }

        // Cold miss: bound the L1 = T1 + B1 history at one capacity and
        // the total history at two capacities before admitting to T1.
        while (t1_bytes_ + b1_bytes_ + row_bytes > capacity_ && !b1_.empty())
            dropGhostLru(Where::B1);
        while (t1_bytes_ + t2_bytes_ + b1_bytes_ + b2_bytes_ + row_bytes >
                   2 * capacity_ &&
               !b2_.empty())
            dropGhostLru(Where::B2);
        makeRoom(row_bytes, /*from_b2=*/false);
        insertResident(key, row_bytes, Where::T1);
        return false;
    }

    bool
    contains(int table, std::int64_t row) const override
    {
        return index_.count(Key{table, row}) > 0;
    }

    std::size_t residentRows() const override { return index_.size(); }

    std::int64_t ghostBytes() const override
    {
        return b1_bytes_ + b2_bytes_;
    }

  private:
    enum class Where
    {
        T1,
        T2,
        B1,
        B2,
    };

    struct Entry
    {
        Key key;
        std::int64_t bytes;
    };

    struct Info
    {
        Where where;
        std::list<Entry>::iterator pos;
    };

    struct GhostInfo
    {
        Where where;
        std::list<Entry>::iterator pos;
    };

    void
    insertResident(const Key &key, std::int64_t bytes, Where where)
    {
        if (where == Where::T1) {
            t1_.push_front(Entry{key, bytes});
            t1_bytes_ += bytes;
            index_[key] = Info{Where::T1, t1_.begin()};
        } else {
            t2_.push_front(Entry{key, bytes});
            t2_bytes_ += bytes;
            index_[key] = Info{Where::T2, t2_.begin()};
        }
        used_ += bytes;
    }

    /** Evict until the new row fits; ARC's REPLACE rule picks the list. */
    void
    makeRoom(std::int64_t row_bytes, bool from_b2)
    {
        while (t1_bytes_ + t2_bytes_ + row_bytes > capacity_) {
            const bool prefer_t1 =
                !t1_.empty() &&
                (t1_bytes_ > p_ || (from_b2 && t1_bytes_ >= p_) ||
                 t2_.empty());
            evictResidentLru(prefer_t1 ? Where::T1 : Where::T2);
        }
    }

    void
    evictResidentLru(Where where)
    {
        auto &list = where == Where::T1 ? t1_ : t2_;
        auto &bytes = where == Where::T1 ? t1_bytes_ : t2_bytes_;
        assert(!list.empty());
        const Entry victim = list.back();
        list.pop_back();
        bytes -= victim.bytes;
        index_.erase(victim.key);
        evicted(victim.key, victim.bytes);
        rememberGhost(victim, where == Where::T1 ? Where::B1 : Where::B2);
    }

    void
    rememberGhost(const Entry &entry, Where where)
    {
        auto &list = where == Where::B1 ? b1_ : b2_;
        auto &bytes = where == Where::B1 ? b1_bytes_ : b2_bytes_;
        list.push_front(entry);
        bytes += entry.bytes;
        ghost_index_[entry.key] = GhostInfo{where, list.begin()};
        // Keep each ghost list within one capacity of identity bytes.
        while (b1_bytes_ > capacity_ && !b1_.empty())
            dropGhostLru(Where::B1);
        while (b2_bytes_ > capacity_ && !b2_.empty())
            dropGhostLru(Where::B2);
    }

    void
    dropGhostLru(Where where)
    {
        auto &list = where == Where::B1 ? b1_ : b2_;
        auto &bytes = where == Where::B1 ? b1_bytes_ : b2_bytes_;
        assert(!list.empty());
        const Entry &old = list.back();
        bytes -= old.bytes;
        ghost_index_.erase(old.key);
        list.pop_back();
    }

    void
    eraseGhost(
        std::unordered_map<Key, GhostInfo, KeyHash>::iterator ghost)
    {
        auto &list = ghost->second.where == Where::B1 ? b1_ : b2_;
        auto &bytes =
            ghost->second.where == Where::B1 ? b1_bytes_ : b2_bytes_;
        bytes -= ghost->second.pos->bytes;
        list.erase(ghost->second.pos);
        ghost_index_.erase(ghost);
    }

    std::list<Entry> t1_; //!< once-referenced residents, front = MRU
    std::list<Entry> t2_; //!< re-referenced residents, front = MRU
    std::list<Entry> b1_; //!< ghosts of T1 evictions, front = MRU
    std::list<Entry> b2_; //!< ghosts of T2 evictions, front = MRU
    std::int64_t t1_bytes_ = 0, t2_bytes_ = 0;
    std::int64_t b1_bytes_ = 0, b2_bytes_ = 0;
    /** Adaptive target for T1's byte share of the budget. */
    std::int64_t p_ = 0;

    std::unordered_map<Key, Info, KeyHash> index_;
    std::unordered_map<Key, GhostInfo, KeyHash> ghost_index_;
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
        return std::make_unique<LruCache>(policy, capacity_bytes);
    case Policy::Lfu:
        return std::make_unique<LfuCache>(policy, capacity_bytes);
    case Policy::TwoQueue:
        return std::make_unique<TwoQueueCache>(policy, capacity_bytes);
    case Policy::Arc:
        return std::make_unique<ArcCache>(policy, capacity_bytes);
    }
    return nullptr;
}

} // namespace dri::cache
