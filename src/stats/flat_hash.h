/**
 * @file
 * Insert-only open-addressing hash map: the table behind
 * cache::RowNumbering, which gives each distinct row key the next free
 * dense id and never forgets one.
 *
 * std::unordered_map pays a node allocation per insert and a pointer
 * chase per lookup. FlatHashMap stores slots contiguously with linear
 * probing (power-of-two capacity, load <= 0.7) and allocates only when
 * the table grows. Nothing is ever erased, so there are no tombstones.
 *
 * Requirements: K and V cheaply copyable (integer keys and values).
 * Not a drop-in std::unordered_map — the API is the minimal lookup and
 * insert the row numbering needs.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "stats/hash.h"

namespace dri::stats {

template <class K, class V, class Hash = std::hash<K>>
class FlatHashMap
{
  public:
    /** Pointer to the mapped value, or nullptr when absent. */
    const V *
    find(const K &key) const
    {
        if (slots_.empty())
            return nullptr;
        for (std::size_t i = bucketOf(key);; i = (i + 1) & mask_) {
            if (!slots_[i].used)
                return nullptr;
            if (slots_[i].key == key)
                return &slots_[i].val;
        }
    }

    /**
     * The key's mapped value, after mapping it to `val` if it was
     * absent: one probe either way.
     */
    V
    tryEmplace(const K &key, V val)
    {
        if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7)
            rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
        for (std::size_t i = bucketOf(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used) {
                s = Slot{key, val, true};
                ++size_;
                return val;
            }
            if (s.key == key)
                return s.val;
        }
    }

    std::size_t size() const { return size_; }

  private:
    struct Slot
    {
        K key{};
        V val{};
        bool used = false;
    };

    static constexpr std::size_t kMinCapacity = 16;

    std::size_t
    bucketOf(const K &key) const
    {
        return Hash{}(key)&mask_;
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(capacity, Slot{});
        mask_ = capacity - 1;
        size_ = 0;
        for (const Slot &s : old)
            if (s.used)
                tryEmplace(s.key, s.val);
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace dri::stats
