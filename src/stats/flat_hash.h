/**
 * @file
 * Open-addressing hash map for simulation hot paths.
 *
 * std::unordered_map pays a node allocation per insert and a pointer
 * chase per lookup; the hot serving maps (live-request registry) are
 * small, churn constantly, and never need iterator or reference
 * stability. FlatHashMap stores slots contiguously with linear probing
 * (power-of-two capacity, backward-shift deletion, so no tombstone
 * accumulation) and allocates only when the table grows.
 *
 * Requirements: K and V cheaply copyable (the intended use is integer
 * keys mapping to pointers). Not a drop-in std::unordered_map — the API
 * is the minimal find/insert/erase the hot paths need. FlatHashSet64 is
 * the same table reduced to an insert-only set of 64-bit keys.
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
    FlatHashMap() = default;

    /** Pointer to the mapped value, or nullptr when absent. */
    V *
    find(const K &key)
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

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

    /** Insert-or-assign. */
    void
    insert(const K &key, V val)
    {
        if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7)
            rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
        for (std::size_t i = bucketOf(key);; i = (i + 1) & mask_) {
            if (!slots_[i].used) {
                slots_[i].used = true;
                slots_[i].key = key;
                slots_[i].val = val;
                ++size_;
                return;
            }
            if (slots_[i].key == key) {
                slots_[i].val = val;
                return;
            }
        }
    }

    /** Remove the key if present; returns whether it was. */
    bool
    erase(const K &key)
    {
        if (slots_.empty())
            return false;
        for (std::size_t i = bucketOf(key);; i = (i + 1) & mask_) {
            if (!slots_[i].used)
                return false;
            if (slots_[i].key == key) {
                eraseAt(i);
                return true;
            }
        }
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Drop every entry, keeping the table's capacity. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s = Slot{};
        size_ = 0;
    }

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

    /**
     * Backward-shift deletion: pull each displaced follower of the
     * probe chain into the hole instead of leaving a tombstone.
     */
    void
    eraseAt(std::size_t i)
    {
        std::size_t hole = i;
        for (std::size_t k = (i + 1) & mask_; slots_[k].used;
             k = (k + 1) & mask_) {
            const std::size_t ideal = bucketOf(slots_[k].key);
            if (((k - ideal) & mask_) >= ((k - hole) & mask_)) {
                slots_[hole] = slots_[k];
                hole = k;
            }
        }
        slots_[hole].used = false;
        --size_;
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
                insert(s.key, s.val);
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

/**
 * Insert-only open-addressing set of 64-bit keys for counting distinct
 * keys over streams too long to store. Slots are the bare 8-byte keys —
 * half a FlatHashMap<std::uint64_t, bool> slot — with all-ones marking
 * an empty slot; the all-ones key itself is tracked by a flag. Same
 * probing and growth as FlatHashMap.
 */
class FlatHashSet64
{
  public:
    /** Returns true when the key was not yet present. */
    bool
    insert(std::uint64_t key)
    {
        if (key == kEmpty) {
            const bool fresh = !has_empty_key_;
            has_empty_key_ = true;
            return fresh;
        }
        if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7)
            rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
        for (std::size_t i = mix64(key) & mask_;; i = (i + 1) & mask_) {
            if (slots_[i] == kEmpty) {
                slots_[i] = key;
                ++size_;
                return true;
            }
            if (slots_[i] == key)
                return false;
        }
    }

    std::size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }

  private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    static constexpr std::size_t kMinCapacity = 16;

    void
    rehash(std::size_t capacity)
    {
        std::vector<std::uint64_t> old = std::move(slots_);
        slots_.assign(capacity, kEmpty);
        mask_ = capacity - 1;
        size_ = 0;
        for (const std::uint64_t key : old)
            if (key != kEmpty)
                insert(key);
    }

    std::vector<std::uint64_t> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    bool has_empty_key_ = false;
};

} // namespace dri::stats
