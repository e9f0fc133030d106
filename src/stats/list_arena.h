/**
 * @file
 * Doubly linked lists threaded by index through one recycled node arena:
 * the recency, frequency and ghost lists of every cache
 * (cache/embedding_cache.cc, rpc/result_cache.cc).
 *
 * Node i is {value, prev, next}, its links and its value at index i of
 * two parallel vectors, so moving a node (a cache hit's touch) reads and
 * writes only 8-byte links. Links are arena indices, which stay valid
 * across the vectors' growth (pointers and std::list iterators into them
 * would not), and freed slots are recycled through a free list threaded
 * through the same `next` field, so steady-state insert/evict churn
 * allocates nothing. Any number of lists share one arena: a List is just
 * its two ends and its length, owned by the caller, so a node moves
 * between lists without being copied.
 *
 * A node index may also be the caller's own row id (the row caches of
 * cache/embedding_cache.cc): growTo(id + 1) makes node id exist, and
 * linked(id) tells whether it is on a list. Such an arena never calls
 * alloc or release.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dri::stats {

template <class T>
class ListArena
{
  public:
    static constexpr std::uint32_t kNil = 0xffffffffu;
    /** `prev` of a node on no list. */
    static constexpr std::uint32_t kOff = 0xfffffffeu;

    /** One list over the arena: front = most recently pushed. */
    struct List
    {
        std::uint32_t front = kNil;
        std::uint32_t back = kNil;
        std::size_t size = 0;

        bool empty() const { return size == 0; }
    };

    T &operator[](std::uint32_t idx) { return values_[idx]; }
    const T &operator[](std::uint32_t idx) const { return values_[idx]; }

    /** Store `value` in a recycled (else new) slot on no list. */
    std::uint32_t
    alloc(const T &value)
    {
        std::uint32_t idx = free_;
        if (idx != kNil) {
            free_ = links_[idx].next;
            values_[idx] = value;
        } else {
            idx = static_cast<std::uint32_t>(links_.size());
            links_.push_back(Link{});
            values_.push_back(value);
        }
        return idx;
    }

    /** Recycle slot `idx`, which must be on no list. */
    void
    release(std::uint32_t idx)
    {
        links_[idx].next = free_;
        free_ = idx;
    }

    void
    pushFront(List &list, std::uint32_t idx)
    {
        Link &n = links_[idx];
        n.prev = kNil;
        n.next = list.front;
        if (list.front != kNil)
            links_[list.front].prev = idx;
        list.front = idx;
        if (list.back == kNil)
            list.back = idx;
        ++list.size;
    }

    /** Take `idx` off `list`, the list it is on. */
    void
    unlink(List &list, std::uint32_t idx)
    {
        Link &n = links_[idx];
        if (n.prev != kNil)
            links_[n.prev].next = n.next;
        else
            list.front = n.next;
        if (n.next != kNil)
            links_[n.next].prev = n.prev;
        else
            list.back = n.prev;
        n.prev = kOff;
        --list.size;
    }

    /** Whether node `idx` exists and is on a list. */
    bool
    linked(std::uint32_t idx) const
    {
        return idx < links_.size() && links_[idx].prev != kOff;
    }

    /** Move `idx`, on `list`, to the list's front. */
    void
    touch(List &list, std::uint32_t idx)
    {
        if (list.front == idx)
            return;
        unlink(list, idx);
        pushFront(list, idx);
    }

    /** Make room for `nodes` nodes in all without reallocating. */
    void
    reserve(std::size_t nodes)
    {
        links_.reserve(nodes);
        values_.reserve(nodes);
    }

    /** Make nodes 0..nodes-1 exist; new ones are on no list. */
    void
    growTo(std::size_t nodes)
    {
        if (nodes > links_.size()) {
            links_.resize(nodes);
            values_.resize(nodes);
        }
    }

    /**
     * Drop every node, keeping the vector's capacity. Lists over the
     * arena are their owners' to reset.
     */
    void
    clear()
    {
        links_.clear();
        values_.clear();
        free_ = kNil;
    }

  private:
    struct Link
    {
        std::uint32_t prev = kOff;
        std::uint32_t next = kNil; //!< also links the free list
    };

    // A node's links and value sit in two parallel arrays, so list
    // surgery (a hit's touch) walks only the 8-byte links.
    std::vector<Link> links_;
    std::vector<T> values_;
    std::uint32_t free_ = kNil; //!< most recently released slot
};

} // namespace dri::stats
