/**
 * @file
 * Doubly linked lists threaded by index through one recycled node arena:
 * the recency, frequency and ghost lists of every cache
 * (cache/embedding_cache.cc, rpc/result_cache.cc).
 *
 * Nodes {value, prev, next} live in one vector. Links are arena indices,
 * which stay valid across the vector's growth (pointers and std::list
 * iterators into it would not), and freed slots are recycled through a
 * free list threaded through the same `next` field, so steady-state
 * insert/evict churn allocates nothing. Any number of lists share one
 * arena: a List is just its two ends and its length, owned by the
 * caller, so a node moves between lists without being copied.
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

    /** One list over the arena: front = most recently pushed. */
    struct List
    {
        std::uint32_t front = kNil;
        std::uint32_t back = kNil;
        std::size_t size = 0;

        bool empty() const { return size == 0; }
    };

    T &operator[](std::uint32_t idx) { return nodes_[idx].value; }
    const T &operator[](std::uint32_t idx) const { return nodes_[idx].value; }

    /** Store `value` in a recycled (else new) slot on no list. */
    std::uint32_t
    alloc(const T &value)
    {
        std::uint32_t idx = free_;
        if (idx != kNil) {
            free_ = nodes_[idx].next;
            nodes_[idx].value = value;
        } else {
            idx = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{value});
        }
        return idx;
    }

    /** Recycle slot `idx`, which must be on no list. */
    void
    release(std::uint32_t idx)
    {
        nodes_[idx].next = free_;
        free_ = idx;
    }

    void
    pushFront(List &list, std::uint32_t idx)
    {
        Node &n = nodes_[idx];
        n.prev = kNil;
        n.next = list.front;
        if (list.front != kNil)
            nodes_[list.front].prev = idx;
        list.front = idx;
        if (list.back == kNil)
            list.back = idx;
        ++list.size;
    }

    /** Take `idx` off `list`, the list it is on. */
    void
    unlink(List &list, std::uint32_t idx)
    {
        const Node &n = nodes_[idx];
        if (n.prev != kNil)
            nodes_[n.prev].next = n.next;
        else
            list.front = n.next;
        if (n.next != kNil)
            nodes_[n.next].prev = n.prev;
        else
            list.back = n.prev;
        --list.size;
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
    void reserve(std::size_t nodes) { nodes_.reserve(nodes); }

    /**
     * Drop every node, keeping the vector's capacity. Lists over the
     * arena are their owners' to reset.
     */
    void
    clear()
    {
        nodes_.clear();
        free_ = kNil;
    }

  private:
    struct Node
    {
        T value;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil; //!< also links the free list
    };

    std::vector<Node> nodes_;
    std::uint32_t free_ = kNil; //!< most recently released slot
};

} // namespace dri::stats
