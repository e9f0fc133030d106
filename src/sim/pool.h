/**
 * @file
 * Fixed-size object pool for hot-path simulation records.
 *
 * The serving hot path used to allocate and free an Active, several
 * BatchStates, and an RpcOp per attempt on the general heap for every
 * request. ObjectPool hands out default-constructed objects from
 * block-allocated storage with a pointer free list: steady-state
 * acquire/release is a vector push/pop, and block pointers are stable so
 * in-flight events can hold raw pointers across arbitrary scheduling.
 *
 * Protocol: acquire() returns an object in a default-constructed (or
 * caller-recycled) state; release() returns it without destroying it —
 * the caller is responsible for restoring a pristine state first
 * (typically destroy + placement-new, salvaging container capacity).
 * Objects still live at pool destruction are abandoned with their
 * blocks, matching the drained-engine invariant (a completed run holds
 * none; ServingSimulation::checkDrained checks live() == 0).
 *
 * Under AddressSanitizer (-DSANITIZE=ON) a pooled object is poisoned
 * while it sits on the free list, so a stale pointer that reads a
 * released object fails loudly instead of seeing a recycled one. A pool
 * whose owner reads released objects on purpose opts out with
 * `Poison = false`. Outside ASan the poisoning macros expand to nothing.
 */
#pragma once

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <memory>
#include <vector>

namespace dri::sim {

template <class T, bool Poison = true, std::size_t BlockSize = 64>
class ObjectPool
{
  public:
    ObjectPool() = default;

    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    ~ObjectPool()
    {
        for (T *p : free_) {
            unpoison(p);
            p->~T();
        }
        for (T *block : blocks_)
            std::allocator<T>().deallocate(block, BlockSize);
    }

    T *
    acquire()
    {
        if (free_.empty())
            grow();
        T *p = free_.back();
        free_.pop_back();
        unpoison(p);
        return p;
    }

    void
    release(T *p)
    {
        poison(p);
        free_.push_back(p);
    }

    /** Objects acquired and not yet released. */
    std::size_t
    live() const
    {
        return blocks_.size() * BlockSize - free_.size();
    }

  private:
    void
    grow()
    {
        T *block = std::allocator<T>().allocate(BlockSize);
        blocks_.push_back(block);
        free_.reserve(free_.size() + BlockSize);
        for (std::size_t i = 0; i < BlockSize; ++i) {
            new (block + i) T();
            poison(block + i);
            free_.push_back(block + i);
        }
    }

    static void
    poison(T *p)
    {
        if (Poison)
            ASAN_POISON_MEMORY_REGION(p, sizeof(T));
    }

    static void
    unpoison(T *p)
    {
        if (Poison)
            ASAN_UNPOISON_MEMORY_REGION(p, sizeof(T));
    }

    std::vector<T *> free_;
    std::vector<T *> blocks_;
};

} // namespace dri::sim
