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
 */
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace dri::sim {

template <class T, std::size_t BlockSize = 64>
class ObjectPool
{
  public:
    ObjectPool() = default;

    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    ~ObjectPool()
    {
        for (T *p : free_)
            p->~T();
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
        return p;
    }

    void
    release(T *p)
    {
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
            free_.push_back(block + i);
        }
    }

    std::vector<T *> free_;
    std::vector<T *> blocks_;
};

} // namespace dri::sim
