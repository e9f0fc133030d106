/**
 * @file
 * FIFO resource pools for the DES. A Resource with capacity N models a
 * server's worker-core pool: up to N tasks execute concurrently; further
 * acquirers queue in arrival order. Queueing under load is what produces the
 * paper's high-QPS effects (Fig. 16).
 */
#pragma once

#include <cstddef>
#include <deque>
#include <stdexcept>
#include <utility>

#include "sim/engine.h"

namespace dri::sim {

/**
 * Counted resource with FIFO admission.
 *
 * acquire(cb) grants a unit immediately if available, otherwise queues the
 * callback. release() hands the freed unit to the oldest waiter (scheduled
 * as a zero-delay event so granting never reenters the releaser's stack).
 */
class Resource
{
  public:
    /**
     * Grant callbacks share the engine's small-buffer event type, so a
     * queued waiter moves straight into a pooled event slot on release()
     * instead of being re-wrapped (and possibly re-heap-allocated).
     */
    using Grant = EventFn;

    /** Throws std::invalid_argument on a zero capacity. */
    Resource(Engine &engine, std::size_t capacity);

    /** Request a unit; cb runs (now or later) once granted. */
    void
    acquire(Grant cb)
    {
        if (in_use_ < capacity_) {
            accountTo(engine_.now());
            ++in_use_;
            cb();
        } else {
            waiters_.push_back(std::move(cb));
        }
    }

    /**
     * Request a unit at the head of the wait queue. Used for continuations
     * (e.g. RPC response processing) that real services run at IO priority
     * rather than behind newly admitted work.
     */
    void
    acquireFront(Grant cb)
    {
        if (in_use_ < capacity_) {
            accountTo(engine_.now());
            ++in_use_;
            cb();
        } else {
            waiters_.push_front(std::move(cb));
        }
    }

    /**
     * Return a unit previously granted. Throws std::logic_error when no
     * unit is in use, in every build type.
     */
    void
    release()
    {
        if (in_use_ == 0)
            throw std::logic_error("Resource: release() with no unit in use");
        accountTo(engine_.now());
        if (waiters_.empty()) {
            --in_use_;
            return;
        }
        // Hand the unit directly to the oldest waiter; in_use_ stays
        // constant.
        Grant next = std::move(waiters_.front());
        waiters_.pop_front();
        engine_.schedule(0, kEvGrant, std::move(next));
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t inUse() const { return in_use_; }
    std::size_t queued() const { return waiters_.size(); }

    /**
     * Cumulative busy time integral (unit-nanoseconds) for utilization
     * accounting: sum over time of inUse().
     */
    double busyIntegral() const;

  private:
    Engine &engine_;
    std::size_t capacity_;
    std::size_t in_use_ = 0;
    std::deque<Grant> waiters_;

    // Utilization bookkeeping.
    mutable SimTime last_change_ = 0;
    mutable double busy_integral_ = 0.0;

    void
    accountTo(SimTime now) const
    {
        busy_integral_ += static_cast<double>(in_use_) *
                          static_cast<double>(now - last_change_);
        last_change_ = now;
    }
};

} // namespace dri::sim
