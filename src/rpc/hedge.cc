#include "rpc/hedge.h"

#include <algorithm>

namespace dri::rpc {

LatencyTracker::LatencyTracker(std::size_t window)
    : window_(std::max<std::size_t>(1, window))
{
    samples_.reserve(window_);
    sorted_.reserve(window_);
}

void
LatencyTracker::add(sim::Duration latency_ns)
{
    ++observed_;
    if (samples_.size() < window_) {
        samples_.push_back(latency_ns);
        sorted_.insert(
            std::upper_bound(sorted_.begin(), sorted_.end(), latency_ns),
            latency_ns);
        return;
    }
    // Window full: the incoming sample replaces the oldest one in the
    // sorted mirror with a single element rotation (one shift of the
    // span between the two positions, not an erase plus an insert).
    const sim::Duration evicted = samples_[next_];
    samples_[next_] = latency_ns;
    next_ = (next_ + 1) % window_;
    const auto out = std::lower_bound(sorted_.begin(), sorted_.end(), evicted);
    const auto in =
        std::upper_bound(sorted_.begin(), sorted_.end(), latency_ns);
    if (in > out) {
        std::move(out + 1, in, out);
        *(in - 1) = latency_ns;
    } else {
        std::move_backward(in, out, out + 1);
        *in = latency_ns;
    }
}

sim::Duration
LatencyTracker::quantile(double q) const
{
    // Enforced unconditionally (not assert-only): this is public API and
    // an empty-window query in a Release build must not read OOB.
    if (sorted_.empty())
        return 0;
    q = std::min(1.0, std::max(0.0, q));
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted_.size() - 1) + 0.5);
    return sorted_[rank];
}

} // namespace dri::rpc
