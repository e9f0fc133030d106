#include "rpc/hedge.h"

#include <algorithm>

namespace dri::rpc {

LatencyTracker::LatencyTracker(std::size_t window, double q)
    : window_(std::max<std::size_t>(1, window)),
      q_(std::min(1.0, std::max(0.0, q)))
{
    ring_.reserve(window_);
    low_values_.reserve(window_);
    low_slots_.reserve(window_);
    high_.reserve(window_);
}

void
LatencyTracker::add(sim::Duration latency_ns)
{
    ++observed_;
    std::uint32_t slot;
    if (ring_.size() < window_) {
        slot = static_cast<std::uint32_t>(ring_.size());
        ring_.emplace_back();
    } else {
        slot = static_cast<std::uint32_t>(next_);
        next_ = (next_ + 1) % window_;
        const Slot &oldest = ring_[slot];
        if (oldest.low != kInHigh) {
            removeLow(oldest.low);
        } else {
            // Among equal values, remove the entry of this very slot:
            // the others' slots still hold live samples.
            auto it = std::partition_point(
                high_.begin(), high_.end(),
                [&](const High &h) { return h.value > oldest.value; });
            while (it->slot != slot)
                ++it;
            high_.erase(it);
        }
    }
    ring_[slot].value = latency_ns;
    if (!high_.empty() && latency_ns >= high_.back().value) {
        high_.insert(std::partition_point(high_.begin(), high_.end(),
                                          [&](const High &h) {
                                              return h.value >= latency_ns;
                                          }),
                     High{latency_ns, slot});
        ring_[slot].low = kInHigh;
    } else {
        pushLow(latency_ns, slot);
    }

    // One insertion and at most one eviction leave the low set at most
    // one sample off its rank; the nearest-rank expression is the one a
    // full sort would index with.
    const auto rank = static_cast<std::size_t>(
        q_ * static_cast<double>(ring_.size() - 1) + 0.5);
    if (low_values_.size() > rank) {
        const auto at = static_cast<std::uint32_t>(
            std::max_element(low_values_.begin(), low_values_.end()) -
            low_values_.begin());
        const sim::Duration value = low_values_[at];
        const std::uint32_t from = low_slots_[at];
        removeLow(at);
        high_.push_back(High{value, from}); // ≤ every high sample
        ring_[from].low = kInHigh;
    } else if (low_values_.size() < rank) {
        const High smallest = high_.back();
        high_.pop_back();
        pushLow(smallest.value, smallest.slot);
    }
}

void
LatencyTracker::pushLow(sim::Duration value, std::uint32_t slot)
{
    ring_[slot].low = static_cast<std::uint32_t>(low_values_.size());
    low_values_.push_back(value);
    low_slots_.push_back(slot);
}

void
LatencyTracker::removeLow(std::uint32_t at)
{
    const std::size_t last = low_values_.size() - 1;
    if (at != last) {
        low_values_[at] = low_values_[last];
        low_slots_[at] = low_slots_[last];
        ring_[low_slots_[at]].low = at;
    }
    low_values_.pop_back();
    low_slots_.pop_back();
}

} // namespace dri::rpc
