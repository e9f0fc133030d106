/**
 * @file
 * Rolling time window over a latency stream: the bridge from the
 * collection layer (obs::Histogram, per-request stats) to *online*
 * judgments (the trace sampler's rolling tail threshold, which it feeds
 * from the request roots it judges).
 *
 * The horizon is split into a ring of equal-width time buckets, each
 * holding an HDR-style obs::Histogram. Observations land in the bucket
 * their timestamp selects; advancing time reuses expired slots in
 * place, so eviction is O(1) per bucket regardless of how many samples
 * fall out. Queries merge the live buckets with Histogram::merge, which
 * answers the same quantiles as one histogram fed the whole window.
 *
 * Windows run on the *simulated* clock and are pure data structures:
 * no RNG, no scheduled events — attaching one to a live simulation can
 * never perturb it (the contract the stress grid enforces for the
 * sampler-fed window).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "obs/histogram.h"

namespace dri::obs {

/** Ring geometry: horizon_s split into `buckets` slots. */
struct WindowConfig
{
    /** Window length in (simulated) seconds. */
    double horizon_s = 60.0;
    /** Time buckets the horizon is split into (eviction granularity). */
    int buckets = 8;
};

/**
 * Rolling window over an integer-valued stream (latency nanoseconds)
 * with HDR-histogram buckets instead of exact samples: O(log range)
 * memory per time bucket no matter the request rate, quantiles within
 * 2^-sub_bucket_bits relative error via Histogram::valueAtQuantile.
 * This is the trace sampler's rolling in-run P99 window.
 *
 * Out-of-order timestamps are tolerated: a late sample whose bucket is
 * still live lands in that bucket, and a sample more than a full
 * horizon older than the data its ring slot holds is dropped (counted
 * in droppedStale()) rather than wiping the live bucket that happens to
 * share the slot. Completion-time feeds (latency samples stamped with
 * the *start* of the request) hit both cases routinely.
 */
class RollingHistogram
{
  public:
    explicit RollingHistogram(WindowConfig config = {},
                              unsigned sub_bucket_bits = 5);

    /** Observe @p value at time @p t_s. */
    void observe(double t_s, std::int64_t value);

    std::uint64_t count(double t_s) const;

    /** Merged histogram of the live buckets as of t_s. */
    Histogram merged(double t_s) const;

    /**
     * Windowed quantile (bucket-interpolated); `empty_value` when the
     * window holds no sample.
     */
    double valueAtQuantile(double t_s, double q,
                           double empty_value = 0.0) const;

    /** Samples dropped because they arrived over a horizon late. */
    std::uint64_t droppedStale() const { return dropped_stale_; }

    const WindowConfig &config() const { return cfg_; }

  private:
    struct Slot
    {
        std::int64_t period = -1;
        Histogram hist;

        explicit Slot(unsigned bits) : hist(bits) {}
    };

    std::int64_t periodOf(double t_s) const;

    /** Slot for an observe at period @p p, or nullptr (stale sample). */
    Slot *slotFor(std::int64_t p);

    WindowConfig cfg_;
    double bucket_width_s_;
    unsigned sub_bucket_bits_;
    std::vector<Slot> slots_;
    std::uint64_t dropped_stale_ = 0;
};

} // namespace dri::obs
