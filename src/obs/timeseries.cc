#include "obs/timeseries.h"

#include <cmath>
#include <stdexcept>

namespace dri::obs {

RollingHistogram::RollingHistogram(double horizon_s)
    : bucket_width_s_(horizon_s / kBuckets), slots_(kBuckets)
{
    if (!(horizon_s > 0.0))
        throw std::invalid_argument(
            "RollingHistogram: horizon_s must be > 0");
}

std::int64_t
RollingHistogram::periodOf(double t_s) const
{
    if (t_s < 0.0)
        t_s = 0.0;
    return static_cast<std::int64_t>(std::floor(t_s / bucket_width_s_));
}

RollingHistogram::Slot *
RollingHistogram::slotFor(std::int64_t p)
{
    Slot &s = slots_[static_cast<std::size_t>(p % kBuckets)];
    if (p > s.period) {
        s.hist = Histogram(kSubBucketBits);
        s.period = p;
    } else if (p < s.period) {
        // Out-of-order sample from more than a full horizon before the
        // data this slot holds (same ring position, older cycle): drop
        // it and count the loss rather than wipe the live bucket.
        ++dropped_stale_;
        return nullptr;
    }
    return &s;
}

void
RollingHistogram::observe(double t_s, std::int64_t value)
{
    Slot *s = slotFor(periodOf(t_s));
    if (s != nullptr)
        s->hist.observe(value);
}

template <class Visit>
void
RollingHistogram::forEachLive(double t_s, Visit &&visit) const
{
    // Live: the kBuckets periods ending at t_s's, inclusive.
    const std::int64_t now = periodOf(t_s);
    for (const Slot &s : slots_)
        if (s.period >= 0 && s.period <= now && s.period > now - kBuckets)
            visit(s.hist);
}

std::uint64_t
RollingHistogram::count(double t_s) const
{
    std::uint64_t n = 0;
    forEachLive(t_s, [&n](const Histogram &h) { n += h.count(); });
    return n;
}

Histogram
RollingHistogram::merged(double t_s) const
{
    Histogram out(kSubBucketBits);
    forEachLive(t_s, [&out](const Histogram &h) { out.merge(h); });
    return out;
}

double
RollingHistogram::valueAtQuantile(double t_s, double q,
                                  double empty_value) const
{
    return Histogram::quantileOfSum(
        [this, t_s](auto &&visit) { forEachLive(t_s, visit); }, q,
        empty_value);
}

} // namespace dri::obs
