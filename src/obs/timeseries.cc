#include "obs/timeseries.h"

#include <cmath>
#include <stdexcept>

namespace dri::obs {

namespace {

void
validate(const WindowConfig &cfg)
{
    if (cfg.horizon_s <= 0.0)
        throw std::invalid_argument("WindowConfig: horizon_s must be > 0");
    if (cfg.buckets <= 0)
        throw std::invalid_argument("WindowConfig: buckets must be > 0");
}

std::int64_t
periodAt(double t_s, double bucket_width_s)
{
    if (t_s < 0.0)
        t_s = 0.0;
    return static_cast<std::int64_t>(std::floor(t_s / bucket_width_s));
}

/** Bucket is part of the window ending at now_period (inclusive). */
bool
inWindow(std::int64_t period, std::int64_t now_period, int buckets)
{
    return period >= 0 && period <= now_period &&
           period > now_period - buckets;
}

} // namespace

RollingHistogram::RollingHistogram(WindowConfig config,
                                   unsigned sub_bucket_bits)
    : cfg_(config), sub_bucket_bits_(sub_bucket_bits)
{
    validate(cfg_);
    bucket_width_s_ = cfg_.horizon_s / cfg_.buckets;
    slots_.reserve(static_cast<std::size_t>(cfg_.buckets));
    for (int i = 0; i < cfg_.buckets; ++i)
        slots_.emplace_back(sub_bucket_bits_);
}

std::int64_t
RollingHistogram::periodOf(double t_s) const
{
    return periodAt(t_s, bucket_width_s_);
}

RollingHistogram::Slot *
RollingHistogram::slotFor(std::int64_t p)
{
    Slot &s = slots_[static_cast<std::size_t>(p % cfg_.buckets)];
    if (p > s.period) {
        s.hist = Histogram(sub_bucket_bits_);
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

std::uint64_t
RollingHistogram::count(double t_s) const
{
    const std::int64_t now = periodOf(t_s);
    std::uint64_t n = 0;
    for (const Slot &s : slots_)
        if (inWindow(s.period, now, cfg_.buckets))
            n += s.hist.count();
    return n;
}

Histogram
RollingHistogram::merged(double t_s) const
{
    const std::int64_t now = periodOf(t_s);
    Histogram out(sub_bucket_bits_);
    for (const Slot &s : slots_)
        if (inWindow(s.period, now, cfg_.buckets))
            out.merge(s.hist);
    return out;
}

double
RollingHistogram::valueAtQuantile(double t_s, double q,
                                  double empty_value) const
{
    const Histogram h = merged(t_s);
    return h.count() > 0 ? h.valueAtQuantile(q) : empty_value;
}

} // namespace dri::obs
