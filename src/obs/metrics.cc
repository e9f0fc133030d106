#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dri::obs {

Histogram::Histogram(unsigned sub_bucket_bits)
    : sub_bucket_bits_(sub_bucket_bits)
{
    if (sub_bucket_bits > kMaxSubBucketBits)
        throw std::invalid_argument(
            "Histogram: sub_bucket_bits must be <= " +
            std::to_string(kMaxSubBucketBits) + ", got " +
            std::to_string(sub_bucket_bits));
    sub_ = std::int64_t{1} << sub_bucket_bits;
}

namespace {

/** Position of the most significant set bit (value must be > 0). */
unsigned
msb(std::int64_t value)
{
    unsigned pos = 0;
    while (value > 1) {
        value >>= 1;
        ++pos;
    }
    return pos;
}

} // namespace

std::size_t
Histogram::bucketIndex(std::int64_t value) const
{
    if (value < 0)
        value = 0;
    if (value < sub_)
        return static_cast<std::size_t>(value);
    const unsigned top = msb(value) - sub_bucket_bits_;
    return static_cast<std::size_t>(
        (static_cast<std::int64_t>(top) << sub_bucket_bits_) +
        ((value >> top) - sub_) + sub_);
}

std::int64_t
Histogram::bucketLowerBound(std::size_t idx) const
{
    const auto i = static_cast<std::int64_t>(idx);
    if (i < sub_)
        return i;
    const std::int64_t top = (i - sub_) >> sub_bucket_bits_;
    const std::int64_t rem = (i - sub_) & (sub_ - 1);
    return (sub_ + rem) << top;
}

void
Histogram::observe(std::int64_t value)
{
    if (value < 0)
        value = 0;
    const std::size_t idx = bucketIndex(value);
    if (idx >= buckets_.size())
        buckets_.resize(idx + 1, 0);
    ++buckets_[idx];
    if (count_ == 0 || value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
    sum_ += value;
    ++count_;
}

void
Histogram::setExemplarCapacity(std::size_t k)
{
    exemplar_capacity_ = k;
    if (k == 0) {
        exemplars_.clear();
        return;
    }
    for (auto &[bucket, list] : exemplars_)
        if (list.size() > k)
            list.resize(k);
}

void
Histogram::admitExemplar(std::size_t bucket, const Exemplar &ex)
{
    std::vector<Exemplar> *list = nullptr;
    for (auto &[b, l] : exemplars_)
        if (b == bucket) {
            list = &l;
            break;
        }
    if (list == nullptr) {
        exemplars_.emplace_back(bucket, std::vector<Exemplar>{});
        list = &exemplars_.back().second;
    }
    if (list->size() < exemplar_capacity_) {
        list->push_back(ex);
        return;
    }
    // Full bucket: a retained exemplar may displace the first
    // non-retained occupant, so tail buckets end up pointing at traces
    // that actually exist in the sampler's retained set.
    if (!ex.retained)
        return;
    for (Exemplar &slot : *list)
        if (!slot.retained) {
            slot = ex;
            return;
        }
}

void
Histogram::observe(std::int64_t value, std::uint64_t request_id,
                   bool retained)
{
    observe(value);
    if (exemplar_capacity_ == 0)
        return;
    Exemplar ex;
    ex.value = value < 0 ? 0 : value;
    ex.request_id = request_id;
    ex.retained = retained;
    admitExemplar(bucketIndex(value), ex);
}

const std::vector<Exemplar> &
Histogram::exemplarsFor(std::int64_t value) const
{
    static const std::vector<Exemplar> kEmpty;
    const std::size_t bucket = bucketIndex(value);
    for (const auto &[b, l] : exemplars_)
        if (b == bucket)
            return l;
    return kEmpty;
}

const Exemplar *
Histogram::tailExemplar() const
{
    const Exemplar *best = nullptr;
    std::size_t best_bucket = 0;
    for (const auto &[bucket, list] : exemplars_) {
        if (list.empty())
            continue;
        if (best != nullptr && bucket < best_bucket)
            continue;
        const Exemplar *pick = &list.front();
        for (const Exemplar &ex : list)
            if (ex.retained && !pick->retained)
                pick = &ex;
        best = pick;
        best_bucket = bucket;
    }
    return best;
}

std::int64_t
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::min(1.0, std::max(0.0, q));
    // Nearest-rank within the bucketed distribution.
    const auto rank = static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= rank) {
            // Clamp to observed extremes so p0/p100 are exact.
            const std::int64_t lo = bucketLowerBound(i);
            return std::min(max_, std::max(min_, lo));
        }
    }
    return max_;
}

double
Histogram::valueAtQuantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const double target = q * static_cast<double>(count_);
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(target)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        if (seen + buckets_[i] < rank) {
            seen += buckets_[i];
            continue;
        }
        // Rank lands in bucket i: interpolate by fractional rank
        // position across the bucket's value range [lo, hi).
        const auto lo = static_cast<double>(bucketLowerBound(i));
        const auto hi = static_cast<double>(bucketLowerBound(i + 1));
        const double into =
            (target - static_cast<double>(seen)) /
            static_cast<double>(buckets_[i]);
        const double v = lo + (hi - lo) * std::min(1.0, std::max(0.0, into));
        return std::min(static_cast<double>(max_),
                        std::max(static_cast<double>(min_), v));
    }
    return static_cast<double>(max_);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.sub_bucket_bits_ != sub_bucket_bits_)
        throw std::logic_error(
            "Histogram::merge: sub_bucket_bits mismatch");
    if (other.count_ == 0)
        return;
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    if (count_ == 0 || other.min_ < min_)
        min_ = other.min_;
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    count_ += other.count_;
    if (exemplar_capacity_ > 0)
        for (const auto &[bucket, list] : other.exemplars_)
            for (const Exemplar &ex : list)
                admitExemplar(bucket, ex);
}

MetricsRegistry::Entry &
MetricsRegistry::find(const std::string &name, MetricKind kind)
{
    const auto it = index_.find(name);
    if (it != index_.end()) {
        Entry &e = entries_[it->second];
        if (e.kind != kind)
            throw std::logic_error("MetricsRegistry: metric '" + name +
                                   "' re-registered with different kind");
        return e;
    }
    Entry e;
    e.name = name;
    e.kind = kind;
    index_.emplace(name, entries_.size());
    entries_.push_back(std::move(e));
    return entries_.back();
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    Entry &e = find(name, MetricKind::Counter);
    if (e.counter == nullptr) {
        counters_.emplace_back();
        e.counter = &counters_.back();
    }
    return *e.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    Entry &e = find(name, MetricKind::Gauge);
    if (e.gauge == nullptr) {
        gauges_.emplace_back();
        e.gauge = &gauges_.back();
    }
    return *e.gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name, unsigned sub_bucket_bits)
{
    // Construct first: a rejected sub_bucket_bits must throw before
    // find() registers an entry that has no histogram behind it.
    Histogram fresh(sub_bucket_bits);
    Entry &e = find(name, MetricKind::Histogram);
    if (e.histogram == nullptr) {
        histograms_.push_back(std::move(fresh));
        e.histogram = &histograms_.back();
    }
    return *e.histogram;
}

void
MetricsRegistry::takeSnapshot(double t_seconds)
{
    MetricsSnapshot snap;
    snap.t = t_seconds;
    for (const Entry &e : entries_) {
        switch (e.kind) {
        case MetricKind::Counter:
            snap.values.emplace_back(
                e.name, static_cast<double>(e.counter->value()));
            break;
        case MetricKind::Gauge:
            snap.values.emplace_back(e.name, e.gauge->value());
            break;
        case MetricKind::Histogram: {
            const Histogram &h = *e.histogram;
            snap.values.emplace_back(
                e.name + ".count", static_cast<double>(h.count()));
            snap.values.emplace_back(
                e.name + ".p50", static_cast<double>(h.quantile(0.50)));
            snap.values.emplace_back(
                e.name + ".p99", static_cast<double>(h.quantile(0.99)));
            snap.values.emplace_back(e.name + ".max",
                                     static_cast<double>(h.max()));
            // Exemplar keys appear ONLY when exemplars are enabled, so
            // plain-histogram snapshots (and every committed baseline)
            // are byte-identical to the pre-exemplar format.
            if (h.exemplarCapacity() > 0) {
                const Exemplar *tail = h.tailExemplar();
                if (tail != nullptr) {
                    snap.values.emplace_back(
                        e.name + ".tail_exemplar_value",
                        static_cast<double>(tail->value));
                    snap.values.emplace_back(
                        e.name + ".tail_exemplar_request",
                        static_cast<double>(tail->request_id));
                    snap.values.emplace_back(
                        e.name + ".tail_exemplar_retained",
                        tail->retained ? 1.0 : 0.0);
                }
            }
            break;
        }
        }
    }
    snapshots_.push_back(std::move(snap));
}

} // namespace dri::obs
