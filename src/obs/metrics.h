/**
 * @file
 * Named-metrics registry: counters, gauges, and log-linear histograms
 * with typed handles and periodic sim-time snapshots.
 *
 * The registry turns the fleet simulator's end-of-run ledgers into
 * plottable series: FleetSim registers its gauges once, updates them
 * per epoch, and calls takeSnapshot(t) — each snapshot captures every
 * registered metric in registration order, so the series are
 * deterministic across runs with the same seed.
 *
 * Handles are stable references into node-based storage (std::deque),
 * so registering metric N+1 never invalidates the handle for metric N.
 * Registering the same (name, kind) twice returns the SAME handle —
 * two subsystems can share a counter by name; re-registering a name
 * with a different kind throws std::logic_error.
 *
 * Histograms use HDR-style log-linear bucketing: values below
 * 2^sub_bucket_bits get exact unit buckets; above that, each power-of-
 * two range is split into 2^sub_bucket_bits linear sub-buckets, giving
 * a bounded relative error of 2^-sub_bucket_bits with O(log range)
 * memory.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dri::obs {

/** Monotonic event count. */
class Counter
{
  public:
    void inc(std::int64_t by = 1) { value_ += by; }
    std::int64_t value() const { return value_; }

  private:
    std::int64_t value_ = 0;
};

/** Point-in-time level (queue depth, utilization, replica count...). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * One exemplar: a concrete observation pinned to the bucket it landed
 * in, linking the histogram back to a request — and, when the trace
 * sampler kept that request, to a retained span tree.
 */
struct Exemplar
{
    std::int64_t value = 0;
    std::uint64_t request_id = 0;
    /** True when the request's span tree is retained by the sampler. */
    bool retained = false;
};

/** Log-linear histogram over non-negative integer values. */
class Histogram
{
  public:
    /**
     * Largest accepted sub_bucket_bits: 2^16 sub-buckets per octave
     * (1.5e-5 relative error). The bound keeps `1 << sub_bucket_bits`
     * defined and the bucket vector of any int64 value under 4M slots.
     */
    static constexpr unsigned kMaxSubBucketBits = 16;

    /** Throws std::invalid_argument above kMaxSubBucketBits. */
    explicit Histogram(unsigned sub_bucket_bits = 5);

    void observe(std::int64_t value);

    /**
     * Observe with exemplar metadata. When exemplar capacity is 0 (the
     * default) this is identical to plain observe(); otherwise each
     * bucket keeps up to K exemplars, preferring retained ones (a
     * retained exemplar may replace a non-retained occupant so tail
     * buckets point at traces that actually exist).
     */
    void observe(std::int64_t value, std::uint64_t request_id,
                 bool retained);

    /**
     * Enable per-bucket exemplars, at most @p k per bucket (0 turns
     * them off and drops existing ones). Off by default so plain
     * histogram users pay nothing and snapshots stay unchanged.
     */
    void setExemplarCapacity(std::size_t k);
    std::size_t exemplarCapacity() const { return exemplar_capacity_; }

    /** Exemplars of the bucket holding @p value (empty when off). */
    const std::vector<Exemplar> &exemplarsFor(std::int64_t value) const;

    /**
     * An exemplar from the highest non-empty bucket that has one — the
     * concrete request behind the histogram's tail. Prefers retained
     * exemplars within the bucket. Null when exemplars are off/empty.
     */
    const Exemplar *tailExemplar() const;

    std::uint64_t count() const { return count_; }
    std::int64_t min() const { return count_ > 0 ? min_ : 0; }
    std::int64_t max() const { return max_; }
    std::int64_t sum() const { return sum_; }
    double mean() const
    {
        return count_ > 0 ? static_cast<double>(sum_) /
                                static_cast<double>(count_)
                          : 0.0;
    }

    /**
     * Quantile estimate: lower bound of the bucket holding the q-th
     * observation (nearest-rank). Exact for values < 2^sub_bucket_bits.
     */
    std::int64_t quantile(double q) const;

    /**
     * Bucket-interpolation inverse: the value at quantile q, linearly
     * interpolated by rank position WITHIN the holding bucket (quantile()
     * by contrast snaps to the bucket's lower bound). Because log-linear
     * bucket widths are bounded by 2^-sub_bucket_bits of their lower
     * bound, the result is within that relative error of the exact
     * order statistic; clamped to the observed [min, max].
     */
    double valueAtQuantile(double q) const;

    unsigned subBucketBits() const { return sub_bucket_bits_; }

    /** Bucket index a value lands in (exposed for boundary tests). */
    std::size_t bucketIndex(std::int64_t value) const;

    /** Smallest value mapping to bucket @p idx (inverse of bucketIndex). */
    std::int64_t bucketLowerBound(std::size_t idx) const;

    /** Observations in bucket @p idx (0 past the highest one used). */
    std::uint64_t bucketCount(std::size_t idx) const
    {
        return idx < buckets_.size() ? buckets_[idx] : 0;
    }

    /**
     * Merge another histogram (same sub_bucket_bits) into this one.
     * Exemplars merge too (capacity rules apply on the receiving side).
     */
    void merge(const Histogram &other);

  private:
    void admitExemplar(std::size_t bucket, const Exemplar &ex);

    unsigned sub_bucket_bits_;
    std::int64_t sub_;                 //!< 1 << sub_bucket_bits_
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::int64_t sum_ = 0;
    std::int64_t min_ = 0;
    std::int64_t max_ = 0;
    std::size_t exemplar_capacity_ = 0;
    /** bucket index -> up to K exemplars (sparse: only when enabled). */
    std::vector<std::pair<std::size_t, std::vector<Exemplar>>> exemplars_;
};

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/** One captured time-point: every registered metric, flattened. */
struct MetricsSnapshot
{
    double t = 0.0; //!< sim-time seconds
    std::vector<std::pair<std::string, double>> values;
};

class MetricsRegistry
{
  public:
    /**
     * Register-or-fetch by name. Same (name, kind) returns the same
     * handle; a kind clash throws std::logic_error.
     */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name,
                         unsigned sub_bucket_bits = 5);

    std::size_t size() const { return entries_.size(); }

    /**
     * Capture every registered metric at sim-time @p t_seconds.
     * Counters/gauges flatten to one value; histograms to
     * name.count/.p50/.p99/.max. Iteration is registration order, so
     * snapshots are deterministic.
     */
    void takeSnapshot(double t_seconds);

    const std::vector<MetricsSnapshot> &snapshots() const
    {
        return snapshots_;
    }

  private:
    struct Entry
    {
        std::string name;
        MetricKind kind;
        Counter *counter = nullptr;
        Gauge *gauge = nullptr;
        Histogram *histogram = nullptr;
    };

    Entry &find(const std::string &name, MetricKind kind);

    std::deque<Counter> counters_;
    std::deque<Gauge> gauges_;
    std::deque<Histogram> histograms_;
    std::vector<Entry> entries_; //!< registration order
    std::unordered_map<std::string, std::size_t> index_;
    std::vector<MetricsSnapshot> snapshots_;
};

} // namespace dri::obs
