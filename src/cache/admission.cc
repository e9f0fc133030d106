#include "cache/admission.h"

#include <algorithm>
#include <utility>

#include "stats/hash.h"

namespace dri::cache {

namespace {

using stats::mix64;

/**
 * Minimum sketch estimate (post-increment) required to admit a row
 * under pressure. 2 means: seen at least twice within the recent
 * window — exactly the one-hit-wonder test.
 */
constexpr int kAdmitThreshold = 2;

/**
 * Initial fraction of the total byte budget given to the W-TinyLFU
 * admission window. Classic W-TinyLFU uses ~1%; embedding traffic with
 * a drifting working set needs the window to hold a row until its
 * second access, so the split starts larger and the climber adapts from
 * there.
 */
constexpr double kWindowFraction = 0.3;
static_assert(kWindowFraction > 0.0 && kWindowFraction <= 0.9);
/**
 * Adaptive window sizing (the Caffeine refinement): every kClimbPeriod
 * accesses the composite compares its hit rate over the last period
 * against the period before, and moves the window fraction by
 * kClimbStep in the direction that last improved it (reversing when it
 * got worse), within [kMinWindowFraction, kMaxWindowFraction].
 */
constexpr std::uint64_t kClimbPeriod = 2000;
constexpr double kClimbStep = 0.05;
constexpr double kMinWindowFraction = 0.02;
constexpr double kMaxWindowFraction = 0.8;
static_assert(kClimbPeriod > 0);
static_assert(kMinWindowFraction < kMaxWindowFraction);

/**
 * Admission decorator: owns the inner cache and a filter, keeps its own
 * hit/miss/reject counters (the inner cache's counters only see the
 * accesses that were allowed through, so the wrapper's are authoritative).
 */
class AdmittingCache : public EmbeddingCache
{
  public:
    AdmittingCache(std::unique_ptr<EmbeddingCache> inner,
                   std::shared_ptr<AdmissionFilter> filter)
        : inner_(std::move(inner)), filter_(std::move(filter))
    {
    }

    bool
    access(int table, std::int64_t row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        filter_->onAccess(table, row);
        if (inner_->contains(table, row)) {
            ++stats_.hits;
            inner_->access(table, row, row_bytes); // recency/freq bump
            return true;
        }
        ++stats_.misses;
        const bool pressure =
            inner_->usedBytes() + row_bytes > inner_->capacityBytes();
        if (pressure && !filter_->admit(table, row, row_bytes)) {
            ++stats_.admission_rejects;
            return false; // bypass: the row is not worth an eviction
        }
        inner_->access(table, row, row_bytes);
        return false;
    }

    bool
    contains(int table, std::int64_t row) const override
    {
        return inner_->contains(table, row);
    }

    std::int64_t capacityBytes() const override
    {
        return inner_->capacityBytes();
    }
    void setCapacityBytes(std::int64_t capacity_bytes) override
    {
        inner_->setCapacityBytes(capacity_bytes);
    }
    std::int64_t usedBytes() const override { return inner_->usedBytes(); }
    std::size_t residentRows() const override
    {
        return inner_->residentRows();
    }
    std::int64_t ghostBytes() const override
    {
        return inner_->ghostBytes();
    }

    const CacheStats &
    stats() const override
    {
        // Evictions happen inside the inner cache; surface them through
        // the wrapper's otherwise-authoritative counters.
        stats_.evictions = inner_->stats().evictions;
        return stats_;
    }

    void
    resetStats() override
    {
        stats_ = CacheStats{};
        inner_->resetStats();
    }

    void
    setEvictionHook(std::function<void(int, std::int64_t, std::int64_t)>
                        hook) override
    {
        inner_->setEvictionHook(std::move(hook));
    }

    Policy policy() const override { return inner_->policy(); }

  private:
    std::unique_ptr<EmbeddingCache> inner_;
    std::shared_ptr<AdmissionFilter> filter_;
    mutable CacheStats stats_;
};

/**
 * W-TinyLFU decorator: a small LRU window absorbs every missed row; rows
 * the window evicts are candidates for the main cache and face the
 * doorkeeper only there (and only under byte pressure). The window is
 * where drifting-recency rows serve their reuse without waiting for the
 * sketch to have seen them twice. A hill climber re-splits the constant
 * total budget between window and main every kClimbPeriod accesses,
 * following the hit-rate gradient: recency-dominated traffic grows the
 * window toward LRU behaviour, frequency-dominated traffic shrinks it
 * toward the pure doorkeeper.
 */
class WindowedAdmittingCache : public EmbeddingCache
{
  public:
    WindowedAdmittingCache(std::unique_ptr<EmbeddingCache> main,
                           std::int64_t window_bytes,
                           std::shared_ptr<AdmissionFilter> filter)
        : main_(std::move(main)),
          window_(makeCache(Policy::Lru, window_bytes)),
          filter_(std::move(filter)),
          total_bytes_(main_->capacityBytes() + window_bytes)
    {
        fraction_ = total_bytes_ > 0
                        ? static_cast<double>(window_bytes) /
                              static_cast<double>(total_bytes_)
                        : 0.0;
        // Window evictions are promotion candidates, not cache exits —
        // unless the doorkeeper vetoes them under main-cache pressure.
        window_->setEvictionHook(
            [this](int table, std::int64_t row, std::int64_t row_bytes) {
                promote(table, row, row_bytes);
            });
        main_->setEvictionHook(
            [this](int table, std::int64_t row, std::int64_t row_bytes) {
                if (hook_)
                    hook_(table, row, row_bytes);
            });
    }

    bool
    access(int table, std::int64_t row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        filter_->onAccess(table, row);
        const bool hit = serve(table, row, row_bytes);
        if (hit)
            ++stats_.hits;
        else
            ++stats_.misses;
        climb(hit);
        return hit;
    }

    bool
    contains(int table, std::int64_t row) const override
    {
        return main_->contains(table, row) || window_->contains(table, row);
    }

    std::int64_t capacityBytes() const override
    {
        return main_->capacityBytes() + window_->capacityBytes();
    }
    std::int64_t usedBytes() const override
    {
        return main_->usedBytes() + window_->usedBytes();
    }
    std::size_t residentRows() const override
    {
        return main_->residentRows() + window_->residentRows();
    }
    std::int64_t ghostBytes() const override
    {
        return main_->ghostBytes() + window_->ghostBytes();
    }

    const CacheStats &
    stats() const override
    {
        // A composite eviction is a row leaving the cache entirely: a
        // main-cache eviction, or a window eviction the doorkeeper vetoed.
        stats_.evictions = main_->stats().evictions + dropped_;
        return stats_;
    }

    void
    resetStats() override
    {
        stats_ = CacheStats{};
        dropped_ = 0;
        main_->resetStats();
        window_->resetStats();
    }

    void
    setEvictionHook(std::function<void(int, std::int64_t, std::int64_t)>
                        hook) override
    {
        hook_ = std::move(hook);
    }

    Policy policy() const override { return main_->policy(); }

    void
    setCapacityBytes(std::int64_t capacity_bytes) override
    {
        total_bytes_ = capacity_bytes > 0 ? capacity_bytes : 0;
        applySplit();
    }

    /** Current window share of the total budget (the climber's state). */
    double windowFraction() const { return fraction_; }

  private:
    bool
    serve(int table, std::int64_t row, std::int64_t row_bytes)
    {
        if (main_->contains(table, row)) {
            main_->access(table, row, row_bytes); // recency/freq bump
            return true;
        }
        if (window_->contains(table, row)) {
            window_->access(table, row, row_bytes); // LRU bump
            return true;
        }
        if (row_bytes > window_->capacityBytes()) {
            // A row the window cannot hold at all skips straight to the
            // main-cache admission test instead of silently bypassing.
            promote(table, row, row_bytes);
            return false;
        }
        window_->access(table, row, row_bytes);
        return false;
    }

    void
    promote(int table, std::int64_t row, std::int64_t row_bytes)
    {
        const bool pressure =
            main_->usedBytes() + row_bytes > main_->capacityBytes();
        if (pressure && !filter_->admit(table, row, row_bytes)) {
            ++stats_.admission_rejects;
            ++dropped_;
            if (hook_)
                hook_(table, row, row_bytes); // the row leaves the cache
            return;
        }
        main_->access(table, row, row_bytes);
    }

    /**
     * Hill-climb the window/main split on the period hit rate. Own
     * counters (not stats_): warmup-boundary resetStats() must not
     * perturb the climber's gradient estimate.
     */
    void
    climb(bool hit)
    {
        period_accesses_ += 1;
        period_hits_ += hit ? 1 : 0;
        if (period_accesses_ < kClimbPeriod)
            return;
        const double rate = static_cast<double>(period_hits_) /
                            static_cast<double>(period_accesses_);
        period_accesses_ = 0;
        period_hits_ = 0;
        if (last_rate_ >= 0.0 && rate < last_rate_)
            direction_ = -direction_; // the last move made things worse
        last_rate_ = rate;
        fraction_ = std::clamp(fraction_ + direction_ * kClimbStep,
                               kMinWindowFraction, kMaxWindowFraction);
        applySplit();
    }

    void
    applySplit()
    {
        const auto window_bytes = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   fraction_ * static_cast<double>(total_bytes_)));
        window_->setCapacityBytes(window_bytes);
        main_->setCapacityBytes(total_bytes_ - window_bytes);
    }

    std::unique_ptr<EmbeddingCache> main_;
    std::unique_ptr<EmbeddingCache> window_;
    std::shared_ptr<AdmissionFilter> filter_;
    std::function<void(int, std::int64_t, std::int64_t)> hook_;
    mutable CacheStats stats_;
    std::int64_t dropped_ = 0; //!< window evictions vetoed by the filter

    // Climber state.
    std::int64_t total_bytes_ = 0;
    double fraction_ = 0.0;
    double direction_ = 1.0;
    double last_rate_ = -1.0;
    std::uint64_t period_accesses_ = 0;
    std::uint64_t period_hits_ = 0;
};

} // namespace

std::string
admissionName(Admission admission)
{
    switch (admission) {
    case Admission::None:
        return "none";
    case Admission::TinyLfu:
        return "tinylfu";
    case Admission::WTinyLfu:
        return "wtinylfu";
    }
    return "unknown";
}

// Two 4-bit counters per byte, kDepth independent rows.
TinyLfuFilter::TinyLfuFilter() : sketch_(kDepth * kCounters / 2, 0) {}

std::size_t
TinyLfuFilter::slotFor(int table, std::int64_t row, int i)
{
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(table))
         << 48) ^
        static_cast<std::uint64_t>(row);
    // Independent rows via a per-row odd multiplier over the mixed key.
    const std::uint64_t h =
        mix64(key + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1));
    return static_cast<std::size_t>(i) * kCounters + (h & (kCounters - 1));
}

int
TinyLfuFilter::counterAt(std::size_t slot) const
{
    const std::uint8_t byte = sketch_[slot / 2];
    return (slot & 1) ? (byte >> 4) & 0xf : byte & 0xf;
}

void
TinyLfuFilter::onAccess(int table, std::int64_t row)
{
    // Conservative increment: only the minimal counters grow, which keeps
    // the count-min over-estimate as tight as 4 bits allow.
    const int min_est = estimate(table, row);
    if (min_est < 15) {
        for (int i = 0; i < kDepth; ++i) {
            const std::size_t slot = slotFor(table, row, i);
            if (counterAt(slot) == min_est) {
                std::uint8_t &byte = sketch_[slot / 2];
                if (slot & 1)
                    byte = static_cast<std::uint8_t>(
                        (byte & 0x0f) |
                        static_cast<std::uint8_t>((min_est + 1) << 4));
                else
                    byte = static_cast<std::uint8_t>(
                        (byte & 0xf0) |
                        static_cast<std::uint8_t>(min_est + 1));
            }
        }
    }
    if (++accesses_ >= kSamplePeriod) {
        // Aging: halve every counter so the sketch tracks the recent
        // window (and dead rows decay back toward zero).
        for (auto &byte : sketch_)
            byte = static_cast<std::uint8_t>(((byte >> 1) & 0x77));
        accesses_ = 0;
        ++agings_;
    }
}

int
TinyLfuFilter::estimate(int table, std::int64_t row) const
{
    int min_est = 15;
    for (int i = 0; i < kDepth; ++i)
        min_est = std::min(min_est, counterAt(slotFor(table, row, i)));
    return min_est;
}

bool
TinyLfuFilter::admit(int table, std::int64_t row, std::int64_t)
{
    return estimate(table, row) >= kAdmitThreshold;
}

std::unique_ptr<TinyLfuFilter>
makeTinyLfu()
{
    return std::make_unique<TinyLfuFilter>();
}

std::unique_ptr<EmbeddingCache>
withAdmission(std::unique_ptr<EmbeddingCache> inner,
              std::shared_ptr<AdmissionFilter> filter)
{
    if (!filter)
        return inner;
    return std::make_unique<AdmittingCache>(std::move(inner),
                                            std::move(filter));
}

std::unique_ptr<EmbeddingCache>
withWindowedAdmission(std::unique_ptr<EmbeddingCache> inner,
                      std::int64_t window_bytes,
                      std::shared_ptr<AdmissionFilter> filter)
{
    if (!filter)
        return inner;
    return std::make_unique<WindowedAdmittingCache>(
        std::move(inner), window_bytes, std::move(filter));
}

std::unique_ptr<EmbeddingCache>
makeCacheWithAdmission(Policy policy, std::int64_t capacity_bytes,
                       Admission admission)
{
    if (admission == Admission::WTinyLfu) {
        // Split the budget so every admission variant competes at the
        // identical total byte budget.
        const auto window_bytes = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   kWindowFraction * static_cast<double>(capacity_bytes)));
        auto main = makeCache(policy, capacity_bytes - window_bytes);
        return withWindowedAdmission(std::move(main), window_bytes,
                                     makeTinyLfu());
    }
    auto cache = makeCache(policy, capacity_bytes);
    if (admission == Admission::TinyLfu)
        return withAdmission(std::move(cache), makeTinyLfu());
    return cache;
}

} // namespace dri::cache
