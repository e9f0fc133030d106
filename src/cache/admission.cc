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
 * The doorkeeper test both wrappers share: may a missed row enter
 * `target`? Always when it fits without an eviction; under byte
 * pressure only when `filter` admits it, and a veto counts one
 * admission reject in `stats`.
 */
bool
passesDoorkeeper(const TinyLfuFilter &filter, const EmbeddingCache &target,
                 RowRef row, std::int64_t row_bytes, CacheStats &stats)
{
    if (target.usedBytes() + row_bytes <= target.capacityBytes() ||
        filter.admit(row.key))
        return true;
    ++stats.admission_rejects;
    return false;
}

/**
 * The window's share `fraction` of a `total`-byte budget (total >= 0):
 * at least one byte, so a row can wait there for its second access, but
 * never more than the total.
 */
std::int64_t
windowBytes(double fraction, std::int64_t total)
{
    return std::min(total, std::max<std::int64_t>(
                               1, static_cast<std::int64_t>(
                                      fraction * static_cast<double>(total))));
}

/**
 * TinyLFU admission: owns the inner cache and the doorkeeper, keeps its
 * own hit/miss/reject counters (the inner cache's counters only see the
 * accesses that were allowed through, so the wrapper's are authoritative).
 * The inner cache sees the wrapper's row numbers.
 */
class AdmittingCache : public EmbeddingCache
{
  public:
    explicit AdmittingCache(std::unique_ptr<EmbeddingCache> inner)
        : inner_(std::move(inner))
    {
        inner_->setEvictionHook(
            [this](RowRef row, std::int64_t bytes) { evicted(row, bytes); });
    }

    std::int64_t capacityBytes() const override
    {
        return inner_->capacityBytes();
    }
    void setCapacityBytes(std::int64_t capacity_bytes) override
    {
        inner_->setCapacityBytes(capacity_bytes);
    }
    void reserve(std::size_t rows) override { inner_->reserve(rows); }
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

    bool
    contains(RowRef row) const override
    {
        return inner_->contains(row);
    }

  protected:
    bool
    accessRow(RowRef row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        filter_.onAccess(row.key);
        if (inner_->contains(row)) {
            ++stats_.hits;
            inner_->access(row, row_bytes); // recency/freq bump
            return true;
        }
        ++stats_.misses;
        // A vetoed row bypasses: it is not worth an eviction.
        if (passesDoorkeeper(filter_, *inner_, row, row_bytes, stats_))
            inner_->access(row, row_bytes);
        return false;
    }

  private:
    std::unique_ptr<EmbeddingCache> inner_;
    TinyLfuFilter filter_;
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
 * toward the pure doorkeeper. Window and main see the composite's row
 * numbers: one id space.
 */
class WindowedAdmittingCache : public EmbeddingCache
{
  public:
    /** `main` is already sized to the main share of the budget. */
    WindowedAdmittingCache(std::unique_ptr<EmbeddingCache> main,
                           std::int64_t window_bytes)
        : main_(std::move(main)),
          window_(makeCache(Policy::Lru, window_bytes)),
          total_bytes_(main_->capacityBytes() + window_bytes)
    {
        fraction_ = total_bytes_ > 0
                        ? static_cast<double>(window_bytes) /
                              static_cast<double>(total_bytes_)
                        : 0.0;
        // Window evictions are promotion candidates, not cache exits —
        // unless the doorkeeper vetoes them under main-cache pressure.
        window_->setEvictionHook([this](RowRef row, std::int64_t bytes) {
            promote(row, bytes);
        });
        main_->setEvictionHook(
            [this](RowRef row, std::int64_t bytes) { evicted(row, bytes); });
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

    /** Window and main share the id space: each gets the whole hint. */
    void
    reserve(std::size_t rows) override
    {
        window_->reserve(rows);
        main_->reserve(rows);
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
    setCapacityBytes(std::int64_t capacity_bytes) override
    {
        total_bytes_ = capacity_bytes > 0 ? capacity_bytes : 0;
        applySplit();
    }

    bool
    contains(RowRef row) const override
    {
        return main_->contains(row) || window_->contains(row);
    }

  protected:
    bool
    accessRow(RowRef row, std::int64_t row_bytes) override
    {
        ++stats_.accesses;
        filter_.onAccess(row.key);
        const bool hit = serve(row, row_bytes);
        if (hit)
            ++stats_.hits;
        else
            ++stats_.misses;
        climb(hit);
        return hit;
    }

  private:
    bool
    serve(RowRef row, std::int64_t row_bytes)
    {
        if (main_->contains(row)) {
            main_->access(row, row_bytes); // recency/freq bump
            return true;
        }
        if (window_->contains(row)) {
            window_->access(row, row_bytes); // LRU bump
            return true;
        }
        if (row_bytes > window_->capacityBytes()) {
            // A row the window cannot hold at all skips straight to the
            // main-cache admission test instead of silently bypassing.
            promote(row, row_bytes);
            return false;
        }
        window_->access(row, row_bytes);
        return false;
    }

    void
    promote(RowRef row, std::int64_t row_bytes)
    {
        if (passesDoorkeeper(filter_, *main_, row, row_bytes, stats_)) {
            main_->access(row, row_bytes);
            return;
        }
        ++dropped_;
        evicted(row, row_bytes); // the row leaves the cache
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
        const std::int64_t window_bytes = windowBytes(fraction_, total_bytes_);
        window_->setCapacityBytes(window_bytes);
        main_->setCapacityBytes(total_bytes_ - window_bytes);
    }

    std::unique_ptr<EmbeddingCache> main_;
    std::unique_ptr<EmbeddingCache> window_;
    TinyLfuFilter filter_;
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
TinyLfuFilter::slotFor(std::uint64_t key, int i)
{
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
TinyLfuFilter::onAccess(std::uint64_t key)
{
    // Conservative increment: only the minimal counters grow, which keeps
    // the count-min over-estimate as tight as 4 bits allow.
    const int min_est = estimate(key);
    if (min_est < 15) {
        for (int i = 0; i < kDepth; ++i) {
            const std::size_t slot = slotFor(key, i);
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
TinyLfuFilter::estimate(std::uint64_t key) const
{
    int min_est = 15;
    for (int i = 0; i < kDepth; ++i)
        min_est = std::min(min_est, counterAt(slotFor(key, i)));
    return min_est;
}

bool
TinyLfuFilter::admit(std::uint64_t key) const
{
    return estimate(key) >= kAdmitThreshold;
}

std::unique_ptr<EmbeddingCache>
makeCacheWithAdmission(Policy policy, std::int64_t capacity_bytes,
                       Admission admission)
{
    if (admission == Admission::WTinyLfu) {
        // Split the budget so every admission variant competes at the
        // identical total byte budget.
        const std::int64_t total = std::max<std::int64_t>(0, capacity_bytes);
        const std::int64_t window = windowBytes(kWindowFraction, total);
        return std::make_unique<WindowedAdmittingCache>(
            makeCache(policy, total - window), window);
    }
    auto cache = makeCache(policy, capacity_bytes);
    if (admission == Admission::TinyLfu)
        return std::make_unique<AdmittingCache>(std::move(cache));
    return cache;
}

} // namespace dri::cache
