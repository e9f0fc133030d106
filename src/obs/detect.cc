#include "obs/detect.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "workload/diurnal.h"

namespace dri::obs {

namespace {

/** EWMA smoothing for the level estimate. */
constexpr double kLevelAlpha = 0.3;
/** EWMA smoothing for the absolute-deviation (spread) estimate. */
constexpr double kSpreadAlpha = 0.1;
/**
 * Spread floor as a fraction of the level (and an absolute floor of
 * 1e-12): a perfectly flat baseline must not make every epsilon an
 * infinite-sigma anomaly.
 */
constexpr double kMinSpreadFraction = 0.01;
/**
 * Weight applied to kLevelAlpha/kSpreadAlpha when absorbing a FLAGGED
 * sample: 0 freezes the baseline during anomalies (risking a stuck
 * alarm if the level genuinely shifted), 1 learns at full rate (masking
 * persistent incidents). 0.25 re-learns slowly.
 */
constexpr double kContaminatedLearnFraction = 0.25;

/** Spread floored at min_fraction of the level (and at 1e-12). */
double
floorSpread(double abs_dev, double level, double min_fraction)
{
    const double floor_v = std::max(1e-12, min_fraction * std::abs(level));
    return std::max(abs_dev, floor_v);
}

/** Sigma estimate from a mean-absolute-deviation tracker. */
constexpr double kMadToSigma = 1.4826;

double
zScore(double value, double level, double abs_dev, double min_fraction)
{
    return (value - level) /
           (kMadToSigma * floorSpread(abs_dev, level, min_fraction));
}

void
learn(double &level, double &abs_dev, double value, double level_alpha,
      double spread_alpha)
{
    const double dev = std::abs(value - level);
    level += level_alpha * (value - level);
    abs_dev += spread_alpha * (dev - abs_dev);
}

double
median(std::vector<double> values)
{
    const std::size_t n = values.size();
    const std::size_t mid = n / 2;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.end());
    double m = values[mid];
    if (n % 2 == 0) {
        // Lower-middle element is the max of the left partition.
        const double lo = *std::max_element(
            values.begin(),
            values.begin() + static_cast<std::ptrdiff_t>(mid));
        m = 0.5 * (lo + m);
    }
    return m;
}

/**
 * Seed (level, abs_dev) from the median / median-absolute-deviation of
 * the buffered warmup samples. Up to half the warmup window can be
 * anomalous without contaminating the initial baseline — which is what
 * lets a detector attached at trace start survive a burst in epoch 0.
 */
void
initFromWarmup(const std::vector<double> &warmup, double &level,
               double &abs_dev)
{
    level = median(warmup);
    std::vector<double> devs;
    devs.reserve(warmup.size());
    for (const double v : warmup)
        devs.push_back(std::abs(v - level));
    abs_dev = median(std::move(devs));
}

} // namespace

// ---------------------------------------------------------------------------
// EwmaMadDetector.
// ---------------------------------------------------------------------------

bool
EwmaMadDetector::step(double value)
{
    if (seen_ < kDetectorWarmupSamples) {
        warmup_.push_back(value);
        ++seen_;
        if (seen_ == kDetectorWarmupSamples)
            initFromWarmup(warmup_, level_, abs_dev_);
        last_z_ = 0.0;
        return false;
    }
    last_z_ = zScore(value, level_, abs_dev_, kMinSpreadFraction);
    const bool flagged = std::abs(last_z_) >= kDetectorZThreshold;
    const double w = flagged ? kContaminatedLearnFraction : 1.0;
    learn(level_, abs_dev_, value, w * kLevelAlpha, w * kSpreadAlpha);
    ++seen_;
    return flagged;
}

void
EwmaMadDetector::reset()
{
    warmup_.clear();
    level_ = 0.0;
    abs_dev_ = 0.0;
    last_z_ = 0.0;
    seen_ = 0;
}

// ---------------------------------------------------------------------------
// Evaluation harness.
// ---------------------------------------------------------------------------

double
DetectionEval::meanLatency() const
{
    if (latencies.empty())
        return 0.0;
    double sum = 0.0;
    for (const int l : latencies)
        sum += l;
    return sum / static_cast<double>(latencies.size());
}

int
DetectionEval::maxLatency() const
{
    int m = 0;
    for (const int l : latencies)
        m = std::max(m, l);
    return m;
}

double
DetectionEval::detectionRate() const
{
    return episodes > 0
               ? static_cast<double>(detected) /
                     static_cast<double>(episodes)
               : 1.0;
}

DetectionEval
scoreFlags(const std::string &detector_name,
           const std::vector<bool> &flags,
           const workload::DiurnalLoadModel &load,
           int match_window_epochs)
{
    const int epochs = static_cast<int>(flags.size());

    // Ground-truth episodes: maximal runs of burst epochs.
    std::vector<int> episode_start;
    std::vector<bool> burst(static_cast<std::size_t>(epochs), false);
    for (int e = 0; e < epochs; ++e) {
        burst[static_cast<std::size_t>(e)] = load.burstCount(e) > 0;
        if (burst[static_cast<std::size_t>(e)] &&
            (e == 0 || !burst[static_cast<std::size_t>(e - 1)]))
            episode_start.push_back(e);
    }

    DetectionEval eval;
    eval.detector = detector_name;
    eval.epochs = epochs;
    eval.episodes = static_cast<int>(episode_start.size());

    std::vector<bool> claimed(episode_start.size(), false);
    for (int e = 0; e < epochs; ++e) {
        if (!flags[static_cast<std::size_t>(e)])
            continue;
        ++eval.flags;
        // Credit the earliest unclaimed episode starting within the
        // match window ending at this flag.
        bool credited = false;
        for (std::size_t i = 0; i < episode_start.size(); ++i) {
            const int start = episode_start[i];
            if (claimed[i] || start > e ||
                start < e - match_window_epochs)
                continue;
            claimed[i] = true;
            eval.latencies.push_back(e - start);
            ++eval.detected;
            credited = true;
            break;
        }
        // A flag during a still-burst epoch of an already-claimed
        // episode is a re-detection, not a false alarm.
        if (!credited && !burst[static_cast<std::size_t>(e)])
            ++eval.false_positives;
    }
    eval.missed = eval.episodes - eval.detected;
    return eval;
}

DetectionEval
evaluateDetector(EwmaMadDetector &detector,
                 const workload::DiurnalLoadModel &load, int epochs,
                 int match_window_epochs)
{
    detector.reset();
    std::vector<bool> flags(static_cast<std::size_t>(epochs), false);
    for (int e = 0; e < epochs; ++e) {
        const double ratio =
            load.realizedQps(e) / std::max(1e-9, load.forecastQps(e));
        flags[static_cast<std::size_t>(e)] = detector.step(ratio);
    }
    return scoreFlags(detector.name(), flags, load, match_window_epochs);
}

} // namespace dri::obs
