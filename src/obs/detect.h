/**
 * @file
 * Streaming anomaly detection over metric streams, plus the harness
 * that scores the detector against the diurnal load model's seeded
 * ground truth.
 *
 * EwmaMadDetector is a robust z-score. It tracks an EWMA of the level
 * and an EWMA of absolute deviations (a streaming MAD stand-in, scaled
 * by 1.4826 to estimate sigma under normality); a point whose deviation
 * exceeds kDetectorZThreshold sigmas is an anomaly. It is robust on two
 * fronts: the baseline initializes from the MEDIAN (and median absolute
 * deviation) of the warmup samples, so an anomaly landing inside the
 * warmup window cannot seed a contaminated baseline; and after warmup
 * the trackers only absorb flagged points at the (slower) contaminated
 * rate — one giant spike neither drags the level nor inflates the
 * spread enough to mask the next spike.
 *
 * The detector is a pure streaming state machine: no RNG, byte-identical
 * flag sequences for identical input streams.
 *
 * The evaluation harness replays a DiurnalLoadModel's realized/forecast
 * load ratio (diurnal shape divided out, so the detector sees a flat
 * line with seeded Poisson burst overlays) and scores detection latency
 * and false positives against the model's own burstCount() ground
 * truth — the "seeded fault injection" this layer's tests and the
 * alerting study are built on.
 */
#pragma once

#include <string>
#include <vector>

namespace dri::workload {
class DiurnalLoadModel;
}

namespace dri::obs {

/**
 * Robust z-score above which a sample is anomalous. 3.5 is the classic
 * robust-outlier cutoff.
 */
inline constexpr double kDetectorZThreshold = 3.5;
/**
 * Samples buffered before any flag can be raised; the baseline
 * initializes from their median / median-absolute-deviation.
 */
inline constexpr int kDetectorWarmupSamples = 4;
static_assert(kDetectorWarmupSamples >= 1);

/** EWMA level + EWMA absolute-deviation robust z-score detector. */
class EwmaMadDetector
{
  public:
    std::string name() const { return "ewma-mad"; }

    /** Consume one sample; true when this sample raises a detection. */
    bool step(double value);

    /** Forget all learned state. */
    void reset();

    /** Robust z-score of the most recent sample. */
    double lastZ() const { return last_z_; }
    double level() const { return level_; }

  private:
    std::vector<double> warmup_;
    double level_ = 0.0;
    double abs_dev_ = 0.0;
    double last_z_ = 0.0;
    int seen_ = 0;
};

/**
 * Ground-truth scoring of a detector against seeded burst overlays.
 *
 * Ground truth: epoch e is a burst epoch iff load.burstCount(e) > 0. A
 * maximal run of burst epochs is one EPISODE. A flag at epoch f is
 * credited to the earliest unclaimed episode whose start lies in
 * [f - match_window_epochs, f]; its detection latency is f - start.
 * Flags matching no episode are false positives; episodes no flag
 * claims are misses.
 */
struct DetectionEval
{
    std::string detector;
    int epochs = 0;
    int episodes = 0;  //!< ground-truth burst episodes in the trace
    int detected = 0;  //!< episodes at least one flag claimed
    int missed = 0;
    int false_positives = 0; //!< flags crediting no episode
    int flags = 0;           //!< total flags raised
    /** Latencies (epochs from episode start) of detected episodes. */
    std::vector<int> latencies;

    double meanLatency() const;
    int maxLatency() const;
    double detectionRate() const;
};

/**
 * Score an already-produced per-epoch flag sequence against the load
 * model's burst ground truth (the matching rules above). This is what
 * FleetSim uses for detectors that ran ONLINE during a fleet run.
 */
DetectionEval scoreFlags(const std::string &detector_name,
                         const std::vector<bool> &flags,
                         const workload::DiurnalLoadModel &load,
                         int match_window_epochs = 2);

/**
 * Replay `epochs` epochs of the load model's realized/forecast ratio
 * through the detector (after reset()) and score it. The signal is the
 * burst overlay alone — detrended of diurnal shape — which is exactly
 * what a production detector fed "load vs forecast" sees.
 */
DetectionEval evaluateDetector(EwmaMadDetector &detector,
                               const workload::DiurnalLoadModel &load,
                               int epochs, int match_window_epochs = 2);

} // namespace dri::obs
