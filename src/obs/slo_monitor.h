/**
 * @file
 * SLO objectives, error budgets, and multi-window burn-rate alerting.
 *
 * An SloObjective declares an error budget: the fraction of events that
 * may be "bad" (requests over the latency target, shed requests, epochs
 * in violation) while the service still meets its SLO. The monitor is
 * fed per-epoch good/bad counts and answers the SRE-staple question
 * "how fast is the budget burning?": burn rate 1 means the budget
 * exactly lasts its period; burn rate N exhausts it N times too fast.
 *
 * Alerting uses the multi-window burn-rate rule: fire only when BOTH a
 * fast window (catches the spike quickly) and a slow window (proves it
 * is not a blip) exceed their thresholds. Windows count epochs: at
 * epoch e the fast window holds epochs (e - fast_epochs, e] and the
 * slow window (e - slow_epochs, e]. The alert lifecycle is a
 * deterministic state machine on the epoch index:
 *
 *     Inactive --breach (Pending, Firing)--> Firing
 *        ^                                      |
 *        +------clear x resolve_ticks (Resolved)+
 *
 * A breach fires at once; the log still records the Pending edge
 * before the Firing one. Resolution has hysteresis: it requires both
 * burn rates below kResolveFraction * threshold (not merely below
 * threshold) for resolve_ticks consecutive evaluations — an alert that
 * sits in the band between the two levels neither re-fires nor
 * resolves, which is what keeps a burn rate oscillating around the
 * threshold from flapping. Everything is pure arithmetic over reported
 * counts: two identical epoch streams produce byte-identical event logs.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dri::obs {

/** One SLO objective: an error budget plus its burn-rate alert rule. */
struct SloObjective
{
    std::string name;
    /**
     * Allowed bad-event fraction (the error budget). 0.01 means "99% of
     * events must be good"; a latency objective phrased as "P99 under
     * the target" is exactly budget 0.01 over over-target counts.
     */
    double budget_fraction = 0.01;

    /** Fast window in epochs: catches budget-burning incidents quickly. */
    int fast_epochs = 2;
    /** Slow window in epochs (>= fast_epochs): confirms the burn. */
    int slow_epochs = 6;
    /** Fire when the fast-window burn rate reaches this multiple. */
    double fast_burn_threshold = 4.0;
    /** ...AND the slow-window burn rate reaches this multiple. */
    double slow_burn_threshold = 2.0;

    /** Consecutive clear evaluations before Firing resolves. */
    int resolve_ticks = 2;
};

/**
 * Hysteresis: "clear" means burn below kResolveFraction * threshold on
 * BOTH windows. Between the resolve and fire levels the state holds.
 */
inline constexpr double kResolveFraction = 0.5;

enum class AlertState : std::uint8_t { Inactive, Firing };

/**
 * Lifecycle edges the monitor emits (a log, not just final states). The
 * values are hashed into fleet telemetry fingerprints, hence explicit.
 */
enum class AlertTransition : std::uint8_t {
    Pending = 0, //!< breach observed (Firing follows in the same epoch)
    Firing = 1,  //!< the alert is live
    Resolved = 3 //!< firing alert cleared for resolve_ticks evaluations
};

const char *toString(AlertTransition t);

/** One lifecycle edge, stamped with its epoch and burn rates. */
struct AlertEvent
{
    int epoch = 0;
    std::string objective;
    AlertTransition transition = AlertTransition::Pending;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
};

/** Multi-objective burn-rate monitor over per-epoch good/bad counts. */
class SloMonitor
{
  public:
    /** Current standing of one objective. */
    struct Status
    {
        AlertState state = AlertState::Inactive;
        double fast_burn = 0.0;
        double slow_burn = 0.0;
        /** Cumulative events since attach (budget accounting). */
        std::uint64_t good_total = 0;
        std::uint64_t bad_total = 0;
        int clear_streak = 0;

        /**
         * Fraction of the total error budget consumed so far: bad
         * events over the budget's allowance for the events seen.
         * > 1 means the budget is exhausted.
         */
        double budgetConsumed(double budget_fraction) const;
    };

    /**
     * Register an objective; returns its id for record()/status().
     * Throws std::invalid_argument unless budget_fraction is in (0, 1),
     * 1 <= fast_epochs <= slow_epochs and resolve_ticks >= 1.
     */
    int addObjective(const SloObjective &objective);

    /**
     * Report one epoch's event counts for an objective; counts for the
     * same epoch add up. Throws std::invalid_argument for a negative
     * epoch or one before the newest epoch already recorded.
     */
    void record(int id, int epoch, std::uint64_t good, std::uint64_t bad);

    /**
     * Evaluate every objective's alert rule at `epoch` and return the
     * transitions this evaluation caused (also appended to the
     * cumulative events() log). Call once per epoch, after record()s.
     */
    std::vector<AlertEvent> evaluate(int epoch);

    std::size_t objectiveCount() const { return objectives_.size(); }
    const SloObjective &objective(int id) const;
    const Status &status(int id) const;

    /** Every transition since attach, in emission order. */
    const std::vector<AlertEvent> &events() const { return events_; }

    bool anyFiring() const;

  private:
    /** One epoch's counts; ring slot e % slow_epochs holds epoch e. */
    struct Slot
    {
        int epoch = -1;
        std::uint64_t good = 0;
        std::uint64_t bad = 0;
    };

    struct Tracked
    {
        SloObjective obj;
        std::vector<Slot> ring;
        int newest_epoch = -1;
        Status status;
    };

    /** Bad fraction over epochs (now - width, now] (0 when empty). */
    static double badFraction(const std::vector<Slot> &ring, int now,
                              int width);

    std::vector<Tracked> objectives_;
    std::vector<AlertEvent> events_;
};

} // namespace dri::obs
