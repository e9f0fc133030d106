/**
 * @file
 * SLO objectives, error budgets, and multi-window burn-rate alerting.
 *
 * An SloObjective declares an error budget: the fraction of events that
 * may be "bad" (requests over the latency target, shed requests, epochs
 * in violation) while the service still meets its SLO. The monitor is
 * fed per-tick good/bad counts on the simulated clock and answers the
 * SRE-staple question "how fast is the budget burning?": burn rate 1
 * means the budget exactly lasts its period; burn rate N exhausts it N
 * times too fast.
 *
 * Alerting uses the multi-window burn-rate rule: fire only when BOTH a
 * fast window (catches the spike quickly) and a slow window (proves it
 * is not a blip) exceed their thresholds. The alert lifecycle is a
 * deterministic state machine on the sim clock:
 *
 *     Inactive --breach--> Pending --breach x pending_ticks--> Firing
 *        ^                    |                                   |
 *        +----no breach-------+ (Cancelled)                       |
 *        +-------clear x resolve_ticks------------- (Resolved) ---+
 *
 * with hysteresis: resolution requires the burn rate to drop below
 * resolve_fraction * threshold (not merely below threshold) for
 * resolve_ticks consecutive evaluations — an alert that sits in the
 * band between the two levels neither re-fires nor resolves, which is
 * what keeps a burn rate oscillating around the threshold from
 * flapping. Everything is pure arithmetic over reported counts: two
 * identical tick streams produce byte-identical event logs.
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

    /** Fast window: catches budget-burning incidents quickly. */
    double fast_horizon_s = 2.0 * 3600.0;
    /** Slow window: confirms the burn is sustained, not a blip. */
    double slow_horizon_s = 6.0 * 3600.0;
    /** Fire when the fast-window burn rate reaches this multiple. */
    double fast_burn_threshold = 4.0;
    /** ...AND the slow-window burn rate reaches this multiple. */
    double slow_burn_threshold = 2.0;

    /** Consecutive breach evaluations before Pending becomes Firing. */
    int pending_ticks = 1;
    /** Consecutive clear evaluations before Firing resolves. */
    int resolve_ticks = 2;
    /**
     * Hysteresis: "clear" means burn below resolve_fraction * threshold
     * on BOTH windows. Between resolve and fire levels the state holds.
     */
    double resolve_fraction = 0.5;

    /** Ring buckets per window (eviction granularity). */
    int buckets = 6;
};

enum class AlertState : std::uint8_t { Inactive, Pending, Firing };

/** Lifecycle edges the monitor emits (a log, not just final states). */
enum class AlertTransition : std::uint8_t {
    Pending,  //!< breach observed, waiting out pending_ticks
    Firing,   //!< sustained breach: the alert is live
    Cancelled, //!< breach cleared before the alert fired
    Resolved  //!< firing alert cleared for resolve_ticks evaluations
};

const char *toString(AlertTransition t);

/** One lifecycle edge, stamped with the sim time and burn rates. */
struct AlertEvent
{
    double t_s = 0.0;
    std::string objective;
    AlertTransition transition = AlertTransition::Pending;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
};

/** Multi-objective burn-rate monitor over per-tick good/bad counts. */
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
        int breach_streak = 0;
        int clear_streak = 0;

        /**
         * Fraction of the total error budget consumed so far: bad
         * events over the budget's allowance for the events seen.
         * > 1 means the budget is exhausted.
         */
        double budgetConsumed(double budget_fraction) const;
    };

    /** Register an objective; returns its id for record()/status(). */
    int addObjective(const SloObjective &objective);

    /**
     * Report one tick's event counts for an objective at sim time.
     * Throws std::invalid_argument when t_s lies so far before an
     * earlier record that its window bucket already holds a newer
     * period (a horizon or more late).
     */
    void record(int id, double t_s, std::uint64_t good, std::uint64_t bad);

    /**
     * Evaluate every objective's alert rule at sim time t_s and return
     * the transitions this evaluation caused (also appended to the
     * cumulative events() log). Call once per tick, after record()s.
     */
    std::vector<AlertEvent> evaluate(double t_s);

    std::size_t objectiveCount() const { return objectives_.size(); }
    const SloObjective &objective(int id) const;
    const Status &status(int id) const;

    /** Every transition since attach, in emission order. */
    const std::vector<AlertEvent> &events() const { return events_; }

    bool anyFiring() const;

    /** Transitions of one kind in the cumulative log. */
    int transitionCount(AlertTransition t) const;

  private:
    /** Ring of per-period good/bad counts: a windowed bad-fraction. */
    struct RatioWindow
    {
        struct Slot
        {
            std::int64_t period = -1;
            std::uint64_t good = 0;
            std::uint64_t bad = 0;
        };

        double bucket_width_s = 1.0;
        int buckets = 1;
        std::vector<Slot> slots;

        void init(double horizon_s, int bucket_count);
        /**
         * Whether t_s's period is older than the one its slot holds: a
         * record at t_s would wipe a bucket newer than itself.
         */
        bool late(double t_s) const;
        /** Add counts at t_s (not late()). */
        void record(double t_s, std::uint64_t good, std::uint64_t bad);
        /** Bad fraction over the window (0 when empty). */
        double badFraction(double t_s) const;
    };

    struct Tracked
    {
        SloObjective obj;
        RatioWindow fast;
        RatioWindow slow;
        Status status;
    };

    std::vector<Tracked> objectives_;
    std::vector<AlertEvent> events_;
};

} // namespace dri::obs
