#include "obs/slo_monitor.h"

#include <cmath>
#include <stdexcept>

namespace dri::obs {

const char *
toString(AlertTransition t)
{
    switch (t) {
    case AlertTransition::Pending:
        return "pending";
    case AlertTransition::Firing:
        return "firing";
    case AlertTransition::Cancelled:
        return "cancelled";
    case AlertTransition::Resolved:
        return "resolved";
    }
    return "?";
}

double
SloMonitor::Status::budgetConsumed(double budget_fraction) const
{
    const std::uint64_t total = good_total + bad_total;
    if (total == 0 || budget_fraction <= 0.0)
        return 0.0;
    const double allowance =
        budget_fraction * static_cast<double>(total);
    return static_cast<double>(bad_total) / allowance;
}

// ---------------------------------------------------------------------------
// RatioWindow.
// ---------------------------------------------------------------------------

void
SloMonitor::RatioWindow::init(double horizon_s, int bucket_count)
{
    if (horizon_s <= 0.0 || bucket_count <= 0)
        throw std::invalid_argument(
            "SloMonitor: window horizon and buckets must be > 0");
    buckets = bucket_count;
    bucket_width_s = horizon_s / buckets;
    slots.assign(static_cast<std::size_t>(buckets), Slot{});
}

namespace {

std::int64_t
periodAt(double t_s, double width_s)
{
    if (t_s < 0.0)
        t_s = 0.0;
    return static_cast<std::int64_t>(std::floor(t_s / width_s));
}

} // namespace

bool
SloMonitor::RatioWindow::late(double t_s) const
{
    const std::int64_t p = periodAt(t_s, bucket_width_s);
    return p < slots[static_cast<std::size_t>(p % buckets)].period;
}

void
SloMonitor::RatioWindow::record(double t_s, std::uint64_t good,
                                std::uint64_t bad)
{
    const std::int64_t p = periodAt(t_s, bucket_width_s);
    Slot &s = slots[static_cast<std::size_t>(p % buckets)];
    if (p > s.period) {
        s.good = 0;
        s.bad = 0;
        s.period = p;
    }
    s.good += good;
    s.bad += bad;
}

double
SloMonitor::RatioWindow::badFraction(double t_s) const
{
    const std::int64_t now = periodAt(t_s, bucket_width_s);
    std::uint64_t good = 0, bad = 0;
    for (const Slot &s : slots) {
        if (s.period < 0 || s.period > now || s.period <= now - buckets)
            continue;
        good += s.good;
        bad += s.bad;
    }
    const std::uint64_t total = good + bad;
    return total > 0
               ? static_cast<double>(bad) / static_cast<double>(total)
               : 0.0;
}

// ---------------------------------------------------------------------------
// SloMonitor.
// ---------------------------------------------------------------------------

int
SloMonitor::addObjective(const SloObjective &objective)
{
    if (objective.budget_fraction <= 0.0 ||
        objective.budget_fraction >= 1.0)
        throw std::invalid_argument(
            "SloObjective: budget_fraction must be in (0, 1)");
    Tracked t;
    t.obj = objective;
    t.fast.init(objective.fast_horizon_s, objective.buckets);
    t.slow.init(objective.slow_horizon_s, objective.buckets);
    objectives_.push_back(std::move(t));
    return static_cast<int>(objectives_.size()) - 1;
}

const SloObjective &
SloMonitor::objective(int id) const
{
    return objectives_.at(static_cast<std::size_t>(id)).obj;
}

const SloMonitor::Status &
SloMonitor::status(int id) const
{
    return objectives_.at(static_cast<std::size_t>(id)).status;
}

void
SloMonitor::record(int id, double t_s, std::uint64_t good,
                   std::uint64_t bad)
{
    Tracked &t = objectives_.at(static_cast<std::size_t>(id));
    // Both windows are checked before either changes, so a rejected
    // record leaves the objective as it was.
    if (t.fast.late(t_s) || t.slow.late(t_s))
        throw std::invalid_argument(
            "SloMonitor::record: t_s lies more than a window horizon "
            "before a record already taken");
    t.fast.record(t_s, good, bad);
    t.slow.record(t_s, good, bad);
    t.status.good_total += good;
    t.status.bad_total += bad;
}

std::vector<AlertEvent>
SloMonitor::evaluate(double t_s)
{
    std::vector<AlertEvent> emitted;
    for (Tracked &t : objectives_) {
        Status &st = t.status;
        st.fast_burn = t.fast.badFraction(t_s) / t.obj.budget_fraction;
        st.slow_burn = t.slow.badFraction(t_s) / t.obj.budget_fraction;

        const bool breach = st.fast_burn >= t.obj.fast_burn_threshold &&
                            st.slow_burn >= t.obj.slow_burn_threshold;
        const double rf = t.obj.resolve_fraction;
        const bool clear =
            st.fast_burn < rf * t.obj.fast_burn_threshold &&
            st.slow_burn < rf * t.obj.slow_burn_threshold;

        const auto emit = [&](AlertTransition tr) {
            AlertEvent ev;
            ev.t_s = t_s;
            ev.objective = t.obj.name;
            ev.transition = tr;
            ev.fast_burn = st.fast_burn;
            ev.slow_burn = st.slow_burn;
            events_.push_back(ev);
            emitted.push_back(ev);
        };

        if (breach) {
            ++st.breach_streak;
            st.clear_streak = 0;
            if (st.state == AlertState::Inactive) {
                st.state = AlertState::Pending;
                emit(AlertTransition::Pending);
            }
            if (st.state == AlertState::Pending &&
                st.breach_streak >= t.obj.pending_ticks) {
                st.state = AlertState::Firing;
                emit(AlertTransition::Firing);
            }
        } else {
            st.breach_streak = 0;
            if (st.state == AlertState::Pending) {
                // Breach gone before the alert matured: cancel.
                st.state = AlertState::Inactive;
                emit(AlertTransition::Cancelled);
            } else if (st.state == AlertState::Firing) {
                if (clear) {
                    ++st.clear_streak;
                    if (st.clear_streak >= t.obj.resolve_ticks) {
                        st.state = AlertState::Inactive;
                        st.clear_streak = 0;
                        emit(AlertTransition::Resolved);
                    }
                } else {
                    // Hysteresis band: neither firing-fresh nor clear —
                    // hold the alert, restart the resolution count.
                    st.clear_streak = 0;
                }
            }
        }
    }
    return emitted;
}

bool
SloMonitor::anyFiring() const
{
    for (const Tracked &t : objectives_)
        if (t.status.state == AlertState::Firing)
            return true;
    return false;
}

int
SloMonitor::transitionCount(AlertTransition tr) const
{
    int n = 0;
    for (const AlertEvent &e : events_)
        n += e.transition == tr ? 1 : 0;
    return n;
}

} // namespace dri::obs
