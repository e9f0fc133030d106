#include "obs/slo_monitor.h"

#include <algorithm>
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

double
SloMonitor::badFraction(const std::vector<Slot> &ring, int now, int width)
{
    // Empty slots hold zero counts, so only the epoch range is checked.
    std::uint64_t good = 0, bad = 0;
    for (const Slot &s : ring) {
        if (s.epoch > now || s.epoch <= now - width)
            continue;
        good += s.good;
        bad += s.bad;
    }
    const std::uint64_t total = good + bad;
    return total > 0
               ? static_cast<double>(bad) / static_cast<double>(total)
               : 0.0;
}

int
SloMonitor::addObjective(const SloObjective &objective)
{
    if (objective.budget_fraction <= 0.0 ||
        objective.budget_fraction >= 1.0)
        throw std::invalid_argument(
            "SloObjective: budget_fraction must be in (0, 1)");
    if (objective.fast_epochs < 1 ||
        objective.slow_epochs < objective.fast_epochs)
        throw std::invalid_argument(
            "SloObjective: need 1 <= fast_epochs <= slow_epochs");
    if (objective.resolve_ticks < 1)
        throw std::invalid_argument(
            "SloObjective: resolve_ticks must be >= 1");
    Tracked t;
    t.obj = objective;
    t.ring.resize(static_cast<std::size_t>(objective.slow_epochs));
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
SloMonitor::record(int id, int epoch, std::uint64_t good,
                   std::uint64_t bad)
{
    Tracked &t = objectives_.at(static_cast<std::size_t>(id));
    // A late record would land in a slot that may hold a newer epoch.
    if (epoch < std::max(t.newest_epoch, 0))
        throw std::invalid_argument(
            "SloMonitor::record: epoch is negative or before the newest "
            "epoch recorded");
    t.newest_epoch = epoch;
    Slot &s = t.ring[static_cast<std::size_t>(epoch) % t.ring.size()];
    if (s.epoch != epoch)
        s = Slot{epoch, 0, 0};
    s.good += good;
    s.bad += bad;
    t.status.good_total += good;
    t.status.bad_total += bad;
}

std::vector<AlertEvent>
SloMonitor::evaluate(int epoch)
{
    std::vector<AlertEvent> emitted;
    for (Tracked &t : objectives_) {
        Status &st = t.status;
        const SloObjective &o = t.obj;
        st.fast_burn =
            badFraction(t.ring, epoch, o.fast_epochs) / o.budget_fraction;
        st.slow_burn =
            badFraction(t.ring, epoch, o.slow_epochs) / o.budget_fraction;

        const bool breach = st.fast_burn >= o.fast_burn_threshold &&
                            st.slow_burn >= o.slow_burn_threshold;
        const bool clear =
            st.fast_burn < kResolveFraction * o.fast_burn_threshold &&
            st.slow_burn < kResolveFraction * o.slow_burn_threshold;

        const auto emit = [&](AlertTransition tr) {
            const AlertEvent ev{epoch, o.name, tr, st.fast_burn,
                                st.slow_burn};
            events_.push_back(ev);
            emitted.push_back(ev);
        };

        if (breach) {
            st.clear_streak = 0;
            if (st.state == AlertState::Inactive) {
                st.state = AlertState::Firing;
                emit(AlertTransition::Pending);
                emit(AlertTransition::Firing);
            }
        } else if (st.state == AlertState::Firing) {
            // In the hysteresis band (neither breach nor clear) the
            // alert holds and the resolution count restarts.
            st.clear_streak = clear ? st.clear_streak + 1 : 0;
            if (st.clear_streak >= o.resolve_ticks) {
                st.state = AlertState::Inactive;
                st.clear_streak = 0;
                emit(AlertTransition::Resolved);
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

} // namespace dri::obs
