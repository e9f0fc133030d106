#include "fleet/fault_schedule.h"

#include <stdexcept>

#include "stats/hash.h"

namespace dri::fleet {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::ReplicaCrash:
        return "replica-crash";
    case FaultKind::SlowReplica:
        return "slow-replica";
    case FaultKind::Partition:
        return "partition";
    case FaultKind::SnapshotStorm:
        return "snapshot-storm";
    case FaultKind::FlashCrowd:
        return "flash-crowd";
    }
    return "unknown";
}

std::string
FaultEvent::name() const
{
    return label.empty() ? faultKindName(kind) : label;
}

FaultSchedule &
FaultSchedule::add(FaultEvent ev)
{
    if (ev.start_epoch < 0)
        throw std::invalid_argument("FaultSchedule: start_epoch must be >= 0");
    if (ev.end_epoch <= ev.start_epoch)
        throw std::invalid_argument(
            "FaultSchedule: end_epoch must follow start_epoch");
    if ((ev.kind == FaultKind::ReplicaCrash ||
         ev.kind == FaultKind::SlowReplica) &&
        ev.replica < 0)
        throw std::invalid_argument(
            "FaultSchedule: replica index must be >= 0");
    events_.push_back(std::move(ev));
    return *this;
}

FaultSchedule &
FaultSchedule::crashReplica(int shard, int replica, int start_epoch,
                            int end_epoch, double declared_blast_radius)
{
    FaultEvent ev;
    ev.kind = FaultKind::ReplicaCrash;
    ev.shard = shard;
    ev.replica = replica;
    ev.start_epoch = start_epoch;
    ev.end_epoch = end_epoch;
    ev.declared_blast_radius = declared_blast_radius;
    return add(std::move(ev));
}

FaultSchedule &
FaultSchedule::slowReplica(int shard, int replica, double multiplier,
                           int start_epoch, int end_epoch,
                           double declared_blast_radius)
{
    if (!(multiplier > 0.0))
        throw std::invalid_argument(
            "FaultSchedule: slow multiplier must be > 0");
    FaultEvent ev;
    ev.kind = FaultKind::SlowReplica;
    ev.shard = shard;
    ev.replica = replica;
    ev.magnitude = multiplier;
    ev.start_epoch = start_epoch;
    ev.end_epoch = end_epoch;
    ev.declared_blast_radius = declared_blast_radius;
    return add(std::move(ev));
}

FaultSchedule &
FaultSchedule::partition(int shard, int start_epoch, int end_epoch,
                         double declared_blast_radius)
{
    FaultEvent ev;
    ev.kind = FaultKind::Partition;
    ev.shard = shard;
    ev.start_epoch = start_epoch;
    ev.end_epoch = end_epoch;
    ev.declared_blast_radius = declared_blast_radius;
    return add(std::move(ev));
}

FaultSchedule &
FaultSchedule::snapshotStorm(int epoch, double warm_share,
                             double declared_blast_radius)
{
    if (!(warm_share > 0.0 && warm_share <= 1.0))
        throw std::invalid_argument(
            "FaultSchedule: storm warm share must lie in (0, 1]");
    FaultEvent ev;
    ev.kind = FaultKind::SnapshotStorm;
    ev.magnitude = warm_share;
    ev.start_epoch = epoch;
    ev.end_epoch = epoch + 1;
    ev.declared_blast_radius = declared_blast_radius;
    return add(std::move(ev));
}

FaultSchedule &
FaultSchedule::flashCrowd(double rate_multiplier, double hot_fraction,
                          int start_epoch, int end_epoch,
                          double declared_blast_radius)
{
    if (!(rate_multiplier >= 1.0))
        throw std::invalid_argument(
            "FaultSchedule: flash rate_multiplier must be >= 1");
    if (!(hot_fraction >= 0.0 && hot_fraction <= 1.0))
        throw std::invalid_argument(
            "FaultSchedule: flash hot_fraction must lie in [0, 1]");
    FaultEvent ev;
    ev.kind = FaultKind::FlashCrowd;
    ev.magnitude = rate_multiplier;
    ev.hot_fraction = hot_fraction;
    ev.start_epoch = start_epoch;
    ev.end_epoch = end_epoch;
    ev.declared_blast_radius = declared_blast_radius;
    return add(std::move(ev));
}

std::vector<const FaultEvent *>
FaultSchedule::activeAt(int epoch) const
{
    std::vector<const FaultEvent *> out;
    for (const auto &ev : events_)
        if (ev.activeAt(epoch))
            out.push_back(&ev);
    return out;
}

std::uint64_t
FaultSchedule::fingerprint() const
{
    // Every int mixes as 8 bytes (bench_chaos_suite's golden pins this
    // width).
    stats::Fnv fnv;
    fnv.add(static_cast<std::int64_t>(events_.size()));
    for (const auto &ev : events_) {
        fnv.add(static_cast<std::int64_t>(ev.kind));
        fnv.add(std::int64_t{ev.start_epoch});
        fnv.add(std::int64_t{ev.end_epoch});
        fnv.add(std::int64_t{ev.shard});
        fnv.add(std::int64_t{ev.replica});
        fnv.add(ev.magnitude);
        fnv.add(ev.hot_fraction);
        fnv.add(ev.declared_blast_radius);
        fnv.bytes(ev.label.data(), ev.label.size());
    }
    return fnv.h;
}

} // namespace dri::fleet
