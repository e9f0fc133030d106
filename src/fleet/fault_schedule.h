/**
 * @file
 * Deterministic fault scripts for chaos studies: a FaultSchedule is a
 * list of epoch-windowed fault events a FleetSim applies to its serving
 * deployments through the ServingSimulation runtime control surface
 * (killReplica / degradeReplica / partitionShard / invalidateResultCache)
 * plus two load-side overlays (snapshot-refresh storms, hot-key flash
 * crowds) that perturb the epoch's traffic instead of the fleet.
 *
 * Everything is a pure function of the schedule and the run's seeds —
 * there is no fault randomness of its own — so the same schedule yields
 * byte-identical FleetStats fingerprints across reruns, and an EMPTY
 * schedule leaves the simulation byte-identical to a fault-free build
 * (the purity contract the fleet goldens pin down).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dri::fleet {

/** Kinds of injected fault a schedule can carry. */
enum class FaultKind
{
    /**
     * A replica server goes dark at the start of the window (mid-epoch
     * for the first window epoch) and is restored when the window ends:
     * queued work lost, in-flight attempts time out, discovery reacts
     * after the configured lag.
     */
    ReplicaCrash,
    /**
     * Persistent slow node: the replica serves every attempt
     * `magnitude` x slower for the whole window (no per-attempt
     * re-roll, unlike straggler_prob).
     */
    SlowReplica,
    /** Main<->shard network partition for the window. */
    Partition,
    /**
     * Snapshot-refresh storm: the pooled-result cache is invalidated
     * and every shard's row-cache hit rate is scaled to `magnitude` of
     * steady for the window (mass re-warm after an embedding refresh).
     */
    SnapshotStorm,
    /**
     * Hot-key flash crowd: offered QPS multiplies by `magnitude` and
     * `hot_fraction` of the window's requests collapse onto one hot
     * feature vector — breaking the Zipf assumption the cache models
     * were calibrated on.
     */
    FlashCrowd,
};

/** Short lower-case kind name for tables and JSON rows. */
const char *faultKindName(FaultKind kind);

/** One scheduled fault episode over epochs [start_epoch, end_epoch). */
struct FaultEvent
{
    FaultKind kind = FaultKind::ReplicaCrash;
    int start_epoch = 0;
    /** Exclusive: the fault heals at this epoch's start. */
    int end_epoch = 1;
    /** Target shard (crash / slow / partition). */
    int shard = 0;
    /** Replica index within the shard's decided vector (crash / slow). */
    int replica = 0;
    /**
     * SlowReplica: service-time multiplier. SnapshotStorm: retained
     * share of steady row-cache hit rate. FlashCrowd: offered-rate
     * multiplier.
     */
    double magnitude = 1.0;
    /** FlashCrowd: fraction of requests collapsed onto the hot vector. */
    double hot_fraction = 0.0;
    /**
     * Declared blast-radius bound: the maximum tolerated fraction of an
     * epoch's requests missing the SLO (shed or over-latency) while the
     * event is active. The scorecard grades the measured blast radius
     * against this.
     */
    double declared_blast_radius = 1.0;
    /** Scorecard label; empty defaults to the kind name. */
    std::string label;

    bool activeAt(int epoch) const
    {
        return epoch >= start_epoch && epoch < end_epoch;
    }
    std::string name() const;
};

/**
 * Per-event outcome, graded from the run's telemetry ledger — the
 * chaos scorecard: how far the SLO dipped inside the fault window, and
 * how long PR 7's burn-rate clock took to read healthy again.
 */
struct ScenarioOutcome
{
    std::string scenario;
    FaultKind kind = FaultKind::ReplicaCrash;
    int start_epoch = 0;
    int end_epoch = 0;
    /** Max over active epochs of (shed + over-latency) / requests. */
    double blast_radius = 0.0;
    /** Min per-epoch SLO attainment over the active window. */
    double min_attainment = 1.0;
    /** blast_radius <= the event's declared bound. */
    bool within_declared_bound = true;
    /**
     * Epochs from onset until the burn-rate clock reads healthy (no
     * firing alert, every fast burn under threshold). 0 = the fault was
     * fully masked (never unhealthy); -1 = not recovered by trace end.
     */
    int recovery_epochs = -1;
    /** Requests shed during the active window. */
    std::int64_t shed_requests = 0;
    /**
     * Blast epoch (the active-window epoch with minimum attainment) and
     * the retained-trace request ids the trace sampler kept there —
     * the scorecard's link from "this scenario hurt" to concrete span
     * trees. Populated only when FleetSim trace sampling is enabled;
     * deliberately EXCLUDED from telemetry fingerprints so enabling
     * sampling stays observation-pure.
     */
    int exemplar_epoch = -1;
    std::vector<std::uint64_t> exemplar_requests;
};

/** Deterministic fault script a FleetSim applies per epoch. */
class FaultSchedule
{
  public:
    /**
     * Append an event. Throws std::invalid_argument when start_epoch is
     * negative or end_epoch does not follow it.
     */
    FaultSchedule &add(FaultEvent ev);

    // Convenience builders (all return *this for chaining). Besides
    // add()'s epoch checks, each throws std::invalid_argument on a
    // magnitude out of range: a slow multiplier <= 0, a storm warm
    // share outside (0, 1], a flash rate_multiplier < 1 or a
    // hot_fraction outside [0, 1].
    FaultSchedule &crashReplica(int shard, int replica, int start_epoch,
                                int end_epoch,
                                double declared_blast_radius = 1.0);
    FaultSchedule &slowReplica(int shard, int replica, double multiplier,
                               int start_epoch, int end_epoch,
                               double declared_blast_radius = 1.0);
    FaultSchedule &partition(int shard, int start_epoch, int end_epoch,
                             double declared_blast_radius = 1.0);
    FaultSchedule &snapshotStorm(int epoch, double warm_share = 0.5,
                                 double declared_blast_radius = 1.0);
    FaultSchedule &flashCrowd(double rate_multiplier, double hot_fraction,
                              int start_epoch, int end_epoch,
                              double declared_blast_radius = 1.0);

    bool empty() const { return events_.empty(); }
    const std::vector<FaultEvent> &events() const { return events_; }

    /** Events whose window covers `epoch`, in insertion order. */
    std::vector<const FaultEvent *> activeAt(int epoch) const;

    /**
     * Order-sensitive FNV over the event list: schedule identity for
     * determinism checks (same fingerprint => same injected faults).
     */
    std::uint64_t fingerprint() const;

  private:
    std::vector<FaultEvent> events_;
};

} // namespace dri::fleet
