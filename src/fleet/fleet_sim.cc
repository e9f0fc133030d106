#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "cache/lookup_model.h"
#include "core/analysis.h"
#include "stats/hash.h"

namespace dri::fleet {

namespace {

// Reconfiguration penalty model.
/**
 * Fraction of a scale-up epoch served by the OLD vector while new
 * replicas boot. Offered load is already the new epoch's, so an
 * under-provisioned old plan eats the queueing this window causes.
 */
constexpr double kProvisioningLagFraction = 0.1;
/**
 * Fraction of a reconfigured epoch (after the lag) during which
 * scaled-up shards serve with cold-replica row caches and the
 * pooled-result cache refills from its invalidation.
 */
constexpr double kColdCacheFraction = 0.15;
static_assert(kProvisioningLagFraction >= 0.0 &&
              kProvisioningLagFraction < 1.0);
static_assert(kColdCacheFraction >= 0.0 && kColdCacheFraction < 1.0);

/** Machine-hours (and watt-hours per watt) one epoch stands for. */
constexpr double kEpochHours = kEpochDurationS / 3600.0;

/** Carry-over slice replayed before counters engage. */
constexpr std::size_t kPrewarmRequests = 48;
/**
 * Sim-time position of a crash *onset* within its first epoch's steady
 * segment (fraction of the segment's span): the replica serves normally
 * until this point, then goes dark mid-traffic — which is what
 * exercises the queued-work-lost and in-flight-timeout paths rather
 * than starting the epoch already dead.
 */
constexpr double kCrashAtFraction = 0.25;
static_assert(kCrashAtFraction >= 0.0 && kCrashAtFraction < 1.0);

// Telemetry analysis.
/** Burn windows in epochs (scaled by kEpochDurationS). */
constexpr int kFastWindowEpochs = 2;
constexpr int kSlowWindowEpochs = 6;
constexpr double kFastBurnThreshold = 4.0;
constexpr double kSlowBurnThreshold = 2.0;
constexpr int kPendingTicks = 1;
constexpr int kResolveTicks = 2;
/** Allowed fraction of served requests over the SLO P99 target. */
constexpr double kLatencyBudgetFraction = 0.01;
/** Allowed fraction of epochs in (whole-epoch) SLO violation. */
constexpr double kAvailabilityBudgetFraction = 0.10;
/** Episode-matching window for the burst-detection scorecard. */
constexpr int kDetectMatchWindowEpochs = 2;

// Per-epoch trace sampling (with kTracePerEpochByteBudget and
// kTraceScenarioExemplars in the header).
constexpr std::size_t kTraceReservoirSize = 8;
/** Sampler seed, mixed with the epoch index for each epoch's sampler. */
constexpr std::uint64_t kTraceSamplingSeed = 0x7ace5eed;

double
meanOf(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (const double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

} // namespace

// ---------------------------------------------------------------------------
// TelemetryLedger.
// ---------------------------------------------------------------------------

std::uint64_t
TelemetryLedger::fingerprint() const
{
    stats::Fnv fnv;
    fnv.add(static_cast<std::int64_t>(epochs.size()));
    for (const auto &e : epochs) {
        fnv.add(e.epoch);
        fnv.add(e.load_ratio);
        fnv.add(e.burst_flagged);
        fnv.add(e.latency_fast_burn);
        fnv.add(e.latency_slow_burn);
        fnv.add(e.shed_fast_burn);
        fnv.add(e.shed_slow_burn);
        fnv.add(e.availability_fast_burn);
        fnv.add(e.availability_slow_burn);
        fnv.add(e.latency_budget_consumed);
        fnv.add(e.alerts_firing);
    }
    fnv.add(static_cast<std::int64_t>(alerts.size()));
    for (const auto &a : alerts) {
        fnv.add(a.t_s);
        fnv.bytes(a.objective.data(), a.objective.size());
        fnv.add(static_cast<int>(a.transition));
        fnv.add(a.fast_burn);
        fnv.add(a.slow_burn);
    }
    fnv.add(burst_eval.episodes);
    fnv.add(burst_eval.detected);
    fnv.add(burst_eval.missed);
    fnv.add(burst_eval.false_positives);
    fnv.add(burst_eval.flags);
    for (const int l : burst_eval.latencies)
        fnv.add(l);
    // Chaos scorecards fold in ONLY when present, so fault-free runs
    // keep the exact telemetry fingerprints they had before the fault
    // layer existed (the committed baselines pin these).
    if (!scenarios.empty()) {
        fnv.add(static_cast<std::int64_t>(scenarios.size()));
        for (const auto &s : scenarios) {
            fnv.bytes(s.scenario.data(), s.scenario.size());
            fnv.add(static_cast<int>(s.kind));
            fnv.add(s.start_epoch);
            fnv.add(s.end_epoch);
            fnv.add(s.blast_radius);
            fnv.add(s.min_attainment);
            fnv.add(s.within_declared_bound);
            fnv.add(s.recovery_epochs);
            fnv.add(s.shed_requests);
        }
    }
    return fnv.h;
}

// ---------------------------------------------------------------------------
// FleetStats.
// ---------------------------------------------------------------------------

double
FleetStats::totalMachineHours() const
{
    double total = 0.0;
    for (const auto &e : epochs)
        total += e.machine_hours;
    return total;
}

double
FleetStats::totalWattHours() const
{
    double total = 0.0;
    for (const auto &e : epochs)
        total += e.watt_hours;
    return total;
}

int
FleetStats::sloViolationEpochs() const
{
    int n = 0;
    for (const auto &e : epochs)
        n += e.slo_violation ? 1 : 0;
    return n;
}

int
FleetStats::steadySloViolationEpochs() const
{
    int n = 0;
    for (const auto &e : epochs)
        n += e.steady_slo_violation ? 1 : 0;
    return n;
}

std::int64_t
FleetStats::totalShedRequests() const
{
    std::int64_t n = 0;
    for (const auto &e : epochs)
        n += e.shed_requests;
    return n;
}

int
FleetStats::reconfigurations() const
{
    int n = 0;
    for (const auto &e : epochs)
        n += e.reconfigured ? 1 : 0;
    return n;
}

std::uint64_t
FleetStats::fingerprint() const
{
    stats::Fnv fnv;
    fnv.add(static_cast<std::int64_t>(epochs.size()));
    for (const auto &e : epochs) {
        fnv.add(e.epoch);
        fnv.add(e.forecast_qps);
        fnv.add(e.offered_qps);
        for (const int r : e.replicas)
            fnv.add(r);
        fnv.add(e.reconfigured);
        fnv.add(e.scaled_up);
        fnv.add(e.scaled_down);
        fnv.add(e.p99_ms);
        fnv.add(e.steady_p99_ms);
        fnv.add(e.shed_rate);
        fnv.add(e.shed_requests);
        fnv.add(e.slo_violation);
        fnv.add(e.steady_slo_violation);
        fnv.add(e.machine_hours);
        fnv.add(e.watt_hours);
        fnv.add(e.mean_sparse_utilization);
        fnv.add(e.max_sparse_utilization);
        fnv.add(e.result_cache_hit_rate);
        fnv.add(e.hedge_rate);
        fnv.add(e.peak_replica_queue);
        fnv.add(e.planMemoryBytes());
        fnv.add(e.planPowerWatts());
        for (const auto &s : e.plan.shards) {
            fnv.add(s.replicas);
            fnv.add(s.cpu_utilization);
            fnv.add(s.power_watts);
        }
    }
    return fnv.h;
}

// ---------------------------------------------------------------------------
// FleetSim.
// ---------------------------------------------------------------------------

/**
 * One epoch's resolved fault application, derived from the schedule's
 * events active at that epoch. A fault-free epoch resolves to the
 * default plan, which changes nothing. Server targets stay (shard,
 * replica) pairs here because the flat server id depends on the
 * segment's replica vector (lag segments still run the OLD vector).
 */
struct FleetSim::FaultPlan
{
    /** Crashes carried over from earlier epochs: dead at segment start. */
    std::vector<std::pair<int, int>> dead;
    /**
     * Crashes whose window STARTS this epoch: the replica serves until
     * kCrashAtFraction into the steady segment, then goes dark
     * mid-traffic (exercises queued-work-lost + in-flight-timeout).
     */
    std::vector<std::pair<int, int>> fresh_kills;
    /** (shard, replica, service-time multiplier) persistent slow nodes. */
    std::vector<std::tuple<int, int, double>> slow;
    /** Shards whose main<->shard links are partitioned this epoch. */
    std::vector<int> partitioned_shards;
    /**
     * A snapshot storm is active: refreshes keep landing all epoch, so
     * EVERY segment starts from an invalidated pooled-result cache (the
     * prewarmed working set is dropped each time), on top of the row
     * caches re-warming from storm_warm_share.
     */
    bool storm = false;
    /** Row-cache share retained during a snapshot storm (1 = none). */
    double storm_warm_share = 1.0;
    /** Flash crowd: offered-rate multiplier and hot-key fraction. */
    double flash_rate = 1.0;
    double flash_hot = 0.0;

    static FaultPlan
    at(const FaultSchedule &schedule, int epoch)
    {
        FaultPlan fp;
        for (const FaultEvent *ev : schedule.activeAt(epoch)) {
            switch (ev->kind) {
            case FaultKind::ReplicaCrash:
                (ev->start_epoch == epoch ? fp.fresh_kills : fp.dead)
                    .emplace_back(ev->shard, ev->replica);
                break;
            case FaultKind::SlowReplica:
                fp.slow.emplace_back(ev->shard, ev->replica, ev->magnitude);
                break;
            case FaultKind::Partition:
                fp.partitioned_shards.push_back(ev->shard);
                break;
            case FaultKind::SnapshotStorm:
                fp.storm = true;
                fp.storm_warm_share =
                    std::min(fp.storm_warm_share, ev->magnitude);
                break;
            case FaultKind::FlashCrowd:
                fp.flash_rate *= ev->magnitude;
                fp.flash_hot = std::max(fp.flash_hot, ev->hot_fraction);
                break;
            }
        }
        return fp;
    }
};

/**
 * One entry of an epoch's segment plan: a fresh ServingSimulation that
 * replays the epoch's requests [lo, hi) on `replicas`.
 */
struct FleetSim::Segment
{
    std::vector<int> replicas;
    std::size_t lo = 0;
    std::size_t hi = 0;
    /** Replayed before counters engage (warms caches; stats discarded). */
    std::vector<workload::Request> prewarm;
    /** Drop the pooled-result cache after the prewarm. */
    bool invalidate = false;
    /** Cold-replica row caches on the shards that grew since `prev`. */
    bool degrade = false;
    /** Outside the declared reconfiguration window (steady quantiles). */
    bool steady = false;
    /** Fire the epoch's crash onsets kCrashAtFraction into the replay. */
    bool fresh_kills = false;
    /** Machines booked but still booting: billed at idle power. */
    double booting = 0.0;
    std::uint64_t seed_salt = 0;
};

/** What every segment of one epoch shares. */
struct FleetSim::EpochPlan
{
    FaultPlan faults;
    std::vector<workload::Request> requests;
    /** Offered rate: realized, times any flash crowd. */
    double qps = 0.0;
    /** The previous epoch's vector (empty before the first epoch). */
    std::vector<int> prev;
    /** The epoch's tracer, its sampler attached; null without sampling. */
    obs::SpanTracer *tracer = nullptr;
    std::vector<Segment> segments;
};

/** What an epoch's segments add up to, in segment order. */
struct FleetSim::EpochTally
{
    std::vector<core::RequestStats> all_stats;
    /** Stats outside the declared reconfiguration window. */
    std::vector<core::RequestStats> steady_stats;
    double watt_hours = 0.0;
    std::uint64_t result_cache_hits = 0;
    std::uint64_t result_cache_lookups = 0;
    std::uint64_t primary_rpcs = 0;
    std::uint64_t hedges = 0;
    std::size_t peak_replica_queue = 0;
    /** Latency-feed samples dropped as stale (sampling runs only). */
    std::uint64_t dropped_stale = 0;
    /** Mean worker-pool utilization per sparse shard, last segment. */
    std::vector<double> shard_utilization;
};

FleetSim::FleetSim(const model::ModelSpec &spec,
                   const core::ShardingPlan &plan,
                   core::ServingConfig base_serving,
                   const workload::DiurnalLoadModel &load,
                   FleetConfig config)
    : spec_(spec), plan_(plan), base_(std::move(base_serving)),
      load_(load), cfg_(config)
{
    if (plan_.numShards() <= 0)
        throw std::invalid_argument("FleetSim: the plan has no sparse shards");
    if (cfg_.epochs <= 0)
        throw std::invalid_argument("FleetSim: epochs must be > 0");
    if (cfg_.requests_per_epoch == 0)
        throw std::invalid_argument(
            "FleetSim: requests_per_epoch must be > 0");
    for (const auto &ev : cfg_.faults.events()) {
        const bool targets_shard = ev.kind == FaultKind::ReplicaCrash ||
                                   ev.kind == FaultKind::SlowReplica ||
                                   ev.kind == FaultKind::Partition;
        if (targets_shard && (ev.shard < 0 || ev.shard >= plan_.numShards()))
            throw std::invalid_argument(
                "FleetSim: a fault event targets a shard outside the plan");
    }
}

void
FleetSim::runSegment(const Segment &seg, const EpochPlan &epoch,
                     EpochTally &tally) const
{
    const std::vector<int> &replicas = seg.replicas;
    const FaultPlan &faults = epoch.faults;
    core::ServingConfig cfg = base_;
    cfg.sparse_replicas_per_shard = replicas;
    cfg.seed = stats::mix64(base_.seed ^ seg.seed_salt);

    if (seg.degrade && !base_.shard_cache_models.empty()) {
        // Cold-replica warmup ramp: a shard that grew from r to r'
        // replicas serves the window at (r + 0.5*(r'-r))/r' of its
        // steady hit rate — surviving replicas stay warm, new ones ramp
        // linearly from empty.
        for (std::size_t s = 0; s < cfg.shard_cache_models.size() &&
                                s < replicas.size();
             ++s) {
            const int now = replicas[s];
            const int before =
                s < epoch.prev.size() ? epoch.prev[s] : now;
            if (now <= before || !cfg.shard_cache_models[s])
                continue;
            const double warm_share =
                (static_cast<double>(before) +
                 0.5 * static_cast<double>(now - before)) /
                static_cast<double>(now);
            cfg.shard_cache_models[s] =
                std::make_shared<const cache::CachedLookupModel>(
                    cfg.shard_cache_models[s]->scaled(warm_share));
        }
    }

    // Snapshot storm: every shard's row cache re-warms from a mass
    // embedding refresh, so ALL shards serve at the storm's warm share
    // this segment (stacks multiplicatively on any cold-replica ramp).
    if (faults.storm_warm_share < 1.0)
        for (auto &m : cfg.shard_cache_models)
            if (m)
                m = std::make_shared<const cache::CachedLookupModel>(
                    m->scaled(faults.storm_warm_share));

    // Pure observers: the tracer never draws simulation RNG and the
    // feed only reads completions, so wiring them cannot change stats.
    // The feed lives as long as the segment (whose sim clock starts at
    // 0), and the sampler lets go of it before it dies.
    obs::RollingHistogram feed;
    if (epoch.tracer != nullptr) {
        epoch.tracer->sampler()->setLatencyFeed(&feed);
        cfg.tracer = epoch.tracer;
        cfg.latency_feed = &feed;
    }
    core::ServingSimulation sim(spec_, plan_, cfg);

    // Fault targets address the SEGMENT's replica vector (lag segments
    // still run the OLD vector): flat server id, metrics().servers order.
    // Replica indexes past the shard's current size clamp to its last
    // replica, so a schedule written against the peak vector stays
    // meaningful after a scale-down.
    const auto serverIdFor = [&replicas](int shard, int rep) {
        int id = 0;
        for (int s = 0; s < shard; ++s)
            id += std::max(1, replicas[static_cast<std::size_t>(s)]);
        const int within =
            std::max(1, replicas[static_cast<std::size_t>(shard)]);
        return id + std::min(rep, within - 1);
    };

    // Apply the epoch's standing faults through the runtime control
    // surface before any traffic.
    for (const auto &[shard, rep] : faults.dead)
        sim.killReplica(serverIdFor(shard, rep));
    for (const auto &[shard, rep, mult] : faults.slow)
        sim.degradeReplica(serverIdFor(shard, rep), mult);
    for (const int s : faults.partitioned_shards)
        sim.partitionShard(s, true);

    if (!seg.prewarm.empty())
        sim.replayOpenLoop(seg.prewarm, epoch.qps); // stats discarded
    if (seg.invalidate)
        sim.invalidateResultCache();
    const rpc::ResultCacheStats warm = sim.metrics().result_cache;

    const std::vector<workload::Request> slice(
        epoch.requests.begin() + static_cast<std::ptrdiff_t>(seg.lo),
        epoch.requests.begin() + static_cast<std::ptrdiff_t>(seg.hi));
    // Mid-segment crash onsets: scheduled AFTER the prewarm replay so
    // the kill lands kCrashAtFraction into the MEASURED traffic (the
    // discovery-lag timer starts at the kill, so hedging must mask the
    // gap until the directory reacts).
    if (seg.fresh_kills && !faults.fresh_kills.empty() && !slice.empty() &&
        epoch.qps > 0.0) {
        const double span_s = static_cast<double>(slice.size()) / epoch.qps;
        const auto offset = static_cast<sim::Duration>(
            kCrashAtFraction * span_s * 1e9);
        for (const auto &fk : faults.fresh_kills) {
            const int srv = serverIdFor(fk.first, fk.second);
            sim.engine().scheduleAt(sim.engine().now() + offset,
                                    sim::kEvTimer,
                                    [&sim, srv] { sim.killReplica(srv); });
        }
    }

    const auto stats = sim.replayOpenLoop(slice, epoch.qps);
    tally.all_stats.insert(tally.all_stats.end(), stats.begin(),
                           stats.end());
    if (seg.steady)
        tally.steady_stats.insert(tally.steady_stats.end(), stats.begin(),
                                  stats.end());
    const core::ServingMetrics m = sim.metrics();
    tally.result_cache_hits += m.result_cache.hits - warm.hits;
    tally.result_cache_lookups += m.result_cache.lookups - warm.lookups;
    tally.primary_rpcs += m.hedge.primary_rpcs;
    tally.hedges += m.hedge.hedges;
    for (const core::ServerMetrics &server : m.servers)
        tally.peak_replica_queue =
            std::max(tally.peak_replica_queue, server.peak_queue);

    // Energy over the segment's share of the epoch: each sparse replica
    // at its shard's measured utilization, machines still booting at
    // idle draw, and the main shard's machine (always in the ledgers).
    const dc::Platform &sp = base_.sparse_platform;
    tally.shard_utilization.clear();
    double watts = 0.0;
    for (const core::ShardLoad &load : m.shards) {
        const std::size_t s = tally.shard_utilization.size();
        tally.shard_utilization.push_back(load.utilization);
        watts += static_cast<double>(replicas[s]) *
                 sp.powerWatts(load.utilization);
    }
    watts += seg.booting * sp.idle_watts;
    watts += base_.main_platform.powerWatts(m.main_utilization);
    const double frac = static_cast<double>(seg.hi - seg.lo) /
                        static_cast<double>(epoch.requests.size());
    tally.watt_hours += watts * kEpochHours * frac;

    if (epoch.tracer != nullptr)
        epoch.tracer->sampler()->setLatencyFeed(nullptr);
    tally.dropped_stale += feed.droppedStale();
}

FleetStats
FleetSim::run(Autoscaler &policy)
{
    const auto shards = static_cast<std::size_t>(plan_.numShards());
    const dc::Platform &sp = base_.sparse_platform;

    FleetStats ledger;
    ledger.policy = policy.name();

    std::vector<int> prev; // empty before the first epoch
    EpochObservation last;
    bool have_last = false;
    std::vector<workload::Request> prev_tail;

    // Telemetry analysis (pure observer: consumes only measured ledger
    // values, after the epoch's simulations finished). One bucket per
    // epoch in each burn window.
    obs::SloMonitor monitor;
    const auto objective = [&](const char *name, double budget) {
        obs::SloObjective o;
        o.name = name;
        o.budget_fraction = budget;
        o.fast_horizon_s = kFastWindowEpochs * kEpochDurationS;
        o.slow_horizon_s = kSlowWindowEpochs * kEpochDurationS;
        o.buckets = kSlowWindowEpochs;
        o.fast_burn_threshold = kFastBurnThreshold;
        o.slow_burn_threshold = kSlowBurnThreshold;
        o.pending_ticks = kPendingTicks;
        o.resolve_ticks = kResolveTicks;
        return monitor.addObjective(o);
    };
    const int lat_obj = objective("latency", kLatencyBudgetFraction);
    const int shed_obj = objective("shed", cfg_.slo.max_shed_rate);
    const int avail_obj =
        objective("availability", kAvailabilityBudgetFraction);
    obs::EwmaMadDetector burst_detector;
    std::vector<bool> burst_flags;
    // Per-epoch SLO attainment (1 - (shed + over-latency)/requests),
    // kept only when a fault schedule is attached: the scorecards'
    // blast-radius input.
    std::vector<double> epoch_attainment;

    for (int e = 0; e < cfg_.epochs; ++e) {
        std::vector<int> vec =
            policy.decide(e, load_, have_last ? &last : nullptr);
        vec.resize(shards, 1);
        for (auto &r : vec)
            r = std::max(1, r);

        EpochPlan ep;
        ep.faults = FaultPlan::at(cfg_.faults, e);
        ep.requests = load_.epochRequests(e, cfg_.requests_per_epoch);
        ep.qps = load_.realizedQps(e) * ep.faults.flash_rate;
        ep.prev = prev;
        const std::size_t n = ep.requests.size();
        const auto slice = [&ep](std::size_t lo, std::size_t hi) {
            return std::vector<workload::Request>(
                ep.requests.begin() + static_cast<std::ptrdiff_t>(lo),
                ep.requests.begin() + static_cast<std::ptrdiff_t>(hi));
        };

        // Flash crowd overlay: a deterministic stride of the epoch's
        // sample collapses onto the first request's feature vector — the
        // hot key every cache and hedge assumption suddenly sees
        // everywhere.
        if (ep.faults.flash_hot > 0.0 && n > 0) {
            const auto stride = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::llround(1.0 / ep.faults.flash_hot)));
            const workload::Request hot = ep.requests.front();
            for (std::size_t i = 0; i < n; i += stride) {
                ep.requests[i].items = hot.items;
                ep.requests[i].table_lookups = hot.table_lookups;
                ep.requests[i].content_hash = hot.content_hash;
            }
        }

        EpochRecord rec;
        rec.epoch = e;
        rec.forecast_qps = load_.forecastQps(e);
        rec.offered_qps = ep.qps;
        rec.replicas = vec;
        rec.reconfigured = !prev.empty() && vec != prev;
        if (rec.reconfigured)
            for (std::size_t s = 0; s < shards; ++s) {
                rec.scaled_up |= vec[s] > prev[s];
                rec.scaled_down |= vec[s] < prev[s];
            }

        // The segment plan, in request-index space. The declared
        // reconfiguration window is lag + cold; SLO attainment outside
        // it is what scale-downs are held to.
        const std::size_t lag_n =
            rec.reconfigured && rec.scaled_up
                ? static_cast<std::size_t>(std::llround(
                      kProvisioningLagFraction *
                      static_cast<double>(n)))
                : 0;
        const std::size_t cold_n =
            rec.reconfigured
                ? static_cast<std::size_t>(std::llround(
                      kColdCacheFraction *
                      static_cast<double>(n)))
                : 0;
        const std::size_t steady_lo = std::min(n, lag_n + cold_n);
        const std::uint64_t salt =
            0xe70c0ULL + static_cast<std::uint64_t>(e) * 8;
        if (lag_n > 0) {
            // Scale-up provisioning lag: the OLD vector keeps serving
            // the new epoch's offered load; the new machines are booked
            // (and drawing idle power) but not yet serving.
            Segment lag;
            lag.replicas = prev;
            lag.hi = lag_n;
            lag.prewarm = std::move(prev_tail);
            lag.invalidate = ep.faults.storm;
            for (std::size_t s = 0; s < shards; ++s)
                lag.booting += std::max(0, vec[s] - prev[s]);
            lag.seed_salt = salt;
            ep.segments.push_back(std::move(lag));
        }
        if (cold_n > 0) {
            // Cold window on the new vector: fresh replicas' row caches
            // ramp, and the pooled-result cache restarts from the
            // resharding invalidation — so there is nothing to prewarm
            // (replaying carry-over traffic only to invalidate it would
            // be pure wasted simulation).
            Segment cold;
            cold.replicas = vec;
            cold.lo = lag_n;
            cold.hi = steady_lo;
            cold.invalidate = true;
            cold.degrade = true;
            cold.seed_salt = salt + 1;
            ep.segments.push_back(std::move(cold));
        }
        {
            // Steady remainder (the whole epoch when nothing changed),
            // where crash onsets land. Prewarm comes from the
            // immediately preceding traffic so the pooled-result cache
            // keeps cross-epoch continuity.
            Segment steady;
            steady.replicas = vec;
            steady.lo = steady_lo;
            steady.hi = n;
            steady.prewarm =
                rec.reconfigured
                    ? slice(steady_lo - std::min(steady_lo, kPrewarmRequests),
                            steady_lo)
                    : std::move(prev_tail);
            steady.invalidate = ep.faults.storm;
            steady.steady = true;
            steady.fresh_kills = true;
            steady.seed_salt = salt + 2;
            ep.segments.push_back(std::move(steady));
        }

        // Per-epoch bounded trace retention: fresh tracer + sampler
        // (epoch-mixed seed) so retained sets are attributable to an
        // epoch and arena memory never outlives one.
        std::unique_ptr<obs::TraceSampler> sampler;
        obs::SpanTracer epoch_tracer(true);
        if (cfg_.trace_sampling.enabled) {
            obs::SamplerConfig sc;
            sc.seed = stats::mix64(kTraceSamplingSeed ^
                                   (static_cast<std::uint64_t>(e) + 1));
            sc.reservoir_size = kTraceReservoirSize;
            sc.retained_byte_budget = kTracePerEpochByteBudget;
            sampler = std::make_unique<obs::TraceSampler>(sc);
            epoch_tracer.setSampler(sampler.get());
            ep.tracer = &epoch_tracer;
        }

        EpochTally tally;
        for (const Segment &seg : ep.segments)
            runSegment(seg, ep, tally);
        const std::vector<core::RequestStats> &all_stats = tally.all_stats;

        // Machine-hours: the decided vector is billed for the whole
        // epoch; during a scale-up lag the old plan's still-serving
        // machines bill too (max of the two plans per shard).
        double machines = 1.0; // the main shard's machine
        double lag_machines = machines;
        for (std::size_t s = 0; s < shards; ++s) {
            machines += vec[s];
            lag_machines += std::max(
                vec[s], prev.empty() ? vec[s] : prev[s]);
        }
        const double lag_frac =
            static_cast<double>(lag_n) / static_cast<double>(n);
        rec.machine_hours =
            (lag_frac * lag_machines + (1.0 - lag_frac) * machines) *
            kEpochHours;

        rec.watt_hours = tally.watt_hours;
        rec.p99_ms = core::latencyQuantiles(all_stats).p99_ms;
        rec.steady_p99_ms =
            core::latencyQuantiles(tally.steady_stats).p99_ms;
        rec.shed_rate = core::shedRate(all_stats);
        for (const auto &s : all_stats)
            rec.shed_requests += s.shed() ? 1 : 0;
        const double steady_shed = core::shedRate(tally.steady_stats);
        rec.slo_violation = !cfg_.slo.met(rec.p99_ms, rec.shed_rate);
        rec.steady_slo_violation =
            !cfg_.slo.met(rec.steady_p99_ms, steady_shed);
        // Utilization is the last (steady) segment's: one entry per shard.
        const std::vector<double> &util = tally.shard_utilization;
        rec.mean_sparse_utilization = meanOf(util);
        rec.max_sparse_utilization =
            *std::max_element(util.begin(), util.end());
        rec.result_cache_hit_rate =
            tally.result_cache_lookups > 0
                ? static_cast<double>(tally.result_cache_hits) /
                      static_cast<double>(tally.result_cache_lookups)
                : 0.0;
        rec.hedge_rate = tally.primary_rpcs > 0
                             ? static_cast<double>(tally.hedges) /
                                   static_cast<double>(tally.primary_rpcs)
                             : 0.0;
        rec.peak_replica_queue =
            static_cast<std::int64_t>(tally.peak_replica_queue);

        // dc::DeploymentPlan costing of the decided vector at measured
        // utilization: the TCO view (power + memory) of this epoch.
        for (std::size_t s = 0; s < shards; ++s) {
            dc::ShardProvision p;
            p.name = "sparse" + std::to_string(s);
            p.replicas = vec[s];
            p.total_memory_bytes =
                static_cast<std::int64_t>(vec[s]) *
                static_cast<std::int64_t>(
                    plan_.capacityBytes(spec_, static_cast<int>(s)));
            p.cpu_utilization = util[s];
            p.power_watts = static_cast<double>(p.replicas) *
                            sp.powerWatts(p.cpu_utilization);
            rec.plan.shards.push_back(p);
        }

        // Served requests over the SLO latency target: the event count
        // behind the latency error budget (a P99-vs-target check says
        // "breached"; the over-target fraction says HOW MUCH budget
        // burned).
        std::int64_t over_latency = 0;
        const double slo_ns = cfg_.slo.p99_ms * 1e6;
        for (const auto &s : all_stats)
            if (!s.shed() && static_cast<double>(s.e2e) > slo_ns)
                ++over_latency;
        if (!cfg_.faults.empty())
            epoch_attainment.push_back(
                all_stats.empty()
                    ? 1.0
                    : 1.0 - static_cast<double>(over_latency +
                                                rec.shed_requests) /
                                static_cast<double>(all_stats.size()));

        // Next-epoch observation + carry-over. Policies see the STEADY
        // P99: the declared reconfiguration window is exempt from SLO
        // accounting, and a controller penalized on its own window's
        // cold-cache spike scales up right after every scale-down — a
        // self-inflicted reconfigure loop.
        last.epoch = e;
        last.replicas = vec;
        last.offered_qps = ep.qps;
        last.p99_ms = rec.steady_p99_ms;
        last.shed_rate = rec.shed_rate;
        last.shard_utilization = util;
        last.max_shard_utilization = rec.max_sparse_utilization;
        last.requests = static_cast<std::int64_t>(all_stats.size());
        last.shed_requests = rec.shed_requests;
        last.over_latency_target = over_latency;
        have_last = true;
        prev = vec;
        const std::size_t back = std::min(n, kPrewarmRequests);
        prev_tail = slice(n - back, n);

        // Telemetry analysis over the finished epoch: burn the error
        // budgets, evaluate the alert rules, step the burst detector.
        // Mid-epoch timestamps keep records off bucket boundaries.
        EpochTelemetry trow;
        const double t_mid = (static_cast<double>(e) + 0.5) * kEpochDurationS;
        const auto served = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(all_stats.size()) - rec.shed_requests);
        const auto over = static_cast<std::uint64_t>(over_latency);
        monitor.record(lat_obj, t_mid, served - over, over);
        monitor.record(shed_obj, t_mid, served,
                       static_cast<std::uint64_t>(rec.shed_requests));
        monitor.record(avail_obj, t_mid, rec.slo_violation ? 0 : 1,
                       rec.slo_violation ? 1 : 0);
        const auto emitted = monitor.evaluate(t_mid);
        ledger.telemetry.alerts.insert(ledger.telemetry.alerts.end(),
                                       emitted.begin(), emitted.end());

        trow.epoch = e;
        trow.load_ratio = rec.offered_qps / std::max(1e-9, rec.forecast_qps);
        trow.burst_flagged = burst_detector.step(trow.load_ratio);
        burst_flags.push_back(trow.burst_flagged);
        trow.latency_fast_burn = monitor.status(lat_obj).fast_burn;
        trow.latency_slow_burn = monitor.status(lat_obj).slow_burn;
        trow.shed_fast_burn = monitor.status(shed_obj).fast_burn;
        trow.shed_slow_burn = monitor.status(shed_obj).slow_burn;
        trow.availability_fast_burn = monitor.status(avail_obj).fast_burn;
        trow.availability_slow_burn = monitor.status(avail_obj).slow_burn;
        trow.latency_budget_consumed =
            monitor.status(lat_obj).budgetConsumed(
                monitor.objective(lat_obj).budget_fraction);
        for (std::size_t o = 0; o < monitor.objectiveCount(); ++o)
            trow.alerts_firing +=
                monitor.status(static_cast<int>(o)).state ==
                        obs::AlertState::Firing
                    ? 1
                    : 0;
        ledger.telemetry.epochs.push_back(trow);

        // Summarize the epoch's trace retention into the telemetry
        // side-ledger (fingerprint-excluded). Exemplars: the highest
        // keep class first, slowest first within a class — the traces
        // an investigation should open first.
        if (sampler) {
            EpochTraceSummary tsum;
            tsum.epoch = e;
            const obs::SamplerStats &ss = sampler->stats();
            tsum.roots_closed = ss.roots_closed;
            tsum.retained = sampler->retained().size();
            tsum.retained_bytes = sampler->retainedBytes();
            tsum.kept_flagged = ss.kept_flagged;
            tsum.kept_tail = ss.kept_tail;
            tsum.kept_reservoir = ss.kept_reservoir;
            tsum.recycled = ss.recycled;
            tsum.dropped_stale = tally.dropped_stale;
            std::vector<const obs::RetainedTrace *> ranked;
            ranked.reserve(sampler->retained().size());
            for (const obs::RetainedTrace &t : sampler->retained())
                ranked.push_back(&t);
            std::sort(ranked.begin(), ranked.end(),
                      [](const obs::RetainedTrace *a,
                         const obs::RetainedTrace *b) {
                          if (a->keep_class != b->keep_class)
                              return a->keep_class > b->keep_class;
                          if (a->e2e != b->e2e)
                              return a->e2e > b->e2e;
                          return a->request_id < b->request_id;
                      });
            for (const obs::RetainedTrace *t : ranked) {
                if (tsum.exemplars.size() >= kTraceScenarioExemplars)
                    break;
                EpochTraceSummary::Exemplar ex;
                ex.request_id = t->request_id;
                ex.keep_class = t->keep_class;
                ex.e2e = t->e2e;
                tsum.exemplars.push_back(ex);
            }
            ledger.telemetry.traces.push_back(std::move(tsum));
        }

        ledger.epochs.push_back(std::move(rec));
    }

    // Score the online burst detector against the load model's seeded
    // ground truth (which epochs actually drew bursts).
    ledger.telemetry.burst_eval = obs::scoreFlags(
        burst_detector.name(), burst_flags, load_, kDetectMatchWindowEpochs);

    // Chaos scorecards: grade each scheduled event against the measured
    // attainment trajectory and the burn-rate clock. Recovery is read
    // off PR 7's alerting state — an epoch is "healthy" when no
    // objective fires and every fast burn sits under its threshold.
    if (!cfg_.faults.empty()) {
        const auto healthyAt = [&](int f) {
            const auto &t =
                ledger.telemetry.epochs[static_cast<std::size_t>(f)];
            return t.alerts_firing == 0 &&
                   t.latency_fast_burn < kFastBurnThreshold &&
                   t.shed_fast_burn < kFastBurnThreshold &&
                   t.availability_fast_burn < kFastBurnThreshold;
        };
        for (const auto &ev : cfg_.faults.events()) {
            ScenarioOutcome o;
            o.scenario = ev.name();
            o.kind = ev.kind;
            o.start_epoch = ev.start_epoch;
            o.end_epoch = std::min(ev.end_epoch, cfg_.epochs);
            for (int f = ev.start_epoch; f < o.end_epoch; ++f) {
                const auto fi = static_cast<std::size_t>(f);
                if (epoch_attainment[fi] <= o.min_attainment) {
                    o.min_attainment = epoch_attainment[fi];
                    o.exemplar_epoch = f; // blast epoch: worst epoch
                }
                o.blast_radius = std::max(o.blast_radius,
                                          1.0 - epoch_attainment[fi]);
                o.shed_requests += ledger.epochs[fi].shed_requests;
            }
            // Attach the blast epoch's retained exemplar traces so the
            // scorecard links straight to span trees (sampling only;
            // fingerprint-excluded fields).
            if (o.exemplar_epoch >= 0 &&
                static_cast<std::size_t>(o.exemplar_epoch) <
                    ledger.telemetry.traces.size())
                for (const auto &ex :
                     ledger.telemetry
                         .traces[static_cast<std::size_t>(
                             o.exemplar_epoch)]
                         .exemplars)
                    o.exemplar_requests.push_back(ex.request_id);
            o.within_declared_bound =
                o.blast_radius <= ev.declared_blast_radius;
            // Recovery: epochs from onset until the burn clock reads
            // healthy FOR GOOD within the post-fault horizon (one slow
            // window past the heal, so lingering fast-window burn
            // counts against the scenario, later unrelated faults do
            // not).
            const int horizon = std::min(
                cfg_.epochs, o.end_epoch + kSlowWindowEpochs);
            int last_unhealthy = ev.start_epoch - 1;
            for (int f = ev.start_epoch; f < horizon; ++f)
                if (!healthyAt(f))
                    last_unhealthy = f;
            if (last_unhealthy < ev.start_epoch)
                o.recovery_epochs = 0; // fully masked
            else if (last_unhealthy == cfg_.epochs - 1)
                o.recovery_epochs = -1; // not recovered by trace end
            else
                o.recovery_epochs =
                    last_unhealthy + 1 - ev.start_epoch;
            ledger.telemetry.scenarios.push_back(std::move(o));
        }
    }
    return ledger;
}

} // namespace dri::fleet
