/**
 * @file
 * End-to-end benchmark: one canonical workload per process,
 * timed from outside the simulator.
 *
 *   bench_e2e --workload <serial_sweep|open_loop_hedged|fleet_day>
 *             --seed <u64> [--reps N] [--seconds S] [--trace 0|1]
 *             [--trace-out file.json]
 *
 * Each rep redoes the workload's setup and its timed phase untraced. Reps
 * run until at least N (default 3) are done and another would overrun
 * --seconds. A phase's host time sums each call's median across reps,
 * each call scaled by the host speed measured around it
 * (HostCalibration); the simulated outcome is identical across reps of
 * one seed. With --trace 1 the benchmark then makes separate runs for the
 * per-layer numbers:
 *
 *  - a profiled rep: host spans around every call into a layer, engine
 *    per-tag callback timing, and (fleet_day) the study rebuilt step by
 *    step — the per-layer self-time shares;
 *  - obs runs: a flat span tracer and a tracer with a tail sampler
 *    (serial_sweep, open_loop_hedged), or the fleet with trace sampling
 *    and the autoscaler decorator off (fleet_day, whose production mode
 *    samples) — the observability overheads, critical-path shares and
 *    the simulated-time Chrome spans.
 *
 * Every metric is printed as `name = value unit`; the last stdout line is
 * one JSON object with every metric, the self-check verdict, and the
 * request counts. Exit status is 1 when a self-check fails, 2 on a usage
 * error.
 *
 * All seeds — request generators, ServingConfig::seed, the capacity
 * search's arrival seed, the diurnal load model and FleetConfig::seed —
 * derive from --seed through splitmix64. Single-threaded throughout.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/analysis.h"
#include "core/trace_slicing.h"
#include "e2e_spans.h"
#include "fleet/fleet_sim.h"
#include "fleet/study.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/sampler.h"
#include "obs/span_tracer.h"
#include "sched/capacity_search.h"
#include "workload/access_trace.h"

namespace {

using namespace dri;
using bench::HostSpans;

// ---------------------------------------------------------------------------
// Seeds, fingerprints, small statistics
// ---------------------------------------------------------------------------

/** One derived seed per consumer of randomness. */
enum SeedStream : std::uint64_t
{
    kRequestSeed = 1,
    kServingSeed = 2,
    kArrivalSeed = 3,
    kProbeRequestSeed = 4,
    kLoadSeed = 5,
    kFleetSeed = 6,
};

/** splitmix64's output for state `seed + stream * golden gamma`. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

void
foldStats(Fnv &fnv, const std::vector<core::RequestStats> &stats)
{
    fnv.add(static_cast<std::uint64_t>(stats.size()));
    for (const auto &s : stats) {
        fnv.add(s.id);
        fnv.add(static_cast<std::uint64_t>(s.e2e));
        fnv.add(static_cast<std::uint64_t>(s.completion));
        fnv.add(static_cast<std::uint64_t>(s.queue_wait));
        fnv.add(static_cast<std::uint64_t>(s.rpc_count));
        fnv.add(static_cast<std::uint64_t>(s.hedges));
        fnv.add(static_cast<std::uint64_t>(s.hedge_wins));
        fnv.add(static_cast<std::uint64_t>(s.result_cache_hits));
        fnv.add(static_cast<std::uint64_t>(s.shed_reason));
        fnv.add(s.cpu_ops_ns);
        fnv.add(s.cpu_serde_ns);
        fnv.add(s.cpu_service_ns);
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Injected requests that did not yield exactly one RequestStats. */
std::uint64_t
lostRequests(const std::vector<workload::Request> &requests,
             const std::vector<core::RequestStats> &stats)
{
    std::multiset<std::uint64_t> want;
    for (const auto &r : requests)
        want.insert(r.id);
    std::set<std::uint64_t> seen;
    std::uint64_t matched = 0;
    for (const auto &s : stats) {
        const auto it = want.find(s.id);
        if (it != want.end() && seen.insert(s.id).second) {
            want.erase(it);
            ++matched;
        }
    }
    const std::uint64_t duplicates = stats.size() - matched;
    return requests.size() - matched + duplicates;
}

/**
 * Host-speed calibration: fixed work that shares no code with the
 * simulator but resembles its inner loop — Mersenne-Twister draws, a
 * logarithm, and churn on a 256 KiB binary heap — timed in 20 ms slices.
 * Shared hosts slow by a third for minutes at a time when their
 * neighbours are busy; the slice time follows that, so host times are
 * reported scaled to a reference host on which one slice takes
 * kReferenceSliceS. (A variant that also read a 4 MiB table followed the
 * simulator worse: it is more cache-sensitive than the simulator.) Built
 * by this package's own CMakeLists, so a change to the repository's
 * compile flags cannot change the kernel.
 */
class HostCalibration
{
  public:
    /** Slice time on the reference host. */
    static constexpr double kReferenceSliceS = 0.020;

    /**
     * Host speed now: the reference slice time over the median of `n`
     * timed slices (below 1 on a slower host).
     */
    double
    speed(int n)
    {
        std::vector<double> t;
        for (int i = 0; i < n; ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            sink_ += slice();
            t.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
        }
        return ratio(kReferenceSliceS, median(t));
    }

  private:
    std::uint64_t
    slice()
    {
        std::vector<std::uint64_t> heap;
        heap.reserve(1u << 15);
        std::mt19937_64 mt(sink_);
        std::uint64_t acc = 0;
        for (int i = 0; i < 300000; ++i) {
            const std::uint64_t r = mt();
            acc += static_cast<std::uint64_t>(
                -std::log(static_cast<double>(r >> 11) * 0x1p-53 + 1e-300) *
                1e6);
            if (heap.size() < heap.capacity()) {
                heap.push_back(r + acc);
                std::push_heap(heap.begin(), heap.end());
            } else {
                std::pop_heap(heap.begin(), heap.end());
                acc ^= heap.back();
                heap.back() = r + acc;
                std::push_heap(heap.begin(), heap.end());
            }
        }
        return acc;
    }

    std::uint64_t sink_ = 0;
};

HostCalibration &
hostCalibration()
{
    static HostCalibration calibration;
    return calibration;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Per-layer metrics every workload reports: a layer with no work on a
 * workload reads 0. set() rejects names outside this table so a typo
 * cannot silently report 0 forever.
 */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"host.profiled_wall_s", "s"},
    {"unattributed_frac", "frac"},
    {"model.self_frac", "frac"},
    {"workload.self_frac", "frac"},
    {"cache.self_frac", "frac"},
    {"core.self_frac", "frac"},
    {"sim.self_frac", "frac"},
    {"netsim.self_frac", "frac"},
    {"rpc.self_frac", "frac"},
    {"sched.self_frac", "frac"},
    {"fleet.self_frac", "frac"},
    {"workload.generate_frac", "frac"},
    {"workload.record_trace_frac", "frac"},
    {"workload.trace_accesses", "count"},
    {"cache.build_models_frac", "frac"},
    {"cache.accesses_per_s", "1/s"},
    {"core.construct_frac", "frac"},
    {"core.replay_frac", "frac"},
    {"core.rpcs_per_request", "rpc/req"},
    {"core.p99_overhead_pct", "%"},
    {"core.cpu_overhead_pct", "%"},
    {"sim.events_executed", "count"},
    {"sim.events_per_request", "ev/req"},
    {"sim.events_per_s", "1/s"},
    {"sim.peak_pending", "count"},
    {"sim.heap_callbacks", "count"},
    {"sim.arena_blocks", "count"},
    {"sim.queue_frac", "frac"},
    {"sim.events.main_compute", "count"},
    {"sim.events.sparse_compute", "count"},
    {"sim.events.wire", "count"},
    {"sim.events.timer", "count"},
    {"sim.events.grant", "count"},
    {"sim.events.driver", "count"},
    {"sim.callback_frac.main_compute", "frac"},
    {"sim.callback_frac.sparse_compute", "frac"},
    {"sim.callback_frac.wire", "frac"},
    {"sim.callback_frac.timer", "frac"},
    {"sim.callback_frac.grant", "frac"},
    {"sim.callback_frac.driver", "frac"},
    {"rpc.hedge_rate", "frac"},
    {"rpc.hedge_win_frac", "frac"},
    {"rpc.hedge_wasted_cpu_frac", "frac"},
    {"rpc.result_cache_hit_frac", "frac"},
    {"sched.capacity_search_frac", "frac"},
    {"sched.probes", "count"},
    {"sched.max_qps", "req/s"},
    {"fleet.plan_peak_frac", "frac"},
    {"fleet.decide_frac", "frac"},
    {"fleet.simulate_frac", "frac"},
    {"fleet.reconfigurations", "count"},
    {"fleet.machine_hours", "machine-h"},
    {"fleet.slo_violation_epochs", "count"},
    {"obs.tracer_overhead_frac", "frac"},
    {"obs.sampler_overhead_frac", "frac"},
    {"obs.spans", "count"},
    {"obs.tracer_allocations", "count"},
    {"obs.sampler_retained_bytes", "B"},
    {"obs.critical_paths_frac", "frac"},
    {"trace.rpc_records", "count"},
    {"path.queue_share", "frac"},
    {"path.compute_share", "frac"},
    {"path.serde_share", "frac"},
    {"path.network_share", "frac"},
    {"path.wait_share", "frac"},
};

class MetricSet
{
  public:
    void
    add(std::string name, double value, std::string unit)
    {
        metrics_.push_back({std::move(name), value, std::move(unit)});
    }

    /** Set one of kLayerMetrics (unit from the table). */
    void
    set(const std::string &name, double value)
    {
        for (const auto &[n, u] : kLayerMetrics)
            if (name == n) {
                layer_values_[name] = value;
                return;
            }
        throw std::logic_error("unknown per-layer metric " + name);
    }

    /** Append every per-layer metric, 0 where the workload set none. */
    void
    addLayerMetrics()
    {
        for (const auto &[n, u] : kLayerMetrics) {
            const auto it = layer_values_.find(n);
            add(n, it == layer_values_.end() ? 0.0 : it->second, u);
        }
    }

    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
    std::map<std::string, double> layer_values_;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------------
// One rep
// ---------------------------------------------------------------------------

/**
 * What a rep attaches and records:
 *  - Untraced: a disabled tracer on every simulation (the end-to-end
 *    numbers; also checks the disabled tracer allocates nothing);
 *  - Profiled: engine per-tag timing + step-by-step fleet setup;
 *  - Traced: a flat span tracer, critical paths per simulation;
 *  - Sampled: span tracer + tail sampler;
 *  - Bare: fleet_day with trace sampling and the autoscaler decorator off.
 */
enum class Mode
{
    Untraced,
    Profiled,
    Traced,
    Sampled,
    Bare,
};

/** Observability totals of one rep's simulations. */
struct ObsTotals
{
    std::uint64_t allocations = 0;
    std::uint64_t spans = 0;
    std::size_t retained_bytes = 0;
    bool conserved = true;
    obs::PathProfile paths;
    /** Retained simulated-time spans of the rep's last simulation. */
    std::vector<obs::SpanRecord> chrome_spans;
};

/** Result of one rep: host timings, simulated outcome, layer counters. */
struct RepResult
{
    HostSpans spans;
    /**
     * Host ns of each setup / timed-phase call into a layer, in call
     * order. Reps of one seed make the same calls, so call i of every
     * rep times the same work.
     */
    std::vector<std::int64_t> setup_calls;
    std::vector<std::int64_t> timed_calls;
    /** Host speed around each call (1 where the rep does not calibrate). */
    std::vector<double> setup_speed;
    std::vector<double> timed_speed;
    /** Host-speed samples taken during the rep. */
    std::vector<double> speed_samples;
    std::int64_t wall_ns = 0;
    /** Simulated requests completed in the timed phase. */
    std::uint64_t requests = 0;
    /** Requests injected where one RequestStats each is checked. */
    std::uint64_t checked = 0;
    /** Of those, injected without exactly one RequestStats. */
    std::uint64_t lost = 0;
    std::uint64_t fingerprint = 0;
    /** Repeated work within the rep produced identical results. */
    bool deterministic = true;
    /** Engine counters over the rep's simulations (sums; peaks as max). */
    sim::EngineProfile profile;
    ObsTotals obs;
    /** Simulated end-to-end outcome and workload-specific extras. */
    MetricSet outcome;
    /** Workload-specific per-layer values. */
    MetricSet layer;

    /**
     * Share of the rep's wall time that layer spans cover. Calibration
     * is neither simulator work nor the benchmark's overhead on it, so it
     * is left out of both sides.
     */
    double
    coverage() const
    {
        const auto by_layer = spans.selfByLayer();
        const auto ns = [&](const char *layer) {
            const auto it = by_layer.find(layer);
            return it == by_layer.end() ? 0.0
                                        : static_cast<double>(it->second);
        };
        return 1.0 - ratio(ns("bench"),
                           static_cast<double>(wall_ns) - ns("calibrate"));
    }
};

/**
 * One rep of a workload: times each call into a layer as a span and a
 * sample, and (every mode but Profiled) measures the host speed at the
 * start, the end, and after any call once kCalibrationPeriodNs has passed
 * since the last measurement, so every call is bracketed by two.
 */
class Rep
{
  public:
    explicit Rep(Mode mode) : mode_(mode)
    {
        root_ = r_.spans.begin("bench.rep");
        calibrate();
    }

    RepResult &result() { return r_; }
    HostSpans &spans() { return r_.spans; }

    /** A setup call into a layer, timed as span `name`. */
    template <class F>
    auto
    setup(const char *name, F &&fn)
    {
        const int id = r_.spans.begin(name);
        auto out = fn();
        r_.setup_calls.push_back(r_.spans.end(id));
        const HostSpans::Span &s = span(id);
        setup_mid_.push_back((s.begin_ns + s.end_ns) / 2);
        calibrateIfDue(s.end_ns);
        return out;
    }

    /** A timed-phase call into a layer, timed as span `name`. */
    template <class F>
    auto
    timed(const char *name, F &&fn)
    {
        const int id = r_.spans.begin(name);
        auto out = fn();
        endTimed(id);
        return out;
    }

    /**
     * Close timed-phase span `id`, sampled as the pieces between the
     * host times `cuts` (ns since the recorder's origin, ascending).
     */
    std::int64_t
    endTimed(int id, const std::vector<std::int64_t> &cuts = {})
    {
        const std::int64_t ns = r_.spans.end(id);
        const HostSpans::Span &s = span(id);
        std::int64_t from = s.begin_ns;
        for (const std::int64_t to : cuts) {
            r_.timed_calls.push_back(to - from);
            timed_mid_.push_back((from + to) / 2);
            from = to;
        }
        r_.timed_calls.push_back(s.end_ns - from);
        timed_mid_.push_back((from + s.end_ns) / 2);
        calibrateIfDue(s.end_ns);
        return ns;
    }

    /** Tracer to attach to the next ServingSimulation. */
    obs::SpanTracer *
    attachTracer()
    {
        const bool on = mode_ == Mode::Traced || mode_ == Mode::Sampled;
        tracer_ = std::make_unique<obs::SpanTracer>(on);
        sampler_.reset();
        if (mode_ == Mode::Sampled) {
            obs::SamplerConfig sc;
            sc.reservoir_size = 16;
            sc.retained_byte_budget = 512u << 10;
            sampler_ = std::make_unique<obs::TraceSampler>(sc);
            tracer_->setSampler(sampler_.get());
        }
        return tracer_.get();
    }

    /**
     * Replay through `sim` (fn runs the replay), then account it: engine
     * counters, per-tag callback time as children of the replay span in
     * profiled reps, request conservation, and the attached tracer.
     */
    template <class F>
    std::vector<core::RequestStats>
    replay(core::ServingSimulation &sim,
           const std::vector<workload::Request> &requests, F &&fn)
    {
        sim.engine().enableProfiling(mode_ == Mode::Profiled);
        const int id = r_.spans.begin("core.replay");
        auto stats = fn();
        const std::int64_t ns = endTimed(id);

        const sim::EngineProfile p = sim.engine().profile();
        addProfile(p);
        if (mode_ == Mode::Profiled) {
            for (std::size_t t = 0; t < sim::kEvTagCount; ++t)
                r_.spans.addAggregate(
                    id, tagSpanName(static_cast<sim::EventTag>(t)),
                    p.tag_wall_ns[t]);
            r_.spans.addAggregate(id, "sim.queue", ns - p.wall_ns);
        }
        r_.requests += stats.size();
        r_.checked += requests.size();
        r_.lost += lostRequests(requests, stats);
        harvestTracer(requests.size());
        return stats;
    }

    /** Close the rep's root span. */
    RepResult
    finish()
    {
        calibrate();
        r_.setup_speed = speedsAt(setup_mid_);
        r_.timed_speed = speedsAt(timed_mid_);
        r_.wall_ns = r_.spans.end(root_);
        return std::move(r_);
    }

    /** Span the engine's per-tag callback time is attributed to. */
    static std::string
    tagSpanName(sim::EventTag tag)
    {
        switch (tag) {
        case sim::kEvMainCompute:
        case sim::kEvSparseCompute:
        case sim::kEvDriver:
            return std::string("core.") + sim::eventTagName(tag);
        case sim::kEvWire:
            return "netsim.wire";
        case sim::kEvTimer:
            return "rpc.timer"; // hedge deadlines (and shed deadlines)
        default:
            return std::string("sim.") + sim::eventTagName(tag);
        }
    }

  private:
    static constexpr std::int64_t kCalibrationPeriodNs = 500'000'000;
    static constexpr int kCalibrationSlices = 3;

    const HostSpans::Span &
    span(int id) const
    {
        return r_.spans.spans()[static_cast<std::size_t>(id)];
    }

    void
    calibrate()
    {
        if (mode_ == Mode::Profiled) // its shares are of an undisturbed wall
            return;
        const int id = r_.spans.begin("calibrate.host");
        const double speed = hostCalibration().speed(kCalibrationSlices);
        r_.spans.end(id);
        const HostSpans::Span &s = span(id);
        samples_.emplace_back((s.begin_ns + s.end_ns) / 2, speed);
        last_sample_end_ns_ = s.end_ns;
        r_.speed_samples.push_back(speed);
    }

    void
    calibrateIfDue(std::int64_t now_ns)
    {
        if (now_ns - last_sample_end_ns_ >= kCalibrationPeriodNs)
            calibrate();
    }

    /** Host speed at each time, interpolated between samples (1: none). */
    std::vector<double>
    speedsAt(const std::vector<std::int64_t> &times) const
    {
        std::vector<double> out;
        for (const std::int64_t t : times) {
            if (samples_.empty()) {
                out.push_back(1.0);
                continue;
            }
            const auto after = std::lower_bound(
                samples_.begin(), samples_.end(), t,
                [](const auto &s, std::int64_t v) { return s.first < v; });
            if (after == samples_.begin() || after == samples_.end()) {
                out.push_back(after == samples_.end() ? samples_.back().second
                                                      : after->second);
                continue;
            }
            const auto before = std::prev(after);
            const double w = static_cast<double>(t - before->first) /
                             static_cast<double>(after->first - before->first);
            out.push_back(before->second +
                          w * (after->second - before->second));
        }
        return out;
    }

    void
    addProfile(const sim::EngineProfile &p)
    {
        sim::EngineProfile &a = r_.profile;
        a.executed += p.executed;
        a.peak_pending = std::max(a.peak_pending, p.peak_pending);
        for (std::size_t t = 0; t < sim::kEvTagCount; ++t)
            a.tag_events[t] += p.tag_events[t];
        a.heap_callbacks += p.heap_callbacks;
        a.arena_blocks = std::max(a.arena_blocks, p.arena_blocks);
    }

    void
    harvestTracer(std::size_t requests)
    {
        if (!tracer_)
            return;
        ObsTotals &o = r_.obs;
        o.allocations += tracer_->allocations();
        if (mode_ == Mode::Traced) {
            o.spans += tracer_->spans().size();
            const int id = r_.spans.begin("obs.critical_paths");
            const auto paths = obs::criticalPaths(tracer_->spans());
            const bool ok =
                obs::checkConservation(tracer_->spans()).ok(requests);
            r_.spans.end(id);
            o.conserved &= ok;
            const obs::PathProfile pp = obs::profilePaths(paths);
            o.paths.requests += pp.requests;
            o.paths.total_ns += pp.total_ns;
            for (std::size_t b = 0; b < obs::kPathBucketCount; ++b)
                o.paths.bucket_ns[b] += pp.bucket_ns[b];
        } else if (mode_ == Mode::Sampled) {
            o.retained_bytes =
                std::max(o.retained_bytes, sampler_->retainedBytes());
            o.chrome_spans = sampler_->flattenedSpans();
        }
        tracer_.reset();
        sampler_.reset();
    }

    Mode mode_;
    RepResult r_;
    int root_ = -1;
    /** Midpoint of each setup / timed call, host ns. */
    std::vector<std::int64_t> setup_mid_;
    std::vector<std::int64_t> timed_mid_;
    /** (midpoint, speed) of each calibration, in time order. */
    std::vector<std::pair<std::int64_t, double>> samples_;
    std::int64_t last_sample_end_ns_ = 0;
    std::unique_ptr<obs::SpanTracer> tracer_;
    std::unique_ptr<obs::TraceSampler> sampler_;
};

// ---------------------------------------------------------------------------
// serial_sweep: Section VI, one outstanding request, every sharding plan
// ---------------------------------------------------------------------------

constexpr std::size_t kSerialRequests = 4000;

RepResult
runSerialSweep(std::uint64_t seed, Mode mode)
{
    Rep rep(mode);
    struct ModelRun
    {
        model::ModelSpec spec;
        std::vector<core::ShardingPlan> plans;
        std::vector<workload::Request> requests;
    };
    std::vector<ModelRun> models(3);
    const int sp = rep.spans().begin("bench.setup");
    for (std::size_t m = 0; m < models.size(); ++m) {
        ModelRun &mr = models[m];
        mr.spec = rep.setup("model.make_spec", [m] {
            return m == 0 ? model::makeDrm1()
                          : m == 1 ? model::makeDrm2() : model::makeDrm3();
        });
        workload::GeneratorConfig gc;
        gc.seed = deriveSeed(deriveSeed(seed, kRequestSeed), m);
        workload::RequestGenerator gen(mr.spec, gc);
        if (m < 2) {
            const auto pooling = rep.setup("workload.pooling", [&] {
                return gen.estimatePoolingFactors(1000);
            });
            mr.plans = rep.setup("core.make_plans", [&] {
                return bench::standardPlans(mr.spec, pooling);
            });
        } else {
            mr.plans = rep.setup("core.make_plans",
                                 [&] { return bench::drm3Plans(mr.spec); });
        }
        mr.requests = rep.setup("workload.generate",
                                [&] { return gen.generate(kSerialRequests); });
    }
    rep.spans().end(sp);

    core::ServingConfig cfg = bench::defaultServingConfig();
    cfg.seed = deriveSeed(seed, kServingSeed);
    std::vector<std::vector<std::vector<core::RequestStats>>> stats(
        models.size());
    std::uint64_t rpc_records = 0;
    const int tp = rep.spans().begin("bench.timed");
    for (std::size_t m = 0; m < models.size(); ++m) {
        const ModelRun &mr = models[m];
        for (const auto &plan : mr.plans) {
            cfg.tracer = rep.attachTracer();
            auto sim = rep.timed("core.construct", [&] {
                return std::make_unique<core::ServingSimulation>(mr.spec,
                                                                 plan, cfg);
            });
            stats[m].push_back(rep.replay(*sim, mr.requests, [&] {
                return sim->replaySerial(mr.requests);
            }));
            rpc_records += sim->collector().rpcs().size();
        }
    }
    rep.spans().end(tp);

    // Simulated outcome: per-plan quantiles, overhead vs the singular plan.
    Fnv fnv;
    std::vector<double> p50, p99, lat_over, cpu_over;
    std::uint64_t sent = 0, shed = 0, rpcs = 0;
    for (std::size_t m = 0; m < models.size(); ++m) {
        const auto &baseline = stats[m].front(); // makeSingular comes first
        for (std::size_t i = 0; i < stats[m].size(); ++i) {
            const auto &s = stats[m][i];
            foldStats(fnv, s);
            const auto q = core::latencyQuantiles(s);
            p50.push_back(q.p50_ms);
            p99.push_back(q.p99_ms);
            sent += s.size();
            for (const auto &r : s) {
                shed += r.shed() ? 1 : 0;
                rpcs += static_cast<std::uint64_t>(r.rpc_count);
            }
            if (i == 0)
                continue;
            const auto o = core::computeOverhead(
                models[m].plans[i].label(), baseline, s);
            lat_over.push_back(100.0 * o.latency_overhead[2]);
            cpu_over.push_back(100.0 * o.compute_overhead[2]);
        }
    }
    const auto mean = [](const std::vector<double> &v) {
        double sum = 0.0;
        for (const double x : v)
            sum += x;
        return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    RepResult &r = rep.result();
    r.fingerprint = fnv.h;
    r.outcome.add("sim_p50_ms", mean(p50), "ms");
    r.outcome.add("sim_p99_ms", mean(p99), "ms");
    r.outcome.add("sim_served_frac",
                  1.0 - ratio(static_cast<double>(shed),
                              static_cast<double>(sent)),
                  "frac");
    r.outcome.add("sim_p99_overhead_pct", mean(lat_over), "%");
    r.outcome.add("sim_cpu_overhead_pct", mean(cpu_over), "%");
    r.outcome.add("requests_sent", static_cast<double>(sent), "count");
    r.outcome.add("requests_failed", static_cast<double>(shed), "count");
    r.layer.set("core.p99_overhead_pct", mean(lat_over));
    r.layer.set("core.cpu_overhead_pct", mean(cpu_over));
    r.layer.set("core.rpcs_per_request",
                ratio(static_cast<double>(rpcs), static_cast<double>(sent)));
    r.layer.set("trace.rpc_records", static_cast<double>(rpc_records));
    return rep.finish();
}

// ---------------------------------------------------------------------------
// open_loop_hedged: Section VII-A Fig. 16, Poisson arrivals + capacity search
// ---------------------------------------------------------------------------

constexpr std::size_t kOpenLoopRequests = 20000;
constexpr std::size_t kProbeRequests = 2000;
constexpr double kOpenLoopRates[] = {1000.0, 1500.0, 1800.0};

RepResult
runOpenLoop(std::uint64_t seed, Mode mode)
{
    Rep rep(mode);
    const int sp = rep.spans().begin("bench.setup");
    const auto spec =
        rep.setup("model.make_spec", [] { return model::makeDrm2(); });
    const auto plan = rep.setup("core.make_plan", [&] {
        return core::makeCapacityBalanced(spec, 4);
    });
    const auto requests = rep.setup("workload.generate", [&] {
        workload::GeneratorConfig gc;
        gc.seed = deriveSeed(seed, kRequestSeed);
        return workload::RequestGenerator(spec, gc).generate(
            kOpenLoopRequests);
    });
    const auto probe_requests = rep.setup("workload.generate", [&] {
        workload::GeneratorConfig gc;
        gc.seed = deriveSeed(seed, kProbeRequestSeed);
        return workload::RequestGenerator(spec, gc).generate(kProbeRequests);
    });
    rep.spans().end(sp);

    auto cfg = sched::hedgeStudyConfig(rpc::LoadBalancePolicy::LeastOutstanding,
                                       3, /*hedged=*/true,
                                       deriveSeed(seed, kServingSeed));
    cfg.result_cache.enabled = true;
    cfg.result_cache.ttl_ns = 50 * sim::kMillisecond;
    cfg.admission.deadline_ns = 150 * sim::kMillisecond;
    cfg.admission.cancel_in_flight = true;

    sched::CapacitySearchConfig search;
    search.slo.p99_ms = 50.0;
    search.slo.max_shed_rate = 0.01;
    search.arrival_seed = deriveSeed(seed, kArrivalSeed);

    std::vector<std::vector<core::RequestStats>> stats;
    rpc::HedgeStats hedge;
    rpc::ResultCacheStats cache;
    std::uint64_t rpc_records = 0;
    const int tp = rep.spans().begin("bench.timed");
    for (const double qps : kOpenLoopRates) {
        cfg.tracer = rep.attachTracer();
        auto sim = rep.timed("core.construct", [&] {
            return std::make_unique<core::ServingSimulation>(spec, plan, cfg);
        });
        stats.push_back(rep.replay(*sim, requests, [&] {
            return sim->replayOpenLoop(requests, qps);
        }));
        const rpc::HedgeStats h = sim->hedgeStats();
        hedge.primary_rpcs += h.primary_rpcs;
        hedge.hedges += h.hedges;
        hedge.wins += h.wins;
        hedge.wasted_busy_ns += h.wasted_busy_ns;
        hedge.total_busy_ns += h.total_busy_ns;
        cache.lookups += sim->resultCacheStats().lookups;
        cache.hits += sim->resultCacheStats().hits;
        rpc_records += sim->collector().rpcs().size();
    }
    cfg.tracer = nullptr;
    const auto capacity = rep.timed("sched.capacity_search", [&] {
        return sched::CapacitySearch(spec, plan, cfg, search)
            .run(probe_requests);
    });
    rep.spans().end(tp);

    RepResult &r = rep.result();
    r.requests += capacity.probes.size() * kProbeRequests;
    Fnv fnv;
    std::uint64_t sent = 0, shed = 0, rpcs = 0;
    for (const auto &s : stats) {
        foldStats(fnv, s);
        sent += s.size();
        for (const auto &x : s) {
            shed += x.shed() ? 1 : 0;
            rpcs += static_cast<std::uint64_t>(x.rpc_count);
        }
    }
    for (const auto &p : capacity.probes) {
        fnv.add(p.qps);
        fnv.add(p.p99_ms);
        fnv.add(p.shed_rate);
    }
    fnv.add(capacity.max_qps);
    r.fingerprint = fnv.h;

    const auto light = core::latencyQuantiles(stats[0]);
    const auto knee = core::latencyQuantiles(stats[1]);
    std::size_t knee_served = 0;
    for (const auto &x : stats[1])
        knee_served += x.shed() ? 0 : 1;
    r.outcome.add("sim_p50_ms", knee.p50_ms, "ms");
    r.outcome.add("sim_p99_ms", knee.p99_ms, "ms");
    r.outcome.add("sim_p99_samples", static_cast<double>(knee_served),
                  "count");
    r.outcome.add("sim_p99_ms_light", light.p99_ms, "ms");
    r.outcome.add("sim_served_frac",
                  1.0 - ratio(static_cast<double>(shed),
                              static_cast<double>(sent)),
                  "frac");
    r.outcome.add("sim_max_qps", capacity.max_qps, "req/s");
    r.outcome.add("requests_sent", static_cast<double>(sent), "count");
    r.outcome.add("requests_failed", static_cast<double>(shed), "count");

    r.layer.set("core.rpcs_per_request",
                ratio(static_cast<double>(rpcs), static_cast<double>(sent)));
    r.layer.set("rpc.hedge_rate", hedge.hedgeRate());
    r.layer.set("rpc.hedge_win_frac",
                ratio(static_cast<double>(hedge.wins),
                      static_cast<double>(hedge.hedges)));
    r.layer.set("rpc.hedge_wasted_cpu_frac", hedge.wastedFraction());
    r.layer.set("rpc.result_cache_hit_frac",
                ratio(static_cast<double>(cache.hits),
                      static_cast<double>(cache.lookups)));
    r.layer.set("sched.probes", static_cast<double>(capacity.probes.size()));
    r.layer.set("sched.max_qps", capacity.max_qps);
    r.layer.set("trace.rpc_records", static_cast<double>(rpc_records));
    return rep.finish();
}

// ---------------------------------------------------------------------------
// fleet_day: one diurnal day of the canonical fleet study
// ---------------------------------------------------------------------------

/**
 * fleet::makeFleetStudy(false) without its row-cache models: the
 * profiled rep builds those itself so each step can be timed. The
 * self-check that profiled and untraced fingerprints agree is what keeps
 * this copy equal to makeFleetStudy.
 */
fleet::FleetStudy
fleetStudyWithoutCacheModels(model::ModelSpec spec, core::ShardingPlan plan)
{
    fleet::FleetStudy study;
    study.spec = std::move(spec);
    study.plan = std::move(plan);
    study.serving = sched::sparseBoundStudyConfig(
        rpc::LoadBalancePolicy::LeastOutstanding, 2);
    study.serving.result_cache.enabled = true;
    study.serving.sparse_platform.idle_watts = 200.0;
    study.serving.main_platform.idle_watts = 200.0;
    study.load.base_qps = 450.0;
    study.load.amplitude = 0.7;
    study.load.epochs_per_day = 12;
    study.load.bursts_per_epoch = 0.25;
    study.load.burst_multiplier = 1.6;
    study.load.burst_fraction = 0.25;
    study.load.context_pool = 768;
    study.fleet.slo.p99_ms = 60.0;
    study.fleet.slo.max_shed_rate = 0.01;
    study.fleet.epochs = 24;
    study.fleet.requests_per_epoch = 280;
    study.planner.slo = study.fleet.slo;
    study.planner.headroom = 1.15;
    study.planner.target_utilization = 0.68;
    study.planner.planning_requests = 256;
    study.planner.min_replicas = 2;
    study.reactive.slo = study.fleet.slo;
    study.reactive.cooldown_epochs = 3;
    study.reactive.min_replicas = 2;
    return study;
}

/** The benchmark's traffic seeds, hedging, faults and sampling. */
void
configureFleet(fleet::FleetStudy &study, std::uint64_t seed, bool sampling)
{
    study.serving.seed = deriveSeed(seed, kServingSeed);
    study.serving.hedge.enabled = true; // as bench_chaos_suite
    study.serving.hedge.quantile = 0.95;
    study.serving.hedge.min_samples = 64;
    study.serving.hedge.max_hedge_fraction = 0.10;
    study.load.seed = deriveSeed(seed, kLoadSeed);
    study.fleet.seed = deriveSeed(seed, kFleetSeed);
    study.fleet.faults.partition(0, 6, 7).crashReplica(1, 1, 14, 15);
    study.fleet.trace_sampling.enabled = sampling;
}

/**
 * Pass-through Autoscaler that times each decide() as a `fleet.decide`
 * span and keeps the observations it is shown. Its purity is checked by
 * the fingerprint of a run without it (the Bare rep) being the same.
 */
class TimedAutoscaler : public fleet::Autoscaler
{
  public:
    TimedAutoscaler(fleet::Autoscaler &inner, HostSpans &spans)
        : inner_(inner), spans_(spans)
    {
    }

    std::string name() const override { return inner_.name(); }

    std::vector<int>
    decide(int epoch, const workload::DiurnalLoadModel &load,
           const fleet::EpochObservation *last) override
    {
        if (last)
            observed_requests.push_back(last->requests);
        const int id = spans_.begin("fleet.decide");
        decide_begin_ns.push_back(
            spans_.spans()[static_cast<std::size_t>(id)].begin_ns);
        auto v = inner_.decide(epoch, load, last);
        spans_.end(id);
        return v;
    }

    /** EpochObservation::requests of every epoch shown to decide(). */
    std::vector<std::int64_t> observed_requests;
    /** Host time each decide() began: the run's epoch boundaries. */
    std::vector<std::int64_t> decide_begin_ns;

  private:
    fleet::Autoscaler &inner_;
    HostSpans &spans_;
};

constexpr int kFleetDays = 3;

RepResult
runFleetDay(std::uint64_t seed, Mode mode)
{
    Rep rep(mode);
    RepResult &r = rep.result();
    const int sp = rep.spans().begin("bench.setup");
    fleet::FleetStudy study;
    if (mode == Mode::Profiled) {
        auto spec =
            rep.setup("model.make_spec", [] { return model::makeDrm2(); });
        auto plan = rep.setup("core.make_plan", [&] {
            return core::makeCapacityBalanced(spec, 4);
        });
        study = fleetStudyWithoutCacheModels(std::move(spec), std::move(plan));
        // makeFleetStudy's row-cache models, one timed step at a time.
        const auto trace_requests = rep.setup("workload.generate", [&] {
            return workload::RequestGenerator(study.spec,
                                              workload::GeneratorConfig{0x7ace})
                .generate(400);
        });
        auto trace = rep.setup("workload.record_trace", [&] {
            return workload::recordTrace(study.spec, trace_requests, 0.8,
                                         0x7ace);
        });
        core::ShardCacheOptions sco;
        sco.capacity_fraction = 0.4;
        sco.costs.miss_ns = 300.0;
        study.serving.shard_cache_models =
            rep.setup("cache.build_models", [&] {
                return core::buildShardCacheModels(study.spec, study.plan,
                                                   trace, sco)
                    .models;
            });
        const double accesses = static_cast<double>(trace.size());
        r.layer.set("workload.trace_accesses", accesses);
        r.layer.set("cache.accesses_per_s",
                    ratio(accesses, seconds(r.setup_calls.back())));
        trace = workload::AccessTrace();
    } else {
        study = rep.setup("fleet.make_study",
                          [] { return fleet::makeFleetStudy(false); });
    }
    configureFleet(study, seed, mode != Mode::Bare);
    const auto load = rep.setup("workload.diurnal_model", [&] {
        return std::make_unique<workload::DiurnalLoadModel>(study.spec,
                                                            study.load);
    });
    // The day is replayed kFleetDays times per setup, each with a planner
    // and policy of its own so that every replay does the same work: one
    // 0.6 s day is too little timed work to measure steadily.
    std::vector<std::unique_ptr<fleet::Autoscaler>> policies;
    for (int d = 0; d < kFleetDays; ++d) {
        const auto inputs = rep.setup("fleet.plan_peak", [&] {
            return fleet::studyAutoscalerInputs(study, *load);
        });
        policies.push_back(rep.setup("fleet.make_autoscaler", [&] {
            return fleet::makeAutoscaler("predictive", inputs);
        }));
    }
    rep.spans().end(sp);

    const std::uint64_t per_epoch = study.fleet.requests_per_epoch;
    std::vector<fleet::FleetStats> days;
    const int tp = rep.spans().begin("bench.timed");
    for (const auto &policy : policies) {
        // Every rep but Bare decorates the policy; its decide() times
        // split the run into per-epoch timing samples.
        TimedAutoscaler timed(*policy, rep.spans());
        const bool decorated = mode != Mode::Bare;
        const int run = rep.spans().begin("fleet.run");
        days.push_back(fleet::FleetSim(study.spec, study.plan, study.serving,
                                       *load, study.fleet)
                           .run(decorated ? static_cast<fleet::Autoscaler &>(
                                                timed)
                                          : *policy));
        rep.endTimed(run, timed.decide_begin_ns);

        const fleet::FleetStats &day = days.back();
        r.requests += day.epochs.size() * per_epoch;
        if (day.epochs.size() != static_cast<std::size_t>(study.fleet.epochs))
            r.lost += per_epoch; // a missing epoch is a lost request stream
        if (decorated) {
            // Every epoch but the last is observed by the next decide().
            const std::uint64_t checked = (day.epochs.size() - 1) * per_epoch;
            std::uint64_t matched = 0;
            for (const std::int64_t n : timed.observed_requests)
                matched += static_cast<std::uint64_t>(n) == per_epoch
                               ? per_epoch
                               : 0;
            r.checked += checked;
            r.lost += checked - std::min(checked, matched);
        }
        r.deterministic &=
            day.fingerprint() == days.front().fingerprint() &&
            day.telemetryFingerprint() == days.front().telemetryFingerprint();
    }
    rep.spans().end(tp);

    const fleet::FleetStats &stats = days.front();
    const std::uint64_t sent = stats.epochs.size() * per_epoch;
    Fnv fnv;
    fnv.add(stats.fingerprint());
    fnv.add(stats.telemetryFingerprint());
    r.fingerprint = fnv.h;

    double p99_sum = 0.0, hedge_sum = 0.0, hit_sum = 0.0;
    for (const auto &e : stats.epochs) {
        p99_sum += e.p99_ms;
        hedge_sum += e.hedge_rate;
        hit_sum += e.result_cache_hit_rate;
    }
    const double epochs = static_cast<double>(stats.epochs.size());
    const auto shed = static_cast<double>(stats.totalShedRequests());
    r.outcome.add("sim_p99_ms", ratio(p99_sum, epochs), "ms");
    r.outcome.add("sim_served_frac",
                  1.0 - ratio(shed, static_cast<double>(sent)), "frac");
    r.outcome.add("machine_hours", stats.totalMachineHours(), "machine-h");
    r.outcome.add("slo_violation_epochs", stats.sloViolationEpochs(),
                  "count");
    r.outcome.add("requests_sent", static_cast<double>(sent), "count");
    r.outcome.add("requests_failed", shed, "count");

    r.layer.set("rpc.hedge_rate", ratio(hedge_sum, epochs));
    r.layer.set("rpc.result_cache_hit_frac", ratio(hit_sum, epochs));
    r.layer.set("fleet.reconfigurations", stats.reconfigurations());
    r.layer.set("fleet.machine_hours", stats.totalMachineHours());
    r.layer.set("fleet.slo_violation_epochs", stats.sloViolationEpochs());
    return rep.finish();
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Workload
{
    const char *name;
    RepResult (*run)(std::uint64_t seed, Mode mode);
};

const Workload kWorkloads[] = {
    {"serial_sweep", runSerialSweep},
    {"open_loop_hedged", runOpenLoop},
    {"fleet_day", runFleetDay},
};

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    std::size_t reps = 3;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "bench_e2e: " << error << "\n"
              << "usage: bench_e2e --workload "
                 "<serial_sweep|open_loop_hedged|fleet_day> --seed <u64>\n"
                 "                 [--reps N] [--seconds S] [--trace 0|1] "
                 "[--trace-out file.json]\n";
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage("bad value for " + flag + ": " + text);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--workload") {
            for (const Workload &w : kWorkloads)
                if (std::strcmp(w.name, value) == 0)
                    opt.workload = &w;
            if (!opt.workload)
                usage(std::string("unknown workload ") + value);
        } else if (flag == "--seed") {
            opt.seed = parseU64(flag, value);
        } else if (flag == "--reps") {
            opt.reps = parseU64(flag, value);
            if (opt.reps == 0 || opt.reps > 1000)
                usage("--reps must be 1..1000");
        } else if (flag == "--seconds") {
            opt.seconds = static_cast<double>(parseU64(flag, value));
        } else if (flag == "--trace") {
            opt.trace = parseU64(flag, value) != 0;
        } else if (flag == "--trace-out") {
            opt.trace_out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!opt.workload)
        usage("--workload is required");
    return opt;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Self-check verdicts, printed as they fail. */
struct Checks
{
    bool ok = true;

    void
    expect(bool cond, const std::string &what)
    {
        if (!cond) {
            std::cout << "SELF-CHECK FAIL: " << what << "\n";
            ok = false;
        }
    }
};

/**
 * Host seconds of one phase over the reps: each call's median across
 * reps, summed. A host hiccup lands in one call of one rep and drops out
 * of that call's median, where a median of rep totals keeps every rep
 * that caught one anywhere. With `speed`, each call is first scaled by
 * the host speed measured around it.
 */
double
phaseSeconds(const std::vector<RepResult> &reps,
             std::vector<std::int64_t> RepResult::*calls,
             std::vector<double> RepResult::*speed = nullptr)
{
    const std::size_t n = (reps.front().*calls).size();
    for (const RepResult &r : reps)
        if ((r.*calls).size() != n)
            return 0.0; // reported by the "different calls" self-check
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> v;
        for (const RepResult &r : reps)
            v.push_back(seconds((r.*calls)[i]) *
                        (speed ? (r.*speed)[i] : 1.0));
        total += median(v);
    }
    return total;
}

/** One rep's timed phase, each call scaled by the host speed around it. */
double
scaledTimedSeconds(const RepResult &r)
{
    double total = 0.0;
    for (std::size_t i = 0; i < r.timed_calls.size(); ++i)
        total += seconds(r.timed_calls[i]) * r.timed_speed[i];
    return total;
}

/** Span time `m[key]` over `wall_ns` (0 when the key is absent). */
double
shareOf(const std::map<std::string, std::int64_t> &m, const std::string &key,
        std::int64_t wall_ns)
{
    const auto it = m.find(key);
    return it == m.end() ? 0.0
                         : ratio(static_cast<double>(it->second),
                                 static_cast<double>(wall_ns));
}

/** Per-layer shares of the profiled rep's wall time. */
void
setProfiledShares(MetricSet &layer, const RepResult &p)
{
    const auto self = p.spans.selfByLayer();
    const auto total = p.spans.totalByName();
    const auto share = [&](const std::map<std::string, std::int64_t> &m,
                           const std::string &key) {
        return shareOf(m, key, p.wall_ns);
    };
    layer.set("host.profiled_wall_s", seconds(p.wall_ns));
    layer.set("unattributed_frac", share(self, "bench"));
    for (const char *l : {"model", "workload", "cache", "core", "sim",
                          "netsim", "rpc", "sched", "fleet"})
        layer.set(std::string(l) + ".self_frac", share(self, l));
    layer.set("workload.generate_frac", share(total, "workload.generate"));
    layer.set("workload.record_trace_frac",
              share(total, "workload.record_trace"));
    layer.set("cache.build_models_frac", share(total, "cache.build_models"));
    layer.set("core.construct_frac", share(total, "core.construct"));
    layer.set("core.replay_frac", share(total, "core.replay"));
    layer.set("sched.capacity_search_frac",
              share(total, "sched.capacity_search"));
    layer.set("fleet.plan_peak_frac", share(total, "fleet.plan_peak"));
    layer.set("fleet.decide_frac", share(total, "fleet.decide"));
    layer.set("fleet.simulate_frac",
              share(total, "fleet.run") - share(total, "fleet.decide"));
    layer.set("sim.queue_frac", share(total, "sim.queue"));
    for (std::size_t t = 1; t < sim::kEvTagCount; ++t) {
        const auto tag = static_cast<sim::EventTag>(t);
        layer.set(std::string("sim.callback_frac.") + sim::eventTagName(tag),
                  share(total, Rep::tagSpanName(tag)));
    }
}

void
writeChromeTrace(const std::string &path, const RepResult &profiled,
                 const std::vector<obs::SpanRecord> &sim_spans)
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    profiled.spans.writeChromeEvents(out, 0, "host (bench_e2e, host us)");
    std::string sim = obs::chromeTraceJson(sim_spans);
    // Splice the simulated-time events (an array) after the host ones.
    const auto open = sim.find('[');
    const auto close = sim.rfind(']');
    if (open != std::string::npos && close != std::string::npos &&
        close > open + 1)
        out << ",\n" << sim.substr(open + 1, close - open - 1);
    out << "\n]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Workload &w = *opt.workload;
    Checks checks;

    // Untraced reps: the end-to-end numbers. Stop once --reps are done
    // and another would overrun --seconds.
    std::vector<RepResult> reps;
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    double last_rep_s = 0.0;
    while (reps.size() < opt.reps ||
           elapsed() + last_rep_s <= opt.seconds) {
        const double rep_start = elapsed();
        reps.push_back(w.run(opt.seed, Mode::Untraced));
        last_rep_s = elapsed() - rep_start;
    }
    const double rss_mb = peakRssMb();

    const RepResult &first = reps.front();
    std::uint64_t attempted = 0, failed = 0;
    for (const RepResult &r : reps) {
        attempted += r.checked;
        failed += r.lost;
        checks.expect(r.fingerprint == first.fingerprint && r.deterministic,
                      "untraced reps disagree on the fingerprint");
        checks.expect(r.setup_calls.size() == first.setup_calls.size() &&
                          r.timed_calls.size() == first.timed_calls.size(),
                      "untraced reps made different calls");
        checks.expect(r.coverage() >= 0.9,
                      "host spans cover only " +
                          std::to_string(r.coverage()) + " of a rep");
        checks.expect(r.obs.allocations == 0,
                      "a disabled span tracer allocated");
    }
    checks.expect(first.requests > 0, "no simulated requests completed");
    const double requests = static_cast<double>(first.requests);
    // Host times scaled to the reference host; raw values are printed too.
    const double timed_s = phaseSeconds(reps, &RepResult::timed_calls,
                                        &RepResult::timed_speed);
    const double raw_timed_s = phaseSeconds(reps, &RepResult::timed_calls);
    std::vector<double> speeds;
    for (const RepResult &r : reps)
        speeds.insert(speeds.end(), r.speed_samples.begin(),
                      r.speed_samples.end());

    MetricSet out;
    out.add("setup_s",
            phaseSeconds(reps, &RepResult::setup_calls,
                         &RepResult::setup_speed),
            "s");
    out.add("sim_requests_per_s", ratio(requests, timed_s), "1/s");
    out.add("peak_rss_mb", rss_mb, "MiB");
    for (const Metric &m : first.outcome.all())
        out.add(m.name, m.value, m.unit);
    out.add("raw_setup_s", phaseSeconds(reps, &RepResult::setup_calls), "s");
    out.add("raw_sim_requests_per_s", ratio(requests, raw_timed_s), "1/s");
    out.add("raw_timed_s", raw_timed_s, "s");
    out.add("host_speed", median(speeds), "ref");
    out.add("reps", static_cast<double>(reps.size()), "count");

    if (opt.trace) {
        RepResult prof = w.run(opt.seed, Mode::Profiled);
        checks.expect(prof.fingerprint == first.fingerprint,
                      "the profiled rep changed the fingerprint");
        checks.expect(prof.coverage() >= 0.9,
                      "host spans cover only " +
                          std::to_string(prof.coverage()) +
                          " of the profiled rep");
        attempted += prof.checked;
        failed += prof.lost;
        MetricSet layer = prof.layer;
        setProfiledShares(layer, prof);

        const sim::EngineProfile &p = first.profile;
        const double sent = static_cast<double>(first.requests);
        layer.set("sim.events_executed", static_cast<double>(p.executed));
        layer.set("sim.events_per_request",
                  ratio(static_cast<double>(p.executed), sent));
        layer.set("sim.events_per_s",
                  ratio(static_cast<double>(p.executed), timed_s));
        layer.set("sim.peak_pending", static_cast<double>(p.peak_pending));
        layer.set("sim.heap_callbacks", static_cast<double>(p.heap_callbacks));
        layer.set("sim.arena_blocks", static_cast<double>(p.arena_blocks));
        std::uint64_t tagged = 0;
        for (std::size_t t = 1; t < sim::kEvTagCount; ++t) {
            const auto tag = static_cast<sim::EventTag>(t);
            layer.set(std::string("sim.events.") + sim::eventTagName(tag),
                      static_cast<double>(p.tag_events[t]));
            tagged += p.tag_events[t];
        }
        checks.expect(tagged == p.executed,
                      "event tags do not partition executed events");

        std::vector<obs::SpanRecord> chrome_spans;
        if (std::strcmp(w.name, "fleet_day") == 0) {
            // Production fleet_day samples traces; the obs cost is the
            // untraced timed phase over one with sampling off. The Bare
            // rep also drops the autoscaler decorator, so one fingerprint
            // check covers the purity of both.
            RepResult bare = w.run(opt.seed, Mode::Bare);
            checks.expect(bare.fingerprint == first.fingerprint,
                          "trace sampling or the autoscaler decorator "
                          "changed the fleet fingerprint");
            const double overhead =
                ratio(timed_s, scaledTimedSeconds(bare)) - 1.0;
            layer.set("obs.tracer_overhead_frac", overhead);
            layer.set("obs.sampler_overhead_frac", overhead);
        } else {
            RepResult traced = w.run(opt.seed, Mode::Traced);
            RepResult sampled = w.run(opt.seed, Mode::Sampled);
            checks.expect(traced.fingerprint == first.fingerprint,
                          "span tracing changed the fingerprint");
            checks.expect(sampled.fingerprint == first.fingerprint,
                          "trace sampling changed the fingerprint");
            checks.expect(traced.obs.conserved,
                          "traced spans violate conservation");
            checks.expect(traced.obs.spans > 0, "the tracer recorded nothing");
            attempted += traced.checked + sampled.checked;
            failed += traced.lost + sampled.lost;
            layer.set("obs.tracer_overhead_frac",
                      ratio(scaledTimedSeconds(traced), timed_s) - 1.0);
            layer.set("obs.sampler_overhead_frac",
                      ratio(scaledTimedSeconds(sampled), timed_s) - 1.0);
            layer.set("obs.spans", static_cast<double>(traced.obs.spans));
            layer.set("obs.tracer_allocations",
                      static_cast<double>(traced.obs.allocations));
            layer.set("obs.sampler_retained_bytes",
                      static_cast<double>(sampled.obs.retained_bytes));
            layer.set("obs.critical_paths_frac",
                      shareOf(traced.spans.totalByName(),
                              "obs.critical_paths", traced.wall_ns));
            const obs::PathProfile &pp = traced.obs.paths;
            for (std::size_t b = 0; b < obs::kPathBucketCount; ++b) {
                const auto bucket = static_cast<obs::PathBucket>(b);
                const std::string name =
                    std::string("path.") + obs::pathBucketName(bucket) +
                    "_share";
                if (bucket != obs::PathBucket::Other)
                    layer.set(name, pp.bucketShare(bucket));
            }
            chrome_spans = std::move(sampled.obs.chrome_spans);
        }
        layer.addLayerMetrics();
        for (const Metric &m : layer.all())
            out.add(m.name, m.value, m.unit);
        if (!opt.trace_out.empty())
            writeChromeTrace(opt.trace_out, prof, chrome_spans);
    }

    for (const Metric &m : out.all())
        checks.expect(std::isfinite(m.value), m.name + " is not finite");

    std::cout << "bench_e2e " << w.name << " seed=" << opt.seed
              << " reps=" << reps.size() << "\n";
    char fp[24];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(first.fingerprint));
    std::cout << "  fingerprint = " << fp << "\n";
    for (const Metric &m : out.all())
        std::cout << "  " << m.name << " = " << jsonNumber(m.value) << " "
                  << m.unit << "\n";

    std::ostringstream json;
    json << "{\"workload\":\"" << w.name << "\",\"seed\":" << opt.seed
         << ",\"fingerprint\":\"" << fp << "\",\"correct\":"
         << (checks.ok && failed == 0 ? "true" : "false")
         << ",\"attempted\":" << attempted << ",\"failed\":" << failed
         << ",\"metrics\":{";
    bool first_metric = true;
    for (const Metric &m : out.all()) {
        json << (first_metric ? "" : ",") << "\"" << m.name
             << "\":{\"value\":" << jsonNumber(m.value) << ",\"unit\":\""
             << m.unit << "\"}";
        first_metric = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return checks.ok && failed == 0 ? 0 : 1;
}
