/**
 * @file
 * Tests for the discrete-event engine and resource pools: time ordering,
 * tie-breaking, bounded runs, FIFO admission, utilization accounting.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/engine.h"
#include "sim/resource.h"

namespace {

using namespace dri::sim;

TEST(Engine, StartsAtZero)
{
    Engine e;
    EXPECT_EQ(e.now(), 0);
    EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, ExecutesInTimeOrder)
{
    Engine e;
    std::vector<int> order;
    e.schedule(30, [&] { order.push_back(3); });
    e.schedule(10, [&] { order.push_back(1); });
    e.schedule(20, [&] { order.push_back(2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TieBrokenByInsertionOrder)
{
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        e.schedule(5, [&order, i] { order.push_back(i); });
    e.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

/** One schedule-time record for the dispatch-order oracle. */
struct SchedRecord
{
    SimTime when;
    int id; //!< insertion number (monotone with the engine's seq)
};

/**
 * A randomly self-multiplying event for the order property: each firing
 * records (now, id) and schedules up to two more events at small random
 * delays — including zero, so timestamp ties between already-queued
 * events and events scheduled mid-dispatch are common.
 */
struct RandomEvent
{
    Engine *e;
    std::vector<SchedRecord> *records;
    std::vector<SchedRecord> *dispatched;
    int id;
    int *budget;
    std::uint64_t *rng;

    void
    operator()() const
    {
        dispatched->push_back({e->now(), id});
        for (int k = 0; k < 2 && *budget > 0; ++k) {
            --*budget;
            *rng = *rng * 6364136223846793005ULL + 1442695040888963407ULL;
            const Duration delay = static_cast<Duration>((*rng >> 33) % 4);
            const int nid = static_cast<int>(records->size());
            records->push_back({e->now() + delay, nid});
            e->schedule(delay, RandomEvent{e, records, dispatched, nid,
                                           budget, rng});
        }
    }
};

/**
 * Property: the dispatch sequence is EXACTLY the schedule records
 * sorted by (when, insertion order) — the strict total order that makes
 * the queue's internal layout (arity, bucketing, arena) unobservable.
 * This is the oracle that licensed swapping the std::function-based
 * priority_queue for the indexed pooled-arena heap.
 */
TEST(Engine, DispatchOrderIsTimeThenInsertionUnderRandomSelfScheduling)
{
    Engine e;
    std::vector<SchedRecord> records;
    std::vector<SchedRecord> dispatched;
    int budget = 5000;
    std::uint64_t rng = 0x5eedu;

    for (int i = 0; i < 64; ++i) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const Duration delay = static_cast<Duration>((rng >> 33) % 4);
        const int id = static_cast<int>(records.size());
        records.push_back({delay, id});
        e.schedule(delay, RandomEvent{&e, &records, &dispatched, id,
                                      &budget, &rng});
    }
    e.run();

    ASSERT_EQ(dispatched.size(), records.size());
    std::vector<SchedRecord> expected = records;
    std::sort(expected.begin(), expected.end(),
              [](const SchedRecord &a, const SchedRecord &b) {
                  return a.when != b.when ? a.when < b.when : a.id < b.id;
              });
    for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(dispatched[i].when, expected[i].when) << i;
        ASSERT_EQ(dispatched[i].id, expected[i].id) << i;
    }
}

/**
 * A random schedule over the whole key range, for the order oracle:
 * delays are log-uniform over [0, 2^40) ns, so keys cross power-of-two
 * boundaries at every bit the queue's radix buckets split on, and some
 * events go under reserved numbers taken ahead of time and used out of
 * order — including at when == now(), where a reserved number runs
 * ahead of the later-numbered events already queued at that instant. A
 * number used at now() is above the running event's, as in the open-loop
 * replays: the engine cannot run an event before one that already ran.
 */
struct WideSchedule
{
    struct Record
    {
        SimTime when;
        std::uint64_t seq; //!< the engine's tie-break number
    };

    Engine e;
    std::vector<Record> records;
    std::vector<std::size_t> dispatched; //!< record ids in dispatch order
    std::vector<std::uint64_t> reserved; //!< numbers taken, not yet used
    std::uint64_t next_seq = 0;          //!< mirrors the engine's counter
    Record running{-1, 0};               //!< the last dispatched record
    std::uint64_t rng = 0x0ddba11u;
    int budget = 20000;

    std::uint64_t
    draw()
    {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        return rng >> 24;
    }

    Duration
    delay()
    {
        const std::uint64_t bits = draw() % 41;
        return bits == 0 ? 0
                         : static_cast<Duration>(draw() &
                                                 ((1ULL << bits) - 1));
    }

    void
    fresh(SimTime when)
    {
        const std::size_t id = records.size();
        records.push_back({when, next_seq++});
        e.scheduleAt(when, [this, id] { fire(id); });
    }

    void
    reserve(std::uint64_t n)
    {
        ASSERT_EQ(e.reserveSeq(n), next_seq);
        for (std::uint64_t k = 0; k < n; ++k)
            reserved.push_back(next_seq++);
    }

    /** Schedule under a random one of the reserved numbers that can
     *  still run at `when`. */
    void
    underReserved(SimTime when)
    {
        std::vector<std::size_t> usable;
        for (;;) {
            for (std::size_t i = 0; i < reserved.size(); ++i)
                if (when > running.when || reserved[i] > running.seq)
                    usable.push_back(i);
            if (!usable.empty())
                break;
            reserve(1 + draw() % 8);
        }
        const std::size_t pick = usable[draw() % usable.size()];
        const std::uint64_t seq = reserved[pick];
        reserved[pick] = reserved.back();
        reserved.pop_back();
        const std::size_t id = records.size();
        records.push_back({when, seq});
        e.scheduleAt(when, kEvDriver, seq, [this, id] { fire(id); });
    }

    void
    fire(std::size_t id)
    {
        ASSERT_EQ(e.now(), records[id].when);
        running = records[id];
        dispatched.push_back(id);
        for (int k = 0; k < 2 && budget > 0; ++k, --budget) {
            switch (draw() % 6) {
            case 0: underReserved(e.now()); break;
            case 1: underReserved(e.now() + delay()); break;
            case 2: reserve(1 + draw() % 4); break;
            default: fresh(e.now() + delay()); break;
            }
        }
    }
};

/**
 * Property: over the whole key range, with reserved numbers used out of
 * order and runUntil() horizons in between, the dispatch sequence is
 * exactly the records sorted by (when, seq). After each bounded run the
 * clock sits at the horizon, past the last dispatched event; events then
 * scheduled at now() and just past it must still run first, before the
 * events that were queued beyond the horizon.
 */
TEST(Engine, DispatchOrderIsTimeThenSeqAcrossRadixLevels)
{
    WideSchedule w;
    for (int i = 0; i < 48; ++i) {
        // Start on both sides of power-of-two boundaries up to 2^40.
        const SimTime edge = SimTime{1} << (i % 41);
        w.fresh(edge - 1 + static_cast<SimTime>(i % 3));
    }
    w.reserve(16);
    for (int i = 0; i < 16; ++i)
        w.underReserved(w.delay());

    for (int round = 0; round < 200 && w.e.pending() > 0; ++round) {
        const SimTime horizon = w.e.now() + w.delay();
        w.e.runUntil(horizon);
        ASSERT_EQ(w.e.now(), horizon);
        w.fresh(w.e.now());
        w.underReserved(w.e.now());
        w.fresh(w.e.now() + 1);
        w.underReserved(w.e.now() + 1);
    }
    w.e.run();

    ASSERT_EQ(w.dispatched.size(), w.records.size());
    std::vector<std::size_t> expected(w.records.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        expected[i] = i;
    std::sort(expected.begin(), expected.end(),
              [&w](std::size_t a, std::size_t b) {
                  const auto &ra = w.records[a];
                  const auto &rb = w.records[b];
                  return ra.when != rb.when ? ra.when < rb.when
                                            : ra.seq < rb.seq;
              });
    ASSERT_EQ(w.dispatched, expected);
    // The schedule reached the top radix levels.
    SimTime latest = 0;
    for (const auto &r : w.records)
        latest = std::max(latest, r.when);
    EXPECT_GT(latest, SimTime{1} << 40);
}

// Scheduling before now() is a caller bug that would silently misorder
// the queue, so it throws in every build and queues nothing.
TEST(Engine, SchedulingInThePastThrows)
{
    Engine e;
    e.schedule(10, [] {});
    EXPECT_THROW(e.schedule(-1, [] {}), std::logic_error);
    e.runUntil(20);
    EXPECT_THROW(e.scheduleAt(19, [] {}), std::logic_error);
    EXPECT_THROW(e.scheduleAt(19, kEvTimer, EventFn([] {})),
                 std::logic_error);
    const std::uint64_t seq = e.reserveSeq(1);
    EXPECT_THROW(e.scheduleAt(5, kEvDriver, seq, [] {}), std::logic_error);
    EXPECT_EQ(e.pending(), 0u);
    int fired = 0;
    e.scheduleAt(20, kEvDriver, seq, [&] { ++fired; });
    e.schedule(0, [&] { ++fired; });
    EXPECT_EQ(e.run(), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(e.now(), 20);
}

TEST(Engine, CallbackMaySchedule)
{
    Engine e;
    int fired = 0;
    e.schedule(1, [&] {
        ++fired;
        e.schedule(1, [&] { ++fired; });
    });
    EXPECT_EQ(e.run(), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(e.now(), 2);
}

TEST(Engine, ZeroDelayRunsAtSameTime)
{
    Engine e;
    SimTime seen = -1;
    e.schedule(7, [&] { e.schedule(0, [&] { seen = e.now(); }); });
    e.run();
    EXPECT_EQ(seen, 7);
}

TEST(Engine, RunUntilLeavesLaterEventsQueued)
{
    Engine e;
    int fired = 0;
    e.schedule(10, [&] { ++fired; });
    e.schedule(100, [&] { ++fired; });
    e.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.pending(), 1u);
    EXPECT_EQ(e.now(), 50);
    e.run();
    EXPECT_EQ(fired, 2);
}

TEST(Engine, ExecutedCounter)
{
    Engine e;
    for (int i = 0; i < 5; ++i)
        e.schedule(i, [] {});
    e.run();
    EXPECT_EQ(e.executed(), 5u);
}

// A reserved number orders its event as of reservation time: at a tied
// timestamp it runs after earlier-scheduled events and before every event
// scheduled after the reservation, even one scheduled before it.
TEST(Engine, ReservedSeqOrdersAsOfReservation)
{
    Engine e;
    std::vector<int> order;
    e.scheduleAt(5, kEvUntagged, [&] { order.push_back(0); });
    const std::uint64_t first = e.reserveSeq(2);
    e.scheduleAt(5, kEvUntagged, [&] { order.push_back(3); });
    e.scheduleAt(5, kEvDriver, first + 1, [&] { order.push_back(2); });
    e.scheduleAt(1, kEvDriver, first, [&] {
        order.push_back(-1);
        // Scheduled mid-run, still ahead of the tied event at 5 that
        // was scheduled after the reservation.
        e.scheduleAt(5, kEvUntagged, [&] { order.push_back(4); });
    });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 2, 3, 4}));
}

TEST(Engine, UnreservedSeqThrows)
{
    Engine e;
    e.schedule(1, [] {});
    const std::uint64_t first = e.reserveSeq(3);
    EXPECT_EQ(first, 1u);
    EXPECT_THROW(e.scheduleAt(2, kEvDriver, first + 3, [] {}),
                 std::logic_error);
    e.schedule(1, [] {}); // takes first + 3
    EXPECT_THROW(e.scheduleAt(2, kEvDriver, first + 4, [] {}),
                 std::logic_error);
    EXPECT_EQ(e.pending(), 2u);
    EXPECT_NO_THROW(e.scheduleAt(2, kEvDriver, first + 2, [] {}));
    EXPECT_EQ(e.pending(), 3u);
}

// profile().scheduled counts reserved numbers at reservation, so a
// driver that chains its events reports the same count as one that
// schedules them all up front.
TEST(Engine, ReservedSeqKeepsScheduledCount)
{
    Engine upfront, chained;
    for (int i = 0; i < 4; ++i)
        upfront.schedule(i, kEvDriver, [] {});
    upfront.run();

    const std::uint64_t first = chained.reserveSeq(4);
    EXPECT_EQ(chained.profile().scheduled, 4u);
    struct Chain
    {
        Engine *e;
        std::uint64_t first;
        void
        next(std::uint64_t i)
        {
            if (i < 4)
                e->scheduleAt(static_cast<SimTime>(i), kEvDriver, first + i,
                              [this, i] { next(i + 1); });
        }
    } chain{&chained, first};
    chain.next(0);
    chained.run();

    EXPECT_EQ(chained.profile().scheduled, upfront.profile().scheduled);
    EXPECT_EQ(chained.profile().executed, upfront.profile().executed);
    EXPECT_EQ(chained.profile().tag_events, upfront.profile().tag_events);
    EXPECT_EQ(chained.profile().peak_pending, 1u);
    EXPECT_EQ(upfront.profile().peak_pending, 4u);
}

TEST(Resource, GrantsUpToCapacity)
{
    Engine e;
    Resource r(e, 2);
    int granted = 0;
    r.acquire([&] { ++granted; });
    r.acquire([&] { ++granted; });
    r.acquire([&] { ++granted; });
    EXPECT_EQ(granted, 2);
    EXPECT_EQ(r.inUse(), 2u);
    EXPECT_EQ(r.queued(), 1u);
}

TEST(Resource, ReleaseHandsToOldestWaiter)
{
    Engine e;
    Resource r(e, 1);
    std::vector<int> order;
    r.acquire([&] { order.push_back(0); });
    r.acquire([&] { order.push_back(1); });
    r.acquire([&] { order.push_back(2); });
    r.release();
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    r.release();
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(r.queued(), 0u);
}

TEST(Resource, InUseStableAcrossHandoff)
{
    Engine e;
    Resource r(e, 1);
    r.acquire([] {});
    r.acquire([] {});
    EXPECT_EQ(r.inUse(), 1u);
    r.release(); // hand-off, not free
    e.run();
    EXPECT_EQ(r.inUse(), 1u);
    r.release();
    EXPECT_EQ(r.inUse(), 0u);
}

TEST(Resource, BusyIntegralAccumulates)
{
    Engine e;
    Resource r(e, 4);
    r.acquire([] {});
    e.schedule(100, [&r] { r.release(); });
    e.run();
    // One unit busy for 100 ns.
    EXPECT_DOUBLE_EQ(r.busyIntegral(), 100.0);
}

// Misuse fails loudly in every build type: a zero-capacity pool would
// queue every acquirer forever, and an unmatched release would underflow
// the in-use count.
TEST(ResourceMisuse, ZeroCapacityThrows)
{
    Engine e;
    EXPECT_THROW(Resource(e, 0), std::invalid_argument);
}

TEST(ResourceMisuse, ReleaseWithNothingInUseThrows)
{
    Engine e;
    Resource r(e, 2);
    EXPECT_THROW(r.release(), std::logic_error);
    r.acquire([] {});
    r.release();
    EXPECT_THROW(r.release(), std::logic_error);
    EXPECT_EQ(r.inUse(), 0u);
}

/** Property: a pipeline of N tasks through capacity C finishes in
 *  ceil(N/C) waves of the task duration. */
class ResourceWaveTest
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(ResourceWaveTest, WaveLatency)
{
    const auto [tasks, capacity] = GetParam();
    Engine e;
    Resource r(e, static_cast<std::size_t>(capacity));
    const Duration task_ns = 1000;
    SimTime last_end = 0;
    for (int i = 0; i < tasks; ++i) {
        r.acquire([&] {
            e.schedule(task_ns, [&] {
                last_end = std::max(last_end, e.now());
                r.release();
            });
        });
    }
    e.run();
    const int waves = (tasks + capacity - 1) / capacity;
    EXPECT_EQ(last_end, static_cast<SimTime>(waves) * task_ns);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ResourceWaveTest,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(8, 4),
                      std::make_pair(9, 4), std::make_pair(40, 8),
                      std::make_pair(3, 10)));

} // namespace
