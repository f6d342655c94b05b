/**
 * @file
 * Unit tests for the discrete-event kernel and simulator.
 *
 * The queue under test is the calendar queue of POD events: checks
 * cover time ordering, equal-tick insertion-order stability (within a
 * day and across the calendar horizon), interleaved push/pop,
 * far-future scheduling past the ring horizon, reuse after
 * Simulator::reset(), a differential fuzz against a sort-based
 * reference, and rejection of schedules into the past.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "sfq/cells.hh"
#include "sfq/constraints.hh"
#include "sfq/event_queue.hh"
#include "sfq/simulator.hh"

namespace sushi::sfq {
namespace {

/** Drain the queue fully, returning (cell, port) pairs in pop order. */
std::vector<std::pair<std::int32_t, std::int32_t>>
drain(EventQueue &q)
{
    std::vector<std::pair<std::int32_t, std::int32_t>> order;
    EventQueue::Event ev{};
    while (q.popNext(kTickNever, ev))
        order.emplace_back(ev.cell, ev.port);
    return order;
}

TEST(EventQueue, OrdersByTime)
{
    EventQueue q;
    q.push(30, 3, 0);
    q.push(10, 1, 0);
    q.push(20, 2, 0);
    std::vector<std::pair<std::int32_t, std::int32_t>> expect{
        {1, 0}, {2, 0}, {3, 0}};
    EXPECT_EQ(drain(q), expect);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StableAtEqualTicks)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.push(5, i, i);
    const auto order = drain(q);
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)].first, i);
        EXPECT_EQ(order[static_cast<std::size_t>(i)].second, i);
    }
}

TEST(EventQueue, NextTickAndEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTick(), kTickNever);
    q.push(42, 0, 0);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTick(), 42);
}

TEST(EventQueue, ExecutedCount)
{
    EventQueue q;
    q.push(1, 0, 0);
    q.push(2, 0, 0);
    EventQueue::Event ev{};
    ASSERT_TRUE(q.popNext(kTickNever, ev));
    EXPECT_EQ(q.executed(), 1u);
    ASSERT_TRUE(q.popNext(kTickNever, ev));
    EXPECT_EQ(q.executed(), 2u);
    EXPECT_FALSE(q.popNext(kTickNever, ev));
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, PopNextRespectsUntil)
{
    EventQueue q;
    q.push(10, 1, 0);
    q.push(1000, 2, 0);
    EventQueue::Event ev{};
    ASSERT_TRUE(q.popNext(500, ev));
    EXPECT_EQ(ev.when, 10);
    EXPECT_EQ(ev.cell, 1);
    EXPECT_FALSE(q.popNext(500, ev)); // earliest is at 1000
    EXPECT_EQ(q.size(), 1u);
    ASSERT_TRUE(q.popNext(kTickNever, ev));
    EXPECT_EQ(ev.when, 1000);
}

TEST(EventQueue, InterleavedPushPop)
{
    // Pop, then push at the same (and later) tick: new equal-tick
    // events must still come out after nothing earlier remains, and
    // ordering must hold as the draining day refills.
    EventQueue q;
    q.push(100, 0, 0);
    q.push(200, 1, 0);
    EventQueue::Event ev{};
    ASSERT_TRUE(q.popNext(kTickNever, ev));
    EXPECT_EQ(ev.when, 100);
    q.push(100, 2, 0); // same tick as the event just popped
    q.push(150, 3, 0);
    ASSERT_TRUE(q.popNext(kTickNever, ev));
    EXPECT_EQ(ev.cell, 2);
    ASSERT_TRUE(q.popNext(kTickNever, ev));
    EXPECT_EQ(ev.cell, 3);
    ASSERT_TRUE(q.popNext(kTickNever, ev));
    EXPECT_EQ(ev.cell, 1);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FarFutureBeyondHorizon)
{
    // Events far past the calendar ring wait in the far-future lane
    // (its FIFO, or its heap for the out-of-order ones) and must
    // still pop in global time order, including ones pushed several
    // horizons out.
    EventQueue q;
    const Tick h = EventQueue::kHorizonTicks;
    q.push(3 * h + 7, 3, 0);
    q.push(5, 0, 0);
    q.push(h + 1, 1, 0);
    q.push(2 * h, 2, 0);
    q.push(10 * h, 4, 0);
    EventQueue::Event ev{};
    Tick prev = -1;
    std::vector<std::int32_t> cells;
    while (q.popNext(kTickNever, ev)) {
        EXPECT_GE(ev.when, prev);
        prev = ev.when;
        cells.push_back(ev.cell);
    }
    EXPECT_EQ(cells, (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EqualTickStabilityAcrossHorizon)
{
    // Equal-tick events scheduled beyond the horizon (far-future
    // lane) keep insertion order once they migrate into the calendar.
    EventQueue q;
    const Tick t = 2 * EventQueue::kHorizonTicks + 3;
    for (int i = 0; i < 8; ++i)
        q.push(t, i, 0);
    const auto order = drain(q);
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)].first, i);
}

TEST(EventQueue, ClearKeepsCountersAndAllowsReuse)
{
    EventQueue q;
    q.push(1, 0, 0);
    q.push(EventQueue::kHorizonTicks * 4, 1, 0);
    EventQueue::Event ev{};
    ASSERT_TRUE(q.popNext(kTickNever, ev));
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.executed(), 1u); // executed survives clear()
    q.push(7, 5, 2);
    ASSERT_TRUE(q.popNext(kTickNever, ev));
    EXPECT_EQ(ev.when, 7);
    EXPECT_EQ(ev.cell, 5);
    EXPECT_EQ(ev.port, 2);
    EXPECT_EQ(q.executed(), 2u);
}

/** The documented order, written independently of the queue: by
 *  tick; at one tick callbacks first (by seq), then pulses by (cell,
 *  port, seq). */
bool
documentedBefore(const EventQueue::Event &a, const EventQueue::Event &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    const bool cb_a = a.cell == EventQueue::kCallbackCell;
    const bool cb_b = b.cell == EventQueue::kCallbackCell;
    if (cb_a != cb_b)
        return cb_a;
    if (!cb_a && a.cell != b.cell)
        return a.cell < b.cell;
    if (!cb_a && a.port != b.port)
        return a.port < b.port;
    return a.seq < b.seq;
}

bool
sameEvent(const EventQueue::Event &a, const EventQueue::Event &b)
{
    return a.when == b.when && a.seq == b.seq && a.cell == b.cell &&
           a.port == b.port;
}

/**
 * Seeded random pushes (full (when, cell, port) collisions,
 * callbacks among pulses at one tick, ring and far-future ticks, far
 * pushes out of order, dense single-day bursts well past kSortedMax,
 * stragglers into a long run) interleaved with popNext(until), an
 * unbounded popNext, nextTick() and clear(). Every pop must be the reference's earliest
 * event, and every full drain must equal std::sort of what was
 * pending, event for event.
 */
TEST(EventQueue, DifferentialFuzzAgainstSortedReference)
{
    const Tick day = EventQueue::kDayTicks;
    const Tick horizon = EventQueue::kHorizonTicks;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        EventQueue q;
        std::vector<EventQueue::Event> ref;
        std::uint64_t seq = 0;
        Tick now = 0;     // no push lands before the last pop
        Tick far_at = 0;  // cursor of the in-order far stream
        auto push = [&](Tick when, std::int32_t cell, std::int32_t port) {
            q.push(when, cell, port);
            ref.push_back(EventQueue::Event{when, seq++, cell, port});
        };
        auto pushSome = [&] {
            const std::int32_t cell =
                rng.chance(0.15)
                    ? EventQueue::kCallbackCell
                    : static_cast<std::int32_t>(rng.below(6));
            const auto port = static_cast<std::int32_t>(rng.below(3));
            switch (rng.below(7)) {
              case 0: // exact collisions at one tick
                for (int i = 0; i < 3; ++i)
                    push(now + 5, cell, port);
                break;
              case 1: // the draining day
                push(now + static_cast<Tick>(rng.below(
                                static_cast<std::uint64_t>(day))),
                     cell, port);
                break;
              case 2: // within the ring
                push(now + static_cast<Tick>(rng.below(
                                static_cast<std::uint64_t>(horizon))),
                     cell, port);
                break;
              case 3: // a time-sorted far-future program
                far_at = std::max(far_at, now + horizon) +
                         static_cast<Tick>(rng.below(
                             static_cast<std::uint64_t>(3 * day)));
                push(far_at, cell, port);
                break;
              case 4: // far future, out of order
                push(now + horizon +
                         static_cast<Tick>(rng.below(
                             static_cast<std::uint64_t>(4 * horizon))),
                     cell, port);
                break;
              case 5: { // a dense burst into one day
                const int n = 20 + static_cast<int>(rng.below(200));
                for (int i = 0; i < n; ++i)
                    push(now + static_cast<Tick>(rng.below(997)),
                         static_cast<std::int32_t>(rng.below(50)) - 1,
                         static_cast<std::int32_t>(rng.below(3)));
                break;
              }
              default: // stragglers just after now
                push(now + static_cast<Tick>(rng.below(4)), cell, port);
                break;
            }
        };
        auto earliest = [&] {
            return std::min_element(ref.begin(), ref.end(),
                                    documentedBefore);
        };
        for (int op = 0; op < 3000; ++op) {
            const std::uint64_t what = rng.below(100);
            if (what < 45) {
                pushSome();
            } else if (what < 80) {
                // popNext(until), until sometimes short of the next
                // event so the refusal path runs too.
                const Tick until =
                    rng.chance(0.5)
                        ? kTickNever
                        : now + static_cast<Tick>(rng.below(
                                    static_cast<std::uint64_t>(2 * day)));
                EventQueue::Event got{};
                const bool popped = q.popNext(until, got);
                const auto it = earliest();
                const bool want = it != ref.end() && it->when <= until;
                ASSERT_EQ(popped, want) << "seed " << seed << " op " << op;
                if (popped) {
                    ASSERT_TRUE(sameEvent(got, *it))
                        << "seed " << seed << " op " << op;
                    now = got.when;
                    ref.erase(it);
                }
            } else if (what < 90) {
                // An unbounded pop.
                EventQueue::Event got{};
                const bool took = q.popNext(kTickNever, got);
                const auto it = earliest();
                ASSERT_EQ(took, it != ref.end());
                if (took) {
                    ASSERT_TRUE(sameEvent(got, *it))
                        << "seed " << seed << " op " << op;
                    now = got.when;
                    ref.erase(it);
                }
            } else if (what < 98) {
                const auto it = earliest();
                ASSERT_EQ(q.nextTick(),
                          it == ref.end() ? kTickNever : it->when);
            } else if (what < 99) {
                // Full drain against std::sort of everything pending.
                std::vector<EventQueue::Event> want = ref;
                std::sort(want.begin(), want.end(), documentedBefore);
                for (const EventQueue::Event &w : want) {
                    EventQueue::Event got{};
                    ASSERT_TRUE(q.popNext(kTickNever, got));
                    ASSERT_TRUE(sameEvent(got, w))
                        << "seed " << seed << " op " << op;
                    now = got.when;
                }
                ref.clear();
                ASSERT_TRUE(q.empty());
            } else {
                q.clear();
                ref.clear();
                now = 0;
                far_at = 0;
            }
            ASSERT_EQ(q.size(), ref.size());
        }
    }
}

TEST(EventQueue, StragglersIntoALongRunKeepOrder)
{
    // A long sorted day that keeps receiving a few earlier events
    // switches to a heap; order must hold across the switch and
    // until the day drains.
    EventQueue q;
    for (int i = 0; i < 64; ++i)
        q.push(100 + 10 * i, i, 0);
    EventQueue::Event ev{};
    ASSERT_TRUE(q.popNext(kTickNever, ev));
    EXPECT_EQ(ev.when, 100);
    q.push(105, 99, 0); // straggler: before most of the run
    q.push(105, 98, 1);
    std::vector<Tick> seen;
    while (q.popNext(kTickNever, ev)) {
        seen.push_back(ev.when);
        if (ev.when == 200)
            q.push(201, 97, 0);
    }
    ASSERT_EQ(seen.size(), 66u);
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    EXPECT_EQ(seen[0], 105);
}

TEST(Simulator, TimeAdvances)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0);
    Tick seen = -1;
    sim.schedule(100, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 100);
    EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilStopsEarly)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(10, [&] { ++fired; });
    sim.schedule(1000, [&] { ++fired; });
    sim.run(500);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(sim.idle());
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ScheduleInRelative)
{
    Simulator sim;
    Tick at = -1;
    sim.schedule(50, [&] {
        sim.scheduleIn(25, [&] { at = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(at, 75);
}

TEST(Simulator, ViolationPolicyIgnoreCounts)
{
    Simulator sim;
    sim.setViolationPolicy(ViolationPolicy::Ignore);
    sim.reportViolation("test");
    sim.reportViolation("test2");
    EXPECT_EQ(sim.violations(), 2u);
}

TEST(Simulator, EnergyAccumulates)
{
    Simulator sim;
    sim.addSwitchEnergy(1e-19);
    sim.addSwitchEnergy(2e-19);
    EXPECT_DOUBLE_EQ(sim.switchEnergy(), 3e-19);
}

TEST(Simulator, QueueReusableAfterReset)
{
    Simulator sim;
    sim.setViolationPolicy(ViolationPolicy::Ignore);
    Jtl jtl(sim, "jtl");
    PulseSink sink(sim, "sink");
    jtl.connect(0, sink, 0);

    const Tick gap = safePulseSpacing();
    jtl.inject(0, gap);
    jtl.inject(0, 2 * gap);
    sim.run();
    EXPECT_EQ(sink.count(), 2u);

    sim.reset();
    sink.clear();
    EXPECT_EQ(sim.now(), 0);
    EXPECT_TRUE(sim.idle());

    // The same compiled netlist keeps working on the cleared queue.
    jtl.inject(0, gap);
    jtl.inject(0, 2 * gap);
    sim.run();
    EXPECT_EQ(sink.count(), 2u);
}


TEST(Simulator, SchedulingIntoThePastThrows)
{
    Simulator sim;
    sim.setViolationPolicy(ViolationPolicy::Fatal);
    Jtl jtl(sim, "jtl");
    PulseSource src(sim, "src");
    PulseSink sink(sim, "sink");
    src.connect(0, jtl, 0);
    jtl.connect(0, sink, 0);

    const Tick gap = safePulseSpacing();
    src.pulseAt(2 * gap);
    sim.run();
    ASSERT_EQ(sink.count(), 1u);

    const Tick past = sim.now() - 1;
    EXPECT_THROW(src.pulseAt(past), std::invalid_argument);
    EXPECT_THROW(jtl.inject(0, past), std::invalid_argument);
    EXPECT_THROW(sim.schedulePulse(past, jtl.cellId(), 0),
                 std::invalid_argument);
    EXPECT_THROW(sim.schedule(past, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.scheduleIn(-1, [] {}), std::invalid_argument);
    EXPECT_TRUE(sim.idle());

    // Nothing was queued, and the same simulator keeps working.
    const Tick t = sim.now() + gap;
    src.pulseAt(t);
    bool fired = false;
    sim.schedule(t, [&] { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
    ASSERT_EQ(sink.count(), 2u);
    EXPECT_EQ(sink.pulsesSeen()[1] - t, sink.pulsesSeen()[0] - 2 * gap);
    EXPECT_EQ(sim.violations(), 0u);
}

} // namespace
} // namespace sushi::sfq
