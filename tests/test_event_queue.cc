/**
 * @file
 * Unit tests for the discrete-event kernel and simulator.
 *
 * The queue under test is the calendar queue of POD events: checks
 * cover time ordering, equal-tick insertion-order stability (within a
 * day and across the calendar horizon), interleaved push/pop,
 * far-future scheduling past the ring horizon, and reuse after
 * Simulator::reset().
 */

#include <gtest/gtest.h>

#include <vector>

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
    // Events far past the calendar ring land in the overflow heap and
    // must still pop in global time order, including ones pushed
    // several horizons out.
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
    // Equal-tick events scheduled beyond the horizon (overflow heap)
    // keep insertion order once they migrate into the calendar.
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

} // namespace
} // namespace sushi::sfq
