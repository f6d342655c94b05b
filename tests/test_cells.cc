/**
 * @file
 * Behavioural unit tests for every RSFQ library cell, mirroring the
 * timing diagrams of paper Fig. 3.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/time.hh"
#include "sfq/cells.hh"
#include "sfq/netlist.hh"
#include "sfq/simulator.hh"

namespace sushi::sfq {
namespace {

constexpr Tick kGap = psToTicks(50.0); // comfortably above Table 1

/** Fixture providing a simulator and netlist with safe spacing. */
class CellTest : public ::testing::Test
{
  protected:
    CellTest() : net(sim)
    {
        sim.setViolationPolicy(ViolationPolicy::Ignore);
    }

    Simulator sim;
    Netlist net;
};

TEST_F(CellTest, JtlForwardsWithDelay)
{
    Jtl &j = net.makeJtl("j");
    PulseSink &sink = net.makeSink("s");
    j.connect(0, sink, 0);
    j.inject(0, 100);
    sim.run();
    ASSERT_EQ(sink.count(), 1u);
    EXPECT_EQ(sink.pulsesSeen()[0],
              100 + cellParams(CellKind::JTL).delay);
}

TEST_F(CellTest, SplDuplicatesPulse)
{
    Spl &spl = net.makeSpl("spl");
    PulseSink &a = net.makeSink("a");
    PulseSink &b = net.makeSink("b");
    spl.connect(0, a, 0);
    spl.connect(1, b, 0);
    spl.inject(0, 0);
    spl.inject(0, kGap);
    sim.run();
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_EQ(a.pulsesSeen()[0], b.pulsesSeen()[0]);
}

TEST_F(CellTest, Spl3TriplesPulse)
{
    Spl3 &spl = net.makeSpl3("spl3");
    PulseSink *sinks[3];
    for (int i = 0; i < 3; ++i) {
        sinks[i] = &net.makeSink("s" + std::to_string(i));
        spl.connect(i, *sinks[i], 0);
    }
    spl.inject(0, 0);
    sim.run();
    for (auto *s : sinks)
        EXPECT_EQ(s->count(), 1u);
}

TEST_F(CellTest, CbMergesBothInputs)
{
    Cb &cb = net.makeCb("cb");
    PulseSink &sink = net.makeSink("s");
    cb.connect(0, sink, 0);
    cb.inject(0, 0);        // dinA
    cb.inject(1, kGap);     // dinB
    sim.run();
    EXPECT_EQ(sink.count(), 2u);
}

TEST_F(CellTest, Cb3MergesThreeInputs)
{
    Cb3 &cb = net.makeCb3("cb3");
    PulseSink &sink = net.makeSink("s");
    cb.connect(0, sink, 0);
    cb.inject(0, 0);
    cb.inject(1, kGap);
    cb.inject(2, 2 * kGap);
    sim.run();
    EXPECT_EQ(sink.count(), 3u);
}

TEST_F(CellTest, DffStoresUntilClock)
{
    // Fig. 3(e): dout pulses only when both din and clk arrived.
    Dff &dff = net.makeDff("dff");
    PulseSink &sink = net.makeSink("s");
    dff.connect(0, sink, 0);

    dff.inject(chan::kDffDin, 0);
    sim.run();
    EXPECT_EQ(sink.count(), 0u); // no clk yet
    EXPECT_TRUE(dff.stored());

    dff.inject(chan::kDffClk, sim.now() + kGap);
    sim.run();
    EXPECT_EQ(sink.count(), 1u);
    EXPECT_FALSE(dff.stored()); // destructive read
}

TEST_F(CellTest, DffClockWithoutDataIsZero)
{
    Dff &dff = net.makeDff("dff");
    PulseSink &sink = net.makeSink("s");
    dff.connect(0, sink, 0);
    dff.inject(chan::kDffClk, 0);
    dff.inject(chan::kDffClk, kGap);
    sim.run();
    EXPECT_EQ(sink.count(), 0u); // logic "0" both cycles
}

TEST_F(CellTest, DffDoubleWriteIsViolation)
{
    Dff &dff = net.makeDff("dff");
    dff.inject(chan::kDffDin, 0);
    dff.inject(chan::kDffDin, kGap);
    sim.run();
    EXPECT_GE(sim.violations(), 1u);
}

TEST_F(CellTest, NdroNonDestructiveRead)
{
    // Fig. 3(f): reads do not clear the state.
    Ndro &n = net.makeNdro("n");
    PulseSink &sink = net.makeSink("s");
    n.connect(0, sink, 0);

    n.inject(chan::kNdroDin, 0);
    n.inject(chan::kNdroClk, kGap);
    n.inject(chan::kNdroClk, 2 * kGap);
    n.inject(chan::kNdroClk, 3 * kGap);
    sim.run();
    EXPECT_EQ(sink.count(), 3u);
    EXPECT_TRUE(n.state());
}

TEST_F(CellTest, NdroResetBlocksReads)
{
    Ndro &n = net.makeNdro("n");
    PulseSink &sink = net.makeSink("s");
    n.connect(0, sink, 0);

    n.inject(chan::kNdroDin, 0);
    n.inject(chan::kNdroClk, kGap);
    n.inject(chan::kNdroRst, 2 * kGap);
    n.inject(chan::kNdroClk, 3 * kGap);
    sim.run();
    EXPECT_EQ(sink.count(), 1u);
    EXPECT_FALSE(n.state());
}

TEST_F(CellTest, NdroReadWhileClearIsZero)
{
    Ndro &n = net.makeNdro("n");
    PulseSink &sink = net.makeSink("s");
    n.connect(0, sink, 0);
    n.inject(chan::kNdroClk, 0);
    sim.run();
    EXPECT_EQ(sink.count(), 0u);
}

TEST_F(CellTest, TfflPulsesOnRisingFlip)
{
    // One output pulse per two inputs, on the 0->1 flip: inputs at
    // even positions (1st, 3rd, ...) produce output.
    Tffl &t = net.makeTffl("t");
    PulseSink &sink = net.makeSink("s");
    t.connect(0, sink, 0);
    for (int i = 0; i < 6; ++i)
        t.inject(0, i * kGap);
    sim.run();
    EXPECT_EQ(sink.count(), 3u);
    EXPECT_FALSE(t.state()); // even number of inputs -> back to 0
}

TEST_F(CellTest, TffrPulsesOnFallingFlip)
{
    Tffr &t = net.makeTffr("t");
    PulseSink &sink = net.makeSink("s");
    t.connect(0, sink, 0);
    t.inject(0, 0); // 0->1, no pulse
    sim.run();
    EXPECT_EQ(sink.count(), 0u);
    t.inject(0, sim.now() + kGap); // 1->0, pulse
    sim.run();
    EXPECT_EQ(sink.count(), 1u);
}

TEST_F(CellTest, TffPairComplementary)
{
    // TFFL and TFFR fed the same stream alternate their outputs:
    // together they reproduce every input pulse exactly once.
    Spl &spl = net.makeSpl("spl");
    Tffl &tl = net.makeTffl("tl");
    Tffr &tr = net.makeTffr("tr");
    PulseSink &sl = net.makeSink("sl");
    PulseSink &sr = net.makeSink("sr");
    spl.connect(0, tl, 0);
    spl.connect(1, tr, 0);
    tl.connect(0, sl, 0);
    tr.connect(0, sr, 0);
    const int n = 10;
    for (int i = 0; i < n; ++i)
        spl.inject(0, i * kGap);
    sim.run();
    EXPECT_EQ(sl.count() + sr.count(), static_cast<std::size_t>(n));
    EXPECT_EQ(sl.count(), 5u);
    EXPECT_EQ(sr.count(), 5u);
}

TEST_F(CellTest, DcSfqProducesPulsePerEdge)
{
    DcSfq &conv = net.makeDcSfq("in");
    PulseSink &sink = net.makeSink("s");
    conv.connect(0, sink, 0);
    conv.edge(0);
    conv.edge(kGap);
    sim.run();
    EXPECT_EQ(sink.count(), 2u);
}

TEST_F(CellTest, SfqDcTogglesLevelPerPulse)
{
    // Fig. 14: each output pulse inverts the sampled level.
    SfqDc &drv = net.makeSfqDc("out");
    drv.inject(0, 0);
    sim.run();
    EXPECT_TRUE(drv.level());
    drv.inject(0, sim.now() + kGap);
    sim.run();
    EXPECT_FALSE(drv.level());
    drv.inject(0, sim.now() + kGap);
    sim.run();
    EXPECT_TRUE(drv.level());
    EXPECT_EQ(drv.pulseCount(), 3u);
}

TEST_F(CellTest, FanOutOfTwoRejected)
{
    Jtl &j = net.makeJtl("j");
    PulseSink &a = net.makeSink("a");
    PulseSink &b = net.makeSink("b");
    j.connect(0, a, 0);
    try {
        j.connect(0, b, 0);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("fan-out"),
                  std::string::npos);
    }
    // The first connection is kept and still carries pulses.
    j.inject(0, 0);
    sim.run();
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(b.count(), 0u);
}

TEST_F(CellTest, OutOfRangePortsThrow)
{
    Jtl &j = net.makeJtl("j");
    PulseSink &s = net.makeSink("s");
    EXPECT_THROW(j.connect(1, s, 0), std::out_of_range);
    EXPECT_THROW(j.connect(-1, s, 0), std::out_of_range);
    EXPECT_THROW(j.connect(0, s, 1), std::out_of_range);
    EXPECT_THROW((void)j.outputConnected(1), std::out_of_range);
    EXPECT_THROW(j.inject(1, 0), std::out_of_range);
    EXPECT_THROW(s.inject(-1, 0), std::out_of_range);
    EXPECT_FALSE(j.outputConnected(0));
    EXPECT_TRUE(sim.idle());
}

TEST_F(CellTest, CellOnSharedStructureReplicaThrows)
{
    Jtl &j = net.makeJtl("j");
    PulseSink &s = net.makeSink("s");
    Simulator replica(sim.core().shareStructure());
    EXPECT_THROW(Jtl(replica, "extra"), std::logic_error);
    // The sealed parent cannot grow or rewire either.
    EXPECT_THROW(Jtl(sim, "extra"), std::logic_error);
    EXPECT_THROW(j.connect(0, s, 0), std::logic_error);
    EXPECT_EQ(replica.core().numCells(), 2u);
    EXPECT_EQ(sim.core().numConnections(), 0u);
}

TEST_F(CellTest, DanglingOutputIsLegal)
{
    Jtl &j = net.makeJtl("j");
    j.inject(0, 0);
    sim.run(); // must not crash: pulse is dropped
    EXPECT_TRUE(sim.idle());
}

TEST_F(CellTest, SwitchEnergyAccounted)
{
    Jtl &j = net.makeJtl("j");
    PulseSink &sink = net.makeSink("s");
    j.connect(0, sink, 0);
    j.inject(0, 0);
    sim.run();
    EXPECT_DOUBLE_EQ(sim.switchEnergy(),
                     cellParams(CellKind::JTL).switch_energy_j);
}

TEST_F(CellTest, PulseCountTracksDeliveries)
{
    Spl &spl = net.makeSpl("spl");
    PulseSink &a = net.makeSink("a");
    PulseSink &b = net.makeSink("b");
    spl.connect(0, a, 0);
    spl.connect(1, b, 0);
    spl.inject(0, 0);
    sim.run();
    EXPECT_EQ(sim.pulses(), 2u); // two cell-to-cell deliveries
}

} // namespace
} // namespace sushi::sfq
