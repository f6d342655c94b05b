/**
 * @file
 * Tests for the state controller: behavioural FSM semantics (Fig. 5),
 * the gate-level netlist (Fig. 8(b)), and equivalence between them.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hh"
#include "npe/state_controller.hh"
#include "sfq/constraints.hh"
#include "sfq/simulator.hh"

namespace sushi::npe {
namespace {

TEST(StateControllerBehavioural, FlipsOnIn)
{
    StateController sc;
    EXPECT_FALSE(sc.state());
    sc.in();
    EXPECT_TRUE(sc.state());
    sc.in();
    EXPECT_FALSE(sc.state());
}

TEST(StateControllerBehavioural, UnarmedNeverEmits)
{
    StateController sc;
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(sc.in());
}

TEST(StateControllerBehavioural, Set0EmitsOnRise)
{
    // Fig. 5: with NDRO0 set, the 0 -> 1 flip outputs.
    StateController sc;
    sc.set0();
    EXPECT_TRUE(sc.in());  // 0 -> 1
    EXPECT_FALSE(sc.in()); // 1 -> 0
    EXPECT_TRUE(sc.in());  // 0 -> 1
}

TEST(StateControllerBehavioural, Set1EmitsOnFall)
{
    StateController sc;
    sc.set1();
    EXPECT_FALSE(sc.in()); // 0 -> 1
    EXPECT_TRUE(sc.in());  // 1 -> 0
}

TEST(StateControllerBehavioural, SetsAreExclusive)
{
    StateController sc;
    sc.set0();
    sc.set1(); // disables set0
    EXPECT_EQ(sc.arm(), ScArm::Fall);
    sc.set0();
    EXPECT_EQ(sc.arm(), ScArm::Rise);
}

TEST(StateControllerBehavioural, RstReadsAndClears)
{
    StateController sc;
    sc.set0();
    sc.in(); // state 1
    EXPECT_TRUE(sc.rst());
    EXPECT_FALSE(sc.state());
    EXPECT_EQ(sc.arm(), ScArm::None);
    EXPECT_FALSE(sc.rst()); // already clear: no read pulse
}

TEST(StateControllerBehavioural, WriteSetsState)
{
    StateController sc;
    sc.rst();
    sc.write();
    EXPECT_TRUE(sc.state());
}

TEST(StateControllerBehavioural, WriteWithoutRstPanics)
{
    StateController sc;
    sc.write();
    EXPECT_THROW(sc.write(), std::logic_error);
    EXPECT_TRUE(sc.state());
}

/** Gate-level fixture: one ScGate with its out/read captured. */
class ScGateTest : public ::testing::Test
{
  protected:
    ScGateTest() : net(sim), sc(net, "sc")
    {
        sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
        out = &net.makeSink("out");
        read = &net.makeSink("read");
        sc.connectOut(*out, 0);
        sc.connectRead(*read, 0);
        gap = sfq::safePulseSpacing();
    }

    Tick
    next()
    {
        // Keep injections strictly in the future even after earlier
        // sim.run() calls advanced time past the last injection.
        t_ = std::max(t_ + gap, sim.now() + gap);
        return t_;
    }

    sfq::Simulator sim;
    sfq::Netlist net;
    ScGate sc;
    sfq::PulseSink *out;
    sfq::PulseSink *read;
    Tick gap;
    Tick t_ = 0;
};

TEST_F(ScGateTest, UnarmedInFlipsWithoutOutput)
{
    sc.injectIn(next());
    sim.run();
    EXPECT_TRUE(sc.state());
    EXPECT_EQ(out->count(), 0u);
}

TEST_F(ScGateTest, Set0EmitsOnRise)
{
    sc.injectSet0(next());
    sc.injectIn(next());
    sim.run();
    EXPECT_EQ(out->count(), 1u);
    sc.injectIn(next());
    sim.run();
    EXPECT_EQ(out->count(), 1u); // 1 -> 0: no output
}

TEST_F(ScGateTest, Set1EmitsOnFall)
{
    sc.injectSet1(next());
    sc.injectIn(next());
    sc.injectIn(next());
    sim.run();
    EXPECT_EQ(out->count(), 1u);
    EXPECT_FALSE(sc.state());
}

TEST_F(ScGateTest, SetsExclusiveInGates)
{
    sc.injectSet0(next());
    sc.injectSet1(next());
    sim.run();
    EXPECT_EQ(sc.arm(), ScArm::Fall);
    sc.injectSet0(next());
    sim.run();
    EXPECT_EQ(sc.arm(), ScArm::Rise);
}

TEST_F(ScGateTest, RstEmitsReadPulseIffStateWasOne)
{
    sc.injectIn(next()); // state 1
    sc.injectRst(next());
    sim.run();
    EXPECT_EQ(read->count(), 1u);
    EXPECT_FALSE(sc.state());
    EXPECT_EQ(sc.arm(), ScArm::None);

    sc.injectRst(next());
    sim.run();
    EXPECT_EQ(read->count(), 1u); // state was 0: no second read
}

TEST_F(ScGateTest, RstProducesNoSpuriousOut)
{
    // Sec. 5.2 ordering: the rst-driven toggle-back must not reach
    // the out channel even when the SC was armed.
    sc.injectSet1(next());
    sc.injectIn(next()); // state 1, no out (rise with set1)
    sc.injectRst(next());
    sim.run();
    EXPECT_EQ(out->count(), 0u);
    EXPECT_EQ(read->count(), 1u);
}

TEST_F(ScGateTest, WriteAfterRstSetsStateSilently)
{
    sc.injectRst(next());
    sc.injectWrite(next());
    sim.run();
    EXPECT_TRUE(sc.state());
    EXPECT_EQ(out->count(), 0u); // unarmed after rst
}

TEST_F(ScGateTest, FullCycleRstWriteSetIn)
{
    // The Sec. 5.2 asynchronous ordering: rst -> write -> set -> in.
    sc.injectRst(next());
    sc.injectWrite(next()); // state 1
    sc.injectSet1(next());  // arm fall
    sc.injectIn(next());    // 1 -> 0: out pulse
    sim.run();
    EXPECT_EQ(out->count(), 1u);
    EXPECT_FALSE(sc.state());
}

TEST_F(ScGateTest, NoTimingViolationsUnderSafeSpacing)
{
    // Policy is Fatal: reaching the end proves constraint-cleanliness.
    sc.injectSet0(next());
    for (int i = 0; i < 8; ++i)
        sc.injectIn(next());
    sc.injectRst(next());
    sc.injectWrite(next());
    sc.injectSet1(next());
    sc.injectIn(next());
    sim.run();
    EXPECT_EQ(sim.violations(), 0u);
}

/**
 * Property test: random stimulus sequences produce identical
 * state/output traces on the behavioural and gate-level models.
 */
TEST(ScEquivalence, RandomSequences)
{
    Rng rng(2023);
    for (int trial = 0; trial < 30; ++trial) {
        sfq::Simulator sim;
        sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
        sfq::Netlist net(sim);
        ScGate gate(net, "sc");
        auto &out = net.makeSink("out");
        auto &read = net.makeSink("read");
        gate.connectOut(out, 0);
        gate.connectRead(read, 0);

        StateController ref;
        std::size_t ref_out = 0, ref_read = 0;

        const Tick gap = sfq::safePulseSpacing();
        Tick t = gap;
        bool wrote_since_rst = true; // treat initial state as written
        for (int step = 0; step < 40; ++step) {
            t = std::max(t + gap, sim.now() + gap);
            switch (rng.below(5)) {
              case 0:
                gate.injectIn(t);
                if (ref.in())
                    ++ref_out;
                break;
              case 1:
                gate.injectSet0(t);
                ref.set0();
                break;
              case 2:
                gate.injectSet1(t);
                ref.set1();
                break;
              case 3:
                gate.injectRst(t);
                if (ref.rst())
                    ++ref_read;
                wrote_since_rst = false;
                break;
              case 4:
                // The Sec. 5.2 protocol orders rst -> write -> set ->
                // input: a write is only legal while the SC is still
                // disarmed and clear after a rst.
                if (!wrote_since_rst && !ref.state() &&
                    ref.arm() == ScArm::None) {
                    gate.injectWrite(t);
                    ref.write();
                    wrote_since_rst = true;
                } else {
                    gate.injectIn(t);
                    if (ref.in())
                        ++ref_out;
                }
                break;
            }
            sim.run();
            ASSERT_EQ(gate.state(), ref.state())
                << "trial " << trial << " step " << step;
            ASSERT_EQ(gate.arm(), ref.arm())
                << "trial " << trial << " step " << step;
        }
        EXPECT_EQ(out.count(), ref_out) << "trial " << trial;
        EXPECT_EQ(read.count(), ref_read) << "trial " << trial;
        EXPECT_EQ(sim.violations(), 0u);
    }
}

TEST(ScResources, LogicJjCount)
{
    sfq::Simulator sim;
    sfq::Netlist net(sim);
    ScGate sc(net, "sc");
    EXPECT_EQ(net.resources().logic_jjs, scLogicJjs());
    EXPECT_GT(net.resources().wiring_jjs, 0); // JTLs on internal paths
}

} // namespace
} // namespace sushi::npe
