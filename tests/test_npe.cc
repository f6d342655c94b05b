/**
 * @file
 * Tests for the NPE: ripple-counter semantics, IF thresholding via
 * pre-load, gate-level equivalence, and the neuron FSM of Fig. 6/7.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hh"
#include "npe/neuron_fsm.hh"
#include "npe/npe.hh"
#include "sfq/constraints.hh"
#include "sfq/simulator.hh"

namespace sushi::npe {
namespace {

TEST(NpeBehavioural, CountsUpWhenExcitatory)
{
    Npe npe(4);
    npe.setPolarity(Polarity::Excitatory);
    for (int i = 1; i <= 10; ++i) {
        npe.in();
        EXPECT_EQ(npe.value(), static_cast<std::uint64_t>(i));
    }
}

TEST(NpeBehavioural, CountsDownWhenInhibitory)
{
    Npe npe(4);
    npe.rst();
    npe.write(10);
    npe.setPolarity(Polarity::Inhibitory);
    for (int i = 9; i >= 0; --i) {
        npe.in();
        EXPECT_EQ(npe.value(), static_cast<std::uint64_t>(i));
    }
}

TEST(NpeBehavioural, OverflowEmitsSpike)
{
    Npe npe(3); // 8 states
    npe.setPolarity(Polarity::Excitatory);
    int spikes = 0;
    for (int i = 0; i < 8; ++i)
        spikes += npe.in() ? 1 : 0;
    EXPECT_EQ(spikes, 1); // exactly one wrap in 8 pulses from 0
    EXPECT_EQ(npe.value(), 0u);
}

TEST(NpeBehavioural, UnderflowEmitsBorrowSpike)
{
    // Down-counting through zero wraps and emits from the final SC —
    // the "overflow of the lower number of states" failure mode that
    // bucketing exists to prevent (Sec. 5.1).
    Npe npe(3);
    npe.setPolarity(Polarity::Inhibitory);
    EXPECT_TRUE(npe.in()); // 0 -> 7 with a borrow out
    EXPECT_EQ(npe.value(), 7u);
}

TEST(NpeBehavioural, IfThresholdViaPreload)
{
    // Pre-load 2^K - theta: the spike appears exactly on the theta-th
    // excitatory pulse.
    const int k = 6;
    const std::uint64_t theta = 17;
    Npe npe(k);
    npe.rst();
    npe.write(npe.numStates() - theta);
    npe.setPolarity(Polarity::Excitatory);
    for (std::uint64_t i = 1; i < theta; ++i)
        EXPECT_FALSE(npe.in()) << "pulse " << i;
    EXPECT_TRUE(npe.in()); // the theta-th pulse crosses threshold
}

TEST(NpeBehavioural, RstReadsValueAndClears)
{
    Npe npe(5);
    for (int i = 0; i < 11; ++i)
        npe.in();
    EXPECT_EQ(npe.rst(), 11u);
    EXPECT_EQ(npe.value(), 0u);
}

TEST(NpeBehavioural, RefusedWriteThrowsAndChangesNothing)
{
    Npe npe(4);
    npe.rst();
    npe.write(0b0101);
    // SC1 is free but SC2 holds a 1: no SC may be written.
    EXPECT_THROW(npe.write(0b0110), std::logic_error);
    EXPECT_EQ(npe.value(), 0b0101u);
    EXPECT_THROW(npe.write(npe.numStates()), std::out_of_range);
    EXPECT_EQ(npe.value(), 0b0101u);
    npe.rst();
    npe.write(npe.numStates() - 1);
    EXPECT_EQ(npe.value(), npe.numStates() - 1);
}

TEST(NpeBehavioural, MixedPolarityAccumulation)
{
    // +7 then -3 then +2 = 6 (the bucketed traversal pattern).
    Npe npe(6);
    npe.rst();
    npe.write(8); // headroom below
    npe.setPolarity(Polarity::Excitatory);
    for (int i = 0; i < 7; ++i)
        npe.in();
    npe.setPolarity(Polarity::Inhibitory);
    for (int i = 0; i < 3; ++i)
        npe.in();
    npe.setPolarity(Polarity::Excitatory);
    for (int i = 0; i < 2; ++i)
        npe.in();
    EXPECT_EQ(npe.value(), 8u + 7u - 3u + 2u);
    EXPECT_EQ(npe.spikesEmitted(), 0u);
}

TEST(NpeBehavioural, StatePreservedAcrossSlices)
{
    // The bit-slice method relies on partial sums surviving between
    // input blocks with no extra storage (Sec. 5.3).
    Npe npe(8);
    for (int i = 0; i < 100; ++i)
        npe.in();
    const std::uint64_t mid = npe.value();
    // ... a different slice is processed elsewhere ...
    for (int i = 0; i < 50; ++i)
        npe.in();
    EXPECT_EQ(npe.value(), mid + 50);
}

TEST(NpeBehavioural, PulseAndSpikeCounters)
{
    Npe npe(2); // 4 states
    for (int i = 0; i < 9; ++i)
        npe.in();
    EXPECT_EQ(npe.pulsesReceived(), 9u);
    EXPECT_EQ(npe.spikesEmitted(), 2u); // wraps at 4 and 8
}

class NpeGateTest : public ::testing::Test
{
  protected:
    NpeGateTest() : net(sim), npe(net, "npe", 4)
    {
        sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
        gap = sfq::safePulseSpacing();
    }

    Tick next() { return t_ += gap; }

    sfq::Simulator sim;
    sfq::Netlist net;
    NpeGate npe;
    Tick gap;
    Tick t_ = 0;
};

TEST_F(NpeGateTest, RippleCountsUp)
{
    npe.injectSet1(next());
    for (int i = 0; i < 11; ++i)
        npe.injectIn(next());
    sim.run();
    EXPECT_EQ(npe.value(), 11u);
    EXPECT_EQ(npe.outSink().count(), 0u);
    EXPECT_EQ(sim.violations(), 0u);
}

TEST_F(NpeGateTest, OverflowSpikesOut)
{
    npe.injectSet1(next());
    for (int i = 0; i < 16; ++i)
        npe.injectIn(next());
    sim.run();
    EXPECT_EQ(npe.value(), 0u);
    EXPECT_EQ(npe.outSink().count(), 1u);
}

TEST_F(NpeGateTest, WritePreloadsCounter)
{
    npe.injectRst(next());
    // Pre-load 0b0101 = 5 through individual write channels.
    npe.injectWrite(0, next());
    npe.injectWrite(2, next());
    sim.run();
    EXPECT_EQ(npe.value(), 5u);
}

TEST_F(NpeGateTest, ThresholdBehaviour)
{
    const std::uint64_t theta = 6; // preload 16 - 6 = 10
    npe.injectRst(next());
    npe.injectWrite(1, next());
    npe.injectWrite(3, next()); // 0b1010 = 10
    npe.injectSet1(next());
    for (std::uint64_t i = 0; i < theta; ++i)
        npe.injectIn(next());
    sim.run();
    EXPECT_EQ(npe.outSink().count(), 1u);
    EXPECT_EQ(sim.violations(), 0u);
}

TEST_F(NpeGateTest, RstReadsEverySetBit)
{
    npe.injectSet1(next());
    for (int i = 0; i < 7; ++i) // 0b0111
        npe.injectIn(next());
    npe.injectRst(next());
    sim.run();
    EXPECT_EQ(npe.readSink(0).count(), 1u);
    EXPECT_EQ(npe.readSink(1).count(), 1u);
    EXPECT_EQ(npe.readSink(2).count(), 1u);
    EXPECT_EQ(npe.readSink(3).count(), 0u);
    EXPECT_EQ(npe.value(), 0u);
}

/** Property: gate and behavioural NPEs agree on random programs. */
TEST(NpeEquivalence, RandomPulsePrograms)
{
    Rng rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        sfq::Simulator sim;
        sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
        sfq::Netlist net(sim);
        NpeGate gate(net, "npe", 5);
        Npe ref(5);

        const Tick gap = sfq::safePulseSpacing();
        Tick t = gap;
        std::uint64_t ref_spikes = 0;

        // rst, preload, arm, then a random pulse train.
        gate.injectRst(t);
        ref.rst();
        t += gap;
        const std::uint64_t preload = rng.below(32);
        for (int b = 0; b < 5; ++b) {
            if (preload & (1u << b)) {
                gate.injectWrite(b, t);
                t += gap;
            }
        }
        ref.write(preload);
        const bool up = rng.chance(0.5);
        if (up) {
            gate.injectSet1(t);
            ref.setPolarity(Polarity::Excitatory);
        } else {
            gate.injectSet0(t);
            ref.setPolarity(Polarity::Inhibitory);
        }
        t += gap;
        const int pulses = static_cast<int>(rng.below(40));
        for (int i = 0; i < pulses; ++i) {
            gate.injectIn(t);
            ref_spikes += ref.in() ? 1 : 0;
            t += gap;
        }
        sim.run();
        EXPECT_EQ(gate.value(), ref.value()) << "trial " << trial;
        EXPECT_EQ(gate.outSink().count(), ref_spikes)
            << "trial " << trial;
        EXPECT_EQ(sim.violations(), 0u);
    }
}

TEST(NeuronFsm, RestDecayStaysAtRest)
{
    NeuronFsm n(5, 3, 2);
    EXPECT_FALSE(n.stimulate(Stimulus::Time));
    EXPECT_TRUE(n.resting());
}

TEST(NeuronFsm, SpikesClimbTimeDecays)
{
    NeuronFsm n(5, 3, 2);
    n.stimulate(Stimulus::Spike);
    n.stimulate(Stimulus::Spike);
    EXPECT_EQ(n.stateName(), "b2");
    n.stimulate(Stimulus::Time);
    EXPECT_EQ(n.stateName(), "b1"); // failed initiation decay
}

TEST(NeuronFsm, FullActionPotential)
{
    NeuronFsm n(3, 2, 2);
    // Climb to threshold.
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(n.stimulate(Stimulus::Spike));
    EXPECT_EQ(n.stateName(), "b3");
    // Time: b3 -> r0.
    EXPECT_FALSE(n.stimulate(Stimulus::Time));
    EXPECT_EQ(n.stateName(), "r0");
    // r0 -> r1: spike is sent on the r_{R-1} -> r_R edge (R = 2).
    EXPECT_FALSE(n.stimulate(Stimulus::Time));
    EXPECT_TRUE(n.stimulate(Stimulus::Time));
    EXPECT_EQ(n.spikesSent(), 1);
    EXPECT_EQ(n.stateName(), "r2");
    // r2 -> f0 -> f1 -> f2 -> b0.
    n.stimulate(Stimulus::Time);
    EXPECT_EQ(n.stateName(), "f0");
    n.stimulate(Stimulus::Time);
    n.stimulate(Stimulus::Time);
    EXPECT_EQ(n.stateName(), "f2");
    n.stimulate(Stimulus::Time);
    EXPECT_TRUE(n.resting());
}

TEST(NeuronFsm, RefractoryIgnoresSpikes)
{
    NeuronFsm n(1, 2, 1);
    n.stimulate(Stimulus::Spike); // b1 = threshold
    n.stimulate(Stimulus::Time);  // r0
    const int before = n.linearState();
    n.stimulate(Stimulus::Spike); // ignored
    EXPECT_EQ(n.linearState(), before);
}

TEST(NeuronFsm, SaturatesAtThreshold)
{
    NeuronFsm n(2, 1, 1);
    for (int i = 0; i < 10; ++i)
        n.stimulate(Stimulus::Spike);
    EXPECT_EQ(n.stateName(), "b2");
}

TEST(NeuronFsm, LinearStateIsInjective)
{
    NeuronFsm n(3, 2, 2);
    std::vector<int> seen;
    seen.push_back(n.linearState());
    // Walk the full trajectory and confirm distinct linear indices.
    for (int i = 0; i < 3; ++i)
        n.stimulate(Stimulus::Spike);
    seen.push_back(n.linearState());
    // Six time stimuli traverse r0..r2 and f0..f2 without returning
    // to the (already-seen) resting state.
    for (int i = 0; i < 6; ++i) {
        n.stimulate(Stimulus::Time);
        seen.push_back(n.linearState());
    }
    std::sort(seen.begin(), seen.end());
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_NE(seen[i], seen[i - 1]);
}

TEST(NeuronFsm, StateBudgetMatchesPaperClaim)
{
    // Sec. 4.1.2: ~500 states suffice; a 10-SC NPE offers 1024.
    const int budget = neuronStateBudget(255, 128, 112);
    EXPECT_LE(budget, 500);
    Npe npe(10);
    EXPECT_GE(npe.numStates(), 500u);
    EXPECT_GE(npe.numStates(),
              static_cast<std::uint64_t>(budget));
}

} // namespace
} // namespace sushi::npe
