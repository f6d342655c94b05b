/**
 * @file
 * Determinism property tests for the compiled simulation core.
 *
 * The simulator's contract is reproducibility: the same netlist and
 * stimulus must produce a byte-identical pulse trace on every run —
 * across fresh simulator instances, across violation policies that
 * observe (rather than alter) the pulse stream, under seeded faults
 * and marginal timing, after a snapshot reset, and on a replica
 * simulator over a shared structure. This pins the calendar queue's
 * equal-tick tie-break and the compiled core's delivery order, which
 * golden-waveform comparisons and the fault campaign's seeded trials
 * all build on.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "npe/npe.hh"
#include "sfq/compiled_netlist.hh"
#include "sfq/constraints.hh"
#include "sfq/fault_model.hh"
#include "sfq/netlist.hh"
#include "sfq/simulator.hh"

namespace sushi {
namespace {

struct NpeRun
{
    std::vector<Tick> out_trace;
    std::uint64_t events = 0;
    std::uint64_t pulses = 0;
    std::uint64_t violations = 0;
    std::uint64_t value = 0;
    double energy_j = 0.0;
};

/** Drive a gate-level NPE with @p pulses spaced @p gap apart. */
NpeRun
runNpe(sfq::ViolationPolicy policy, int pulses, Tick gap)
{
    sfq::Simulator sim;
    sim.setViolationPolicy(policy);
    sfq::Netlist net(sim);
    npe::NpeGate gate(net, "npe", 6);
    gate.injectSet1(gap);
    for (int i = 0; i < pulses; ++i)
        gate.injectIn((i + 2) * gap);
    sim.run();

    NpeRun r;
    r.out_trace = gate.outSink().pulsesSeen();
    r.events = sim.eventsExecuted();
    r.pulses = sim.pulses();
    r.violations = sim.violations();
    r.value = gate.value();
    r.energy_j = sim.switchEnergy();
    return r;
}

TEST(Determinism, FreshSimulatorsProduceIdenticalTraces)
{
    const Tick gap = sfq::safePulseSpacing();
    const NpeRun a = runNpe(sfq::ViolationPolicy::Warn, 200, gap);
    const NpeRun b = runNpe(sfq::ViolationPolicy::Warn, 200, gap);

    EXPECT_FALSE(a.out_trace.empty());
    EXPECT_EQ(a.out_trace, b.out_trace); // byte-identical pulse trace
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.pulses, b.pulses);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.energy_j, b.energy_j);
}

TEST(Determinism, ObservingPoliciesDoNotPerturbTheTrace)
{
    // A spacing tight enough to trip hold/separation constraints:
    // Ignore and Warn both let every pulse through, so the resulting
    // trace and counters must be identical — reporting must never
    // change what is simulated.
    const Tick gap = psToTicks(30.0);
    const NpeRun ign =
        runNpe(sfq::ViolationPolicy::Ignore, 20, gap);
    const NpeRun warn =
        runNpe(sfq::ViolationPolicy::Warn, 20, gap);

    EXPECT_GT(ign.violations, 0u); // the stimulus really is marginal
    EXPECT_EQ(ign.out_trace, warn.out_trace);
    EXPECT_EQ(ign.events, warn.events);
    EXPECT_EQ(ign.pulses, warn.pulses);
    EXPECT_EQ(ign.violations, warn.violations);
    EXPECT_EQ(ign.value, warn.value);
    EXPECT_EQ(ign.energy_j, warn.energy_j);
}

// ---------------------------------------------------------------
// Multi-gate rigs: faults, marginal timing, reset, replicas
// ---------------------------------------------------------------

constexpr int kNumSc = 5;

/** Everything observable about one run, for byte-comparisons. */
struct RunRecord
{
    std::vector<std::vector<Tick>> traces; // per gate
    std::vector<std::uint64_t> values;     // per gate
    std::uint64_t events = 0;
    std::uint64_t pulses = 0;
    std::uint64_t violations = 0;
    std::uint64_t recovered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t inserted = 0;
    double energy_j = 0.0;
    std::string last_violation;

    bool operator==(const RunRecord &o) const
    {
        return traces == o.traces && values == o.values &&
               events == o.events && pulses == o.pulses &&
               violations == o.violations &&
               recovered == o.recovered && dropped == o.dropped &&
               inserted == o.inserted && energy_j == o.energy_j &&
               last_violation == o.last_violation;
    }
};

/** A rig of @p num_gates independent gate-level NPE counters with a
 *  staggered pulse stimulus (gates diverge, ties still happen). */
struct Rig
{
    sfq::Simulator sim;
    sfq::Netlist net{sim};
    std::vector<std::unique_ptr<npe::NpeGate>> gates;

    explicit Rig(int num_gates,
                 sfq::ViolationPolicy policy =
                     sfq::ViolationPolicy::Warn)
    {
        sim.setViolationPolicy(policy);
        for (int g = 0; g < num_gates; ++g)
            gates.push_back(std::make_unique<npe::NpeGate>(
                net, "npe" + std::to_string(g), kNumSc));
    }

    void inject(int pulses, Tick gap)
    {
        for (std::size_t g = 0; g < gates.size(); ++g) {
            gates[g]->injectSet1(gap);
            for (int i = 0; i < pulses + static_cast<int>(g); ++i)
                gates[g]->injectIn((i + 2) * gap +
                                   static_cast<Tick>((g % 2) * 17));
        }
    }

    RunRecord record() const
    {
        RunRecord r;
        for (const auto &gate : gates) {
            r.traces.push_back(gate->outSink().pulsesSeen());
            r.values.push_back(gate->value());
        }
        r.events = sim.eventsExecuted();
        r.pulses = sim.pulses();
        r.violations = sim.violations();
        r.recovered = sim.recoveredPulses();
        r.dropped = sim.faults().counters().dropped;
        r.inserted = sim.faults().counters().inserted;
        r.energy_j = sim.switchEnergy();
        r.last_violation = sim.lastViolation();
        return r;
    }
};

/** Two NPEs under Recover at a spacing tight enough to trip
 *  constraints. */
RunRecord
runMarginal()
{
    Rig rig(2, sfq::ViolationPolicy::Recover);
    rig.inject(25, psToTicks(30.0));
    rig.sim.run();
    return rig.record();
}

TEST(Determinism, MarginalTimingRecoverIsRepeatable)
{
    // The violation and recovered-pulse counts and the last report
    // are as reproducible as the trace.
    const RunRecord a = runMarginal();
    EXPECT_GT(a.violations, 0u);
    EXPECT_GT(a.recovered, 0u);
    EXPECT_FALSE(a.last_violation.empty());
    EXPECT_TRUE(a == runMarginal());
}

/** Four NPEs with one seeded fault spec of @p kind at @p rate. */
RunRecord
runFaulty(sfq::FaultKind kind, double rate)
{
    Rig rig(4, sfq::ViolationPolicy::Recover);
    rig.sim.faults().reseed(0xfeedULL);
    sfq::FaultSpec spec;
    spec.kind = kind;
    spec.rate = rate;
    rig.sim.faults().addFault(spec);
    rig.inject(60, sfq::safePulseSpacing());
    rig.sim.run();
    return rig.record();
}

TEST(Determinism, DropAndSpuriousFaultsAreRepeatable)
{
    for (sfq::FaultKind kind : {sfq::FaultKind::PulseDrop,
                                sfq::FaultKind::SpuriousPulse}) {
        const RunRecord a = runFaulty(kind, 0.05);
        EXPECT_GT(a.dropped + a.inserted, 0u);
        EXPECT_TRUE(a == runFaulty(kind, 0.05))
            << "kind=" << static_cast<int>(kind);
    }
}

TEST(Determinism, FatalFaultAttributionIsRepeatable)
{
    auto capture = [] {
        Rig rig(3, sfq::ViolationPolicy::Fatal);
        rig.inject(25, psToTicks(30.0)); // marginal: trips constraints
        std::string cell, constraint;
        Tick prev = kTickNever, at = kTickNever;
        try {
            rig.sim.run();
            ADD_FAILURE() << "expected a TimingFault";
        } catch (const sfq::TimingFault &tf) {
            cell = tf.cell();
            constraint = tf.constraint();
            prev = tf.prevPulse();
            at = tf.violatingPulse();
        }
        return std::make_tuple(cell, constraint, prev, at);
    };
    const auto a = capture();
    EXPECT_FALSE(std::get<0>(a).empty());
    EXPECT_NE(std::get<3>(a), kTickNever);
    EXPECT_EQ(a, capture());
}

TEST(Determinism, SnapshotResetRoundTripsExactly)
{
    const Tick gap = sfq::safePulseSpacing();
    Rig rig(2);
    rig.inject(50, gap);
    rig.sim.run();
    const RunRecord first = rig.record();

    rig.sim.reset();
    EXPECT_EQ(rig.sim.pulses(), 0u);
    EXPECT_EQ(rig.sim.switchEnergy(), 0.0);
    EXPECT_TRUE(rig.gates[0]->outSink().pulsesSeen().empty());

    rig.inject(50, gap);
    rig.sim.run();
    const RunRecord second = rig.record();
    EXPECT_EQ(first.traces, second.traces);
    EXPECT_EQ(first.values, second.values);
    EXPECT_EQ(first.pulses, second.pulses);
    EXPECT_EQ(first.energy_j, second.energy_j);
}

TEST(Determinism, SharedStructureReplicasMatchTheMaster)
{
    const Tick gap = sfq::safePulseSpacing();
    Rig master(1);
    master.inject(40, gap);
    master.sim.run();

    std::shared_ptr<const sfq::NetStructure> structure =
        master.sim.core().shareStructure();
    sfq::Simulator replica(structure);
    EXPECT_EQ(replica.core().structure().get(), structure.get());

    const std::int32_t in = replica.core().cellId("npe0.in");
    const std::int32_t set1 = replica.core().cellId("npe0.set1");
    const std::int32_t out = replica.core().cellId("npe0.out");
    ASSERT_GE(in, 0);
    ASSERT_GE(set1, 0);
    ASSERT_GE(out, 0);
    replica.schedulePulse(gap, set1, 0);
    for (int i = 0; i < 40; ++i)
        replica.schedulePulse((i + 2) * gap, in, 0);
    replica.run();

    EXPECT_EQ(replica.core().trace(out),
              master.gates[0]->outSink().pulsesSeen());
    EXPECT_EQ(replica.pulses(), master.sim.pulses());
    EXPECT_EQ(replica.switchEnergy(), master.sim.switchEnergy());
}

} // namespace
} // namespace sushi
