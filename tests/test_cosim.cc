/**
 * @file
 * Behavioural/gate co-simulation equivalence harness.
 *
 * The behavioural models (npe::Npe, npe::NeuronFsm,
 * chip::SushiChip::stepLayer) are the fast path used for whole-network
 * inference and by the batched engine; the gate-level models
 * (npe::NpeGate, chip::GateChip) are the circuit-true SFQ netlists.
 * This suite drives both sides with identical pulse programs —
 * well over 100 randomized cases — and requires spike-for-spike
 * agreement under ViolationPolicy::Fatal, so any Table-1 timing
 * violation aborts the test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "chip/gate_sim.hh"
#include "chip/sushi_chip.hh"
#include "common/rng.hh"
#include "compiler/pulse_encoder.hh"
#include "npe/neuron_fsm.hh"
#include "npe/npe.hh"
#include "sfq/cells.hh"
#include "sfq/constraints.hh"
#include "sfq/simulator.hh"

namespace sushi {
namespace {

/**
 * 100 randomized multi-burst counter programs: random chain length,
 * random preload, polarity flips between bursts, spike counts checked
 * after every burst (not just at the end).
 */
TEST(CosimNpe, RandomMultiBurstPrograms)
{
    Rng rng(1234);
    for (int trial = 0; trial < 100; ++trial) {
        const int k = 3 + static_cast<int>(rng.below(5)); // K in 3..7
        sfq::Simulator sim;
        sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
        sfq::Netlist netlist(sim);
        npe::NpeGate gate(netlist, "npe", k);
        npe::Npe ref(k);

        const Tick gap = sfq::safePulseSpacing();
        Tick t = gap;

        gate.injectRst(t);
        ref.rst();
        t += gap;
        const std::uint64_t preload = rng.below(ref.numStates());
        for (int b = 0; b < k; ++b) {
            if (preload & (std::uint64_t{1} << b)) {
                gate.injectWrite(b, t);
                t += gap;
            }
        }
        ref.write(preload);

        std::uint64_t ref_spikes = 0;
        const int bursts = 2 + static_cast<int>(rng.below(3));
        for (int burst = 0; burst < bursts; ++burst) {
            // Each burst re-arms the polarity — this is exactly how
            // the chip switches between excitatory and inhibitory
            // weight groups mid-accumulation (Sec. 4.2.1).
            if (rng.chance(0.5)) {
                gate.injectSet1(t);
                ref.setPolarity(npe::Polarity::Excitatory);
            } else {
                gate.injectSet0(t);
                ref.setPolarity(npe::Polarity::Inhibitory);
            }
            t += gap;
            const int pulses = static_cast<int>(rng.below(26));
            for (int i = 0; i < pulses; ++i) {
                gate.injectIn(t);
                ref_spikes += ref.in() ? 1 : 0;
                t += gap;
            }
            // Spike-for-spike agreement at every burst boundary.
            // Draining advances simulator time past the injection
            // cursor (ripple/propagation delays), so resume injecting
            // after now().
            sim.run();
            t = std::max(t, sim.now() + gap);
            ASSERT_EQ(gate.outSink().count(), ref_spikes)
                << "trial " << trial << " burst " << burst;
        }
        EXPECT_EQ(gate.value(), ref.value()) << "trial " << trial;
        EXPECT_EQ(gate.states(), ref.states()) << "trial " << trial;
        EXPECT_EQ(sim.violations(), 0u) << "trial " << trial;
    }
}

/**
 * The rst channel reads the counter out destructively on both sides:
 * one read pulse per set bit, then a cleared chain.
 */
TEST(CosimNpe, RandomReadoutPrograms)
{
    Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        const int k = 4;
        sfq::Simulator sim;
        sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
        sfq::Netlist netlist(sim);
        npe::NpeGate gate(netlist, "npe", k);
        npe::Npe ref(k);

        const Tick gap = sfq::safePulseSpacing();
        Tick t = gap;
        gate.injectSet1(t);
        ref.setPolarity(npe::Polarity::Excitatory);
        t += gap;
        const int pulses = static_cast<int>(rng.below(15));
        for (int i = 0; i < pulses; ++i) {
            gate.injectIn(t);
            ref.in();
            t += gap;
        }
        const std::uint64_t before = ref.value();
        // Let the last input's carry finish rippling through the
        // chain before the destructive read.
        t += 2 * gap;
        gate.injectRst(t);
        const std::uint64_t ref_read = ref.rst();
        sim.run();

        EXPECT_EQ(ref_read, before) << "trial " << trial;
        std::uint64_t gate_read = 0;
        for (int b = 0; b < k; ++b)
            gate_read |= gate.readSink(b).count() > 0
                             ? std::uint64_t{1} << b
                             : 0;
        EXPECT_EQ(gate_read, before) << "trial " << trial;
        EXPECT_EQ(gate.value(), 0u) << "trial " << trial;
        EXPECT_EQ(sim.violations(), 0u);
    }
}

/**
 * 20 randomized neuron trajectories: the Fig. 6/7 FSM's linearised
 * state is tracked on a gate-level NPE by translating each state
 * transition into the corresponding delta of counter pulses
 * (Sec. 4.1.2 — "state index maps to an NPE counter value").
 */
TEST(CosimNeuronFsm, LinearStateTrackedOnGateNpe)
{
    Rng rng(4321);
    for (int trial = 0; trial < 20; ++trial) {
        const int threshold = 2 + static_cast<int>(rng.below(3));
        const int rising = 1 + static_cast<int>(rng.below(3));
        const int falling = 1 + static_cast<int>(rng.below(3));
        npe::NeuronFsm fsm(threshold, rising, falling);

        // A chain wide enough that the trajectory never wraps.
        int k = 1;
        while ((1 << k) < fsm.numStates())
            ++k;
        sfq::Simulator sim;
        sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
        sfq::Netlist netlist(sim);
        npe::NpeGate gate(netlist, "neuron", k);

        const Tick gap = sfq::safePulseSpacing();
        Tick t = gap;
        gate.injectRst(t); // start at b0 = counter 0
        t += gap;

        int armed = 0; // 0 = none, +1 = up, -1 = down
        int expected = 0;
        for (int op = 0; op < 40; ++op) {
            const auto s = rng.chance(0.5) ? npe::Stimulus::Spike
                                           : npe::Stimulus::Time;
            const int before = fsm.linearState();
            fsm.stimulate(s);
            const int delta = fsm.linearState() - before;
            if (delta == 0)
                continue; // saturation/refractory: no pulses
            const int dir = delta > 0 ? 1 : -1;
            if (dir != armed) {
                // Let in-flight ripples drain and the re-arm pulse
                // reach every SC through its splitter tree before the
                // next input (the distribution skew would otherwise
                // mix polarities mid-ripple).
                t += static_cast<Tick>(k + 2) * gap;
                if (dir > 0)
                    gate.injectSet1(t);
                else
                    gate.injectSet0(t);
                armed = dir;
                t += static_cast<Tick>(k + 2) * gap;
            }
            for (int i = 0; i < std::abs(delta); ++i) {
                gate.injectIn(t);
                t += gap;
            }
            expected += delta;
        }
        sim.run();
        ASSERT_EQ(expected, fsm.linearState());
        EXPECT_EQ(gate.value(),
                  static_cast<std::uint64_t>(fsm.linearState()))
            << "trial " << trial << " state " << fsm.stateName();
        // The trajectory stays within the chain: no wrap spikes.
        EXPECT_EQ(gate.outSink().count(), 0u) << "trial " << trial;
        EXPECT_EQ(sim.violations(), 0u);
    }
}

/**
 * Randomized single-layer networks: the compiler's encoded pulse
 * program, executed open-loop on the gate-level chip, reproduces the
 * behavioural chip's per-step spike counts exactly (mesh sizes 1-3,
 * three random nets each).
 */
class LayerCosim
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(LayerCosim, GateChipMatchesBehaviouralStepLayer)
{
    const int n = std::get<0>(GetParam());
    const int variant = std::get<1>(GetParam());
    Rng rng(9000 + static_cast<std::uint64_t>(n * 10 + variant));

    std::vector<std::vector<std::int8_t>> weights(
        static_cast<std::size_t>(n));
    std::vector<int> thresholds(static_cast<std::size_t>(n));
    for (int o = 0; o < n; ++o) {
        for (int i = 0; i < n; ++i)
            weights[static_cast<std::size_t>(o)].push_back(
                rng.chance(0.5) ? -1 : 1);
        thresholds[static_cast<std::size_t>(o)] =
            1 + static_cast<int>(rng.below(3));
    }
    const int t_steps = 3 + variant;
    snn::BinaryLayer layer;
    layer.weights = std::move(weights);
    layer.thresholds = std::move(thresholds);
    auto net = snn::BinarySnn::fromLayers({layer}, t_steps);

    compiler::ChipConfig cfg;
    cfg.n = n;
    cfg.sc_per_npe = 5;
    auto compiled = compiler::compileNetwork(net, cfg);

    std::vector<std::vector<std::uint8_t>> frames;
    for (int t = 0; t < t_steps; ++t) {
        std::vector<std::uint8_t> f(static_cast<std::size_t>(n));
        for (auto &v : f)
            v = rng.chance(0.5) ? 1 : 0;
        frames.push_back(std::move(f));
    }

    chip::SushiChip behavioural(cfg);
    std::vector<std::vector<int>> behav_steps;
    for (const auto &f : frames) {
        chip::PulseVector act(f.begin(), f.end());
        auto out = behavioural.stepLayer(compiled.layers[0],
                                         net.layers()[0], act);
        behav_steps.push_back(
            std::vector<int>(out.begin(), out.end()));
    }

    compiler::PulseProgram prog =
        compiler::encodeLayerProgram(compiled, frames);
    ASSERT_EQ(prog.validate(), "");
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
    sfq::Netlist netlist(sim);
    chip::GateChip gate(netlist, cfg);
    auto gate_steps = gate.runProgram(compiled, prog);
    EXPECT_EQ(sim.violations(), 0u);

    ASSERT_EQ(gate_steps.size(), behav_steps.size());
    for (std::size_t s = 0; s < gate_steps.size(); ++s)
        EXPECT_EQ(gate_steps[s], behav_steps[s])
            << "n=" << n << " variant " << variant << " step " << s;
}

INSTANTIATE_TEST_SUITE_P(
    RandomNets, LayerCosim,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2)));


/*
 * Gate-level outputs pinned as recorded before the event-queue
 * rewrite: event count, final time, pulse count, switching energy
 * (bit-exact via %.17g) and the per-step spike counts of eight seeded
 * 16x16 nets. Any change in event order, timing or dissipation shows
 * up here.
 */

/** What one pinned 16x16 gate-level net produced. */
struct GatePin
{
    std::uint64_t events;
    Tick now;
    std::uint64_t pulses;
    std::string energy; ///< switchEnergy() as "%.17g"
    std::string steps;  ///< per-step spike counts, "a,b,.../..."
};

/** Run seeded 16x16 net @p seed (sc_per_npe 5, T = 5) through the
 *  compiler's pulse program on a fresh GateChip. */
GatePin
runPinnedNet(std::uint64_t seed)
{
    constexpr int kN = 16;
    constexpr int kSteps = 5;
    Rng rng(0x5eed0000 + seed);
    snn::BinaryLayer layer;
    layer.weights.assign(kN, {});
    layer.thresholds.assign(kN, 0);
    for (int o = 0; o < kN; ++o) {
        for (int i = 0; i < kN; ++i)
            layer.weights[static_cast<std::size_t>(o)].push_back(
                rng.chance(0.5) ? -1 : 1);
        layer.thresholds[static_cast<std::size_t>(o)] =
            1 + static_cast<int>(rng.below(3));
    }
    const auto net = snn::BinarySnn::fromLayers({layer}, kSteps);
    std::vector<std::vector<std::uint8_t>> frames;
    for (int t = 0; t < kSteps; ++t) {
        std::vector<std::uint8_t> f(kN);
        for (auto &v : f)
            v = rng.chance(0.5) ? 1 : 0;
        frames.push_back(std::move(f));
    }
    compiler::ChipConfig cfg;
    cfg.n = kN;
    cfg.sc_per_npe = 5;
    const auto compiled = compiler::compileNetwork(net, cfg);
    const auto prog = compiler::encodeLayerProgram(compiled, frames);

    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
    sfq::Netlist netlist(sim);
    chip::GateChip gate(netlist, cfg);
    const auto steps = gate.runProgram(compiled, prog);

    GatePin pin{sim.eventsExecuted(), sim.now(), sim.pulses(), {}, {}};
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", sim.switchEnergy());
    pin.energy = buf;
    for (std::size_t s = 0; s < steps.size(); ++s) {
        if (s > 0)
            pin.steps += '/';
        for (std::size_t j = 0; j < steps[s].size(); ++j) {
            if (j > 0)
                pin.steps += ',';
            pin.steps += std::to_string(steps[s][j]);
        }
    }
    return pin;
}

const GatePin kRecordedPins[] = {
    {43585u, 364608375, 38488u, "6.1235400000000007e-14",
     "0,0,0,1,0,0,0,0,1,0,0,0,0,1,1,1/"
     "0,0,0,0,0,0,0,0,1,0,0,0,0,1,1,1/"
     "0,0,1,0,0,0,0,0,1,0,0,0,0,1,0,0/"
     "0,0,0,1,1,0,0,0,1,0,0,1,0,1,1,1/"
     "0,0,0,1,0,0,0,0,1,1,0,0,0,0,0,0"},
    {46196u, 376099575, 41035u, "6.4731600000000008e-14",
     "1,1,0,0,1,0,0,1,0,1,1,0,0,0,1,0/"
     "1,0,0,0,1,1,0,0,1,1,1,0,0,0,1,0/"
     "1,1,0,0,1,1,0,0,1,0,1,1,0,0,1,0/"
     "0,1,0,0,0,1,0,1,1,1,1,0,0,0,1,0/"
     "1,0,0,0,0,0,0,0,0,1,0,0,0,0,1,0"},
    {39644u, 347604150, 34638u, "5.6012999999999996e-14",
     "1,0,0,0,0,0,0,0,1,1,0,1,0,1,0,0/"
     "1,0,0,0,1,0,0,0,1,1,0,0,0,0,0,0/"
     "0,0,0,0,1,1,0,1,0,1,0,1,0,0,0,0/"
     "0,1,0,0,1,1,0,0,1,1,0,0,0,0,1,0/"
     "0,1,0,0,0,0,0,1,1,0,0,1,0,1,0,1"},
    {45641u, 373638900, 40491u, "6.3962599999999998e-14",
     "0,0,1,0,1,0,0,0,0,0,1,1,0,0,0,0/"
     "0,1,0,0,1,0,0,0,0,1,1,0,0,0,0,0/"
     "0,1,0,0,1,0,1,0,0,0,1,0,1,1,0,0/"
     "0,1,1,1,1,0,0,0,1,0,1,0,1,0,0,0/"
     "0,1,1,0,1,0,0,0,1,0,1,1,1,0,0,1"},
    {43822u, 364212525, 38735u, "6.15758e-14",
     "1,0,0,1,0,1,0,0,1,0,0,0,0,0,0,0/"
     "1,0,0,0,0,0,0,0,1,1,0,0,0,0,1,0/"
     "1,0,0,1,0,0,0,0,1,0,0,0,0,1,1,1/"
     "1,0,0,1,0,0,0,0,1,0,0,0,0,0,0,1/"
     "1,0,0,1,0,1,0,0,1,0,0,1,0,0,1,1"},
    {43872u, 364711275, 38775u, "6.1617400000000008e-14",
     "0,1,0,1,0,0,0,0,0,0,0,0,0,0,0,0/"
     "0,0,0,0,0,1,0,0,0,0,0,1,1,0,0,1/"
     "0,0,0,0,0,0,1,0,0,0,0,1,0,0,0,1/"
     "0,0,0,1,0,0,0,0,1,0,0,0,0,0,1,1/"
     "0,0,0,1,0,0,1,0,1,0,0,1,0,0,0,1"},
    {41123u, 352142775, 36110u, "5.7971600000000007e-14",
     "0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0/"
     "1,0,0,0,1,0,1,0,0,0,1,0,0,0,0,0/"
     "1,0,0,0,0,0,0,0,0,0,1,1,0,0,0,0/"
     "0,0,0,0,1,0,0,0,0,1,0,0,0,1,1,1/"
     "1,0,0,0,1,0,1,0,0,0,1,0,1,0,1,1"},
    {42473u, 358573500, 37413u, "5.9749599999999994e-14",
     "0,0,0,0,0,0,0,0,1,0,0,0,0,0,1,0/"
     "0,0,0,0,0,0,1,0,0,0,0,0,1,0,0,0/"
     "0,0,1,1,0,0,0,1,0,0,0,0,0,0,0,0/"
     "0,0,0,1,0,0,0,1,0,0,0,0,1,1,1,1/"
     "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"},
};

TEST(GatePins, SixteenBySixteenNetsMatchRecordedOutputs)
{
    for (std::uint64_t seed = 0; seed < std::size(kRecordedPins);
         ++seed) {
        const GatePin got = runPinnedNet(seed);
        const GatePin &want = kRecordedPins[seed];
        EXPECT_EQ(got.events, want.events) << "seed " << seed;
        EXPECT_EQ(got.now, want.now) << "seed " << seed;
        EXPECT_EQ(got.pulses, want.pulses) << "seed " << seed;
        EXPECT_EQ(got.energy, want.energy) << "seed " << seed;
        EXPECT_EQ(got.steps, want.steps) << "seed " << seed;
    }
}

/**
 * Same-tick arrivals on one cell, where the tie order decides the
 * result: sixteen NDROs get din, rst and clk pulses injected at
 * shared ticks in random insertion order. An NDRO emits on clk only
 * if din (port 0) ran before clk (port 2) at that tick, so the output
 * pulse counts record the (cell, port) order of every tie.
 */
std::string
runTieOrderNet(std::uint64_t seed)
{
    constexpr int kCells = 16;
    Rng rng(0x7135eed0 + seed);
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
    std::vector<std::unique_ptr<sfq::Ndro>> ndros;
    std::vector<std::unique_ptr<sfq::PulseSink>> sinks;
    for (int i = 0; i < kCells; ++i) {
        ndros.push_back(std::make_unique<sfq::Ndro>(
            sim, "ndro" + std::to_string(i)));
        sinks.push_back(std::make_unique<sfq::PulseSink>(
            sim, "out" + std::to_string(i)));
        ndros.back()->connect(0, *sinks.back(), 0);
    }
    const Tick gap = sfq::safePulseSpacing();
    for (int step = 1; step <= 40; ++step) {
        for (auto &ndro : ndros) {
            // A random insertion order of din, rst and clk.
            int ports[3] = {0, 1, 2};
            for (std::uint64_t k = 2; k > 0; --k)
                std::swap(ports[k], ports[rng.below(k + 1)]);
            for (int p : ports)
                if (rng.chance(0.6))
                    ndro->inject(p, step * gap);
        }
    }
    sim.run();
    std::string out;
    for (const auto &sink : sinks)
        out += std::to_string(sink->count()) + ",";
    return out;
}

/** Per-NDRO output counts of runTieOrderNet, recorded with the pins
 *  above. The 16x16 nets never tie two ports of one cell at one
 *  tick, so this is the case that fixes the within-cell tie order. */
const char *const kRecordedTieOrder[] = {
    "8,3,7,5,9,14,6,11,4,6,5,10,7,2,12,14,",
    "5,8,5,6,8,1,15,8,10,9,7,7,3,3,5,8,",
    "5,6,5,7,3,4,5,8,4,4,10,8,8,3,6,4,",
    "8,7,8,7,5,1,11,10,6,7,7,6,8,6,11,4,",
};

TEST(GatePins, SameTickPortTiesMatchRecordedOutputs)
{
    for (std::uint64_t seed = 0; seed < std::size(kRecordedTieOrder);
         ++seed)
        EXPECT_EQ(runTieOrderNet(seed), kRecordedTieOrder[seed])
            << "seed " << seed;
}

/** A 2x2 single-layer net with thresholds {@p theta, 1} and its
 *  program (none for theta <= 0). */
struct SmallNet
{
    snn::BinarySnn net;
    compiler::CompiledNetwork compiled;
    std::vector<std::vector<std::uint8_t>> frames;
    compiler::PulseProgram prog;
};

std::unique_ptr<SmallNet>
smallNet(int theta)
{
    auto s = std::make_unique<SmallNet>();
    snn::BinaryLayer layer;
    layer.weights = {{1, -1}, {1, 1}};
    layer.thresholds = {theta, 1};
    s->net = snn::BinarySnn::fromLayers({layer}, 2);
    compiler::ChipConfig cfg;
    cfg.n = 2;
    cfg.sc_per_npe = 5;
    s->compiled = compiler::compileNetwork(s->net, cfg);
    s->frames = {{1, 1}, {1, 0}};
    // A threshold <= 0 has no program: the encoder rejects its bias
    // pulses.
    if (theta >= 1)
        s->prog = compiler::encodeLayerProgram(s->compiled, s->frames);
    return s;
}

/** Bad caller input throws std::invalid_argument and leaves the chip
 *  able to run a good net to the behavioural answer. */
TEST(GateChipInput, BadShapesThrowAndTheChipStillRuns)
{
    compiler::ChipConfig cfg;
    cfg.n = 2;
    cfg.sc_per_npe = 5;
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
    sfq::Netlist netlist(sim);
    chip::GateChip gate(netlist, cfg);
    const auto good = smallNet(1);

    // Too wide for the mesh.
    snn::BinaryLayer wide;
    wide.weights.assign(3, std::vector<std::int8_t>(3, 1));
    wide.thresholds.assign(3, 1);
    const auto wide_net = snn::BinarySnn::fromLayers({wide}, 1);
    compiler::ChipConfig big = cfg;
    big.n = 3;
    const auto wide_c = compiler::compileNetwork(wide_net, big);
    EXPECT_THROW(gate.run(wide_c, {{1, 1, 1}}), std::invalid_argument);
    EXPECT_THROW(gate.runProgram(wide_c, good->prog),
                 std::invalid_argument);

    // Not a compiled single layer.
    compiler::CompiledNetwork empty;
    EXPECT_THROW(gate.run(empty, good->frames), std::invalid_argument);
    EXPECT_THROW(gate.runProgram(empty, good->prog),
                 std::invalid_argument);

    // Frame width.
    EXPECT_THROW(gate.run(good->compiled, {{1, 1}, {1}}),
                 std::invalid_argument);

    // Bias pulses (threshold <= 0).
    const auto biased = smallNet(0);
    ASSERT_GT(biased->compiled.layers[0].bias_pulses[0], 0);
    EXPECT_THROW(gate.run(biased->compiled, biased->frames),
                 std::invalid_argument);

    // Program operands: strength, NPE, SC and synapse ranges, and a
    // date before now().
    auto bad = [&](auto mutate) {
        compiler::PulseProgram p = good->prog;
        mutate(p);
        EXPECT_THROW(gate.runProgram(good->compiled, p),
                     std::invalid_argument);
    };
    using compiler::Channel;
    auto first = [](compiler::PulseProgram &p, Channel ch) -> auto & {
        for (auto &op : p.ops)
            if (op.channel == ch)
                return op;
        throw std::logic_error("program lacks the channel");
    };
    bad([&](auto &p) { first(p, Channel::SynStrength).c = 2; });
    bad([&](auto &p) { first(p, Channel::Input).a = 2; });
    bad([&](auto &p) { first(p, Channel::OutRst).a = -1; });
    bad([&](auto &p) { first(p, Channel::OutWrite).b = 5; });
    bad([&](auto &p) { first(p, Channel::SynRst).b = 2; });
    bad([&](auto &p) { p.ops.back().at = -1; });
    EXPECT_TRUE(sim.idle());
    EXPECT_EQ(sim.eventsExecuted(), 0u);

    // The same chip still runs a good net correctly.
    chip::SushiChip behavioural(cfg);
    std::vector<std::vector<int>> want;
    for (const auto &f : good->frames) {
        const auto out = behavioural.stepLayer(
            good->compiled.layers[0], good->net.layers()[0],
            chip::PulseVector(f.begin(), f.end()));
        want.emplace_back(out.begin(), out.end());
    }
    EXPECT_EQ(gate.runProgram(good->compiled, good->prog), want);
    EXPECT_EQ(sim.violations(), 0u);
}

} // namespace
} // namespace sushi
