/**
 * @file
 * Tests for the pulse-program IR and the encoder (Fig. 12(c)-(f)):
 * well-formedness, Sec. 5.2 ordering validation, and open-loop
 * program execution matching the behavioural chip at gate level.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "chip/gate_sim.hh"
#include "chip/sushi_chip.hh"
#include "common/rng.hh"
#include "compiler/pulse_encoder.hh"

namespace sushi::compiler {
namespace {

snn::BinarySnn
handNet(std::vector<std::vector<std::int8_t>> weights,
        std::vector<int> thresholds, int t_steps)
{
    snn::BinaryLayer layer;
    layer.weights = std::move(weights);
    layer.thresholds = std::move(thresholds);
    return snn::BinarySnn::fromLayers({layer}, t_steps);
}

TEST(PulseProgram, ChannelNames)
{
    EXPECT_STREQ(channelName(Channel::Input), "input");
    EXPECT_STREQ(channelName(Channel::SynStrength), "syn.strength");
}

TEST(PulseProgram, ValidateDetectsUnsorted)
{
    PulseProgram prog;
    prog.ops.push_back(PulseOp{100, Channel::OutRst, 0});
    prog.ops.push_back(PulseOp{50, Channel::OutRst, 0});
    EXPECT_NE(prog.validate().find("not sorted"), std::string::npos);
}

TEST(PulseProgram, ValidateDetectsWriteWithoutRst)
{
    PulseProgram prog;
    prog.ops.push_back(PulseOp{10, Channel::OutWrite, 0, 1});
    EXPECT_NE(prog.validate().find("without rst"),
              std::string::npos);
}

TEST(PulseProgram, ValidateDetectsInputBeforeSet)
{
    PulseProgram prog;
    prog.ops.push_back(PulseOp{10, Channel::InRst, 0});
    prog.ops.push_back(PulseOp{20, Channel::Input, 0});
    EXPECT_NE(prog.validate().find("before set"), std::string::npos);
}

TEST(PulseProgram, WindowQueries)
{
    PulseProgram prog;
    prog.ops.push_back(PulseOp{10, Channel::OutRst, 0});
    prog.ops.push_back(PulseOp{20, Channel::OutSet1, 0});
    prog.ops.push_back(PulseOp{30, Channel::InSet1, 0});
    EXPECT_EQ(prog.opsInWindow(15, 30).size(), 1u);
    EXPECT_EQ(prog.endTime(), 30);
}

TEST(PulseEncoder, ProgramIsValid)
{
    auto net = handNet({{1, -1}, {1, 1}}, {1, 2}, 3);
    ChipConfig cfg;
    cfg.n = 2;
    cfg.sc_per_npe = 4;
    auto compiled = compileNetwork(net, cfg);
    std::vector<std::vector<std::uint8_t>> frames = {
        {1, 0}, {1, 1}, {0, 1}};
    PulseProgram prog = encodeLayerProgram(compiled, frames);
    EXPECT_EQ(prog.validate(), "");
    EXPECT_EQ(prog.step_bounds.size(), 4u);
    EXPECT_GT(prog.totalPulses(), 0);
    // Dump contains the weight and input streams.
    const std::string text = prog.dump();
    EXPECT_NE(text.find("syn.strength"), std::string::npos);
    EXPECT_NE(text.find("input"), std::string::npos);
}

TEST(PulseEncoder, OpsRespectSafeSpacing)
{
    auto net = handNet({{1}}, {1}, 2);
    ChipConfig cfg;
    cfg.n = 1;
    cfg.sc_per_npe = 3;
    auto compiled = compileNetwork(net, cfg);
    PulseProgram prog =
        encodeLayerProgram(compiled, {{1}, {1}});
    const Tick gap = sfq::safePulseSpacing();
    for (std::size_t i = 1; i < prog.ops.size(); ++i)
        EXPECT_GE(prog.ops[i].at - prog.ops[i - 1].at, gap);
}

/** A 2x2 mesh with K = 4, the shape the rejection cases share. */
ChipConfig
smallMesh()
{
    ChipConfig cfg;
    cfg.n = 2;
    cfg.sc_per_npe = 4;
    return cfg;
}

TEST(PulseEncoder, RejectsNullNet)
{
    const CompiledNetwork cnet;
    EXPECT_THROW(encodeLayerProgram(cnet, {{1, 0}}),
                 std::invalid_argument);
}

TEST(PulseEncoder, RejectsMultiLayerNet)
{
    snn::BinaryLayer hidden;
    hidden.weights = {{1, -1}, {1, 1}};
    hidden.thresholds = {1, 1};
    snn::BinaryLayer out;
    out.weights = {{1, 1}};
    out.thresholds = {1};
    const auto net = snn::BinarySnn::fromLayers({hidden, out}, 2);
    const auto compiled = compileNetwork(net, smallMesh());
    EXPECT_THROW(encodeLayerProgram(compiled, {{1, 0}}),
                 std::invalid_argument);
}

TEST(PulseEncoder, RejectsLayerWiderThanMesh)
{
    const auto wide_in = handNet({{1, -1, 1}, {1, 1, -1}}, {1, 1}, 2);
    const auto compiled_in = compileNetwork(wide_in, smallMesh());
    EXPECT_THROW(encodeLayerProgram(compiled_in, {{1, 0, 1}}),
                 std::invalid_argument);
    const auto wide_out = handNet({{1, -1}, {1, 1}, {-1, 1}},
                                  {1, 1, 1}, 2);
    const auto compiled_out = compileNetwork(wide_out, smallMesh());
    EXPECT_THROW(encodeLayerProgram(compiled_out, {{1, 0}}),
                 std::invalid_argument);
}

TEST(PulseEncoder, RejectsFrameOfWrongWidth)
{
    const auto net = handNet({{1, -1}, {1, 1}}, {1, 2}, 2);
    const auto compiled = compileNetwork(net, smallMesh());
    EXPECT_THROW(encodeLayerProgram(compiled, {{1, 0}, {1}}),
                 std::invalid_argument);
    EXPECT_THROW(encodeLayerProgram(compiled, {{1, 0, 1}}),
                 std::invalid_argument);
}

TEST(PulseEncoder, RejectsBiasPulses)
{
    // A threshold <= 0 compiles to excitatory bias pulses, which the
    // encoded protocol has no stream for: the program would disagree
    // with stepLayer instead of failing.
    const auto net = handNet({{1, -1}, {1, 1}}, {0, 1}, 2);
    const auto compiled = compileNetwork(net, smallMesh());
    ASSERT_GT(compiled.layers[0].bias_pulses[0], 0);
    EXPECT_THROW(encodeLayerProgram(compiled, {{0, 0}, {1, 0}}),
                 std::invalid_argument);
}

/** Open-loop program execution == behavioural chip, 1x1 and 2x2. */
class ProgramCosim : public ::testing::TestWithParam<int>
{
};

TEST_P(ProgramCosim, MatchesBehaviouralChip)
{
    const int n = GetParam();
    Rng rng(2024 + static_cast<std::uint64_t>(n));
    // Random binary single-layer net sized to the mesh.
    std::vector<std::vector<std::int8_t>> weights(
        static_cast<std::size_t>(n));
    std::vector<int> thresholds(static_cast<std::size_t>(n));
    for (int o = 0; o < n; ++o) {
        for (int i = 0; i < n; ++i)
            weights[static_cast<std::size_t>(o)].push_back(
                rng.chance(0.4) ? -1 : 1);
        thresholds[static_cast<std::size_t>(o)] =
            1 + static_cast<int>(rng.below(2));
    }
    auto net = handNet(weights, thresholds, 4);

    ChipConfig cfg;
    cfg.n = n;
    cfg.sc_per_npe = 5;
    auto compiled = compileNetwork(net, cfg);

    std::vector<std::vector<std::uint8_t>> frames;
    for (int t = 0; t < 4; ++t) {
        std::vector<std::uint8_t> f(static_cast<std::size_t>(n));
        for (auto &v : f)
            v = rng.chance(0.6) ? 1 : 0;
        frames.push_back(std::move(f));
    }

    // Behavioural reference.
    chip::SushiChip behavioural(cfg);
    std::vector<std::vector<int>> behav_steps;
    for (const auto &f : frames) {
        chip::PulseVector act(f.begin(), f.end());
        auto out = behavioural.stepLayer(compiled.layers[0],
                                         net.layers()[0], act);
        behav_steps.push_back(
            std::vector<int>(out.begin(), out.end()));
    }

    // Encoded program applied open-loop at gate level.
    PulseProgram prog = encodeLayerProgram(compiled, frames);
    ASSERT_EQ(prog.validate(), "");
    sfq::Simulator sim;
    // Encoded programs honour every Table-1 constraint: run with the
    // Fatal policy so any violation aborts the test.
    sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
    sfq::Netlist netlist(sim);
    chip::GateChip gate(netlist, cfg);
    auto gate_steps = gate.runProgram(compiled, prog);
    EXPECT_EQ(sim.violations(), 0u);

    ASSERT_EQ(gate_steps.size(), behav_steps.size());
    for (std::size_t s = 0; s < gate_steps.size(); ++s)
        EXPECT_EQ(gate_steps[s], behav_steps[s])
            << "n=" << n << " step " << s;
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, ProgramCosim,
                         ::testing::Values(1, 2, 3));

} // namespace
} // namespace sushi::compiler
