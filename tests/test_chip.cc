/**
 * @file
 * Tests for the SUSHI chip models: behavioural execution agrees with
 * the software BinarySnn, batched pulse delivery is bit-exact with
 * per-pulse delivery, the sampler decodes labels correctly, and the
 * gate-level chip matches the behavioural chip (the Sec. 6.2
 * chip-vs-simulation validation).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "chip/gate_sim.hh"
#include "chip/sampler.hh"
#include "chip/sushi_chip.hh"
#include "common/rng.hh"
#include "compiler/budget.hh"
#include "snn/encoder.hh"

#include "test_util.hh"

namespace sushi::chip {
namespace {

using namespace testutil;

std::vector<std::vector<std::uint8_t>>
randomFrames(std::size_t dim, int t_steps, double density,
             std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<std::uint8_t>> frames;
    for (int t = 0; t < t_steps; ++t) {
        std::vector<std::uint8_t> f(dim);
        for (auto &b : f)
            b = rng.chance(density) ? 1 : 0;
        frames.push_back(std::move(f));
    }
    return frames;
}

TEST(NpeBatch, AddPulsesMatchesRepeatedIn)
{
    Rng rng(31);
    for (int trial = 0; trial < 50; ++trial) {
        const int k = 3 + static_cast<int>(rng.below(6));
        npe::Npe a(k), b(k);
        const auto preload = rng.below(1u << k);
        a.rst();
        b.rst();
        a.write(preload);
        b.write(preload);
        const bool up = rng.chance(0.5);
        a.setPolarity(up ? npe::Polarity::Excitatory
                         : npe::Polarity::Inhibitory);
        b.setPolarity(up ? npe::Polarity::Excitatory
                         : npe::Polarity::Inhibitory);
        const auto count = rng.below(200);
        std::uint64_t slow_spikes = 0;
        for (std::uint64_t i = 0; i < count; ++i)
            slow_spikes += a.in() ? 1 : 0;
        const std::uint64_t fast_spikes = b.addPulses(count);
        EXPECT_EQ(fast_spikes, slow_spikes) << "trial " << trial;
        EXPECT_EQ(a.value(), b.value()) << "trial " << trial;
    }
}

TEST(BehaviouralChip, MatchesBinarySnn)
{
    // With a 10-bit state budget (huge headroom) the chip must agree
    // with the software model exactly.
    auto net = tinyNet(24, 10, 4, 4, 41);
    compiler::ChipConfig chip_cfg;
    chip_cfg.n = 8;
    chip_cfg.sc_per_npe = 10;
    auto compiled = compiler::compileNetwork(net, chip_cfg);
    SushiChip chip(chip_cfg);

    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        auto frames = randomFrames(24, 4, 0.4, 100 + seed);
        const auto sw = net.forwardCounts(frames);
        const auto hw = chip.inferCounts(compiled, frames);
        ASSERT_EQ(sw.size(), hw.size());
        for (std::size_t o = 0; o < sw.size(); ++o)
            EXPECT_EQ(hw[o], sw[o]) << "seed " << seed << " o " << o;
    }
    EXPECT_EQ(chip.stats().underflow_spikes, 0u);
}

TEST(BehaviouralChip, WholeLayerBucketEqualsUnbucketed)
{
    // A bucket spanning the whole layer is exactly the unbucketed
    // inhibitory-first traversal.
    auto net = tinyNet(40, 12, 4, 3, 43);
    auto frames = randomFrames(40, 3, 0.5, 7);

    compiler::ChipConfig with;
    with.n = 8;
    with.sc_per_npe = 12;
    with.bucketing.bucketing = true;
    with.bucketing.bucket_size = 4096;

    compiler::ChipConfig without = with;
    without.bucketing.bucketing = false;

    SushiChip chip_a(with), chip_b(without);
    const auto a =
        chip_a.inferCounts(compiler::compileNetwork(net, with),
                           frames);
    const auto b =
        chip_b.inferCounts(compiler::compileNetwork(net, without),
                           frames);
    EXPECT_EQ(a, b);
}

/** A layer with alternating signs and a deep inhibitory total. */
snn::BinarySnn
alternatingNet(int in_dim, int out_dim, int theta, int t_steps)
{
    snn::BinaryLayer layer;
    layer.weights.resize(static_cast<std::size_t>(out_dim));
    layer.thresholds.assign(static_cast<std::size_t>(out_dim),
                            theta);
    for (int o = 0; o < out_dim; ++o) {
        auto &row = layer.weights[static_cast<std::size_t>(o)];
        row.resize(static_cast<std::size_t>(in_dim));
        for (int i = 0; i < in_dim; ++i)
            row[static_cast<std::size_t>(i)] = i % 2 ? 1 : -1;
    }
    return snn::BinarySnn::fromLayers({layer}, t_steps);
}

TEST(BehaviouralChip, SmallBudgetUnderflowsWithoutBucketing)
{
    // Sec. 5.1's failure mode: 60 inhibitory synapses against a
    // 64-state budget with threshold 30 leaves only 34 states of
    // headroom — the inhibitory-first traversal wraps below zero and
    // emits spurious borrow spikes. Alternating-polarity buckets
    // keep the excursion within +-4.
    auto net = alternatingNet(120, 2, 30, 2);

    compiler::ChipConfig tight;
    tight.n = 8;
    tight.sc_per_npe = 6; // 64 states only
    tight.bucketing.bucketing = false;
    tight.bucketing.reorder = false;

    compiler::ChipConfig bucketed = tight;
    bucketed.bucketing.bucketing = true;
    bucketed.bucketing.bucket_size = 8;

    // All inputs active: the worst case of the range analysis.
    std::vector<std::vector<std::uint8_t>> frames(
        2, std::vector<std::uint8_t>(120, 1));

    SushiChip chip_plain(tight), chip_bucketed(bucketed);
    chip_plain.inferCounts(compiler::compileNetwork(net, tight),
                           frames);
    chip_bucketed.inferCounts(
        compiler::compileNetwork(net, bucketed), frames);
    EXPECT_GT(chip_plain.stats().underflow_spikes, 0u);
    EXPECT_EQ(chip_bucketed.stats().underflow_spikes, 0u);
}

TEST(BehaviouralChip, RangeAnalysisPredictsUnderflow)
{
    // The compile-time range report must agree with what actually
    // happens on the chip for the all-active worst case.
    auto net = alternatingNet(120, 2, 30, 1);
    compiler::ChipConfig tight;
    tight.n = 8;
    tight.sc_per_npe = 6;
    tight.bucketing.bucketing = false;
    tight.bucketing.reorder = false;
    auto compiled = compiler::compileNetwork(net, tight);
    EXPECT_FALSE(compiled.layers[0].range.fitsUnbucketed());

    compiler::ChipConfig bucketed = tight;
    bucketed.bucketing.bucketing = true;
    bucketed.bucketing.bucket_size = 8;
    auto compiled_b = compiler::compileNetwork(net, bucketed);
    EXPECT_TRUE(compiled_b.layers[0].range.fits());
}

TEST(BehaviouralChip, StatsAccumulate)
{
    auto net = tinyNet(16, 8, 4, 3, 53);
    compiler::ChipConfig cfg;
    cfg.n = 4;
    auto compiled = compiler::compileNetwork(net, cfg);
    SushiChip chip(cfg);
    auto frames = randomFrames(16, 3, 0.5, 3);
    chip.inferCounts(compiled, frames);
    EXPECT_EQ(chip.stats().frames, 1u);
    EXPECT_EQ(chip.stats().time_steps, 3u);
    EXPECT_GT(chip.stats().synaptic_ops, 0u);
    EXPECT_GT(chip.stats().est_time_ps, 0.0);
    EXPECT_GT(chip.stats().dynamic_energy_j, 0.0);
    chip.resetStats();
    EXPECT_EQ(chip.stats().frames, 0u);
}

TEST(BehaviouralChip, ReusableAcrossBatches)
{
    // The engine pools chips across batches: after any sequence of
    // inferences (and a resetStats), a reused chip must be
    // indistinguishable from a fresh one — both in results and in
    // the stats it reports for the next batch.
    auto net = tinyNet(20, 8, 4, 3, 57);
    compiler::ChipConfig cfg;
    cfg.n = 8;
    cfg.sc_per_npe = 10;
    auto compiled = compiler::compileNetwork(net, cfg);

    SushiChip reused(cfg);
    for (std::uint64_t seed = 0; seed < 5; ++seed)
        reused.inferCounts(compiled, randomFrames(20, 3, 0.4, seed));
    reused.resetStats();

    auto batch_b = randomFrames(20, 3, 0.5, 99);
    SushiChip fresh(cfg);
    EXPECT_EQ(reused.inferCounts(compiled, batch_b),
              fresh.inferCounts(compiled, batch_b));
    EXPECT_EQ(reused.stats().frames, fresh.stats().frames);
    EXPECT_EQ(reused.stats().input_pulses,
              fresh.stats().input_pulses);
    EXPECT_EQ(reused.stats().synaptic_ops,
              fresh.stats().synaptic_ops);
    EXPECT_EQ(reused.stats().est_time_ps, fresh.stats().est_time_ps);
    EXPECT_EQ(reused.stats().dynamic_energy_j,
              fresh.stats().dynamic_energy_j);
}

TEST(BehaviouralChip, FailedNpeGaugeTracksRemapState)
{
    // failed_npes is a gauge of the *current* degraded state: it must
    // appear as soon as a slot is marked failed, survive resetStats()
    // (the slot is still failed), and clear with clearFailedNpes().
    auto net = tinyNet(16, 8, 4, 3, 59);
    compiler::ChipConfig cfg;
    cfg.n = 4;
    cfg.sc_per_npe = 10;
    auto compiled = compiler::compileNetwork(net, cfg);

    SushiChip chip(cfg);
    chip.markNpeFailed(2);
    EXPECT_EQ(chip.stats().failed_npes, 1u);
    chip.resetStats();
    EXPECT_EQ(chip.stats().failed_npes, 1u); // still degraded
    chip.inferCounts(compiled, randomFrames(16, 3, 0.5, 5));
    EXPECT_GT(chip.stats().remapped_neurons, 0u);

    chip.clearFailedNpes();
    EXPECT_EQ(chip.stats().failed_npes, 0u); // healed immediately
    chip.resetStats();
    chip.inferCounts(compiled, randomFrames(16, 3, 0.5, 5));
    EXPECT_EQ(chip.stats().remapped_neurons, 0u);
    EXPECT_EQ(chip.stats().failed_npes, 0u);

    // Full reset() = heal + clear stats in one call.
    chip.markNpeFailed(1);
    chip.reset();
    EXPECT_EQ(chip.stats().failed_npes, 0u);
    EXPECT_EQ(chip.stats().frames, 0u);
}

TEST(BehaviouralChip, RejectsInvalidConfig)
{
    // Typed compile errors instead of an abort or, for K >= 64, an
    // undefined shift in the counter arithmetic.
    const auto bad = [](int n, int sc) {
        compiler::ChipConfig cfg;
        cfg.n = n;
        cfg.sc_per_npe = sc;
        return cfg;
    };
    for (const auto &cfg : {bad(0, 10), bad(-3, 10), bad(4, 0),
                            bad(4, 31), bad(4, 64)}) {
        try {
            SushiChip chip(cfg);
            ADD_FAILURE() << "n " << cfg.n << " sc " << cfg.sc_per_npe;
        } catch (const compiler::CompileError &e) {
            EXPECT_EQ(e.kind(),
                      compiler::CompileError::Kind::BadChipConfig);
        }
    }
    compiler::ChipConfig zero_bucket;
    zero_bucket.bucketing.bucket_size = 0;
    EXPECT_THROW(SushiChip{zero_bucket}, compiler::CompileError);
    EXPECT_NO_THROW(SushiChip{bad(1, 30)});
}

TEST(BehaviouralChip, RejectsWrongActivationWidth)
{
    const auto net = tinyNet(12, 6, 3, 2, 5);
    compiler::ChipConfig cfg;
    cfg.n = 4;
    const auto compiled = compiler::compileNetwork(net, cfg);
    SushiChip chip(cfg);
    const auto &layer = net.layers()[0];
    EXPECT_THROW(chip.stepLayer(compiled.layers[0], layer,
                                PulseVector(3, 1)),
                 std::invalid_argument);
    EXPECT_THROW(chip.stepNetwork(compiled, PulseVector(13, 0)),
                 std::invalid_argument);
    auto frames = randomFrames(12, 2, 0.5, 3);
    frames[1].pop_back();
    EXPECT_THROW(chip.inferCounts(compiled, frames),
                 std::invalid_argument);
    PulseBatch in;
    in.reset(2, 11);
    PulseBatch out;
    std::vector<LayerStepStats> tallies(2);
    EXPECT_THROW(chip.stepLayerBatch(compiled.layers[0], layer, in, out,
                                     tallies.data()),
                 std::invalid_argument);
    // Nothing was charged, and the chip still serves valid input.
    EXPECT_EQ(chip.stats().frames, 0u);
    EXPECT_EQ(chip.stats().synaptic_ops, 0u);
    EXPECT_EQ(chip.inferCounts(compiled, randomFrames(12, 2, 0.5, 4))
                  .size(),
              3u);
}

TEST(Sampler, SpikesPerStepWindows)
{
    std::vector<sfq::PulseTrace> traces = {
        {100, 250, 900}, // label 0
        {150},           // label 1
    };
    std::vector<Tick> bounds = {0, 500, 1000};
    auto spikes = spikesPerStep(traces, bounds);
    EXPECT_EQ(spikes[0][0], 2);
    EXPECT_EQ(spikes[0][1], 1);
    EXPECT_EQ(spikes[1][0], 1);
    EXPECT_EQ(spikes[1][1], 0);
}

TEST(Sampler, DecodeLabelsPicksMostActive)
{
    // Fig. 16(d): label1 pulses 4 of 5 steps -> inference result 1.
    std::vector<sfq::PulseTrace> traces(3);
    traces[1] = {psToTicks(150.0), psToTicks(250.0),
                 psToTicks(350.0), psToTicks(450.0)};
    traces[2] = {psToTicks(460.0)};
    std::vector<sfq::LevelWave> waves;
    for (const auto &t : traces)
        waves.push_back(sfq::pulsesToLevels(t));
    std::vector<Tick> bounds;
    for (int s = 0; s <= 5; ++s)
        bounds.push_back(psToTicks(100.0 * (s + 1)));
    auto readout = decodeLabels(waves, bounds);
    EXPECT_EQ(readout.winner, 1);
    EXPECT_EQ(readout.per_label[0], "0-0-0-0-0");
    EXPECT_EQ(readout.per_label[1], "1-1-1-1-0");
    EXPECT_EQ(readout.per_label[2], "0-0-0-1-0");
}

/** Gate-level vs behavioural chip on the fabricated-scale config. */
TEST(GateCosim, SingleSynapseChip)
{
    // The paper's fabricated chip: 2 NPEs, no weight structures
    // (1x1 mesh). One input relay NPE feeding one output NPE.
    auto net = tinyNet(1, 1, 1, 5, 61);

    compiler::ChipConfig cfg;
    cfg.n = 1;
    cfg.sc_per_npe = 4;
    auto compiled = compiler::compileNetwork(net, cfg);
    // Keep thresholds gate-friendly (>= 1).
    if (compiled.layers[0].bias_pulses[0] > 0 ||
        compiled.layers[0].disabled[0]) {
        GTEST_SKIP() << "random threshold unsuited to gate test";
    }

    auto frames = randomFrames(1, 5, 0.8, 77);

    SushiChip behavioural(cfg);
    std::vector<std::vector<int>> behav_steps;
    {
        PulseVector act;
        for (const auto &f : frames) {
            act.assign(f.begin(), f.end());
            auto out = behavioural.stepLayer(
                compiled.layers[0], net.layers()[0], act);
            behav_steps.push_back(
                std::vector<int>(out.begin(), out.end()));
        }
    }

    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
    sfq::Netlist netlist(sim);
    GateChip gate(netlist, cfg);
    compiler::CompiledNetwork first_layer_only;
    first_layer_only.chip = compiled.chip;
    first_layer_only.net = compiled.net;
    first_layer_only.layers = {compiled.layers[0]};
    auto gate_steps = gate.run(first_layer_only, frames);

    ASSERT_EQ(gate_steps.size(), behav_steps.size());
    for (std::size_t s = 0; s < gate_steps.size(); ++s)
        EXPECT_EQ(gate_steps[s], behav_steps[s]) << "step " << s;
}

TEST(GateCosim, TwoByTwoMesh)
{
    auto net = tinyNet(2, 2, 2, 4, 67);
    compiler::ChipConfig cfg;
    cfg.n = 2;
    cfg.sc_per_npe = 5;
    // Only the first layer runs at gate level; restrict the net by
    // compiling and checking layer 0 dimensions fit.
    auto compiled = compiler::compileNetwork(net, cfg);
    bool gate_friendly = true;
    for (std::size_t o = 0; o < 2; ++o) {
        gate_friendly &= compiled.layers[0].bias_pulses[o] == 0;
        gate_friendly &= compiled.layers[0].disabled[o] == 0;
    }
    if (!gate_friendly)
        GTEST_SKIP() << "random thresholds unsuited to gate test";

    auto frames = randomFrames(2, 4, 0.7, 19);

    SushiChip behavioural(cfg);
    std::vector<std::vector<int>> behav_steps;
    for (const auto &f : frames) {
        PulseVector act(f.begin(), f.end());
        auto out = behavioural.stepLayer(compiled.layers[0],
                                         net.layers()[0], act);
        behav_steps.push_back(
            std::vector<int>(out.begin(), out.end()));
    }

    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
    sfq::Netlist netlist(sim);
    // The gate chip runs a single compiled layer; feed it a network
    // whose only layer is layer 0 by reusing the compiled plan.
    compiler::CompiledNetwork first_layer_only;
    first_layer_only.chip = compiled.chip;
    first_layer_only.net = compiled.net;
    first_layer_only.layers = {compiled.layers[0]};
    // gate.run asserts single layer; BinarySnn still has two layers,
    // but only layers()[0] is read.
    GateChip gate(netlist, cfg);
    auto gate_steps = gate.run(first_layer_only, frames);

    ASSERT_EQ(gate_steps.size(), behav_steps.size());
    for (std::size_t s = 0; s < gate_steps.size(); ++s)
        EXPECT_EQ(gate_steps[s], behav_steps[s]) << "step " << s;
}

} // namespace
} // namespace sushi::chip
