/**
 * @file
 * Differential-fuzzing parity harness for the bit-packed
 * XNOR/popcount kernel layer (snn/packed), its call sites and the
 * chip's closed-form layer kernel, each against a reference that
 * lives here or is selected by an explicit argument:
 *
 *  - packed vs scalar-oracle kernels (Backend::Scalar) over hundreds
 *    of seeded random shapes (ragged in_dim % 64 in {0, 1, 63},
 *    batch = 1, varying thread counts) — bit-identical spikes and
 *    floats;
 *  - BinarySnn::stepForward/forwardCounts vs a reference built from
 *    BinarySnn::membrane, including the fall-back case (a zero
 *    weight) where packing must refuse; SnnMlp::forwardWith vs the
 *    scalar effectiveForward followed by the IF step, traces
 *    included;
 *  - SushiChip's closed-form counter vs oracleLayerStep, which steps
 *    one npe::Npe object per neuron: wrap-around borrows (tiny
 *    counters), multi-pulse extras and degraded-mode remaps, outputs
 *    and per-vector LayerStepStats;
 *  - every CPU-dispatched wrapper this CPU supports (KernelIsa),
 *    called directly: the batch-major layer kernel over batch sizes
 *    covering every remainder of the neuron-lane block, ragged
 *    in_dim and every bucket shape, against oracleLayerStep and the
 *    per-vector stepLayer composition; the XNOR dot's popcount loop
 *    against a bit-by-bit count;
 *  - the sparse-scan batch pack vs the dense gather it replaced,
 *    field by field, over batch 1..70, ragged widths, every bucket
 *    shape, permuted schedules and all-zero/all-one/multi-pulse rows;
 *  - InferenceEngine::runOnReplica (whole batch per stage) vs the
 *    serial per-sample, per-step stage loop, NoC on, stats JSON
 *    byte-identical, and merged stats pinned to a recorded run;
 *  - binarize deterministic-rounding fixes (sign of zero, NaN,
 *    denormal alpha, astronomically large raw thresholds).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "chip/layer_kernel.hh"
#include "chip/sushi_chip.hh"
#include "common/kernel_isa.hh"
#include "common/rng.hh"
#include "compiler/compile.hh"
#include "compiler/cost_model.hh"
#include "compiler/driver.hh"
#include "engine/inference_engine.hh"
#include "npe/npe.hh"
#include "snn/binarize.hh"
#include "snn/network.hh"
#include "snn/packed.hh"
#include "snn/packed_kernel.hh"

#include "test_util.hh"

namespace sushi {
namespace {

using namespace testutil;

using snn::packed::Backend;
using snn::packed::PackedActivations;
using snn::packed::PackedLayer;

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

/** in_dim sampler forcing every lane-tail class the kernels handle:
 *  exact multiples of 64 plus the 1-past and 1-short ragged tails. */
std::size_t
sampleInDim(int c, Rng &rng)
{
    switch (c % 4) {
    case 0:
        return 64 * (1 + rng.below(3)); // % 64 == 0
    case 1:
        return 64 * rng.below(3) + 1; // % 64 == 1
    case 2:
        return 64 * rng.below(3) + 63; // % 64 == 63
    default:
        return 1 + rng.below(200);
    }
}

TEST(PackedFuzz, SpikeForwardDifferential)
{
    const int kThreads[] = {0, 1, 2, 8};
    for (int c = 0; c < 240; ++c) {
        Rng rng(1000 + static_cast<std::uint64_t>(c));
        const std::size_t in_dim = sampleInDim(c, rng);
        const std::size_t out_dim = 1 + rng.below(40);
        const std::size_t batch = c % 5 == 0 ? 1 : 1 + rng.below(6);
        const int threads = kThreads[rng.below(4)];

        std::vector<std::vector<std::int8_t>> w(out_dim);
        std::vector<int> thr(out_dim);
        for (std::size_t o = 0; o < out_dim; ++o) {
            w[o].resize(in_dim);
            for (auto &v : w[o])
                v = rng.chance(0.5) ? 1 : -1;
            thr[o] = static_cast<int>(
                rng.range(-static_cast<std::int64_t>(in_dim) - 1,
                          static_cast<std::int64_t>(in_dim) + 1));
        }
        const PackedLayer layer = PackedLayer::fromSigned(w, thr);
        ASSERT_TRUE(layer.packable()) << "case " << c;

        std::vector<std::vector<std::uint8_t>> act(batch);
        std::vector<const std::uint8_t *> rows(batch);
        for (std::size_t b = 0; b < batch; ++b) {
            act[b].resize(in_dim);
            for (auto &v : act[b])
                v = rng.chance(rng.uniform()) ? 1 : 0;
            rows[b] = act[b].data();
        }
        PackedActivations x;
        snn::packed::packRows(rows.data(), batch, in_dim, x);

        std::vector<std::uint8_t> fast(batch * out_dim, 9);
        std::vector<std::uint8_t> oracle(batch * out_dim, 9);
        snn::packed::spikeForward(layer, x, fast.data(),
                                  Backend::Packed, threads);
        snn::packed::spikeForward(layer, x, oracle.data(),
                                  Backend::Scalar, 1);
        ASSERT_EQ(fast, oracle) << "case " << c;

        // Independent plain-int reference, straight off the signed
        // weights — catches a bug shared by both kernel backends.
        for (std::size_t b = 0; b < batch; ++b) {
            for (std::size_t o = 0; o < out_dim; ++o) {
                int dot = 0;
                for (std::size_t i = 0; i < in_dim; ++i)
                    if (act[b][i])
                        dot += w[o][i];
                const std::uint8_t want = dot >= thr[o] ? 1 : 0;
                ASSERT_EQ(fast[b * out_dim + o], want)
                    << "case " << c << " b " << b << " o " << o;
            }
        }
    }
}

TEST(PackedFuzz, EffectiveForwardDifferential)
{
    const int kThreads[] = {0, 1, 2, 8};
    for (int c = 0; c < 120; ++c) {
        Rng rng(5000 + static_cast<std::uint64_t>(c));
        const std::size_t in_dim = sampleInDim(c, rng);
        const std::size_t out_dim = 1 + rng.below(24);
        const std::size_t batch = c % 5 == 0 ? 1 : 1 + rng.below(5);
        const int threads = kThreads[rng.below(4)];

        snn::Tensor w(out_dim, in_dim);
        std::vector<float> bias(out_dim);
        for (std::size_t o = 0; o < out_dim; ++o) {
            const float alpha =
                static_cast<float>(rng.uniform(0.01, 4.0));
            float *row = w.row(o);
            for (std::size_t i = 0; i < in_dim; ++i)
                row[i] = rng.chance(0.5) ? alpha : -alpha;
            bias[o] = static_cast<float>(rng.uniform(-2.0, 2.0));
        }
        const PackedLayer layer = PackedLayer::fromEffective(w, bias);
        ASSERT_TRUE(layer.packable()) << "case " << c;

        snn::Tensor x(batch, in_dim);
        for (std::size_t i = 0; i < x.size(); ++i)
            x.data()[i] = rng.chance(0.5) ? 1.0f : 0.0f;
        PackedActivations px;
        ASSERT_TRUE(snn::packed::packFloatRows(x, px));

        snn::Tensor fast(batch, out_dim), oracle(batch, out_dim);
        snn::packed::effectiveForward(layer, px, fast,
                                      Backend::Packed, threads);
        snn::packed::effectiveForward(layer, px, oracle,
                                      Backend::Scalar, 1);
        ASSERT_EQ(std::memcmp(fast.data(), oracle.data(),
                              fast.size() * sizeof(float)),
                  0)
            << "case " << c;
    }
}

TEST(PackedFuzz, EffectiveForwardLanesEveryBatchRemainder)
{
    // The batch-lane forward pads the batch to whole lane vectors:
    // every remainder, a batch of exactly 64 and one past it.
    std::vector<std::size_t> batches;
    for (std::size_t b = 1; b <= 17; ++b)
        batches.push_back(b);
    batches.push_back(64);
    batches.push_back(65);
    int c = 0;
    for (const std::size_t batch : batches) {
        Rng rng(8100 + batch);
        const std::size_t in_dim = sampleInDim(c++, rng);
        const std::size_t out_dim = 1 + rng.below(40);
        snn::Tensor w(out_dim, in_dim), x(batch, in_dim);
        std::vector<float> bias(out_dim);
        for (std::size_t k = 0; k < w.size(); ++k)
            w.data()[k] = static_cast<float>(rng.uniform(-1, 1));
        for (auto &v : bias)
            v = static_cast<float>(rng.uniform(-2, 2));
        for (std::size_t k = 0; k < x.size(); ++k)
            x.data()[k] = rng.chance(0.3) ? 1.0f : 0.0f;
        const PackedLayer layer = PackedLayer::fromFloat(w, bias);
        ASSERT_TRUE(layer.packable());
        PackedActivations px;
        ASSERT_TRUE(snn::packed::packFloatRows(x, px));
        snn::Tensor fast(batch, out_dim), oracle(batch, out_dim);
        snn::packed::effectiveForward(layer, px, fast, Backend::Packed,
                                      static_cast<int>(batch % 3));
        snn::packed::effectiveForward(layer, px, oracle, Backend::Scalar,
                                      1);
        ASSERT_EQ(std::memcmp(fast.data(), oracle.data(),
                              fast.size() * sizeof(float)),
                  0)
            << "batch " << batch;
    }
}

TEST(PackedLayer, RejectsNonBinaryInputs)
{
    // A zero int8 weight is not packable.
    std::vector<std::vector<std::int8_t>> w = {{1, -1, 0}};
    EXPECT_FALSE(PackedLayer::fromSigned(w, {0}).packable());

    // Non-uniform magnitude within a row is not packable.
    snn::Tensor e(1, 3);
    e.at(0, 0) = 0.5f;
    e.at(0, 1) = -0.5f;
    e.at(0, 2) = 0.25f;
    EXPECT_FALSE(
        PackedLayer::fromEffective(e, {0.0f}).packable());

    // All-zero and NaN rows are not packable.
    snn::Tensor z(1, 3);
    EXPECT_FALSE(PackedLayer::fromEffective(z, {0.0f}).packable());
    snn::Tensor n(1, 3);
    n.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(PackedLayer::fromEffective(n, {0.0f}).packable());

    // Non-spike float activations refuse to pack.
    snn::Tensor x(1, 3);
    x.at(0, 1) = 0.5f;
    PackedActivations px;
    EXPECT_FALSE(snn::packed::packFloatRows(x, px));
}

/** The sign bits, alpha, bias and packable() of two layers agree;
 *  signs and alpha only matter (and are only set) when packable. */
void
expectSameLayer(const PackedLayer &got, const PackedLayer &want)
{
    ASSERT_EQ(got.packable(), want.packable());
    EXPECT_EQ(got.bias(), want.bias());
    if (!want.packable())
        return;
    ASSERT_EQ(got.outDim(), want.outDim());
    ASSERT_EQ(got.words(), want.words());
    for (std::size_t o = 0; o < want.outDim(); ++o) {
        EXPECT_TRUE(std::equal(got.signRow(o), got.signRow(o) + got.words(),
                               want.signRow(o)))
            << "row " << o;
        EXPECT_EQ(std::memcmp(&got.alpha()[o], &want.alpha()[o],
                              sizeof(float)),
                  0)
            << "row " << o;
    }
}

TEST(PackedLayer, FromFloatEqualsFromEffectiveOfEffectiveWeights)
{
    const float kSpecial[] = {0.0f,
                              -0.0f,
                              std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::denorm_min(),
                              -std::numeric_limits<float>::denorm_min(),
                              1e-40f,
                              -3e-39f};
    int packable = 0, refused = 0;
    for (const std::size_t in_dim : {1u, 63u, 64u, 65u, 784u}) {
        for (int c = 0; c < 12; ++c) {
            Rng rng(7000 + in_dim * 16 + static_cast<std::uint64_t>(c));
            const std::size_t out_dim = 1 + rng.below(20);
            snn::Tensor w(out_dim, in_dim);
            std::vector<float> bias(out_dim);
            for (std::size_t o = 0; o < out_dim; ++o) {
                const int kind = static_cast<int>(rng.below(8));
                for (std::size_t i = 0; i < in_dim; ++i) {
                    float v = static_cast<float>(rng.uniform(-1, 1));
                    if (kind == 0)
                        v = 0.0f; // all-zero row: alpha falls back to 1
                    else if (kind == 1 || rng.chance(0.1))
                        v = kSpecial[rng.below(std::size(kSpecial))];
                    w.at(o, i) = v;
                }
                bias[o] = static_cast<float>(rng.uniform(-2, 2));
            }
            // Every fourth layer has a row whose mean |w| rounds to
            // float 0: neither builder packs it.
            const bool zero_alpha = c % 4 == 3;
            if (zero_alpha) {
                const std::size_t o = rng.below(out_dim);
                for (std::size_t i = 0; i < in_dim; ++i)
                    w.at(o, i) = i == 0 && in_dim > 1
                                     ? std::numeric_limits<float>::denorm_min()
                                     : (i % 2 ? -0.0f : 0.0f);
                if (in_dim == 1)
                    w.at(o, 0) = 0.0f; // alpha 1: this layer can pack
            }
            SCOPED_TRACE(testing::Message()
                         << "in " << in_dim << " case " << c);
            const PackedLayer got = PackedLayer::fromFloat(w, bias);
            expectSameLayer(got, PackedLayer::fromEffective(
                                     snn::binaryEffectiveWeights(w), bias));
            if (zero_alpha && in_dim > 1) {
                EXPECT_FALSE(got.packable());
            }
            (got.packable() ? packable : refused)++;
        }
    }
    EXPECT_GT(packable, 20);
    EXPECT_GE(refused, 8);

    // Shapes that do not agree refuse like fromEffective.
    snn::Tensor w(2, 3);
    expectSameLayer(PackedLayer::fromFloat(w, {0.0f}),
                    PackedLayer::fromEffective(w, {0.0f}));
    snn::Tensor empty(2, 0);
    EXPECT_FALSE(PackedLayer::fromFloat(empty, {0.0f, 0.0f}).packable());
}

TEST(PackedLayer, PackFloatRowsEveryTail)
{
    const float kRefused[] = {0.5f, 2.0f, -1.0f,
                              std::numeric_limits<float>::quiet_NaN()};
    Rng rng(4242);
    for (std::size_t bits = 0; bits <= 67; ++bits) {
        SCOPED_TRACE(testing::Message() << "bits " << bits);
        const std::size_t batch = 3;
        snn::Tensor x(batch, bits);
        std::vector<std::uint64_t> want(batch * snn::packed::laneWords(bits), 0);
        std::vector<std::int32_t> active(batch, 0);
        for (std::size_t b = 0; b < batch; ++b)
            for (std::size_t i = 0; i < bits; ++i) {
                const int kind = static_cast<int>(rng.below(3));
                x.at(b, i) = kind == 0 ? 1.0f : kind == 1 ? -0.0f : 0.0f;
                if (kind == 0) {
                    want[b * snn::packed::laneWords(bits) + i / 64] |=
                        std::uint64_t{1} << (i % 64);
                    ++active[b];
                }
            }
        PackedActivations px;
        ASSERT_TRUE(snn::packed::packFloatRows(x, px));
        EXPECT_EQ(px.batch, batch);
        EXPECT_EQ(px.bits, bits);
        EXPECT_EQ(px.lanes, want);
        EXPECT_EQ(px.active, active);

        // One bad entry anywhere, in the SIMD body or the scalar tail,
        // refuses the whole tensor.
        for (std::size_t i = 0; i < bits; ++i)
            for (const float bad : kRefused) {
                snn::Tensor y = x;
                y.at(batch - 1, i) = bad;
                ASSERT_FALSE(snn::packed::packFloatRows(y, px))
                    << "entry " << i << " = " << bad;
            }
    }
}

/** BinarySnn::stepForward's reference: every neuron's membrane
 *  (BinarySnn::membrane) against its threshold, layer by layer. */
std::vector<std::uint8_t>
membraneStep(const snn::BinarySnn &net, std::vector<std::uint8_t> act)
{
    for (const snn::BinaryLayer &layer : net.layers()) {
        std::vector<std::uint8_t> next(layer.outDim(), 0);
        for (std::size_t o = 0; o < layer.outDim(); ++o)
            next[o] = snn::BinarySnn::membrane(layer, o, act) >=
                              layer.thresholds[o]
                          ? 1
                          : 0;
        act = std::move(next);
    }
    return act;
}

/** BinarySnn::forwardCounts' reference: membraneStep summed over
 *  the frames. */
std::vector<int>
membraneCounts(const snn::BinarySnn &net,
               const std::vector<std::vector<std::uint8_t>> &frames)
{
    std::vector<int> counts(net.layers().back().outDim(), 0);
    for (const auto &frame : frames) {
        const auto spikes = membraneStep(net, frame);
        for (std::size_t o = 0; o < counts.size(); ++o)
            counts[o] += spikes[o];
    }
    return counts;
}

TEST(BinarySnnParity, ToggleByteIdentical)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const auto net = tinyNet(70, 12, 4, 3, 60 + seed);
        ASSERT_TRUE(net.packedReady());
        ASSERT_EQ(net.packedLayers().size(), net.layers().size());
        const auto frames = randomFrames(70, 3, 0.4, 200 + seed);

        EXPECT_EQ(net.forwardCounts(frames), membraneCounts(net, frames))
            << "seed " << seed;
        EXPECT_EQ(net.stepForward(frames[0]),
                  membraneStep(net, frames[0]))
            << "seed " << seed;
    }
}

TEST(BinarySnnParity, ZeroWeightKeepsScalarPath)
{
    // Hand-built layer with a zero weight: packing must refuse and
    // the scalar path must still give the membrane reference.
    snn::BinaryLayer layer;
    layer.weights = {{1, 0, -1, 1}, {-1, -1, 1, 1}};
    layer.thresholds = {1, 0};
    auto net = snn::BinarySnn::fromLayers({layer}, 2);
    EXPECT_FALSE(net.packedReady());

    const auto frames = randomFrames(4, 2, 0.6, 77);
    EXPECT_EQ(net.forwardCounts(frames), membraneCounts(net, frames));
    EXPECT_EQ(net.stepForward(frames[1]), membraneStep(net, frames[1]));
}

/** SnnMlp's IF step (paper Eqs. (1)-(3)), restated for the trainer
 *  reference below. */
void
referenceIfStep(snn::Tensor &v, const snn::Tensor &h, float theta,
                snn::Tensor &v_pre, snn::Tensor &s)
{
    for (std::size_t i = 0; i < v.size(); ++i) {
        const float pre = v.data()[i] + h.data()[i];
        const float spike = pre >= theta ? 1.0f : 0.0f;
        v_pre.data()[i] = pre;
        s.data()[i] = spike;
        v.data()[i] = pre * (1.0f - spike);
    }
}

TEST(TrainerParity, ForwardWithToggleByteIdentical)
{
    snn::SnnConfig cfg;
    cfg.input = 66; // ragged lane tail
    cfg.hidden = 9;
    cfg.output = 3;
    cfg.t_steps = 3;
    snn::SnnMlp net(cfg, 17);
    const snn::Tensor e1 = snn::binaryEffectiveWeights(net.w1);
    const snn::Tensor e2 = snn::binaryEffectiveWeights(net.w2);

    Rng rng(91);
    std::vector<snn::Tensor> frames;
    for (int t = 0; t < cfg.t_steps; ++t) {
        snn::Tensor f(5, cfg.input);
        for (std::size_t i = 0; i < f.size(); ++i)
            f.data()[i] = rng.chance(0.5) ? 1.0f : 0.0f;
        frames.push_back(std::move(f));
    }

    snn::ForwardTrace tr;
    const snn::Tensor got = net.forwardWith(e1, e2, frames, &tr);

    // The reference: the scalar backend's charge, then the IF step.
    const PackedLayer p1 = PackedLayer::fromEffective(e1, net.b1);
    const PackedLayer p2 = PackedLayer::fromEffective(e2, net.b2);
    ASSERT_TRUE(p1.packable());
    ASSERT_TRUE(p2.packable());
    const std::size_t batch = frames[0].rows();
    snn::Tensor v1(batch, cfg.hidden), v2(batch, cfg.output);
    snn::Tensor h1(batch, cfg.hidden), h2(batch, cfg.output);
    snn::Tensor v1_pre(batch, cfg.hidden), s1(batch, cfg.hidden);
    snn::Tensor v2_pre(batch, cfg.output), s2(batch, cfg.output);
    snn::Tensor want(batch, cfg.output);
    PackedActivations px, ps1;
    ASSERT_EQ(tr.v1_pre.size(), frames.size());
    ASSERT_EQ(tr.s2.size(), frames.size());
    for (std::size_t t = 0; t < frames.size(); ++t) {
        ASSERT_TRUE(snn::packed::packFloatRows(frames[t], px));
        snn::packed::effectiveForward(p1, px, h1, Backend::Scalar, 1);
        referenceIfStep(v1, h1, cfg.threshold, v1_pre, s1);
        ASSERT_TRUE(snn::packed::packFloatRows(s1, ps1));
        snn::packed::effectiveForward(p2, ps1, h2, Backend::Scalar, 1);
        referenceIfStep(v2, h2, cfg.threshold, v2_pre, s2);
        for (std::size_t i = 0; i < want.size(); ++i)
            want.data()[i] += s2.data()[i];

        EXPECT_EQ(std::memcmp(tr.v1_pre[t].data(), v1_pre.data(),
                              v1_pre.size() * sizeof(float)),
                  0)
            << "t " << t;
        EXPECT_EQ(std::memcmp(tr.s2[t].data(), s2.data(),
                              s2.size() * sizeof(float)),
                  0)
            << "t " << t;
    }
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
}

/**
 * The Npe-object reference for one vector of a layer step: a fresh
 * npe::Npe per neuron-step (behaviourally identical to the
 * time-multiplexed physical NPE after rst + write), fed input by
 * input in schedule order, inhibitory pass first within every
 * bucket. Each synapse's polarity comes from @p blayer's weights, not
 * from the compiled tables under test. The chip's closed-form kernels
 * must match it bit for bit, tallies included. @p failed_slots holds
 * the chip's per-slot failure flags (SushiChip::failedNpes); @p out
 * and @p tally start zeroed.
 */
void
oracleLayerStep(const compiler::CompiledLayer &layer,
                const snn::BinaryLayer &blayer,
                const compiler::ChipConfig &cfg,
                const std::vector<std::uint8_t> &failed_slots,
                std::span<const std::uint16_t> act,
                std::span<std::uint16_t> out, chip::LayerStepStats &tally)
{
    const auto &order = layer.schedule.order;
    for (const int idx : order)
        if (act[static_cast<std::size_t>(idx)] > 0)
            ++tally.active_inputs;
    for (std::size_t o = 0; o < out.size(); ++o) {
        if (layer.disabled[o])
            continue;
        if (failed_slots[o % static_cast<std::size_t>(cfg.n)])
            ++tally.remapped_neurons;
        npe::Npe npe(cfg.sc_per_npe);
        npe.rst();
        npe.write(layer.preload[o]);
        npe.setPolarity(npe::Polarity::Excitatory);
        std::uint64_t spikes = npe.addPulses(
            static_cast<std::uint64_t>(layer.bias_pulses[o]));

        const auto &weights = blayer.weights[o];
        for (const compiler::Block &bucket : layer.schedule.buckets) {
            // Input by input: each one's pulses go to its synapse's
            // polarity.
            std::uint64_t neg = 0;
            std::uint64_t pos = 0;
            for (int k = bucket.begin; k < bucket.end; ++k) {
                const auto i = static_cast<std::size_t>(order[k]);
                if (weights[i] < 0)
                    neg += act[i];
                else
                    pos += act[i];
            }
            // Inhibitory pass first within every bucket (Sec. 5.1).
            if (neg) {
                npe.setPolarity(npe::Polarity::Inhibitory);
                const std::uint64_t borrows = npe.addPulses(neg);
                tally.underflow_spikes += borrows;
                spikes += borrows;
            }
            if (pos) {
                npe.setPolarity(npe::Polarity::Excitatory);
                spikes += npe.addPulses(pos);
            }
            tally.synaptic_ops += neg + pos;
        }
        if (spikes > 1)
            ++tally.multi_fires;
        out[o] = static_cast<std::uint16_t>(spikes);
    }
}

/** oracleLayerStep over every vector of @p in, as a chip with
 *  @p failed_slots would run it: outputs into @p out, one tally per
 *  vector into @p tallies. */
void
oracleLayerBatch(const compiler::CompiledLayer &layer,
                 const snn::BinaryLayer &blayer,
                 const compiler::ChipConfig &cfg,
                 const std::vector<std::uint8_t> &failed_slots,
                 const chip::PulseBatch &in, chip::PulseBatch &out,
                 std::vector<chip::LayerStepStats> &tallies)
{
    out.reset(in.batch, blayer.outDim());
    tallies.assign(in.batch, chip::LayerStepStats{});
    for (std::size_t v = 0; v < in.batch; ++v)
        oracleLayerStep(layer, blayer, cfg, failed_slots, in.row(v),
                        out.row(v), tallies[v]);
}

void
expectTalliesEq(const std::vector<chip::LayerStepStats> &a,
                const std::vector<chip::LayerStepStats> &b,
                const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t v = 0; v < a.size(); ++v) {
        EXPECT_EQ(a[v].synaptic_ops, b[v].synaptic_ops) << what << v;
        EXPECT_EQ(a[v].underflow_spikes, b[v].underflow_spikes)
            << what << v;
        EXPECT_EQ(a[v].multi_fires, b[v].multi_fires) << what << v;
        EXPECT_EQ(a[v].remapped_neurons, b[v].remapped_neurons)
            << what << v;
        EXPECT_EQ(a[v].active_inputs, b[v].active_inputs) << what << v;
    }
}

/** The counters stepLayer charges: each must equal the sum of the
 *  tallies in @p steps. */
void
expectChargedTallies(const chip::InferenceStats &stats,
                     const std::vector<chip::LayerStepStats> &steps,
                     const std::string &what)
{
    chip::LayerStepStats sum;
    for (const auto &t : steps) {
        sum.synaptic_ops += t.synaptic_ops;
        sum.underflow_spikes += t.underflow_spikes;
        sum.multi_fires += t.multi_fires;
        sum.remapped_neurons += t.remapped_neurons;
    }
    EXPECT_EQ(stats.synaptic_ops, sum.synaptic_ops) << what;
    EXPECT_EQ(stats.input_pulses, sum.synaptic_ops) << what;
    EXPECT_EQ(stats.underflow_spikes, sum.underflow_spikes) << what;
    EXPECT_EQ(stats.multi_fires, sum.multi_fires) << what;
    EXPECT_EQ(stats.remapped_neurons, sum.remapped_neurons) << what;
}

TEST(ChipParity, StepLayerFastVsOracleFuzz)
{
    for (int trial = 0; trial < 40; ++trial) {
        Rng rng(7000 + static_cast<std::uint64_t>(trial));
        const auto net = tinyNet(5 + rng.below(36), 4 + rng.below(13),
                                 2 + rng.below(5),
                                 1 + static_cast<int>(rng.below(4)),
                                 8000 + static_cast<std::uint64_t>(
                                            trial));
        compiler::ChipConfig ccfg;
        ccfg.n = rng.chance(0.5) ? 4 : 8;
        // Tiny counters force wrap-around carries and borrows.
        ccfg.sc_per_npe = 3 + static_cast<int>(rng.below(3));
        const auto compiled = compiler::compileNetwork(net, ccfg);

        chip::SushiChip fast(ccfg), batched(ccfg);
        if (trial % 3 == 0) {
            const int slot = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(ccfg.n)));
            fast.markNpeFailed(slot);
            batched.markNpeFailed(slot);
        }

        std::vector<chip::LayerStepStats> oracle_steps;
        for (std::size_t l = 0; l < compiled.layers.size(); ++l) {
            const auto &blayer = net.layers()[l];
            for (int rep = 0; rep < 4; ++rep) {
                chip::PulseBatch in;
                in.reset(1, blayer.inDim());
                for (auto &v : in.pulses)
                    // Values > 1 exercise the multi-pulse extras.
                    v = static_cast<std::uint16_t>(rng.below(4));
                const std::string what = "trial " +
                                         std::to_string(trial) +
                                         " layer " + std::to_string(l) +
                                         " rep " + std::to_string(rep);
                chip::PulseBatch want, got;
                std::vector<chip::LayerStepStats> want_t, got_t(1);
                oracleLayerBatch(compiled.layers[l], blayer, ccfg,
                                 fast.failedNpes(), in, want, want_t);
                batched.stepLayerBatch(compiled.layers[l], blayer, in,
                                       got, got_t.data());
                ASSERT_EQ(got.pulses, want.pulses) << what;
                expectTalliesEq(got_t, want_t, what + " v ");

                const chip::PulseVector act(in.pulses.begin(),
                                            in.pulses.end());
                ASSERT_EQ(fast.stepLayer(compiled.layers[l], blayer, act),
                          want.pulses)
                    << what;
                oracle_steps.push_back(want_t[0]);
            }
        }
        expectChargedTallies(fast.stats(), oracle_steps,
                             "trial " + std::to_string(trial));
        EXPECT_EQ(batched.stats().synaptic_ops, 0u);
    }
}

// ---------------------------------------------------------------
// CPU-dispatched wrappers and the batch-major chip kernel.
// ---------------------------------------------------------------

/** Every KernelIsa whose wrappers this CPU can run. */
std::vector<KernelIsa>
supportedIsas()
{
    std::vector<KernelIsa> isas = {KernelIsa::Portable};
    for (const KernelIsa isa :
         {KernelIsa::Popcnt, KernelIsa::Avx512Vpopcnt})
        if (cpuSupports(isa))
            isas.push_back(isa);
    return isas;
}

snn::packed::detail::AndPopcountFn
andPopcountWrapper(KernelIsa isa)
{
#if defined(__x86_64__)
    if (isa == KernelIsa::Popcnt)
        return snn::packed::detail::andPopcountPopcnt;
    if (isa == KernelIsa::Avx512Vpopcnt)
        return snn::packed::detail::andPopcountAvx512;
#endif
    (void)isa;
    return snn::packed::detail::andPopcountPortable;
}

chip::detail::LayerKernelFn
layerKernelWrapper(KernelIsa isa)
{
#if defined(__x86_64__)
    if (isa == KernelIsa::Popcnt)
        return chip::detail::layerKernelPopcnt;
    if (isa == KernelIsa::Avx512Vpopcnt)
        return chip::detail::layerKernelAvx512;
#endif
    (void)isa;
    return chip::detail::layerKernelPortable;
}

TEST(KernelDispatch, SelectedIsaIsTheBestSupported)
{
    const KernelIsa best =
        cpuSupports(KernelIsa::Avx512Vpopcnt) ? KernelIsa::Avx512Vpopcnt
        : cpuSupports(KernelIsa::Popcnt)      ? KernelIsa::Popcnt
                                              : KernelIsa::Portable;
    EXPECT_EQ(selectedKernelIsa(), best);
    EXPECT_STREQ(kernelIsa(), kernelIsaName(best));
    EXPECT_TRUE(cpuSupports(KernelIsa::Portable));
#if defined(__x86_64__)
    __builtin_cpu_init();
    EXPECT_EQ(cpuSupports(KernelIsa::Popcnt),
              __builtin_cpu_supports("popcnt") != 0);
    EXPECT_EQ(cpuSupports(KernelIsa::Avx512Vpopcnt),
              __builtin_cpu_supports("popcnt") &&
                  __builtin_cpu_supports("avx512f") &&
                  __builtin_cpu_supports("avx512vpopcntdq") &&
                  __builtin_cpu_supports("avx512bw"));
#else
    EXPECT_FALSE(cpuSupports(KernelIsa::Avx512Vpopcnt));
#endif
}

snn::packed::detail::AndPopcountLanesFn
andPopcountLanesWrapper(KernelIsa isa)
{
#if defined(__x86_64__)
    if (isa == KernelIsa::Popcnt)
        return snn::packed::detail::andPopcountLanesPopcnt;
    if (isa == KernelIsa::Avx512Vpopcnt)
        return snn::packed::detail::andPopcountLanesAvx512;
#endif
    (void)isa;
    return snn::packed::detail::andPopcountLanesPortable;
}

TEST(KernelDispatch, AndPopcountLanesWrappersMatchBitCount)
{
    using snn::packed::detail::kLanes;
    for (const KernelIsa isa : supportedIsas()) {
        const auto fn = andPopcountLanesWrapper(isa);
        for (int c = 0; c < 120; ++c) {
            Rng rng(1900 + static_cast<std::uint64_t>(c));
            const std::size_t words = rng.below(20);
            const std::size_t lanes = kLanes * (1 + rng.below(9));
            std::vector<std::uint64_t> sign(words), xt(words * lanes);
            for (auto &v : sign)
                v = c % 3 == 0 ? ~std::uint64_t{0} : rng.next();
            for (auto &v : xt)
                v = rng.next();
            std::vector<std::int32_t> got(lanes, -7), want(lanes, 0);
            for (std::size_t b = 0; b < lanes; ++b)
                for (std::size_t w = 0; w < words; ++w)
                    for (int i = 0; i < 64; ++i)
                        want[b] += (xt[w * lanes + b] & sign[w]) >> i & 1;
            fn(sign.data(), xt.data(), words, lanes, got.data());
            ASSERT_EQ(got, want) << kernelIsaName(isa) << " case " << c;
        }
    }
}

TEST(KernelDispatch, AndPopcountWrappersMatchBitCount)
{
    for (const KernelIsa isa : supportedIsas()) {
        const auto fn = andPopcountWrapper(isa);
        for (int c = 0; c < 200; ++c) {
            Rng rng(900 + static_cast<std::uint64_t>(c));
            const std::size_t words = rng.below(20);
            std::vector<std::uint64_t> a(words), b(words);
            std::int32_t want = 0;
            for (std::size_t w = 0; w < words; ++w) {
                a[w] = rng.next();
                b[w] = c % 3 == 0 ? ~std::uint64_t{0} : rng.next();
                for (int i = 0; i < 64; ++i)
                    want += (a[w] & b[w]) >> i & 1 ? 1 : 0;
            }
            ASSERT_EQ(fn(a.data(), b.data(), words), want)
                << kernelIsaName(isa) << " case " << c;
        }
    }
}

/** Replace @p layer's buckets with a fresh in-order partition of
 *  [0, in_dim) and rebuild the tables that follow from them: 0 = one
 *  bucket, 1 = word-aligned single words, 2 = short unaligned buckets
 *  (mostly inside one word), 3 = long unaligned multi-word buckets. */
void
rebucket(compiler::CompiledLayer &layer, const snn::BinaryLayer &blayer,
         int shape, Rng &rng)
{
    const auto in_dim = static_cast<int>(blayer.inDim());
    auto &buckets = layer.schedule.buckets;
    buckets.clear();
    for (int begin = 0; begin < in_dim;) {
        int size = in_dim;
        if (shape == 1)
            size = 64;
        else if (shape == 2)
            size = 1 + static_cast<int>(rng.below(20));
        else if (shape == 3)
            size = 65 + static_cast<int>(rng.below(136));
        const int end = std::min(in_dim, begin + size);
        buckets.push_back(compiler::Block{begin, end});
        begin = end;
    }
    compiler::buildLayerTables(blayer, layer);
}

chip::PulseBatch
randomBatch(std::size_t batch, std::size_t width, Rng &rng)
{
    chip::PulseBatch in;
    in.reset(batch, width);
    for (std::size_t v = 0; v < batch; ++v) {
        // Binary frames of any density, all-active rows, and
        // multi-pulse rows (wrap artefacts from upstream), some with
        // inputs at the 65,535-pulse maximum.
        const int kind = static_cast<int>(rng.below(4));
        const double density = rng.uniform();
        for (auto &p : in.row(v))
            p = static_cast<std::uint16_t>(
                kind == 0   ? (rng.chance(density) ? 1 : 0)
                : kind == 1 ? 1
                : kind == 2 ? rng.below(4)
                : rng.chance(0.05) ? 65535 - rng.below(3)
                                   : rng.below(3));
    }
    return in;
}

/** A one-layer net of random ±1 weights whose thresholds straddle
 *  the 2^@p state_bits budget: most neurons fire at some input
 *  count, some need bias pulses (theta <= 0), some are disabled. */
snn::BinarySnn
randomNet(std::size_t in_dim, std::size_t out_dim, int state_bits,
          Rng &rng)
{
    snn::BinaryLayer layer;
    layer.weights.assign(out_dim, std::vector<std::int8_t>(in_dim));
    for (auto &row : layer.weights)
        for (auto &w : row)
            w = rng.chance(0.5) ? 1 : -1;
    const std::uint64_t budget = std::uint64_t{1} << std::min(state_bits, 12);
    for (std::size_t o = 0; o < out_dim; ++o)
        layer.thresholds.push_back(
            static_cast<int>(rng.below(budget + budget / 4 + 8)) - 8);
    return snn::BinarySnn::fromLayers({layer}, 1);
}

/**
 * Run @p layer over @p in on every path: a SushiChip's stepLayerBatch
 * and every wrapper this CPU runs, called directly, against
 * oracleLayerBatch; then the per-vector stepLayer composition. A
 * non-negative @p failed_slot marks that NPE failed.
 */
void
expectKernelsMatchOracle(const compiler::CompiledLayer &layer,
                         const snn::BinaryLayer &blayer,
                         const compiler::ChipConfig &ccfg,
                         const chip::PulseBatch &in, int failed_slot,
                         const std::string &what)
{
    const std::size_t batch = in.batch;
    chip::SushiChip fast(ccfg), single(ccfg);
    if (failed_slot >= 0) {
        fast.markNpeFailed(failed_slot);
        single.markNpeFailed(failed_slot);
    }

    chip::PulseBatch want, got;
    std::vector<chip::LayerStepStats> want_t, got_t(batch);
    oracleLayerBatch(layer, blayer, ccfg, fast.failedNpes(), in, want,
                     want_t);
    fast.stepLayerBatch(layer, blayer, in, got, got_t.data());
    ASSERT_EQ(got.pulses, want.pulses) << what;
    expectTalliesEq(got_t, want_t, what);

    for (const KernelIsa isa : supportedIsas()) {
        chip::detail::LayerBatchPack pack;
        chip::detail::packLayerBatch(layer, in, pack);
        std::vector<std::uint16_t> out(batch * blayer.outDim(), 0);
        std::vector<chip::LayerStepStats> t(batch);
        chip::detail::LayerKernelArgs args;
        args.layer = &layer;
        args.pack = &pack;
        args.state_bits = static_cast<unsigned>(ccfg.sc_per_npe);
        args.failed_slots = fast.remapPlan().failed > 0
                                ? fast.failedNpes().data()
                                : nullptr;
        args.slots = static_cast<std::size_t>(ccfg.n);
        args.out = out.data();
        args.out_dim = blayer.outDim();
        layerKernelWrapper(isa)(args, t.data());
        for (std::size_t v = 0; v < batch; ++v)
            t[v].active_inputs = pack.active[v];
        ASSERT_EQ(out, want.pulses) << kernelIsaName(isa) << what;
        expectTalliesEq(t, want_t, kernelIsaName(isa) + what);
    }

    // The per-vector composition: B stepLayer calls give the same
    // rows, and charge what the batch's tallies say.
    for (std::size_t v = 0; v < batch; ++v) {
        const chip::PulseVector act(in.row(v).begin(), in.row(v).end());
        const auto row = single.stepLayer(layer, blayer, act);
        ASSERT_TRUE(
            std::equal(row.begin(), row.end(), want.row(v).begin()))
            << what << v;
    }
    expectChargedTallies(single.stats(), want_t, what);
}

TEST(ChipBatchKernel, WrappersAndBatchesMatchOracleAndPerVector)
{
    // 70 spans two batch-lane tiles of 64 vectors; 1-9 leave every
    // remainder of the neuron-lane block of 8 vectors.
    const std::size_t kBatches[] = {1, 2, 3, 4, 5, 7, 8, 9, 40, 70};
    constexpr int kSizes = 10;
    // Tiny counters force wrap-around carries and borrows; 30 is the
    // widest counter validateChipConfig allows.
    const int kStateBits[] = {3, 4, 5, 10, 30};
    for (int c = 0; c < kSizes * 24; ++c) {
        Rng rng(31000 + static_cast<std::uint64_t>(c));
        // Every (batch, in_dim tail class, bucket shape, width) once.
        const bool wide = c >= kSizes * 12;
        // The column body runs vector by vector: wide layers skip
        // the batch-lane tile sizes.
        const std::size_t batch =
            wide ? std::min<std::size_t>(kBatches[c % kSizes], 9)
                 : kBatches[c % kSizes];
        // Narrow layers run the neuron lanes; wide ones from
        // ColumnTable::kMinNeurons up (ragged last 512-neuron chunk
        // included) the column body. A wide layer of one bucket also
        // takes in_dim past 256, so the bucket can hold more active
        // inputs than 8 bit planes count.
        const int shape = c / (kSizes * 3) % 4;
        const std::size_t in_dim =
            sampleInDim((c / kSizes) % 3, rng) +
            (wide && shape == 0 ? 256 * (1 + rng.below(2)) : 0);
        compiler::ChipConfig ccfg;
        ccfg.n = rng.chance(0.5) ? 4 : 8;
        ccfg.sc_per_npe = kStateBits[rng.below(5)];
        // Wide layers are random ±1 layers with a random schedule:
        // building them from a float net and running the reorder
        // pass would cost more than running them.
        const auto net =
            wide ? randomNet(in_dim, 65 + rng.below(1036),
                             ccfg.sc_per_npe, rng)
                 : tinyNet(in_dim, 4 + rng.below(30), 2, 1,
                           32000 + static_cast<std::uint64_t>(c));
        ccfg.bucketing.reorder = !wide;
        ccfg.bucketing.bucketing = !wide;
        const auto compiled = compiler::compileNetwork(net, ccfg);
        compiler::CompiledLayer layer = compiled.layers[0];
        const snn::BinaryLayer &blayer = net.layers()[0];
        if (wide) {
            auto &order = layer.schedule.order;
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.below(i)]);
        }
        for (auto &d : layer.disabled)
            if (rng.chance(0.15))
                d = 1;
        rebucket(layer, blayer, shape, rng);
        ASSERT_EQ(layer.columns.empty(),
                  blayer.outDim() < compiler::ColumnTable::kMinNeurons);
        const chip::PulseBatch in = randomBatch(batch, in_dim, rng);
        const int failed =
            rng.chance(0.4)
                ? static_cast<int>(
                      rng.below(static_cast<std::uint64_t>(ccfg.n)))
                : -1;
        expectKernelsMatchOracle(layer, blayer, ccfg, in, failed,
                                 "case " + std::to_string(c) + " v ");
    }

    // A wide layer on each side of the bound for 32-bit counter
    // lanes, max(preload + bias) + in_dim * 65,535 + 2^K < 2^32: a
    // neuron with threshold theta <= 0 starts at 2^K - theta.
    // in_dim * 65,535 > 2^31 needs a wide input, so each side also
    // runs single-bucket sums far past 8 bit planes.
    constexpr std::size_t kInDim = 33000;
    constexpr std::size_t kOutDim = 200;
    constexpr int kK = 4;
    for (const bool inside : {true, false}) {
        Rng rng(39000 + (inside ? 1u : 0u));
        snn::BinaryLayer blayer;
        blayer.weights.assign(kOutDim, std::vector<std::int8_t>(kInDim));
        for (auto &row : blayer.weights)
            for (auto &w : row)
                w = rng.chance(0.5) ? 1 : -1;
        for (std::size_t o = 0; o < kOutDim; ++o)
            blayer.thresholds.push_back(
                static_cast<int>(rng.below(40)) - 20);
        const std::int64_t edge = (std::int64_t{1} << 32) - 1 -
                                  (std::int64_t{1} << (kK + 1)) -
                                  std::int64_t{kInDim} * 65535;
        blayer.thresholds[7] = static_cast<int>(-edge - (inside ? 0 : 1));
        const auto net = snn::BinarySnn::fromLayers({blayer}, 1);
        compiler::ChipConfig ccfg;
        ccfg.n = 8;
        ccfg.sc_per_npe = kK;
        ccfg.bucketing.bucketing = false;
        ccfg.bucketing.reorder = false;
        const auto compiled = compiler::compileNetwork(net, ccfg);
        const compiler::CompiledLayer &layer = compiled.layers[0];
        ASSERT_FALSE(layer.columns.empty());
        EXPECT_EQ(layer.columns.lanes32, inside);
        const chip::PulseBatch in = randomBatch(4, kInDim, rng);
        expectKernelsMatchOracle(layer, net.layers()[0], ccfg, in, 3,
                                 inside ? "32-bit lanes v "
                                        : "64-bit lanes v ");
    }
}

/** The dense pack the sparse packLayerBatch replaced: every input
 *  gathered bucket by bucket in the kernel order (each bucket's
 *  inputs under schedule.order, ascending), derived here from the
 *  schedule alone. The oracle of SparsePackMatchesDensePack. */
void
densePack(const compiler::CompiledLayer &layer, const chip::PulseBatch &in,
          chip::detail::LayerBatchPack &pack)
{
    const std::size_t batch = in.batch;
    const auto &buckets = layer.schedule.buckets;
    pack.batch = batch;
    pack.words = (in.width + 63) / 64;
    pack.bits.assign(pack.words * batch, 0);
    pack.bucket_pulses.assign(buckets.size() * batch, 0);
    pack.pulses.assign(batch, 0);
    pack.active.assign(batch, 0);
    pack.extras.clear();
    pack.extra_begin.assign(batch + 1, 0);
    std::vector<int> order(layer.schedule.order);
    for (const compiler::Block &bucket : buckets)
        std::sort(order.begin() + bucket.begin, order.begin() + bucket.end);
    for (std::size_t b = 0; b < batch; ++b) {
        const std::uint16_t *act = in.row(b).data();
        pack.extra_begin[b] = pack.extras.size();
        for (std::size_t bk = 0; bk < buckets.size(); ++bk) {
            std::uint64_t sum = 0;
            for (int k = buckets[bk].begin; k < buckets[bk].end; ++k) {
                const auto i =
                    static_cast<std::size_t>(order[static_cast<std::size_t>(k)]);
                const std::uint16_t a = act[i];
                if (a != 0) {
                    pack.bits[static_cast<std::size_t>(k) / 64 * batch +
                              b] |= std::uint64_t{1} << (k % 64);
                    ++pack.active[b];
                }
                sum += a;
                if (a > 1)
                    pack.extras.push_back(
                        {static_cast<std::uint32_t>(bk),
                         static_cast<std::uint32_t>(k),
                         std::uint64_t{a} - 1});
            }
            pack.bucket_pulses[bk * batch + b] = sum;
            pack.pulses[b] += sum;
        }
    }
    pack.extra_begin[batch] = pack.extras.size();
}

void
expectPacksEqual(const chip::detail::LayerBatchPack &got,
                 const chip::detail::LayerBatchPack &want,
                 const std::string &what)
{
    ASSERT_EQ(got.batch, want.batch) << what;
    ASSERT_EQ(got.words, want.words) << what;
    ASSERT_EQ(got.bits, want.bits) << what;
    ASSERT_EQ(got.bucket_pulses, want.bucket_pulses) << what;
    ASSERT_EQ(got.pulses, want.pulses) << what;
    ASSERT_EQ(got.active, want.active) << what;
    ASSERT_EQ(got.extra_begin, want.extra_begin) << what;
    ASSERT_EQ(got.extras.size(), want.extras.size()) << what;
    for (std::size_t e = 0; e < want.extras.size(); ++e) {
        EXPECT_EQ(got.extras[e].bucket, want.extras[e].bucket)
            << what << " extra " << e;
        EXPECT_EQ(got.extras[e].pos, want.extras[e].pos)
            << what << " extra " << e;
        EXPECT_EQ(got.extras[e].extra, want.extras[e].extra)
            << what << " extra " << e;
    }
}

TEST(SpikeFrames, PackRoundTripsWithZeroTailsAndCounts)
{
    for (const std::size_t width : {1, 63, 64, 65, 127, 128, 129, 784}) {
        Rng rng(4100 + width);
        const int t_steps = 1 + static_cast<int>(rng.below(6));
        auto frames = randomFrames(width, t_steps, rng.uniform(), width);
        frames[0].assign(width, 1); // an all-active frame
        chip::SpikeFrames packed;
        ASSERT_TRUE(packed.assign(frames, width)) << width;
        ASSERT_EQ(packed.frames(), frames.size());
        ASSERT_EQ(packed.width(), width);
        ASSERT_EQ(packed.words(), (width + 63) / 64);
        for (std::size_t t = 0; t < frames.size(); ++t) {
            const std::uint64_t *w = packed.frame(t);
            std::uint32_t ones = 0;
            std::uint32_t pop = 0;
            for (std::size_t i = 0; i < packed.words() * 64; ++i) {
                const unsigned bit = (w[i / 64] >> (i % 64)) & 1u;
                pop += bit;
                if (i < width) {
                    EXPECT_EQ(bit, frames[t][i])
                        << width << " t " << t << " i " << i;
                    ones += frames[t][i];
                } else {
                    EXPECT_EQ(bit, 0u)
                        << "tail bit " << i << " of width " << width;
                }
            }
            EXPECT_EQ(packed.active(t), ones) << width << " t " << t;
            EXPECT_EQ(packed.active(t), pop) << width << " t " << t;
        }

        // Refusals leave the frames empty; packFrames throws.
        for (const std::size_t at : {std::size_t{0}, width - 1}) {
            for (const std::uint8_t v : {2, 255}) {
                auto bad = frames;
                bad.back()[at] = v;
                EXPECT_FALSE(packed.assign(bad, width));
                EXPECT_EQ(packed.frames(), 0u);
                EXPECT_THROW(chip::packFrames(bad, width),
                             std::invalid_argument);
            }
        }
        auto ragged = frames;
        ragged.back().push_back(0);
        EXPECT_FALSE(packed.assign(ragged, width));
        EXPECT_THROW(chip::packFrames(ragged, width),
                     std::invalid_argument);
        EXPECT_TRUE(packed.assign({}, width));
        EXPECT_EQ(packed.frames(), 0u);
    }
}

TEST(ChipBatchKernel, SparsePackMatchesDensePack)
{
    // One pack reused across cases, as a chip reuses its own.
    chip::detail::LayerBatchPack got;
    for (int c = 0; c < 280; ++c) {
        Rng rng(36000 + static_cast<std::uint64_t>(c));
        const std::size_t batch = 1 + static_cast<std::size_t>(c % 70);
        const std::size_t in_dim = sampleInDim(c / 70, rng);
        const auto net = tinyNet(in_dim, 4, 2, 1,
                                 37000 + static_cast<std::uint64_t>(c));
        compiler::ChipConfig ccfg;
        ccfg.n = 4;
        const auto compiled = compiler::compileNetwork(net, ccfg);
        compiler::CompiledLayer layer = compiled.layers[0];
        rebucket(layer, net.layers()[0], c % 4, rng);
        if (rng.chance(0.5)) {
            // Any permutation is a schedule the pack must invert,
            // once the compiler has rebuilt the tables it derives.
            auto &order = layer.schedule.order;
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.below(i)]);
            compiler::buildLayerTables(net.layers()[0], layer);
        }
        chip::PulseBatch in;
        in.reset(batch, in_dim);
        for (std::size_t v = 0; v < batch; ++v) {
            // All-zero, all-one, sparse binary and multi-pulse rows.
            const int kind = static_cast<int>(rng.below(4));
            const double density = rng.uniform() * 0.3;
            for (auto &p : in.row(v))
                p = static_cast<std::uint16_t>(
                    kind == 0   ? 0
                    : kind == 1 ? 1
                    : kind == 2 ? (rng.chance(density) ? 1 : 0)
                    : rng.chance(0.02) ? 65535
                                       : rng.below(4));
        }
        chip::detail::LayerBatchPack want;
        densePack(layer, in, want);
        chip::detail::packLayerBatch(layer, in, got);
        const std::string what = "case " + std::to_string(c);
        expectPacksEqual(got, want, what);

        // The words input: the same rows made binary, packed as
        // SpikeFrames of 1-3 frames each, against the dense pack of
        // the binary rows.
        chip::PulseBatch bin = in;
        std::vector<engine::Sample> bytes;
        for (std::size_t v = 0; v < batch; ++v) {
            if (bytes.empty() || bytes.back().size() == 3 ||
                rng.chance(0.4))
                bytes.emplace_back();
            auto row = bin.row(v);
            for (auto &p : row)
                p = p != 0 ? 1 : 0;
            bytes.back().emplace_back(row.begin(), row.end());
        }
        std::vector<chip::SpikeFrames> frames;
        for (const auto &sample : bytes)
            frames.push_back(chip::packFrames(sample, in_dim));
        std::vector<const chip::SpikeFrames *> samples;
        for (const auto &f : frames)
            samples.push_back(&f);
        densePack(layer, bin, want);
        chip::detail::packLayerFrames(layer, samples, got);
        expectPacksEqual(got, want, what + " (words)");
    }
}

TEST(ChipBatchKernel, InferCountsEqualsPerFrameStepNetwork)
{
    // inferCounts runs its T frames as one batch; the stats must
    // still be the serial per-frame accounting, float order included.
    for (int c = 0; c < 12; ++c) {
        Rng rng(33000 + static_cast<std::uint64_t>(c));
        const int t_steps = 1 + static_cast<int>(rng.below(8));
        const auto net = tinyNet(10 + rng.below(90), 6 + rng.below(20),
                                 3, t_steps,
                                 34000 + static_cast<std::uint64_t>(c));
        compiler::ChipConfig ccfg;
        ccfg.n = 4;
        ccfg.sc_per_npe = 3 + static_cast<int>(rng.below(8));
        const auto compiled = compiler::compileNetwork(net, ccfg);
        const auto frames = randomFrames(net.layers()[0].inDim(),
                                         t_steps, rng.uniform(),
                                         35000 + c);
        chip::SushiChip batched(ccfg), serial(ccfg);
        if (c % 2 == 1) {
            batched.markNpeFailed(1);
            serial.markNpeFailed(1);
        }
        const auto counts = batched.inferCounts(compiled, frames);

        std::vector<int> want(counts.size(), 0);
        serial.beginFrame();
        for (const auto &frame : frames) {
            const chip::PulseVector in(frame.begin(), frame.end());
            const auto act = serial.stepNetwork(compiled, in);
            for (std::size_t o = 0; o < want.size(); ++o)
                want[o] += act[o];
            serial.countOutputSpikes(act);
        }
        serial.finishRun();
        EXPECT_EQ(counts, want) << c;
        EXPECT_EQ(engine::statsJson(batched.stats()),
                  engine::statsJson(serial.stats()))
            << c;
    }
}

/** Budget that fits each layer alone but never two together, so the
 *  driver splits one stage per layer (test_multichip idiom). */
compiler::DriverOptions
splittingOptions(const snn::BinarySnn &net,
                 const compiler::ChipConfig &chip)
{
    compiler::CostModel model(chip.n, chip.sc_per_npe);
    long biggest = 0;
    for (const auto &layer : net.layers())
        biggest = std::max(biggest, model.layerCost(layer).totalJjs());
    compiler::DriverOptions opts;
    opts.enforce_budget = true;
    opts.allow_multichip = true;
    opts.score_schedules = false;
    opts.budget.sc_per_npe = chip.sc_per_npe;
    opts.budget.jj_cap = model.fabricJjs() + biggest;
    opts.budget.area_cap_mm2 = 1e9;
    return opts;
}

/** The serial replica loop: one sample at a time, one time step at a
 *  time, stage chips chained through stepNetwork. */
std::vector<chip::InferenceStats>
serialReplica(const engine::CompiledModel &model,
              const noc::NocConfig &noc_cfg,
              const std::vector<engine::Sample> &samples,
              std::vector<std::vector<int>> &counts)
{
    const int stages = model.stageCount();
    std::vector<std::unique_ptr<chip::SushiChip>> chips;
    for (int s = 0; s < stages; ++s)
        chips.push_back(
            std::make_unique<chip::SushiChip>(model.chip()));
    std::unique_ptr<noc::NocTransport> nt;
    if (noc_cfg.enabled && stages > 1)
        nt = std::make_unique<noc::NocTransport>(*model.plan(),
                                                 noc_cfg);
    const std::size_t out_dim =
        model.network().layers().back().outDim();
    std::vector<chip::InferenceStats> per_sample;
    for (const auto &sample : samples) {
        for (auto &c : chips) {
            c->resetStats();
            c->beginFrame();
        }
        if (nt)
            nt->beginSample();
        std::vector<int> cnt(out_dim, 0);
        for (const auto &frame : sample) {
            chip::PulseVector act(frame.begin(), frame.end());
            if (nt) {
                nt->beginStep();
                nt->hostIngress(act);
            }
            for (int s = 0; s < stages; ++s) {
                act = chips[static_cast<std::size_t>(s)]->stepNetwork(
                    model.stageNet(s), act);
                if (nt && s < stages - 1)
                    nt->transferCut(s, act);
            }
            for (std::size_t o = 0; o < out_dim; ++o)
                cnt[o] += act[o];
            chips.back()->countOutputSpikes(act);
            if (nt) {
                nt->hostEgress(act);
                nt->endStep();
            }
        }
        for (auto &c : chips)
            c->finishRun();
        chip::InferenceStats delta = chips[0]->stats();
        for (int s = 1; s < stages; ++s)
            delta.accumulatePipeline(
                chips[static_cast<std::size_t>(s)]->stats());
        if (nt) {
            const noc::NocSampleStats ns = nt->finishSample();
            delta.noc_packets += ns.packets;
            delta.noc_flits += ns.flits;
            delta.noc_flit_hops += ns.flit_hops;
            delta.noc_hol_stall_cycles += ns.hol_stall_cycles;
            delta.noc_backpressure_stalls += ns.backpressure_stalls;
            delta.noc_latency_cycles += ns.latency_cycles;
            delta.noc_max_step_link_flits = std::max(
                delta.noc_max_step_link_flits, ns.max_step_link_flits);
            delta.noc_latency_ps += ns.latency_ps;
            delta.noc_max_link_utilisation =
                std::max(delta.noc_max_link_utilisation,
                         ns.max_link_utilisation);
            delta.noc_cut_flits = ns.cut_flits;
            delta.est_time_ps += ns.latency_ps;
        }
        delta.dynamic_energy_j =
            chip::dynamicEnergyJ(delta.synaptic_ops);
        per_sample.push_back(delta);
        counts.push_back(std::move(cnt));
    }
    return per_sample;
}

/** The same net compiled as a 1-chip and as a 2-chip plan, and a
 *  ragged batch for it (samples of different lengths). */
struct BatchingCase
{
    std::shared_ptr<const engine::CompiledModel> one, two;
    std::vector<engine::Sample> samples;
};

BatchingCase
batchingCase()
{
    compiler::ChipConfig ccfg;
    ccfg.n = 4;
    ccfg.sc_per_npe = 4; // wraps: underflows and multi-fires occur
    const auto net = tinyNet(24, 16, 12, 4, 9);
    BatchingCase bc;
    bc.one = engine::CompiledModel::compile(net, ccfg);
    bc.two = engine::CompiledModel::compile(
        net, ccfg, splittingOptions(net, ccfg));
    bc.samples = randomSamples(9, 24, 4, 77);
    bc.samples[3].resize(1);
    bc.samples[5].clear();
    return bc;
}

TEST(EngineBatching, RunOnReplicaMatchesSerialPerSample)
{
    const BatchingCase bc = batchingCase();
    const auto &samples = bc.samples;
    ASSERT_EQ(bc.one->stageCount(), 1);
    ASSERT_EQ(bc.two->stageCount(), 2);

    for (const auto &model : {bc.one, bc.two}) {
        engine::EngineConfig cfg;
        cfg.replicas = 1;
        cfg.noc.enabled = true;
        cfg.noc.link_bandwidth_flits = 2;
        engine::InferenceEngine eng(model, cfg);
        const auto run = eng.runOnReplica(0, samples);

        std::vector<std::vector<int>> counts;
        const auto want =
            serialReplica(*model, cfg.noc, samples, counts);
        ASSERT_EQ(run.per_sample.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(run.results[i].counts, counts[i]) << i;
            EXPECT_EQ(engine::statsJson(run.per_sample[i]),
                      engine::statsJson(want[i]))
                << "stages " << model->stageCount() << " sample " << i;
        }
        if (model->stageCount() == 2) {
            EXPECT_GT(run.per_sample[0].noc_flits, 0u);
        }

        // A frame of the wrong width is a typed error, not an abort.
        auto bad = samples;
        bad[2][1].push_back(0);
        EXPECT_THROW(eng.runOnReplica(0, bad), std::invalid_argument);
    }
}

TEST(EngineBatching, PackedFramesRunEqualsByteRun)
{
    // The byte entry packs each sample once and runs the packed one:
    // results and stats must be the same either way, on the 1-chip,
    // the 2-chip NoC and a degraded plan.
    const BatchingCase bc = batchingCase();
    const std::size_t width = bc.one->network().layers()[0].inDim();
    std::vector<chip::SpikeFrames> frames;
    for (const auto &sample : bc.samples)
        frames.push_back(chip::packFrames(sample, width));
    std::vector<const chip::SpikeFrames *> ptrs;
    for (const auto &f : frames)
        ptrs.push_back(&f);
    for (int plan = 0; plan < 3; ++plan) {
        engine::EngineConfig cfg;
        cfg.replicas = 1;
        cfg.noc.enabled = true;
        cfg.noc.link_bandwidth_flits = 2;
        engine::InferenceEngine bytes(plan == 1 ? bc.two : bc.one, cfg);
        engine::InferenceEngine packed(plan == 1 ? bc.two : bc.one, cfg);
        if (plan == 2) {
            bytes.markReplicaDegraded(0, 1);
            packed.markReplicaDegraded(0, 1);
        }
        const auto want = bytes.runOnReplica(0, bc.samples);
        const auto got = packed.runOnReplica(0, ptrs.data(), ptrs.size());
        ASSERT_EQ(got.results.size(), want.results.size());
        for (std::size_t i = 0; i < want.results.size(); ++i) {
            EXPECT_EQ(got.results[i].counts, want.results[i].counts)
                << "plan " << plan << " sample " << i;
            EXPECT_EQ(got.results[i].prediction,
                      want.results[i].prediction);
            EXPECT_EQ(engine::statsJson(got.per_sample[i]),
                      engine::statsJson(want.per_sample[i]))
                << "plan " << plan << " sample " << i;
        }
    }

    // A sample of another width is a typed error on the packed entry.
    const chip::SpikeFrames narrow =
        chip::packFrames(randomFrames(width - 1, 2, 0.5, 3), width - 1);
    const chip::SpikeFrames *bad[] = {ptrs[0], &narrow};
    engine::InferenceEngine eng(bc.one, {});
    EXPECT_THROW(eng.runOnReplica(0, bad, 2), std::invalid_argument);
}

TEST(EngineBatching, NocEntryCountsEqualPacketOfOnEveryPlanShape)
{
    // The transport takes a frame's ingress entries from its packed
    // popcount and a cut's from the next stage's first-layer tally.
    // Both must equal noc::packetOf over the rows (serialReplica):
    // bucketed and reordered plans, natural order and not, healthy
    // and degraded.
    compiler::ChipConfig ccfg;
    ccfg.n = 4;
    ccfg.sc_per_npe = 4;
    const auto net = tinyNet(40, 24, 12, 4, 19);
    auto samples = randomSamples(6, 40, 4, 88);
    samples[2][1].assign(40, 1); // an all-active frame
    samples[4][0].assign(40, 0); // a silent one
    int non_natural = 0;
    for (const int bucket : {4, 7, 64}) {
        for (const bool reorder : {false, true}) {
            ccfg.bucketing.bucket_size = bucket;
            ccfg.bucketing.reorder = reorder;
            const auto two = engine::CompiledModel::compile(
                net, ccfg, splittingOptions(net, ccfg));
            ASSERT_EQ(two->stageCount(), 2);
            non_natural +=
                two->stageNet(1).layers[0].natural_order ? 0 : 1;
            for (const bool degraded : {false, true}) {
                engine::EngineConfig cfg;
                cfg.replicas = 1;
                cfg.noc.enabled = true;
                cfg.noc.link_bandwidth_flits = 1 + bucket % 3;
                engine::InferenceEngine eng(two, cfg);
                if (degraded)
                    eng.markReplicaDegraded(0, 2);
                const auto run = eng.runOnReplica(0, samples);
                std::vector<std::vector<int>> counts;
                const auto want =
                    serialReplica(*two, cfg.noc, samples, counts);
                for (std::size_t i = 0; i < want.size(); ++i) {
                    const std::string what =
                        "bucket " + std::to_string(bucket) +
                        " reorder " + std::to_string(reorder) +
                        " degraded " + std::to_string(degraded) +
                        " sample " + std::to_string(i);
                    // serialReplica runs healthy chips: degraded
                    // mode moves the chip's charges, not its spikes.
                    const auto &got = run.per_sample[i];
                    EXPECT_EQ(got.noc_cut_flits, want[i].noc_cut_flits)
                        << what;
                    EXPECT_EQ(got.noc_flits, want[i].noc_flits) << what;
                    EXPECT_EQ(got.noc_flit_hops, want[i].noc_flit_hops)
                        << what;
                    EXPECT_EQ(got.noc_latency_cycles,
                              want[i].noc_latency_cycles)
                        << what;
                    if (!degraded) {
                        EXPECT_EQ(engine::statsJson(got),
                                  engine::statsJson(want[i]))
                            << what;
                    }
                }
            }
        }
    }
    EXPECT_GT(non_natural, 0);
}

TEST(EngineBatching, MergedStatsMatchRecordedSerialRun)
{
    // Recorded from the serial engine loop (one sample, one time
    // step, one stage chip at a time) that the batch path replaced:
    // the float totals must come out byte for byte, so the charge
    // order (time step, stage, layer) cannot drift.
    const char *const kWant[] = {
        R"({"frames": 9, "time_steps": 29, "input_pulses": 4948, )"
        R"("synaptic_ops": 4948, "output_spikes": 3, )"
        R"("underflow_spikes": 2, "multi_fires": 2, )"
        R"("reload_events": 8816, "failed_npes": 0, )"
        R"("remapped_neurons": 0, "degraded_passes": 0, )"
        R"("disabled_neurons": 0, "plan_reloads": 304, )"
        R"("est_time_ps": 426456.42999999999, )"
        R"("reload_time_ps": 137750, )"
        R"("dynamic_energy_j": 2.9687999999999998e-14, )"
        R"("jj_utilisation": 0.1052068674359696, )"
        R"("area_utilisation": 0.29728637340612818, "noc_packets": 0, )"
        R"("noc_flits": 0, "noc_flit_hops": 0, )"
        R"("noc_hol_stall_cycles": 0, "noc_backpressure_stalls": 0, )"
        R"("noc_latency_cycles": 0, "noc_max_step_link_flits": 0, )"
        R"("noc_latency_ps": 0, "noc_max_link_utilisation": 0, )"
        R"("noc_cut_flits": []})",
        R"({"frames": 9, "time_steps": 29, "input_pulses": 4948, )"
        R"("synaptic_ops": 4948, "output_spikes": 3, )"
        R"("underflow_spikes": 2, "multi_fires": 2, )"
        R"("reload_events": 8816, "failed_npes": 0, )"
        R"("remapped_neurons": 0, "degraded_passes": 0, )"
        R"("disabled_neurons": 0, "plan_reloads": 304, )"
        R"("est_time_ps": 427756.42999999999, )"
        R"("reload_time_ps": 137750, )"
        R"("dynamic_energy_j": 2.9687999999999998e-14, )"
        R"("jj_utilisation": 1, )"
        R"("area_utilisation": 4.5637619040000002e-08, )"
        R"("noc_packets": 87, "noc_flits": 267, "noc_flit_hops": 96, )"
        R"("noc_hol_stall_cycles": 0, "noc_backpressure_stalls": 0, )"
        R"("noc_latency_cycles": 65, "noc_max_step_link_flits": 3, )"
        R"("noc_latency_ps": 1300, )"
        R"("noc_max_link_utilisation": 0.66666666666666663, )"
        R"("noc_cut_flits": [64]})",
        R"({"frames": 9, "time_steps": 29, "input_pulses": 4948, )"
        R"("synaptic_ops": 4948, "output_spikes": 3, )"
        R"("underflow_spikes": 2, "multi_fires": 2, )"
        R"("reload_events": 9019, "failed_npes": 1, )"
        R"("remapped_neurons": 203, "degraded_passes": 203, )"
        R"("disabled_neurons": 0, "plan_reloads": 304, )"
        R"("est_time_ps": 976162.85999999999, )"
        R"("reload_time_ps": 398750, )"
        R"("dynamic_energy_j": 2.9687999999999998e-14, )"
        R"("jj_utilisation": 0.1052068674359696, )"
        R"("area_utilisation": 0.29728637340612818, "noc_packets": 0, )"
        R"("noc_flits": 0, "noc_flit_hops": 0, )"
        R"("noc_hol_stall_cycles": 0, "noc_backpressure_stalls": 0, )"
        R"("noc_latency_cycles": 0, "noc_max_step_link_flits": 0, )"
        R"("noc_latency_ps": 0, "noc_max_link_utilisation": 0, )"
        R"("noc_cut_flits": []})",
    };
    const BatchingCase bc = batchingCase();
    // 1-chip plan, 2-chip plan over the NoC, degraded 1-chip plan.
    for (int plan = 0; plan < 3; ++plan) {
        engine::EngineConfig cfg;
        cfg.replicas = 2;
        cfg.drain_degraded = false;
        cfg.noc.enabled = true;
        cfg.noc.link_bandwidth_flits = 2;
        engine::InferenceEngine eng(plan == 1 ? bc.two : bc.one, cfg);
        if (plan == 2) {
            eng.markReplicaDegraded(0, 1);
            eng.markReplicaDegraded(1, 2);
        }
        EXPECT_EQ(engine::statsJson(eng.run(bc.samples).merged),
                  kWant[plan])
            << "plan " << plan;
    }
}

TEST(BinarizeFuzz, SignOfZeroAndNaN)
{
    snn::Tensor w(1, 4);
    w.at(0, 0) = 0.0f;
    w.at(0, 1) = -0.0f; // must binarize like +0.0f
    w.at(0, 2) = -1.0f;
    w.at(0, 3) = std::numeric_limits<float>::quiet_NaN();
    const auto layer = snn::binarizeLayer(w, {0.0f}, 1.0f);
    EXPECT_EQ(layer.weights[0][0], 1);
    EXPECT_EQ(layer.weights[0][1], 1);
    EXPECT_EQ(layer.weights[0][2], -1);
    EXPECT_EQ(layer.weights[0][3], -1);

    // Effective weights round with the identical predicate.
    const auto eff = snn::binaryEffectiveWeights(w);
    EXPECT_GT(eff.at(0, 0), 0.0f);
    EXPECT_GT(eff.at(0, 1), 0.0f);
    EXPECT_LT(eff.at(0, 2), 0.0f);
    EXPECT_LT(eff.at(0, 3), 0.0f);
}

TEST(BinarizeFuzz, ExtremeFloatsClampDeterministically)
{
    // Denormal weights: alpha is tiny but positive, the raw
    // threshold is astronomical — the clamp must keep the double ->
    // int cast defined (UBSan enforces this) and land on the
    // "never fires" sentinel in_dim + 1.
    const std::size_t in = 6;
    snn::Tensor w(2, in);
    for (std::size_t i = 0; i < in; ++i) {
        w.at(0, i) = 1.0e-42f;
        w.at(1, i) = -1.0e-42f;
    }
    const auto tiny =
        snn::binarizeLayer(w, {0.0f, 0.0f}, 1.0f);
    EXPECT_EQ(tiny.thresholds[0], static_cast<int>(in) + 1);
    EXPECT_EQ(tiny.thresholds[1], static_cast<int>(in) + 1);

    // Runaway biases push the raw threshold to +-huge; both ends
    // clamp to the always/never-fires sentinels.
    snn::Tensor w2(2, in);
    for (std::size_t i = 0; i < in; ++i) {
        w2.at(0, i) = 0.5f;
        w2.at(1, i) = 0.5f;
    }
    const auto big =
        snn::binarizeLayer(w2, {1.0e30f, -1.0e30f}, 1.0f);
    EXPECT_EQ(big.thresholds[0], -(static_cast<int>(in) + 1));
    EXPECT_EQ(big.thresholds[1], static_cast<int>(in) + 1);

    // The clamped network still runs and behaves as the sentinels
    // say: neuron 0 fires every step, neuron 1 never.
    auto net = snn::BinarySnn::fromLayers({big}, 1);
    const auto spikes =
        net.stepForward(std::vector<std::uint8_t>(in, 0));
    EXPECT_EQ(spikes[0], 1);
    EXPECT_EQ(spikes[1], 0);

    // Fuzz sweep over nasty magnitudes: every threshold must stay in
    // the defined clamp range whatever the weight/bias scales.
    Rng rng(4242);
    const float scales[] = {1.0e-42f, 1.0e-30f, 1.0e-6f, 1.0f,
                            1.0e6f,   1.0e30f,  3.4e38f};
    for (int c = 0; c < 60; ++c) {
        const std::size_t dim = 1 + rng.below(80);
        snn::Tensor wf(1, dim);
        for (std::size_t i = 0; i < dim; ++i) {
            const float s = scales[rng.below(7)];
            wf.at(0, i) = rng.chance(0.5) ? s : -s;
        }
        const float bias =
            static_cast<float>(rng.uniform(-1.0, 1.0)) *
            scales[rng.below(7)];
        const auto layer = snn::binarizeLayer(wf, {bias}, 1.0f);
        EXPECT_LE(layer.thresholds[0], static_cast<int>(dim) + 1)
            << "case " << c;
        EXPECT_GE(layer.thresholds[0], -(static_cast<int>(dim) + 1))
            << "case " << c;
    }
}

} // namespace
} // namespace sushi
