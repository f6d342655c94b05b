/**
 * @file
 * Tests for the extension modules: model serialization and the
 * convolutional lowering.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "compiler/conv_lowering.hh"
#include "snn/model_io.hh"

namespace sushi {
namespace {

snn::BinarySnn
randomNet(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<snn::BinaryLayer> layers;
    std::size_t in_dim = 12;
    for (std::size_t out_dim : {7UL, 3UL}) {
        snn::BinaryLayer layer;
        layer.weights.resize(out_dim);
        layer.thresholds.resize(out_dim);
        for (std::size_t o = 0; o < out_dim; ++o) {
            for (std::size_t i = 0; i < in_dim; ++i)
                layer.weights[o].push_back(rng.chance(0.5) ? 1
                                                           : -1);
            layer.thresholds[o] =
                static_cast<int>(rng.range(-2, 6));
        }
        layers.push_back(std::move(layer));
        in_dim = out_dim;
    }
    return snn::BinarySnn::fromLayers(std::move(layers), 5);
}

TEST(ModelIo, RoundTripPreservesEverything)
{
    auto net = randomNet(77);
    auto restored =
        snn::binarySnnFromString(snn::binarySnnToString(net));
    ASSERT_EQ(restored.layers().size(), net.layers().size());
    EXPECT_EQ(restored.tSteps(), net.tSteps());
    for (std::size_t l = 0; l < net.layers().size(); ++l) {
        EXPECT_EQ(restored.layers()[l].weights,
                  net.layers()[l].weights);
        EXPECT_EQ(restored.layers()[l].thresholds,
                  net.layers()[l].thresholds);
    }
}

TEST(ModelIo, RoundTripPreservesBehaviour)
{
    auto net = randomNet(78);
    auto restored =
        snn::binarySnnFromString(snn::binarySnnToString(net));
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::vector<std::uint8_t>> frames;
        for (int t = 0; t < 5; ++t) {
            std::vector<std::uint8_t> f(12);
            for (auto &v : f)
                v = rng.chance(0.5);
            frames.push_back(std::move(f));
        }
        EXPECT_EQ(restored.forwardCounts(frames),
                  net.forwardCounts(frames));
    }
}

TEST(ModelIo, FormatIsHumanReadable)
{
    auto net = randomNet(79);
    const std::string text = snn::binarySnnToString(net);
    EXPECT_NE(text.find("sushi-ssnn v1"), std::string::npos);
    EXPECT_NE(text.find("t_steps 5"), std::string::npos);
    EXPECT_NE(text.find("layer 12 7"), std::string::npos);
    EXPECT_NE(text.find("row "), std::string::npos);
}

TEST(ModelIo, RejectsWrongMagic)
{
    EXPECT_THROW(snn::binarySnnFromString("not-a-model v9\n"),
                 snn::ModelFormatError);
}

TEST(ModelIo, RejectsTruncated)
{
    auto net = randomNet(80);
    std::string text = snn::binarySnnToString(net);
    text.resize(text.size() / 2);
    EXPECT_THROW(snn::binarySnnFromString(text), snn::ModelFormatError);
}

TEST(ModelIo, RejectsLayerChainMismatch)
{
    // Layer 1 claims 6 inputs, but layer 0 has 7 outputs: inference
    // on such a model could never run.
    const std::string text = "sushi-ssnn v1\nt_steps 2\nlayers 2\n"
                             "layer 2 7\nthresholds 1 1 1 1 1 1 1\n"
                             "row ++\nrow ++\nrow ++\nrow ++\n"
                             "row ++\nrow ++\nrow ++\n"
                             "layer 6 1\nthresholds 1\nrow ++++++\n";
    EXPECT_THROW(snn::binarySnnFromString(text), snn::ModelFormatError);
}

TEST(ModelIo, HugeHeaderFailsAtFirstMissingRecord)
{
    // Declared sizes are not trusted: a ~10^11-row header must fail
    // on the missing data, not reserve for it first.
    EXPECT_THROW(snn::binarySnnFromString(
                     "sushi-ssnn v1\nt_steps 1\nlayers 1\n"
                     "layer 1 99999999999\nthresholds 1\nrow +\n"),
                 snn::ModelFormatError);
}

/** Load @p text; true if it loaded (and then runs), false if it was
 *  rejected with ModelFormatError. Anything else fails the test. */
bool
loadsOrRejects(const std::string &text)
{
    try {
        const auto net = snn::binarySnnFromString(text);
        const std::vector<std::vector<std::uint8_t>> frames(
            static_cast<std::size_t>(net.tSteps()),
            std::vector<std::uint8_t>(net.layers()[0].inDim(), 1));
        EXPECT_EQ(net.forwardCounts(frames).size(),
                  net.layers().back().outDim());
        return true;
    } catch (const snn::ModelFormatError &) {
        return false;
    }
}

TEST(ModelIo, FuzzedInputsLoadOrThrowTyped)
{
    const std::string text = snn::binarySnnToString(randomNet(81));
    // Every prefix truncation: only the whole text (give or take the
    // trailing newline) is a model.
    std::size_t loaded = 0;
    for (std::size_t n = 0; n <= text.size(); ++n)
        loaded += loadsOrRejects(text.substr(0, n)) ? 1 : 0;
    EXPECT_EQ(loaded, 2u);
    // Seeded single-byte mutations.
    Rng rng(0xF022);
    for (int i = 0; i < 200; ++i) {
        std::string bad = text;
        bad[rng.below(bad.size())] =
            static_cast<char>(rng.below(256));
        loadsOrRejects(bad);
    }
}

compiler::BinaryConvSpec
randomConv(int h, int w, int ks, int kernels, int stride,
           std::uint64_t seed)
{
    Rng rng(seed);
    compiler::BinaryConvSpec spec;
    spec.in_h = h;
    spec.in_w = w;
    spec.stride = stride;
    for (int k = 0; k < kernels; ++k) {
        std::vector<std::vector<std::int8_t>> kern(
            static_cast<std::size_t>(ks));
        for (auto &row : kern)
            for (int x = 0; x < ks; ++x)
                row.push_back(rng.chance(0.5) ? 1 : -1);
        spec.kernels.push_back(std::move(kern));
        spec.thresholds.push_back(
            static_cast<int>(rng.range(0, ks)));
    }
    return spec;
}

TEST(ConvLowering, Geometry)
{
    auto spec = randomConv(8, 10, 3, 2, 1, 81);
    EXPECT_EQ(spec.outH(), 6);
    EXPECT_EQ(spec.outW(), 8);
    auto lowered = compiler::lowerConv(spec);
    EXPECT_EQ(lowered.layer.outDim(), spec.outDim());
    EXPECT_EQ(lowered.layer.inDim(), 80u);
}

TEST(ConvLowering, StrideShrinksOutput)
{
    auto spec = randomConv(9, 9, 3, 1, 2, 82);
    EXPECT_EQ(spec.outH(), 4);
    auto lowered = compiler::lowerConv(spec);
    EXPECT_EQ(lowered.layer.outDim(), 16u);
}

TEST(ConvLowering, MaskMarksExactlyKernelTaps)
{
    auto spec = randomConv(6, 6, 3, 2, 1, 83);
    auto lowered = compiler::lowerConv(spec);
    for (const auto &mask : lowered.active) {
        int taps = 0;
        for (auto m : mask)
            taps += m;
        EXPECT_EQ(taps, 9); // 3x3 kernel
    }
}

TEST(ConvLowering, LoweredMatchesDirectConvolution)
{
    Rng rng(84);
    auto spec = randomConv(7, 7, 3, 3, 2, 85);
    auto lowered = compiler::lowerConv(spec);
    const int oh = spec.outH(), ow = spec.outW();
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<std::uint8_t> frame(49);
        for (auto &v : frame)
            v = rng.chance(0.5);
        const auto spikes =
            compiler::loweredConvStep(lowered, frame);
        for (std::size_t k = 0; k < spec.kernels.size(); ++k) {
            for (int oy = 0; oy < oh; ++oy) {
                for (int ox = 0; ox < ow; ++ox) {
                    const int m = compiler::convMembrane(
                        spec, frame, static_cast<int>(k), oy, ox);
                    const std::size_t o =
                        (k * static_cast<std::size_t>(oh) + oy) *
                            static_cast<std::size_t>(ow) +
                        static_cast<std::size_t>(ox);
                    EXPECT_EQ(spikes[o],
                              m >= spec.thresholds[k] ? 1 : 0)
                        << "k=" << k << " oy=" << oy
                        << " ox=" << ox;
                }
            }
        }
    }
}

TEST(ConvLowering, SingleTapKernelIsIdentityWindow)
{
    compiler::BinaryConvSpec spec;
    spec.in_h = 3;
    spec.in_w = 3;
    spec.stride = 1;
    spec.kernels = {{{1}}};
    spec.thresholds = {1};
    auto lowered = compiler::lowerConv(spec);
    EXPECT_EQ(lowered.layer.outDim(), 9u);
    // Each output neuron fires iff its single pixel is on.
    std::vector<std::uint8_t> frame = {1, 0, 0, 0, 1, 0, 0, 0, 1};
    const auto spikes = compiler::loweredConvStep(lowered, frame);
    EXPECT_EQ(spikes,
              (std::vector<std::uint8_t>{1, 0, 0, 0, 1, 0, 0, 0,
                                         1}));
}

} // namespace
} // namespace sushi
