/**
 * @file
 * Tests for the model serialization extension (snn/model_io).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
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

} // namespace
} // namespace sushi
