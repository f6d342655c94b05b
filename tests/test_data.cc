/**
 * @file
 * Tests for the synthetic dataset generators and the perf models.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "data/synth_digits.hh"
#include "data/synth_fashion.hh"
#include "perf/baselines.hh"
#include "perf/power_model.hh"

namespace sushi {
namespace {

TEST(Canvas, StrokeLeavesInk)
{
    data::Canvas c;
    c.stroke({5, 5}, {22, 22}, 2.0f);
    double ink = 0;
    for (float p : c.pixels())
        ink += p;
    EXPECT_GT(ink, 10.0);
}

TEST(Canvas, FillConvexCoversInterior)
{
    data::Canvas c;
    c.fillConvex({{8, 8}, {20, 8}, {20, 20}, {8, 20}});
    // Centre pixel must be inked, far corner must not.
    EXPECT_GT(c.pixels()[14 * 28 + 14], 0.5f);
    EXPECT_FLOAT_EQ(c.pixels()[1 * 28 + 1], 0.0f);
}

TEST(Canvas, NoiseStaysInRange)
{
    data::Canvas c;
    Rng rng(3);
    c.addNoise(rng, 0.5f);
    for (float p : c.pixels()) {
        EXPECT_GE(p, 0.0f);
        EXPECT_LE(p, 1.0f);
    }
}

TEST(SynthDigits, ShapesAndLabels)
{
    auto ds = data::synthDigits(200, 1);
    EXPECT_EQ(ds.size(), 200u);
    EXPECT_EQ(ds.images.cols(),
              static_cast<std::size_t>(data::kImageDim));
    std::set<int> seen(ds.labels.begin(), ds.labels.end());
    EXPECT_EQ(seen.size(), 10u); // all classes occur
    for (int l : ds.labels) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, 10);
    }
}

TEST(SynthDigits, Deterministic)
{
    auto a = data::synthDigits(20, 7);
    auto b = data::synthDigits(20, 7);
    EXPECT_EQ(a.labels, b.labels);
    for (std::size_t i = 0; i < a.images.size(); ++i)
        EXPECT_EQ(a.images.data()[i], b.images.data()[i]);
}

TEST(SynthDigits, SeedsDiffer)
{
    auto a = data::synthDigits(20, 7);
    auto b = data::synthDigits(20, 8);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.images.size(); ++i)
        any_diff |= a.images.data()[i] != b.images.data()[i];
    EXPECT_TRUE(any_diff);
}

TEST(SynthDigits, GlyphsAreDistinct)
{
    // Every pair of clean glyphs differs in enough pixels.
    for (int a = 0; a < 10; ++a) {
        auto ga = data::digitGlyph(a);
        for (int b = a + 1; b < 10; ++b) {
            auto gb = data::digitGlyph(b);
            double diff = 0;
            for (std::size_t i = 0; i < ga.size(); ++i)
                diff += std::abs(ga[i] - gb[i]);
            EXPECT_GT(diff, 15.0) << a << " vs " << b;
        }
    }
}

TEST(SynthFashion, ShapesAndNames)
{
    auto ds = data::synthFashion(100, 2);
    EXPECT_EQ(ds.size(), 100u);
    std::set<int> seen(ds.labels.begin(), ds.labels.end());
    EXPECT_GE(seen.size(), 8u);
    EXPECT_STREQ(data::fashionClassName(0), "t-shirt");
    EXPECT_STREQ(data::fashionClassName(9), "ankle-boot");
}

TEST(SynthDigits, GlyphOutsideZeroToNineThrows)
{
    EXPECT_THROW(data::digitGlyph(-1), std::out_of_range);
    EXPECT_THROW(data::digitGlyph(10), std::out_of_range);
}

TEST(SynthFashion, ClassNameOutsideZeroToNineThrows)
{
    EXPECT_THROW(data::fashionClassName(-1), std::out_of_range);
    EXPECT_THROW(data::fashionClassName(10), std::out_of_range);
}

TEST(SynthFashion, ImagesHaveInk)
{
    auto ds = data::synthFashion(50, 3);
    for (std::size_t i = 0; i < ds.size(); ++i) {
        double ink = 0;
        for (std::size_t d = 0; d < ds.images.cols(); ++d)
            ink += ds.images.at(i, d);
        EXPECT_GT(ink, 5.0) << "image " << i;
    }
}

TEST(DatasetSplit, PreservesRows)
{
    auto ds = data::synthDigits(30, 4);
    auto [head, tail] = data::split(ds, 10);
    EXPECT_EQ(head.size(), 10u);
    EXPECT_EQ(tail.size(), 20u);
    EXPECT_EQ(head.labels[3], ds.labels[3]);
    EXPECT_EQ(tail.labels[0], ds.labels[10]);
    for (std::size_t d = 0; d < ds.images.cols(); ++d)
        EXPECT_EQ(tail.images.at(5, d), ds.images.at(15, d));
}

TEST(PerfBaselines, PaperRowValues)
{
    const auto &tn = perf::trueNorth();
    EXPECT_DOUBLE_EQ(tn.gsops, 58.0);
    EXPECT_DOUBLE_EQ(tn.gsops_per_w, 400.0);
    const auto &tj = perf::tianjic();
    EXPECT_DOUBLE_EQ(tj.gsops_per_w, 649.0);
    EXPECT_DOUBLE_EQ(tj.power_mw, 950.0);
}

TEST(PerfModel, SushiTable4Anchors)
{
    const auto sushi = perf::sushiPlatform();
    // Table 4: 1,355 GSOPS; 32,366 GSOPS/W; 41.87 mW; 103.75 mm^2.
    EXPECT_NEAR(sushi.gsops, 1355.0, 14.0);
    EXPECT_NEAR(sushi.gsops_per_w, 32366.0, 500.0);
    EXPECT_NEAR(sushi.power_mw, 41.87, 0.5);
    EXPECT_NEAR(sushi.area_mm2, 103.75, 1.1);
    // Headline ratios: 23x TrueNorth GSOPS; 81x / 50x efficiency.
    EXPECT_NEAR(sushi.gsops / perf::trueNorth().gsops, 23.0, 1.0);
    EXPECT_NEAR(sushi.gsops_per_w / perf::trueNorth().gsops_per_w,
                81.0, 3.0);
    EXPECT_NEAR(sushi.gsops_per_w / perf::tianjic().gsops_per_w,
                50.0, 2.0);
}

TEST(PerfModel, StaticPowerDominates)
{
    const double stat = perf::staticPowerMw(99982);
    const double dyn = perf::dynamicPowerMw(1355.0);
    EXPECT_GT(stat, 100.0 * dyn);
}

TEST(PerfModel, SweepShapes)
{
    auto sweep = perf::scalingSweep();
    ASSERT_EQ(sweep.size(), 5u);
    // GSOPS, power and efficiency all rise with scale (Figs. 19-21).
    for (std::size_t i = 1; i < sweep.size(); ++i) {
        EXPECT_GT(sweep[i].gsops, sweep[i - 1].gsops);
        EXPECT_GT(sweep[i].power_mw, sweep[i - 1].power_mw);
        EXPECT_GT(sweep[i].gsops_per_w, sweep[i - 1].gsops_per_w);
    }
    // SUSHI crosses TrueNorth's peak GSOPS between 4 and 8 NPEs
    // (Fig. 19) and its efficiency is above both baselines
    // everywhere (Fig. 21).
    EXPECT_LT(sweep[1].gsops, 58.0);
    EXPECT_GT(sweep[2].gsops, 58.0);
    for (const auto &p : sweep) {
        EXPECT_GT(p.gsops_per_w, 649.0);
    }
}

TEST(PerfModel, FpsNearPaperValue)
{
    // Sec. 6.3: up to 2.61e5 FPS. With the measured ~42 % average
    // spike rates of the verification network the model lands in
    // the same decade.
    const double sops_frame = perf::sopsPerFrame(800, 5, 0.42, 0.42);
    const double fps = perf::framesPerSecond(1355.0, sops_frame);
    EXPECT_GT(fps, 1.0e5);
    EXPECT_LT(fps, 2.0e6);
}

} // namespace
} // namespace sushi
