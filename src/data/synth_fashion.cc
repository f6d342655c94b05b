#include "data/synth_fashion.hh"

#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace sushi::data {

namespace {

/**
 * Torso-with-sleeves silhouette shared by the shirt-like classes.
 * @param sleeve how far the sleeves reach (x offset from torso)
 * @param length torso bottom y
 * @param flare  widening of the hem (dress-like when large)
 */
void
drawTop(Canvas &c, Rng &rng, float sleeve, float length, float flare,
        float intensity)
{
    const float cx = 14.0f;
    const float shoulder = 7.5f + static_cast<float>(
                                      rng.uniform(-0.5, 0.5));
    const float waist = 5.0f + flare;
    // Torso (trapezoid).
    c.fillConvex({{cx - shoulder * 0.7f, 8},
                  {cx + shoulder * 0.7f, 8},
                  {cx + waist, length},
                  {cx - waist, length}},
                 intensity);
    // Sleeves.
    if (sleeve > 0) {
        c.fillConvex({{cx - shoulder * 0.7f, 8},
                      {cx - shoulder * 0.7f - sleeve, 11.5f},
                      {cx - shoulder * 0.7f - sleeve + 1.5f, 14},
                      {cx - shoulder * 0.55f, 11}},
                     intensity);
        c.fillConvex({{cx + shoulder * 0.7f, 8},
                      {cx + shoulder * 0.7f + sleeve, 11.5f},
                      {cx + shoulder * 0.7f + sleeve - 1.5f, 14},
                      {cx + shoulder * 0.55f, 11}},
                     intensity);
    }
}

void
drawShoe(Canvas &c, Rng &rng, float shaft_height, float intensity)
{
    const float jig = static_cast<float>(rng.uniform(-0.6, 0.6));
    // Sole + toe wedge.
    c.fillConvex({{5, 19 + jig},
                  {23, 17.5f + jig},
                  {23.5f, 21 + jig},
                  {5, 21.5f + jig}},
                 intensity);
    // Shaft (tall for boots, small for sneakers, none for sandals).
    if (shaft_height > 0) {
        c.fillConvex({{5.5f, 19 + jig},
                      {5.5f, 19 - shaft_height + jig},
                      {11, 19 - shaft_height + jig},
                      {12.5f, 19 + jig}},
                     intensity);
    }
}

void
drawClass(Canvas &c, Rng &rng, int label)
{
    const float inten =
        0.75f + static_cast<float>(rng.uniform(0.0, 0.25));
    switch (label) {
      case 0: // t-shirt: short sleeves, mid length
        drawTop(c, rng, 3.5f, 19, 0.4f, inten);
        break;
      case 1: // trouser: two legs
        c.fillConvex({{10, 6}, {18, 6}, {18, 9}, {10, 9}}, inten);
        c.fillConvex({{10, 9}, {13, 9}, {12.5f, 23}, {9.5f, 23}},
                     inten);
        c.fillConvex({{15, 9}, {18, 9}, {18.5f, 23}, {15.5f, 23}},
                     inten);
        break;
      case 2: // pullover: long sleeves, mid length
        drawTop(c, rng, 5.5f, 19, 0.2f, inten);
        break;
      case 3: // dress: sleeveless, long, flared
        drawTop(c, rng, 0.0f, 24, 3.5f, inten);
        break;
      case 4: // coat: long sleeves, long body
        drawTop(c, rng, 5.5f, 23, 1.2f, inten);
        break;
      case 5: // sandal: sole only + straps
        drawShoe(c, rng, 0.0f, inten);
        c.stroke({8, 15.5f}, {14, 19}, 1.2f, inten);
        c.stroke({14, 15.5f}, {9, 19}, 1.2f, inten);
        break;
      case 6: // shirt: short-ish sleeves, slightly long
        drawTop(c, rng, 4.2f, 21, 0.6f, inten);
        break;
      case 7: // sneaker: low shaft
        drawShoe(c, rng, 3.0f, inten);
        break;
      case 8: // bag: box + handle
        c.fillConvex({{7, 12}, {21, 12}, {22, 22}, {6, 22}}, inten);
        c.stroke({11, 12}, {12.5f, 7}, 1.4f, inten);
        c.stroke({12.5f, 7}, {16, 7}, 1.4f, inten);
        c.stroke({16, 7}, {17.5f, 12}, 1.4f, inten);
        break;
      case 9: // ankle boot: tall shaft
        drawShoe(c, rng, 7.0f, inten);
        break;
      default:
        sushi_panic("bad fashion label %d", label);
    }
}

const char *kNames[] = {
    "t-shirt", "trouser", "pullover", "dress",      "coat",
    "sandal",  "shirt",   "sneaker",  "bag",        "ankle-boot",
};

} // namespace

const char *
fashionClassName(int label)
{
    if (label < 0 || label >= kNumClasses)
        throw std::out_of_range("fashionClassName: label " +
                                std::to_string(label) +
                                " is outside 0-9");
    return kNames[label];
}

Dataset
synthFashion(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset ds;
    ds.images = snn::Tensor(n, static_cast<std::size_t>(kImageDim));
    ds.labels.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int label = static_cast<int>(rng.below(10));
        Canvas c;
        drawClass(c, rng, label);
        c.jitter(rng, /*rotate=*/0.16f, /*translate=*/1.8f,
                 /*scale=*/0.16f);
        c.addNoise(rng, 0.09f);
        std::copy(c.pixels().begin(), c.pixels().end(),
                  ds.images.row(i));
        ds.labels[i] = label;
    }
    return ds;
}

} // namespace sushi::data
