#include "data/synth_digits.hh"

#include <cmath>
#include <stdexcept>
#include <string>

namespace sushi::data {

namespace {

void
strokePolyline(Canvas &c, const std::vector<Point> &pts,
               float thickness)
{
    for (std::size_t i = 0; i + 1 < pts.size(); ++i)
        c.stroke(pts[i], pts[i + 1], thickness);
}

void
strokeEllipse(Canvas &c, float cx, float cy, float rx, float ry,
              float thickness)
{
    std::vector<Point> pts;
    const int segs = 16;
    for (int i = 0; i <= segs; ++i) {
        const float a = 6.2831853f * static_cast<float>(i) /
                        static_cast<float>(segs);
        pts.push_back(Point{cx + rx * std::cos(a),
                            cy + ry * std::sin(a)});
    }
    strokePolyline(c, pts, thickness);
}

/** Stroke the glyph of one digit onto the canvas. */
void
drawDigit(Canvas &c, int digit, float th)
{
    switch (digit) {
      case 0:
        strokeEllipse(c, 14, 14, 5.5f, 8, th);
        break;
      case 1:
        strokePolyline(c, {{11, 9}, {14.5f, 5.5f}, {14.5f, 22}}, th);
        break;
      case 2:
        strokePolyline(c,
                       {{9, 10},
                        {10, 7},
                        {14, 5.5f},
                        {18, 7},
                        {19, 10},
                        {9, 22},
                        {20, 22}},
                       th);
        break;
      case 3:
        strokePolyline(c,
                       {{9, 6},
                        {18, 6},
                        {13, 13},
                        {18, 15},
                        {18.5f, 19},
                        {15, 22},
                        {9, 21}},
                       th);
        break;
      case 4:
        strokePolyline(c, {{16, 5.5f}, {8, 16}, {20, 16}}, th);
        c.stroke({16, 5.5f}, {16, 22.5f}, th);
        break;
      case 5:
        strokePolyline(c,
                       {{19, 6},
                        {9.5f, 6},
                        {9.5f, 13},
                        {15, 12.5f},
                        {19, 16},
                        {16, 21.5f},
                        {9, 21}},
                       th);
        break;
      case 6:
        strokePolyline(c, {{17, 5.5f}, {12, 11}, {9.5f, 16}}, th);
        strokeEllipse(c, 14, 17.5f, 4.5f, 5, th);
        break;
      case 7:
        strokePolyline(c, {{8.5f, 6}, {20, 6}, {12.5f, 22.5f}}, th);
        break;
      case 8:
        strokeEllipse(c, 14, 9.5f, 4.2f, 4, th);
        strokeEllipse(c, 14, 18, 5, 4.5f, th);
        break;
      case 9:
        strokeEllipse(c, 13.5f, 10.5f, 4.5f, 4.5f, th);
        strokePolyline(c, {{18, 11.5f}, {17, 22.5f}}, th);
        break;
      default:
        throw std::out_of_range("digitGlyph: digit " +
                                std::to_string(digit) +
                                " is outside 0-9");
    }
}

} // namespace

std::vector<float>
digitGlyph(int digit)
{
    Canvas c;
    drawDigit(c, digit, 2.0f);
    return c.pixels();
}

Dataset
synthDigits(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset ds;
    ds.images = snn::Tensor(n, static_cast<std::size_t>(kImageDim));
    ds.labels.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int digit = static_cast<int>(rng.below(10));
        Canvas c;
        const float th =
            2.0f + static_cast<float>(rng.uniform(-0.5, 0.7));
        drawDigit(c, digit, th);
        c.jitter(rng, /*rotate=*/0.22f, /*translate=*/2.2f,
                 /*scale=*/0.14f);
        c.addNoise(rng, 0.06f);
        std::copy(c.pixels().begin(), c.pixels().end(),
                  ds.images.row(i));
        ds.labels[i] = digit;
    }
    return ds;
}

} // namespace sushi::data
