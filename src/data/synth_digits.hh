/**
 * @file
 * Procedural handwritten-digit dataset (the MNIST stand-in).
 *
 * Each class is a polyline glyph of its digit, stroke-rendered with
 * per-sample jitter (rotation, translation, scale, stroke thickness)
 * and pixel noise. Deterministic in the seed.
 */

#ifndef SUSHI_DATA_SYNTH_DIGITS_HH
#define SUSHI_DATA_SYNTH_DIGITS_HH

#include <cstdint>

#include "data/dataset.hh"

namespace sushi::data {

/**
 * Generate @p n labelled digit images (labels cycle 0..9).
 * @param seed stream seed; equal seeds give identical datasets
 */
Dataset synthDigits(std::size_t n, std::uint64_t seed);

/** Render one clean digit glyph (no jitter/noise), for tests.
 *  Throws std::out_of_range for a digit outside 0-9. */
std::vector<float> digitGlyph(int digit);

} // namespace sushi::data

#endif // SUSHI_DATA_SYNTH_DIGITS_HH
