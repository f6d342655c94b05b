/**
 * @file
 * Procedural clothing-silhouette dataset (the Fashion-MNIST
 * stand-in).
 *
 * Ten filled-silhouette classes matching Fashion-MNIST's label set
 * (t-shirt, trouser, pullover, dress, coat, sandal, shirt, sneaker,
 * bag, ankle boot). Several classes deliberately overlap in shape
 * (t-shirt / shirt / pullover / coat; sneaker / ankle boot), so the
 * task is measurably harder than the digit task — preserving the
 * paper's MNIST-vs-Fashion-MNIST difficulty ordering in Table 3.
 */

#ifndef SUSHI_DATA_SYNTH_FASHION_HH
#define SUSHI_DATA_SYNTH_FASHION_HH

#include <cstdint>

#include "data/dataset.hh"

namespace sushi::data {

/** Generate @p n labelled clothing images. */
Dataset synthFashion(std::size_t n, std::uint64_t seed);

/** Class names matching Fashion-MNIST's labels; throws
 *  std::out_of_range for a label outside 0-9. */
const char *fashionClassName(int label);

} // namespace sushi::data

#endif // SUSHI_DATA_SYNTH_FASHION_HH
