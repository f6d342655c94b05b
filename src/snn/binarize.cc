#include "snn/binarize.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace sushi::snn {

namespace {

/**
 * Integer firing threshold with deterministic rounding. The raw
 * ceil((theta - bias) / alpha) can be astronomically large (tiny
 * alpha, runaway trained bias) and casting that double to int is
 * undefined behaviour. Membranes live in [-in_dim, +in_dim], so any
 * threshold at or below -(in_dim + 1) fires every step and any at or
 * above in_dim + 1 never fires: clamping to that closed range
 * preserves behaviour bit-for-bit while keeping the cast defined.
 * NaN input (guarded alpha makes it unreachable from here, but the
 * clamp must still be total) resolves to the lower bound.
 */
int
clampedThreshold(double raw, std::size_t in_dim)
{
    const double hi = static_cast<double>(in_dim) + 1.0;
    const double lo = -hi;
    // max(lo, NaN) yields lo, so NaN deterministically "always
    // fires" rather than tripping float-cast-overflow UB.
    return static_cast<int>(std::min(hi, std::max(lo, raw)));
}

} // namespace

std::vector<double>
rowAlphas(const Tensor &w)
{
    // kRows rows advance together, each in its own accumulator and
    // in ascending column order: every row's sum is the sequential
    // one, and the rows' dependency chains overlap. A short last
    // group repeats its final row.
    constexpr std::size_t kRows = 8;
    const std::size_t n = w.cols();
    std::vector<double> alpha(w.rows());
    for (std::size_t o0 = 0; o0 < w.rows(); o0 += kRows) {
        const std::size_t m = std::min(kRows, w.rows() - o0);
        const float *rows[kRows];
        for (std::size_t r = 0; r < kRows; ++r)
            rows[r] = w.row(o0 + std::min(r, m - 1));
        double acc[kRows] = {};
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t r = 0; r < kRows; ++r)
                acc[r] += std::fabs(rows[r][i]);
        for (std::size_t r = 0; r < m; ++r) {
            const double a = acc[r] / static_cast<double>(n);
            // `a > 0` is false for NaN as well as for zero.
            alpha[o0 + r] = a > 0.0 ? a : 1.0;
        }
    }
    return alpha;
}

long
BinaryLayer::positiveSynapses() const
{
    long n = 0;
    for (const auto &row : weights)
        for (std::int8_t w : row)
            n += w > 0 ? 1 : 0;
    return n;
}

long
BinaryLayer::negativeSynapses() const
{
    long n = 0;
    for (const auto &row : weights)
        for (std::int8_t w : row)
            n += w < 0 ? 1 : 0;
    return n;
}

BinaryLayer
binarizeLayer(const Tensor &w, const std::vector<float> &b,
              float threshold)
{
    sushi_assert(b.size() == w.rows());
    BinaryLayer layer;
    layer.weights.resize(w.rows());
    layer.thresholds.resize(w.rows());
    const std::vector<double> alphas = rowAlphas(w);
    for (std::size_t o = 0; o < w.rows(); ++o) {
        const float *row = w.row(o);
        const double alpha = alphas[o];

        auto &bw = layer.weights[o];
        bw.resize(w.cols());
        for (std::size_t i = 0; i < w.cols(); ++i)
            bw[i] = binaryPositive(row[i]) ? 1 : -1;

        // Fire iff alpha * (B . x) + bias >= threshold.
        layer.thresholds[o] = clampedThreshold(
            std::ceil((static_cast<double>(threshold) - b[o]) /
                      alpha),
            w.cols());
    }
    return layer;
}

Tensor
binaryEffectiveWeights(const Tensor &w)
{
    Tensor eff(w.rows(), w.cols());
    const std::vector<double> alphas = rowAlphas(w);
    for (std::size_t o = 0; o < w.rows(); ++o) {
        const float *row = w.row(o);
        const double alpha = alphas[o];
        float *erow = eff.row(o);
        for (std::size_t i = 0; i < w.cols(); ++i)
            erow[i] = binaryPositive(row[i])
                          ? static_cast<float>(alpha)
                          : -static_cast<float>(alpha);
    }
    return eff;
}

SnnMlp
toEffectiveBinary(const SnnMlp &net)
{
    SnnMlp out = net;
    out.w1 = binaryEffectiveWeights(net.w1);
    out.w2 = binaryEffectiveWeights(net.w2);
    return out;
}

BinarySnn
BinarySnn::fromFloat(const SnnMlp &net)
{
    BinarySnn out;
    out.t_steps_ = net.config().t_steps;
    out.layers_.push_back(
        binarizeLayer(net.w1, net.b1, net.config().threshold));
    out.layers_.push_back(
        binarizeLayer(net.w2, net.b2, net.config().threshold));
    out.buildPacked();
    return out;
}

BinarySnn
BinarySnn::fromLayers(std::vector<BinaryLayer> layers, int t_steps)
{
    if (layers.empty())
        throw std::invalid_argument("BinarySnn needs at least one "
                                    "layer");
    if (t_steps < 1)
        throw std::invalid_argument("BinarySnn t_steps " +
                                    std::to_string(t_steps) + " < 1");
    for (std::size_t k = 0; k + 1 < layers.size(); ++k)
        if (layers[k].outDim() != layers[k + 1].inDim())
            throw std::invalid_argument(
                "layer " + std::to_string(k) + " has " +
                std::to_string(layers[k].outDim()) +
                " outputs but layer " + std::to_string(k + 1) +
                " takes " + std::to_string(layers[k + 1].inDim()) +
                " inputs");
    BinarySnn out;
    out.layers_ = std::move(layers);
    out.t_steps_ = t_steps;
    out.buildPacked();
    return out;
}

void
BinarySnn::buildPacked()
{
    packed_.clear();
    packed_.reserve(layers_.size());
    bool ok = !layers_.empty();
    for (const BinaryLayer &layer : layers_) {
        packed_.push_back(packed::PackedLayer::fromSigned(
            layer.weights, layer.thresholds));
        ok = ok && packed_.back().packable();
    }
    packed_ready_ = ok;
}

namespace {

/** Throw std::invalid_argument unless @p frame is @p in_dim wide. */
void
checkFrameWidth(const std::vector<std::uint8_t> &frame,
                std::size_t in_dim)
{
    if (frame.size() != in_dim)
        throw std::invalid_argument(
            "frame width " + std::to_string(frame.size()) +
            " != layer input width " + std::to_string(in_dim));
}

} // namespace

int
BinarySnn::membrane(const BinaryLayer &layer, std::size_t neuron,
                    const std::vector<std::uint8_t> &frame)
{
    if (neuron >= layer.outDim())
        throw std::out_of_range(
            "neuron " + std::to_string(neuron) + " outside [0, " +
            std::to_string(layer.outDim()) + ")");
    checkFrameWidth(frame, layer.inDim());
    const auto &row = layer.weights[neuron];
    int m = 0;
    for (std::size_t i = 0; i < frame.size(); ++i)
        if (frame[i])
            m += row[i];
    return m;
}

std::vector<std::uint8_t>
BinarySnn::stepForward(const std::vector<std::uint8_t> &frame) const
{
    if (!layers_.empty())
        checkFrameWidth(frame, layers_.front().inDim());
    if (packed_ready_) {
        // XNOR/popcount fast path; the scalar loop below runs when
        // packing refused the weights (a zero weight).
        std::vector<std::uint8_t> act = frame;
        packed::PackedActivations x;
        for (const packed::PackedLayer &layer : packed_) {
            sushi_assert(act.size() == layer.inDim());
            packed::packRow(act, x);
            std::vector<std::uint8_t> next(layer.outDim(), 0);
            packed::spikeForward(layer, x, next.data(),
                                 packed::Backend::Packed,
                                 /*threads=*/1);
            act = std::move(next);
        }
        return act;
    }
    std::vector<std::uint8_t> act = frame;
    for (const BinaryLayer &layer : layers_) {
        sushi_assert(act.size() == layer.inDim());
        std::vector<std::uint8_t> next(layer.outDim(), 0);
        for (std::size_t o = 0; o < layer.outDim(); ++o) {
            // Stateless neuron: membrane starts from zero each step.
            const int m = membrane(layer, o, act);
            next[o] = m >= layer.thresholds[o] ? 1 : 0;
        }
        act = std::move(next);
    }
    return act;
}

std::vector<int>
BinarySnn::forwardCounts(
    const std::vector<std::vector<std::uint8_t>> &frames) const
{
    sushi_assert(!layers_.empty());
    std::vector<int> counts(layers_.back().outDim(), 0);
    for (const auto &frame : frames) {
        const auto spikes = stepForward(frame);
        for (std::size_t o = 0; o < spikes.size(); ++o)
            counts[o] += spikes[o];
    }
    return counts;
}

int
BinarySnn::predict(
    const std::vector<std::vector<std::uint8_t>> &frames) const
{
    const auto counts = forwardCounts(frames);
    int best = 0;
    for (std::size_t c = 1; c < counts.size(); ++c)
        if (counts[c] > counts[static_cast<std::size_t>(best)])
            best = static_cast<int>(c);
    return best;
}

} // namespace sushi::snn
