/**
 * @file
 * XNOR-Net binarization and the stateless SSNN model, paper Sec. 5.1.
 *
 * SSNN maps the trained float SNN onto {-1, +1} weights: each
 * neuron's row is binarized by sign, the row's scaling factor
 * alpha = mean(|w|) is folded into the firing threshold together
 * with the bias ("we normalize the weights to scaling parameters and
 * process them during thresholding"), and the neuron becomes
 * *stateless* — the membrane is reset to zero at the end of every
 * time step, eliminating the potential-residual storage that
 * superconducting circuits cannot afford.
 *
 * A binary neuron therefore fires at step t iff
 *     sum_i B_i * x_i[t]  >=  ceil((theta - bias) / alpha)
 * with B integer in {-1, +1} and x binary — exactly the quantity the
 * NPE ripple counter accumulates in pulses.
 */

#ifndef SUSHI_SNN_BINARIZE_HH
#define SUSHI_SNN_BINARIZE_HH

#include <cstdint>
#include <vector>

#include "snn/network.hh"
#include "snn/packed.hh"

namespace sushi::snn {

/** One binarized fully-connected layer. */
struct BinaryLayer
{
    /** weights[o][i] in {-1, +1}. */
    std::vector<std::vector<std::int8_t>> weights;
    /** Integer firing threshold per output neuron (may be <= 0:
     *  such a neuron fires every step, or > in_dim: never fires). */
    std::vector<int> thresholds;

    std::size_t outDim() const { return weights.size(); }
    std::size_t inDim() const
    {
        return weights.empty() ? 0 : weights[0].size();
    }

    /** Total positive / negative synapse counts (for bucketing). */
    long positiveSynapses() const;
    long negativeSynapses() const;
};

/** The binarized stateless SSNN. */
class BinarySnn
{
  public:
    /** Binarize a trained float network. */
    static BinarySnn fromFloat(const SnnMlp &net);

    /** Assemble directly from layers (tests, hand-built networks).
     *  @throws std::invalid_argument if @p layers is empty,
     *          @p t_steps < 1, or a layer's outDim() differs from
     *          the next layer's inDim(). */
    static BinarySnn fromLayers(std::vector<BinaryLayer> layers,
                                int t_steps);

    const std::vector<BinaryLayer> &layers() const { return layers_; }
    int tSteps() const { return t_steps_; }

    /**
     * True when every layer packed into XNOR/popcount form (all
     * weights exactly -1/+1) so stepForward can take the bit-packed
     * fast path. Hand-built layers with zero or junk weights keep
     * the scalar path — packing never changes results.
     */
    bool packedReady() const { return packed_ready_; }

    /** Per-layer packed kernels (valid iff packedReady()). */
    const std::vector<packed::PackedLayer> &packedLayers() const
    {
        return packed_;
    }

    /**
     * Stateless forward over one binary input frame: returns the
     * spike vector of the final layer for this time step.
     * @throws std::invalid_argument if the frame is not the first
     *         layer's input width (so also forwardCounts, predict)
     */
    std::vector<std::uint8_t>
    stepForward(const std::vector<std::uint8_t> &frame) const;

    /**
     * Full rate-coded inference: runs every time step statelessly
     * and returns summed output spike counts.
     */
    std::vector<int>
    forwardCounts(const std::vector<std::vector<std::uint8_t>> &frames)
        const;

    /** Argmax prediction from forwardCounts. */
    int predict(const std::vector<std::vector<std::uint8_t>> &frames)
        const;

    /**
     * Integer membrane at a single layer for one frame (the exact
     * value the NPE counter reaches); used by tests and the compiler
     * to bound state ranges.
     * @throws std::out_of_range if @p neuron is not a layer output
     * @throws std::invalid_argument if the frame is not the layer's
     *         input width
     */
    static int membrane(const BinaryLayer &layer, std::size_t neuron,
                        const std::vector<std::uint8_t> &frame);

  private:
    void buildPacked();

    std::vector<BinaryLayer> layers_;
    std::vector<packed::PackedLayer> packed_;
    bool packed_ready_ = false;
    int t_steps_ = 0;
};

/**
 * The single binarization sign predicate: w >= 0 maps to +1 (so
 * -0.0f and +0.0f agree), NaN maps to -1 (the comparison is false).
 * binarizeLayer, binaryEffectiveWeights and PackedLayer::fromFloat
 * must round identically or the packed-vs-scalar parity breaks on
 * sign-of-zero inputs.
 */
inline bool
binaryPositive(float w)
{
    return w >= 0.0f;
}

/**
 * Row scaling factors alpha_o = mean(|w_o|), one per row of @p w,
 * each a double sum in ascending column order. A degenerate row (all
 * zeros, or any NaN poisoning the mean) falls back to 1.0 instead of
 * producing a NaN threshold.
 */
std::vector<double> rowAlphas(const Tensor &w);

/** Binarize one float layer (sign weights, folded thresholds). */
BinaryLayer binarizeLayer(const Tensor &w, const std::vector<float> &b,
                          float threshold);

/**
 * XNOR-Net effective weights: each row becomes
 * alpha * sign(w) with alpha = mean(|row|). These are the (floating
 * point) weights the binarization-aware trainer runs forward with,
 * and the weights the SpikingJelly-reference column of Table 3 uses.
 */
Tensor binaryEffectiveWeights(const Tensor &w);

/**
 * A copy of @p net whose weights are replaced by their XNOR-Net
 * effective values — the float *reference* model of Table 3
 * (stateful IF, float arithmetic).
 */
SnnMlp toEffectiveBinary(const SnnMlp &net);

} // namespace sushi::snn

#endif // SUSHI_SNN_BINARIZE_HH
