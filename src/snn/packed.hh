/**
 * @file
 * Bit-packed XNOR/popcount kernels for binarized fully-connected
 * layers (ROADMAP item 1; the `binarized_fc_layer` trick).
 *
 * A {-1, +1} weight row is stored as sign bits in `uint64_t` lanes
 * (bit = 1 <=> weight +1); a binary activation row packs the same
 * way. Because the XNOR-Net product over binary activations is
 *
 *     B . x  =  (+1 matches) - (-1 matches)
 *            =  2 * popcount(x & signs) - popcount(x)
 *
 * one 64-lane AND + popcount replaces 64 scalar multiply-adds. The
 * kernels are batch-major: the outer loop walks output neurons, so
 * each packed weight row is fetched once and streamed across the
 * whole serving batch.
 *
 * Every kernel has two backends computing *bit-identical* results:
 *
 *  - Backend::Scalar — the oracle. Walks the sign bits one element
 *    at a time and accumulates the integer dot product exactly as
 *    the pre-packed element-by-element code did.
 *  - Backend::Packed — the XNOR/popcount fast path.
 *
 * Both backends share one float epilogue (`bias + alpha * dot`) and
 * the dot product is exact integer arithmetic in either, so packed
 * vs. scalar equality is bitwise — the property the differential
 * fuzzer in tests/test_packed_snn.cc hammers. Library call sites
 * (BinarySnn::stepForward, SnnMlp::forwardWith) always pass
 * Backend::Packed; the scalar backend is the tests' and
 * bench_snn_throughput's explicit reference.
 *
 * Tail handling: for in_dim not a multiple of 64 the final lane's
 * high bits are zero in both the packed weights and every packed
 * activation row, so they never contribute to popcounts. Activation
 * packing is the single place that enforces the invariant.
 */

#ifndef SUSHI_SNN_PACKED_HH
#define SUSHI_SNN_PACKED_HH

#include <cstdint>
#include <vector>

#include "snn/tensor.hh"

namespace sushi::snn::packed {

/** Kernel implementation selector. */
enum class Backend
{
    Scalar, ///< element-by-element integer dot (the oracle)
    Packed, ///< XNOR + popcount over uint64_t lanes
};

/** Lanes needed for @p bits packed 64 per word. */
inline std::size_t
laneWords(std::size_t bits)
{
    return (bits + 63) / 64;
}

/**
 * A batch of binary activation rows packed into uint64_t lanes,
 * bit i of row b = (activation i of sample b != 0). Tail bits past
 * `bits` are zero. `active[b]` caches popcount(row b) — the term
 * that turns a popcount into a signed dot product.
 */
struct PackedActivations
{
    std::size_t batch = 0;
    std::size_t bits = 0;
    std::size_t words = 0;
    std::vector<std::uint64_t> lanes; ///< [batch x words]
    std::vector<std::int32_t> active; ///< per-row set-bit count

    const std::uint64_t *row(std::size_t b) const
    {
        return lanes.data() + b * words;
    }
};

/** Pack @p batch rows of @p bits uint8 activations (nonzero = 1). */
void packRows(const std::uint8_t *const *rows, std::size_t batch,
              std::size_t bits, PackedActivations &out);

/** Pack one uint8 frame (batch of one). */
void packRow(const std::vector<std::uint8_t> &frame,
             PackedActivations &out);

/**
 * Pack a [batch x bits] float tensor whose entries are exactly 0.0f
 * or 1.0f (spike frames; -0.0f counts as 0). Four entries per SSE
 * compare + movemask on x86-64.
 * @return false (out unspecified) if any entry is neither — the
 *         caller must fall back to the dense float path.
 */
bool packFloatRows(const Tensor &x, PackedActivations &out);

/**
 * One fully-connected layer with {-1, +1} weights packed as sign
 * bits. Carries integer firing thresholds (spikeForward, built from
 * a binarized layer) and/or the XNOR-Net float epilogue alpha/bias
 * (effectiveForward, built from effective weights).
 *
 * Construction is *validating*: inputs without the exact binary
 * structure yield packable() == false and the caller keeps its
 * scalar path. This is what makes the wiring safe to leave on by
 * default — a zero weight, a non-uniform row, or a NaN can never
 * silently change results.
 */
class PackedLayer
{
  public:
    PackedLayer() = default;

    /**
     * Build from signed int8 weights [out][in] and integer firing
     * thresholds. packable() == false if any weight is not -1/+1.
     */
    static PackedLayer
    fromSigned(const std::vector<std::vector<std::int8_t>> &weights,
               const std::vector<int> &thresholds);

    /**
     * Build from XNOR-Net effective float weights: every row must be
     * exactly +-alpha_o with alpha_o > 0 (binaryEffectiveWeights
     * output). packable() == false otherwise.
     */
    static PackedLayer fromEffective(const Tensor &w,
                                     const std::vector<float> &bias);

    /**
     * Binarize float weights XNOR-Net style in one pass, without the
     * dense effective weights: sign bit = binaryPositive(w) and
     * alpha_o = float(rowAlphas(w)[o]). Equals
     * fromEffective(binaryEffectiveWeights(w), bias) in signs, alpha,
     * bias and packable(): packable() == false iff a row's float
     * alpha is not > 0 (a mean |w| that rounds to zero), or the
     * shapes disagree.
     */
    static PackedLayer fromFloat(const Tensor &w,
                                 const std::vector<float> &bias);

    bool packable() const { return packable_; }
    std::size_t inDim() const { return in_dim_; }
    std::size_t outDim() const { return out_dim_; }
    std::size_t words() const { return words_; }

    /** Sign lanes of output neuron @p o (bit = 1 <=> weight +1). */
    const std::uint64_t *signRow(std::size_t o) const
    {
        return signs_.data() + o * words_;
    }

    /** Integer firing thresholds (fromSigned only). */
    const std::vector<int> &thresholds() const { return thresholds_; }

    /** Per-row alpha / bias epilogue (fromEffective, fromFloat). */
    const std::vector<float> &alpha() const { return alpha_; }
    const std::vector<float> &bias() const { return bias_; }

    /** Signed dot product of neuron @p o with a packed row. */
    int dot(std::size_t o, const std::uint64_t *x,
            std::int32_t active) const;

  private:
    std::size_t in_dim_ = 0;
    std::size_t out_dim_ = 0;
    std::size_t words_ = 0;
    bool packable_ = false;
    std::vector<std::uint64_t> signs_; ///< [out x words], tail zero
    std::vector<int> thresholds_;
    std::vector<float> alpha_;
    std::vector<float> bias_;
};

/**
 * Stateless binarized FC forward: spikes[b * outDim + o] =
 * (B_o . x_b >= threshold_o). Layer must come from fromSigned.
 * Batch-major; optionally threaded over output neurons via
 * common/parallel (@p threads <= 0 uses the shared pool width,
 * 1 forces sequential). Results are bit-identical across backends
 * and thread counts.
 */
void spikeForward(const PackedLayer &layer,
                  const PackedActivations &x, std::uint8_t *spikes,
                  Backend backend, int threads = 1);

/**
 * Float binary-dense forward for the binarization-aware trainer:
 * out(b, o) = bias_o + alpha_o * (B_o . x_b). Layer must come from
 * fromEffective or fromFloat; out must be [batch x outDim]. The
 * packed backend runs batch lanes: the activations word-major, each
 * neuron's sign word against a whole vector of samples per popcount.
 * Same determinism contract as spikeForward.
 */
void effectiveForward(const PackedLayer &layer,
                      const PackedActivations &x, Tensor &out,
                      Backend backend, int threads = 0);

} // namespace sushi::snn::packed

#endif // SUSHI_SNN_PACKED_HH
