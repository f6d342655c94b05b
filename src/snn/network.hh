/**
 * @file
 * The floating-point reference SNN (the SpikingJelly stand-in).
 *
 * Architecture of paper Sec. 6: INPUT 28*28 - Flatten - FC(H) - IF -
 * FC(10) - IF, integrate-and-fire neurons with threshold 1.0, hard
 * reset to 0 (paper Eqs. (1)-(3)), simulated for T time steps with
 * rate-coded outputs. Table 3's "SpikingJelly" column is produced by
 * this model; the "SUSHI" column by its binarized, stateless,
 * bit-sliced derivative running on the chip model.
 */

#ifndef SUSHI_SNN_NETWORK_HH
#define SUSHI_SNN_NETWORK_HH

#include <cstdint>
#include <vector>

#include "snn/tensor.hh"

namespace sushi::snn {

/** Network geometry and neuron parameters. */
struct SnnConfig
{
    std::size_t input = 28 * 28;
    std::size_t hidden = 800;
    std::size_t output = 10;
    int t_steps = 5;
    float threshold = 1.0f;
    /** Arctan surrogate sharpness (SpikingJelly default 2.0). */
    float surrogate_alpha = 2.0f;
    /**
     * Stateless neurons (paper Sec. 5.1): the membrane potential is
     * reset to zero at the end of every time step, so no residual is
     * carried — the superconducting-circuit-friendly model. When
     * false, the standard stateful IF of Eqs. (1)-(3) is used (the
     * SpikingJelly reference behaviour).
     */
    bool stateless = false;
};

/** Per-step activations recorded for BPTT, [T][B x width] each (the
 *  input frames are the caller's own). */
struct ForwardTrace
{
    std::vector<Tensor> v1_pre; ///< hidden membrane before firing
    std::vector<Tensor> s1;     ///< hidden spikes
    std::vector<Tensor> v2_pre; ///< output membrane before firing
    std::vector<Tensor> s2;     ///< output spikes
};

/** Two-layer fully-connected IF spiking network. */
class SnnMlp
{
  public:
    SnnMlp(const SnnConfig &cfg, std::uint64_t seed);

    const SnnConfig &config() const { return cfg_; }

    /// @name Parameters (exposed for the trainer and binarizer).
    /// @{
    Tensor w1;               ///< [hidden x input]
    std::vector<float> b1;   ///< [hidden]
    Tensor w2;               ///< [output x hidden]
    std::vector<float> b2;   ///< [output]
    /// @}

    /**
     * Run the network over pre-encoded spike frames.
     * @param frames frames[t] is a [B x input] 0/1 matrix
     * @param trace  if non-null, filled with per-step activations
     *               (its tensors are reused when the shapes match)
     * @return output spike counts [B x output]
     * @throws std::invalid_argument unless there are t_steps frames,
     *         each input wide, all with the same number of rows (so
     *         also forwardWith, forwardBinary and predict)
     */
    Tensor forward(const std::vector<Tensor> &frames,
                   ForwardTrace *trace = nullptr) const;

    /**
     * Forward pass with explicit weight tensors, e.g. the XNOR-Net
     * effective weights alpha * sign(w) (binaryEffectiveWeights). The
     * popcount path runs when both tensors have that structure.
     */
    Tensor forwardWith(const Tensor &eff_w1, const Tensor &eff_w2,
                       const std::vector<Tensor> &frames,
                       ForwardTrace *trace = nullptr) const;

    /**
     * The binarization-aware trainer's forward: forwardWith the
     * XNOR-Net effective weights of w1 and w2, bit for bit, but with
     * both layers packed straight from the float weights
     * (PackedLayer::fromFloat). The dense effective weights are built
     * only when the popcount path cannot run.
     */
    Tensor forwardBinary(const std::vector<Tensor> &frames,
                         ForwardTrace *trace = nullptr) const;

    /** Argmax-of-counts prediction per batch row. */
    std::vector<int> predict(const std::vector<Tensor> &frames) const;

  private:
    SnnConfig cfg_;
};

/** Arctan surrogate-gradient derivative at @p v (centred at 0).
 *  Inline, so the trainer's loops over it vectorise. */
inline float
surrogateGrad(float v, float alpha)
{
    const float half_pi_alpha = 1.5707963f * alpha;
    const float z = half_pi_alpha * v;
    return alpha / (2.0f * (1.0f + z * z));
}

} // namespace sushi::snn

#endif // SUSHI_SNN_NETWORK_HH
