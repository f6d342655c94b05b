/**
 * @file
 * Surrogate-gradient BPTT trainer with the Adam optimizer.
 *
 * Mirrors the paper's training setup (Sec. 6): adam, learning rate
 * 1e-3, rate-coded MSE loss against one-hot targets over T time
 * steps, arctan surrogate gradients (the SpikingJelly defaults), and
 * detached reset (gradients do not flow through the hard reset).
 */

#ifndef SUSHI_SNN_TRAIN_HH
#define SUSHI_SNN_TRAIN_HH

#include <cstdint>
#include <vector>

#include "snn/encoder.hh"
#include "snn/network.hh"

namespace sushi::snn {

/** Adam optimizer state for one parameter tensor. */
class Adam
{
  public:
    Adam(std::size_t size, float lr = 1e-3f, float beta1 = 0.9f,
         float beta2 = 0.999f, float eps = 1e-8f);

    /**
     * Apply one update, params -= lr * mhat / (sqrt(vhat) + eps), to
     * a [rows x cols] parameter matrix whose gradient @p grads_t is
     * stored transposed, [cols x rows]. A vector is rows = size,
     * cols = 1.
     */
    void step(float *params, const float *grads_t, std::size_t rows,
              std::size_t cols);

  private:
    float lr_, beta1_, beta2_, eps_;
    long t_ = 0;
    std::vector<float> m_, v_;
};

/** Training hyper-parameters. */
struct TrainConfig
{
    float lr = 1e-3f;
    int epochs = 3;
    std::size_t batch = 64;
    std::uint64_t shuffle_seed = 11;
    std::uint64_t encoder_seed = 7;
    /** Print per-epoch progress via inform(). */
    bool verbose = false;
    /**
     * XNOR-Net binarization-aware training (paper Sec. 5.1): the
     * forward pass runs with alpha * sign(w) effective weights while
     * gradients update the float shadow weights through a
     * straight-through estimator.
     */
    bool binary_aware = true;
};

/** Per-epoch training curve. */
struct TrainStats
{
    std::vector<double> epoch_loss;
    std::vector<double> epoch_train_acc;
};

/** Trains an SnnMlp in place. Every check below throws before any
 *  weight or optimizer state changes. */
class Trainer
{
  public:
    /** @throws std::invalid_argument if cfg.batch is 0 */
    Trainer(SnnMlp &net, const TrainConfig &cfg);

    /**
     * One gradient step on a batch of pre-encoded frames.
     * @param frames frames[t] is [B x input]
     * @param labels B class indices
     * @return (mse loss, correct predictions)
     * @throws std::invalid_argument on frames SnnMlp::forward refuses
     *         or a label count other than B
     */
    std::pair<double, std::size_t>
    step(const std::vector<Tensor> &frames,
         const std::vector<int> &labels);

    /**
     * Full training loop over an image set.
     * @param images [N x input] intensities in [0, 1]
     * @param labels N class indices
     * @throws std::invalid_argument if N is 0, the images are not
     *         input wide, or there are not N labels
     */
    TrainStats fit(const Tensor &images, const std::vector<int> &labels);

  private:
    SnnMlp &net_;
    TrainConfig cfg_;
    Adam opt_w1_, opt_b1_, opt_w2_, opt_b2_;
    /** The large buffers every step rewrites, kept so that a step
     *  does not fault in megabytes of fresh pages. */
    ForwardTrace trace_;
    Tensor gw1t_; ///< hidden-layer weight gradient, [input x hidden]
};

/**
 * Accuracy of @p net on an image set (Poisson-encoded with
 * @p encoder_seed, batched internally).
 * @throws std::invalid_argument if there is not one label per image
 *         or the images are not the network's input wide
 */
double evaluate(const SnnMlp &net, const Tensor &images,
                const std::vector<int> &labels,
                std::uint64_t encoder_seed = 99);

} // namespace sushi::snn

#endif // SUSHI_SNN_TRAIN_HH
