#include "snn/train.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "snn/binarize.hh"

namespace sushi::snn {

Adam::Adam(std::size_t size, float lr, float beta1, float beta2,
           float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      m_(size, 0.0f), v_(size, 0.0f)
{
}

void
Adam::step(float *params, const float *grads_t, std::size_t rows,
           std::size_t cols)
{
    sushi_assert(rows * cols == m_.size());
    ++t_;
    const float bc1 =
        1.0f - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 =
        1.0f - std::pow(beta2_, static_cast<float>(t_));
    // Transpose a band of kBand rows at a time, in kBand x kBand
    // tiles that stay in L1, then update the band as one run.
    constexpr std::size_t kBand = 16;
    std::vector<float> band(kBand * cols);
    for (std::size_t r0 = 0; r0 < rows; r0 += kBand) {
        const std::size_t n = std::min(kBand, rows - r0);
        for (std::size_t c0 = 0; c0 < cols; c0 += kBand) {
            const std::size_t c1 = std::min(cols, c0 + kBand);
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t c = c0; c < c1; ++c)
                    band[r * cols + c] = grads_t[c * rows + r0 + r];
        }
        float *p = params + r0 * cols;
        float *m = m_.data() + r0 * cols;
        float *v = v_.data() + r0 * cols;
        for (std::size_t i = 0; i < n * cols; ++i) {
            const float g = band[i];
            m[i] = beta1_ * m[i] + (1.0f - beta1_) * g;
            v[i] = beta2_ * v[i] + (1.0f - beta2_) * g * g;
            const float mhat = m[i] / bc1;
            const float vhat = v[i] / bc2;
            p[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
        }
    }
}

Trainer::Trainer(SnnMlp &net, const TrainConfig &cfg)
    : net_(net), cfg_(cfg),
      opt_w1_(net.w1.size(), cfg.lr),
      opt_b1_(net.b1.size(), cfg.lr),
      opt_w2_(net.w2.size(), cfg.lr),
      opt_b2_(net.b2.size(), cfg.lr),
      gw1t_(net.config().input, net.config().hidden)
{
    if (cfg.batch == 0)
        throw std::invalid_argument("training batch size 0");
}

namespace {

/** dv = ds * surrogateGrad(v_pre - theta) + gv * (1 - s): the
 *  membrane gradient through the fire and the detached reset. */
void
membraneGrad(const Tensor &ds, const Tensor &v_pre, const Tensor &s,
             const Tensor &gv, float theta, float alpha, Tensor &dv)
{
    const float *dsp = ds.data(), *vp = v_pre.data(), *sp = s.data();
    const float *gvp = gv.data();
    float *dvp = dv.data();
    const std::size_t n = dv.size();
    for (std::size_t i = 0; i < n; ++i)
        dvp[i] = dsp[i] * surrogateGrad(vp[i] - theta, alpha) +
                 gvp[i] * (1.0f - sp[i]);
}

/** Throw std::invalid_argument unless there is one label per image. */
void
checkLabels(const Tensor &images, const std::vector<int> &labels)
{
    if (images.rows() != labels.size())
        throw std::invalid_argument(
            std::to_string(images.rows()) + " images but " +
            std::to_string(labels.size()) + " labels");
}

} // namespace

std::pair<double, std::size_t>
Trainer::step(const std::vector<Tensor> &frames,
              const std::vector<int> &labels)
{
    const SnnConfig &cfg = net_.config();
    const int t_steps = cfg.t_steps;
    const float theta = cfg.threshold;

    // Binarization-aware forward: run with the XNOR-Net effective
    // weights; gradients flow to the float shadow weights (STE). The
    // forward checks the frames before any weight changes.
    const Tensor counts = cfg_.binary_aware
                              ? net_.forwardBinary(frames, &trace_)
                              : net_.forward(frames, &trace_);
    const std::size_t batch = counts.rows();
    if (labels.size() != batch)
        throw std::invalid_argument(
            std::to_string(batch) + " samples but " +
            std::to_string(labels.size()) + " labels");
    // The output layer's input gradient runs through the weights the
    // forward used.
    const Tensor eff_w2 =
        cfg_.binary_aware ? binaryEffectiveWeights(net_.w2) : Tensor();
    const Tensor &fw2 = cfg_.binary_aware ? eff_w2 : net_.w2;

    // Rate-coded MSE loss: L = mean((counts/T - onehot)^2).
    const double denom =
        static_cast<double>(batch) * static_cast<double>(cfg.output);
    double loss = 0.0;
    std::size_t correct = 0;
    Tensor dcounts(batch, cfg.output); // dL/dcounts
    for (std::size_t b = 0; b < batch; ++b) {
        const float *row = counts.row(b);
        int best = 0;
        for (std::size_t c = 0; c < cfg.output; ++c) {
            const float rate =
                row[c] / static_cast<float>(t_steps);
            const float target =
                labels[b] == static_cast<int>(c) ? 1.0f : 0.0f;
            const float err = rate - target;
            loss += static_cast<double>(err) * err;
            dcounts.at(b, c) =
                2.0f * err /
                static_cast<float>(denom * t_steps);
            if (row[c] > row[static_cast<std::size_t>(best)])
                best = static_cast<int>(c);
        }
        correct += best == labels[b] ? 1 : 0;
    }
    loss /= denom;

    // BPTT with detached reset: walk time backwards, carrying the
    // membrane gradient gv through v_pre[t] = v_after[t-1] + h[t],
    // v_after = v_pre * (1 - s) (s detached in the reset term).
    // Weight gradients accumulate transposed, [in x out].
    gw1t_.zero();
    Tensor gw2t(cfg.hidden, cfg.output);
    std::vector<float> gb1(cfg.hidden, 0.0f), gb2(cfg.output, 0.0f);
    Tensor gv1(batch, cfg.hidden), gv2(batch, cfg.output);
    Tensor dv2(batch, cfg.output), dv1(batch, cfg.hidden);
    Tensor ds1(batch, cfg.hidden);

    for (int t = t_steps - 1; t >= 0; --t) {
        const auto ti = static_cast<std::size_t>(t);
        const Tensor &v2p = trace_.v2_pre[ti];
        const Tensor &s2 = trace_.s2[ti];
        // dL/dv2_pre = dL/ds2 * surrogate + gv2 * (1 - s2).
        membraneGrad(dcounts, v2p, s2, gv2, theta, cfg.surrogate_alpha,
                     dv2);
        if (cfg.stateless)
            gv2.zero(); // no membrane carry between steps
        else
            gv2 = dv2; // carried to t-1 through the charge equation

        // Through the output linear layer into hidden spikes (the
        // effective weights are what the forward pass used).
        linearWeightGrad(trace_.s1[ti], dv2, gw2t, gb2);
        linearInputGrad(fw2, dv2, ds1);

        const Tensor &v1p = trace_.v1_pre[ti];
        const Tensor &s1 = trace_.s1[ti];
        membraneGrad(ds1, v1p, s1, gv1, theta, cfg.surrogate_alpha, dv1);
        if (cfg.stateless)
            gv1.zero();
        else
            gv1 = dv1;

        // Into the first linear layer; its input gradient is not
        // needed.
        linearWeightGrad(frames[ti], dv1, gw1t_, gb1);
    }

    opt_w1_.step(net_.w1.data(), gw1t_.data(), cfg.hidden, cfg.input);
    opt_b1_.step(net_.b1.data(), gb1.data(), gb1.size(), 1);
    opt_w2_.step(net_.w2.data(), gw2t.data(), cfg.output, cfg.hidden);
    opt_b2_.step(net_.b2.data(), gb2.data(), gb2.size(), 1);

    return {loss, correct};
}

TrainStats
Trainer::fit(const Tensor &images, const std::vector<int> &labels)
{
    checkLabels(images, labels);
    if (images.rows() == 0)
        throw std::invalid_argument("no training images");
    if (images.cols() != net_.config().input)
        throw std::invalid_argument(
            "images are " + std::to_string(images.cols()) +
            " wide, the network input " +
            std::to_string(net_.config().input));
    const std::size_t n = images.rows();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    Rng shuffle_rng(cfg_.shuffle_seed);
    PoissonEncoder encoder(cfg_.encoder_seed);

    TrainStats stats;
    for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
        // Fisher-Yates shuffle.
        for (std::size_t i = n - 1; i > 0; --i) {
            const std::size_t j = shuffle_rng.below(i + 1);
            std::swap(order[i], order[j]);
        }
        double epoch_loss = 0.0;
        std::size_t epoch_correct = 0, batches = 0;
        for (std::size_t start = 0; start < n;
             start += cfg_.batch) {
            const std::size_t end =
                std::min(n, start + cfg_.batch);
            const std::size_t bsz = end - start;
            Tensor batch_images(bsz, images.cols());
            std::vector<int> batch_labels(bsz);
            for (std::size_t b = 0; b < bsz; ++b) {
                const std::size_t src = order[start + b];
                std::copy_n(images.row(src), images.cols(),
                            batch_images.row(b));
                batch_labels[b] = labels[src];
            }
            auto frames = encoder.encodeBatch(
                batch_images, net_.config().t_steps);
            auto [loss, correct] = step(frames, batch_labels);
            epoch_loss += loss;
            epoch_correct += correct;
            ++batches;
        }
        stats.epoch_loss.push_back(epoch_loss /
                                   static_cast<double>(batches));
        stats.epoch_train_acc.push_back(
            static_cast<double>(epoch_correct) /
            static_cast<double>(n));
        if (cfg_.verbose) {
            sushi_inform("epoch %d: loss %.5f acc %.4f", epoch,
                         stats.epoch_loss.back(),
                         stats.epoch_train_acc.back());
        }
    }
    return stats;
}

double
evaluate(const SnnMlp &net, const Tensor &images,
         const std::vector<int> &labels, std::uint64_t encoder_seed)
{
    checkLabels(images, labels);
    PoissonEncoder encoder(encoder_seed);
    const std::size_t n = images.rows();
    const std::size_t batch = 256;
    std::size_t correct = 0;
    for (std::size_t start = 0; start < n; start += batch) {
        const std::size_t end = std::min(n, start + batch);
        const std::size_t bsz = end - start;
        Tensor batch_images(bsz, images.cols());
        for (std::size_t b = 0; b < bsz; ++b)
            std::copy_n(images.row(start + b), images.cols(),
                        batch_images.row(b));
        auto frames =
            encoder.encodeBatch(batch_images, net.config().t_steps);
        auto preds = net.predict(frames);
        for (std::size_t b = 0; b < bsz; ++b)
            correct += preds[b] == labels[start + b] ? 1 : 0;
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

} // namespace sushi::snn
